"""The deterministic fault executor the hardware models consult.

The :class:`FaultInjector` is planted on the switch (``switch.faults``)
and every adapter (``adapter.faults``) by :func:`install_faults`.  The
hardware asks it, per packet:

* :meth:`at_switch` — should the fabric drop / duplicate / reorder /
  corrupt this packet?  Returns a :class:`FaultAction` (duck-typed, so
  the hardware imports nothing from this package);
* :meth:`at_rx` — should the receive FIFO pretend to be full?
* :meth:`tx_stall_us` — how long should the send-DMA service stall?

Every injection is appended to :attr:`FaultInjector.injected` *and*
reported to the observability hub (``obs.fault``), so a campaign can be
reconciled event-for-event: the soak harness asserts that each injected
fault shows up in the obs log with the victim packet's trace_id.

Randomness comes from one ``random.Random(plan.seed)`` consumed in
packet-arrival order; since the simulator is deterministic, so is every
campaign.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.faults.plan import SWITCH_KINDS, FaultPlan, FaultRule
from repro.hardware.packet import Packet


@dataclass(frozen=True)
class InjectedFault:
    """One fault that actually fired (the injector's own ledger)."""

    kind: str
    t: float
    packet_kind: str
    trace_id: int
    seq: int
    src: int
    dst: int


@dataclass(frozen=True)
class FaultAction:
    """What the switch should do to the current packet.

    ``packet`` carries the replacement clone for ``corrupt`` and the
    extra copy for ``duplicate``; ``delay_us`` the reorder hold.
    """

    kind: str
    delay_us: float = 0.0
    packet: Optional[Packet] = None


def _corrupted(pkt: Packet) -> Packet:
    """A clone stamped with the CRC of the original contents, then with
    bits flipped — the receive adapter's CRC check must reject it.

    This is the only place a packet's bytes change in flight, so it is
    the only place a CRC is stamped: unstamped packets skip the check.
    """
    bad = pkt.clone()
    bad.checksum = pkt.compute_checksum()
    if bad.payload:
        flipped = bytearray(bad.payload)
        flipped[0] ^= 0x40
        bad.payload = bytes(flipped)
    else:
        # header corruption: flip a handler bit (covered by the CRC)
        bad.handler ^= 0x1
    return bad


class FaultInjector:
    """Executes a :class:`FaultPlan` deterministically; records firings."""

    def __init__(self, plan: FaultPlan, obs=None):
        self.plan = plan
        self.obs = obs
        self._rng = random.Random(plan.seed)
        self.injected: List[InjectedFault] = []
        #: matching packets seen per rule (drives ``after``)
        self._seen: Dict[int, int] = {i: 0 for i in range(len(plan.rules))}
        #: firings per rule (drives per-rule budgets)
        self._fired: Dict[int, int] = {i: 0 for i in range(len(plan.rules))}
        #: rules pre-split by injection site (FaultPlan is frozen, so the
        #: split can't go stale); the sites run per packet and most plans
        #: use one or two kinds, so scanning the full rule list each time
        #: would mostly be skips
        rules = list(enumerate(plan.rules))
        self._switch_rules = [(i, r) for i, r in rules
                              if r.kind in SWITCH_KINDS]
        self._rx_rules = [(i, r) for i, r in rules if r.kind == "rx_overflow"]
        self._tx_rules = [(i, r) for i, r in rules if r.kind == "tx_stall"]

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    @property
    def total_injected(self) -> int:
        return len(self.injected)

    @property
    def budget_left(self) -> Optional[int]:
        if self.plan.budget is None:
            return None
        return self.plan.budget - self.total_injected

    def counts(self) -> Dict[str, int]:
        """Injections per fault kind."""
        out: Dict[str, int] = {}
        for f in self.injected:
            out[f.kind] = out.get(f.kind, 0) + 1
        return out

    def _record(self, rule_idx: int, rule: FaultRule, pkt: Packet,
                now: float) -> None:
        self._fired[rule_idx] += 1
        self.injected.append(InjectedFault(
            kind=rule.kind, t=now,
            packet_kind=getattr(pkt.kind, "name", str(pkt.kind)),
            trace_id=pkt.trace_id, seq=pkt.seq, src=pkt.src, dst=pkt.dst))
        if self.obs is not None:
            self.obs.fault(pkt, rule.kind, now)

    # ------------------------------------------------------------------
    # rule evaluation
    # ------------------------------------------------------------------

    def _matches(self, rule: FaultRule, pkt: Packet) -> bool:
        if rule.packet_kinds is not None and pkt.kind not in rule.packet_kinds:
            return False
        if rule.seqs is not None and pkt.seq not in rule.seqs:
            return False
        if rule.trace_ids is not None and pkt.trace_id not in rule.trace_ids:
            return False
        return True

    def _try_fire(self, rule_idx: int, rule: FaultRule, pkt: Packet,
                  now: float) -> bool:
        """Match → after-skip → budget → rate draw; True if it fires."""
        if not self._matches(rule, pkt):
            return False
        self._seen[rule_idx] += 1
        if self._seen[rule_idx] <= rule.after:
            return False
        if rule.budget is not None and self._fired[rule_idx] >= rule.budget:
            return False
        if self.budget_left is not None and self.budget_left <= 0:
            return False
        if rule.rate >= 1.0:
            fire = True
        elif rule.rate <= 0.0:
            fire = False
        else:
            fire = self._rng.random() < rule.rate
        if fire:
            self._record(rule_idx, rule, pkt, now)
        return fire

    # ------------------------------------------------------------------
    # injection sites
    # ------------------------------------------------------------------

    def at_switch(self, pkt: Packet, now: float) -> Optional[FaultAction]:
        """Fabric faults; at most one per packet, first firing rule wins."""
        for i, rule in self._switch_rules:
            if not self._try_fire(i, rule, pkt, now):
                continue
            if rule.kind == "drop":
                return FaultAction("drop")
            if rule.kind == "reorder":
                # jitter the hold so two held packets don't re-collide
                hold = rule.delay_us * (0.5 + self._rng.random())
                return FaultAction("reorder", delay_us=hold)
            if rule.kind == "duplicate":
                return FaultAction("duplicate", delay_us=rule.delay_us,
                                   packet=pkt.clone())
            return FaultAction("corrupt", packet=_corrupted(pkt))
        return None

    def at_rx(self, pkt: Packet, now: float) -> bool:
        """Forced receive-FIFO overflow on the destination adapter."""
        for i, rule in self._rx_rules:
            if self._try_fire(i, rule, pkt, now):
                return True
        return False

    def tx_stall_us(self, pkt: Packet, now: float) -> float:
        """Extra send-DMA service time on the source adapter."""
        for i, rule in self._tx_rules:
            if self._try_fire(i, rule, pkt, now):
                return rule.delay_us
        return 0.0


def install_faults(machine, plan: FaultPlan) -> FaultInjector:
    """Wire ``plan`` into a built machine (switch + every adapter).

    Uses the machine's observability hub if one is attached, so every
    injection doubles as an obs fault event.
    """
    if machine.switch is None:
        raise ValueError("fault injection needs an SP machine (switch fabric)")
    inj = FaultInjector(plan, obs=machine.obs)
    machine.switch.faults = inj
    for node in machine.nodes:
        if node.adapter is not None:
            node.adapter.faults = inj
    return inj
