"""Declarative fault plans: *what* to break, seeded so runs replay.

A :class:`FaultPlan` is a seed plus an ordered tuple of
:class:`FaultRule`.  Each rule names one fault kind, where it applies,
how often it fires, and how many times it may fire; the plan may also
carry a global budget across all rules.  Plans are frozen dataclasses:
the same plan against the same (deterministic) simulation injects the
same faults at the same packets, which is what makes chaos campaigns
debuggable and CI-able.

Fault kinds and their injection sites:

=============  ==========================  =====================================
kind           site                        effect
=============  ==========================  =====================================
``drop``       switch fabric               packet vanishes
``duplicate``  switch fabric               a clone is delivered as well
``reorder``    switch fabric               delivery held ``delay_us`` so later
                                           packets overtake
``corrupt``    switch fabric               payload/header bits flipped on a
                                           clone; the receive adapter's CRC
                                           check drops it (like the TB2's
                                           hardware CRC)
``rx_overflow``  adapter receive path      forced receive-FIFO overflow drop
``tx_stall``   adapter send-DMA path       TX service stalls ``delay_us``
=============  ==========================  =====================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

#: every fault kind a rule may name, in documentation order
FAULT_KINDS: Tuple[str, ...] = (
    "drop", "duplicate", "reorder", "corrupt", "rx_overflow", "tx_stall",
)

#: kinds evaluated in the switch fabric
SWITCH_KINDS: FrozenSet[str] = frozenset(
    {"drop", "duplicate", "reorder", "corrupt"})


@dataclass(frozen=True)
class FaultRule:
    """One kind of fault with its trigger and bounds.

    A rule *matches* a packet when every given filter passes
    (``packet_kinds`` by :class:`~repro.hardware.packet.PacketKind`,
    ``seqs`` by sequence number, ``trace_ids`` by observability id) and
    at least ``after`` earlier matching packets have been seen.  A
    matching packet then *fires* with probability ``rate`` (1.0 =
    always, making seq/trace-targeted rules deterministic triggers),
    until the rule's ``budget`` — and the plan's — is spent.
    """

    kind: str
    rate: float = 1.0
    budget: Optional[int] = None
    packet_kinds: Optional[frozenset] = None
    seqs: Optional[frozenset] = None
    trace_ids: Optional[frozenset] = None
    #: skip the first ``after`` matching packets (count-targeted faults:
    #: "drop the 5th STORE_DATA" = after=4, budget=1)
    after: int = 0
    #: reorder hold / TX stall length, microseconds
    delay_us: float = 80.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; one of {FAULT_KINDS}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate {self.rate} outside [0, 1]")
        if self.budget is not None and self.budget < 0:
            raise ValueError(f"negative budget {self.budget}")
        if self.after < 0:
            raise ValueError(f"negative after {self.after}")
        if self.delay_us < 0:
            raise ValueError(f"negative delay_us {self.delay_us}")


@dataclass(frozen=True)
class FaultPlan:
    """A seed, an ordered rule set, and an overall fault budget."""

    seed: int
    rules: Tuple[FaultRule, ...] = ()
    #: cap on total injections across every rule (None = unbounded)
    budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.budget is not None and self.budget < 0:
            raise ValueError(f"negative plan budget {self.budget}")
        object.__setattr__(self, "rules", tuple(self.rules))

    @staticmethod
    def loss(seed: int, rate: float) -> "FaultPlan":
        """Uniform fabric loss at ``rate`` — the classic campaign."""
        return FaultPlan(seed=seed, rules=(
            FaultRule(kind="drop", rate=rate),))

    @staticmethod
    def chaos(seed: int, rate: float, delay_us: float = 80.0) -> "FaultPlan":
        """Every fault kind at once, each at ``rate`` — the soak's
        adversarial mix (corruption slightly rarer: each corrupt costs a
        full go-back-N round)."""
        return FaultPlan(seed=seed, rules=(
            FaultRule(kind="drop", rate=rate),
            FaultRule(kind="duplicate", rate=rate),
            FaultRule(kind="reorder", rate=rate, delay_us=delay_us),
            FaultRule(kind="corrupt", rate=rate / 2),
            FaultRule(kind="rx_overflow", rate=rate / 2),
            FaultRule(kind="tx_stall", rate=rate / 2, delay_us=delay_us),
        ))
