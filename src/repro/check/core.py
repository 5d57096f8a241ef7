"""Invariant checkers and the Sanitizer that plants them (see package doc).

Each checker shadows one component with redundant bookkeeping derived only
from the hook stream, then cross-checks the component's own state against
it.  A violation therefore names the *first operation* at which the two
disagree — the op that broke the invariant — rather than the much later
point where corrupted state happens to explode.

Checker kinds (the ``only=`` vocabulary of :class:`Sanitizer`):

* ``fifo``    — send/receive FIFO slot conservation (§2.1)
* ``window``  — go-back-N credit, ack alignment, exactly-once (§2.2)
* ``request`` — MPI request lifecycle posted→matched→completed (§4.1)
* ``alloc``   — receiver-region allocate/free conservation (§4.1–4.2)
* ``sched``   — event execution in strict (time, seq) order
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.hardware.packet import FIELDS, _field_values
from repro.sim.engine import TimerHandle

#: multiplier of the rolling delivery digest (a prime, per FNV-style mixes)
_DIGEST_MULT = 1000003
_DIGEST_MASK = (1 << 61) - 1


class InvariantViolation(AssertionError):
    """An invariant the sanitizer watches was broken.

    ``checker`` names the instrumented component (e.g.
    ``send_window[0->2 ch0]``), ``op`` the hook at which the redundant
    bookkeeping and the component disagreed.
    """

    def __init__(self, checker: str, op: str, msg: str):
        self.checker = checker
        self.op = op
        self.msg = msg
        super().__init__(f"[{checker}.{op}] {msg}")


class _Check:
    """Base checker: counts checks, reports violations to the sanitizer."""

    kind = "?"

    def __init__(self, san: "Sanitizer", name: str):
        self.san = san
        self.name = name
        #: hook invocations — campaigns assert these are > 0, so a checker
        #: that silently detached would fail the run, not pass it
        self.checks = 0
        san._checkers.append(self)

    def fail(self, op: str, msg: str) -> None:
        self.san._report(InvariantViolation(self.name, op, msg))


# ---------------------------------------------------------------------------
# hardware FIFOs (§2.1)
# ---------------------------------------------------------------------------


class SendFifoCheck(_Check):
    """Slot conservation of the host send FIFO: every packet is staged,
    then armed, then taken, and ``occupied`` equals staged-minus-taken."""

    kind = "fifo"

    def __init__(self, san, name, fifo):
        super().__init__(san, name)
        self.fifo = fifo
        self.staged = 0
        self.armed = 0
        self.taken = 0

    def _conserved(self, op, fifo):
        if self.taken > self.armed:
            self.fail(op, f"took {self.taken} packets but only "
                          f"{self.armed} were armed")
        if self.armed > self.staged:
            self.fail(op, f"armed {self.armed} packets but only "
                          f"{self.staged} were staged")
        expect = self.staged - self.taken
        if fifo.occupied != expect:
            self.fail(op, f"occupied={fifo.occupied} but ledger says "
                          f"{self.staged} staged - {self.taken} taken "
                          f"= {expect}")

    def on_stage(self, fifo):
        self.checks += 1
        self.staged += 1
        if fifo.occupied > fifo.entries:
            self.fail("stage", f"occupied {fifo.occupied} exceeds "
                               f"{fifo.entries} entries")
        self._conserved("stage", fifo)

    def on_arm(self, fifo, n):
        self.checks += 1
        self.armed += n
        self._conserved("arm", fifo)

    def on_take(self, fifo):
        self.checks += 1
        self.taken += 1
        self._conserved("take", fifo)


class RecvFifoCheck(_Check):
    """Slot conservation of the receive FIFO: reserve → deliver →
    consume → pop, with ``occupied`` always reserved-minus-popped, and
    slots queued in stamp order (RX DMA is one engine)."""

    kind = "fifo"

    def __init__(self, san, name, fifo):
        super().__init__(san, name)
        self.fifo = fifo
        self.reserved = 0
        self.delivered = 0
        self.consumed = 0
        self.popped = 0
        #: the stamp of the last slot delivered
        self.last_stamp = float("-inf")

    def _conserved(self, op, fifo):
        expect = self.reserved - self.popped
        if fifo.occupied != expect:
            self.fail(op, f"occupied={fifo.occupied} but ledger says "
                          f"{self.reserved} reserved - {self.popped} "
                          f"popped = {expect}")

    def on_reserve(self, fifo):
        self.checks += 1
        self.reserved += 1
        if fifo.occupied > fifo.capacity:
            self.fail("reserve", f"occupied {fifo.occupied} exceeds "
                                 f"capacity {fifo.capacity}")
        self._conserved("reserve", fifo)

    def on_deliver(self, fifo):
        self.checks += 1
        self.delivered += 1
        if self.delivered > self.reserved:
            self.fail("deliver", "deliver without a reserved slot "
                      f"({self.delivered} delivered > {self.reserved} "
                      f"reserved)")
        stamp = fifo.slots[-1][0]
        if stamp < self.last_stamp:
            self.fail("deliver", f"slot stamped {stamp} queued after one "
                                 f"stamped {self.last_stamp}")
        self.last_stamp = stamp

    def on_consume(self, fifo):
        self.checks += 1
        self.consumed += 1
        if self.consumed > self.delivered:
            self.fail("consume", f"consumed {self.consumed} packets but "
                                 f"only {self.delivered} were delivered")
        self._conserved("consume", fifo)

    def on_pop(self, fifo, freed):
        self.checks += 1
        self.popped += freed
        if self.popped > self.consumed:
            self.fail("pop", f"popped {self.popped} slots but only "
                             f"{self.consumed} were consumed")
        self._conserved("pop", fifo)

    def at_quiescence(self):
        """No slot may stay occupied once traffic has drained."""
        self.checks += 1
        fifo = self.fifo
        held = len(fifo.slots) + fifo.pending_pop
        if fifo.occupied != held:
            self.fail("quiescence",
                      f"slot leak: occupied={fifo.occupied} but only "
                      f"{len(fifo.slots)} queued + {fifo.pending_pop} "
                      f"pending pop remain")


# ---------------------------------------------------------------------------
# go-back-N windows (§2.2)
# ---------------------------------------------------------------------------


class SendWindowCheck(_Check):
    """Sender window: credit never exceeded, cumulative acks monotone and
    aligned to transfer-unit boundaries, and saved packets never mutated.

    The window saves the packets it is handed, not copies, so the same
    objects are in flight; go-back-N must clone before it re-stamps acks.
    Each saved unit's field values are recorded at save and compared when
    its ack frees it: a write to a staged packet would otherwise change
    what a later retransmission sends without anyone noticing.
    """

    kind = "window"

    def __init__(self, san, name, win):
        super().__init__(san, name)
        self.win = win
        #: sequence numbers at which a cumulative ack may legally land
        #: (transfer-unit end points; chunks ack as one unit)
        self._ack_points: Set[int] = {win.next_seq}
        self.max_ack = win.base
        #: seq -> field values of each packet of the saved unit, at save
        self._saved_fields: Dict[int, List[tuple]] = {}

    def on_allocate(self, win, seq, npackets):
        self.checks += 1
        if win.in_flight > win.window:
            self.fail("allocate",
                      f"in_flight {win.in_flight} exceeds window "
                      f"{win.window}")

    def on_save(self, win, seq, npackets):
        self.checks += 1
        self._ack_points.add(seq + npackets)
        self._saved_fields[seq] = list(map(_field_values, win._saved[seq]))

    def on_ack(self, win, ack):
        self.checks += 1
        if ack > win.next_seq:
            self.fail("ack", f"cumulative ack {ack} claims sequence "
                             f"numbers never allocated (next_seq "
                             f"{win.next_seq})")
        elif ack not in self._ack_points:
            self.fail("ack", f"cumulative ack {ack} is not unit-aligned "
                             f"(legal points: "
                             f"{sorted(self._ack_points)[:8]}...)")
        if ack < self.max_ack:
            self.fail("ack", f"cumulative ack moved backwards "
                             f"({ack} < {self.max_ack})")
        self.max_ack = max(self.max_ack, ack)
        self._ack_points = {p for p in self._ack_points if p >= ack}
        recorded = self._saved_fields
        saved = win._saved
        # the units this ack frees (seq < ack), by subscripts and type
        # calls only: the scan adds no profiled call to a sanitized run
        for seq in list(filter(ack.__gt__, recorded)):
            was = recorded[seq]
            del recorded[seq]
            unit = saved[seq]
            if list(map(_field_values, unit)) == was:
                continue
            changed = [(i, field, old, new)
                       for i, (pkt, before) in enumerate(zip(unit, was))
                       for field, old, new in zip(FIELDS, before,
                                                  _field_values(pkt))
                       if old != new]
            if changed:
                i, field, old, new = changed[0]
                what = f"packet {i} field {field!r} {old!r} -> {new!r}"
            else:
                what = f"{len(was)} packets became {len(unit)}"
            self.fail("ack", f"saved unit at seq {seq} was mutated before "
                             f"its ack freed it: {what}")


class RecvWindowCheck(_Check):
    """Receiver window: transfer units delivered exactly once, in
    sequence order.  A rolling digest of delivered base sequences feeds
    campaign reports (two runs of one seed must agree)."""

    kind = "window"

    def __init__(self, san, name, win):
        super().__init__(san, name)
        self.win = win
        self.next_expected = win.expected
        self.delivered_units = 0
        self.digest = 0

    def on_deliver(self, win, base_seq, npackets):
        self.checks += 1
        if base_seq != self.next_expected:
            self.fail("deliver",
                      f"transfer unit at seq {base_seq} delivered out of "
                      f"order (expected {self.next_expected}) — "
                      f"exactly-once broken")
        self.next_expected = base_seq + npackets
        self.delivered_units += 1
        self.digest = (self.digest * _DIGEST_MULT + base_seq) & _DIGEST_MASK


# ---------------------------------------------------------------------------
# MPI request lifecycle (§4.1)
# ---------------------------------------------------------------------------


class RequestCheck(_Check):
    """Posted → matched → completed, exactly once; nothing after free.

    State rides on the request itself (``_ck_*`` flags) so one checker
    per device covers every request it creates, and requests that cross
    layers (loopback matches, unexpected-queue consumption) stay tracked.
    """

    kind = "request"

    def _adopt(self, req):
        if req.check is not self:
            req.check = self
            req._ck_posted = False
            req._ck_matched = False
            req._ck_completed = False

    def on_new(self, req):
        self.checks += 1
        self._adopt(req)

    def on_posted(self, req):
        self.checks += 1
        self._adopt(req)
        if req.freed:
            self.fail("posted", f"request #{req.id} posted after free")
        if req._ck_posted:
            self.fail("posted", f"request #{req.id} posted twice")
        req._ck_posted = True

    def on_matched(self, req):
        self.checks += 1
        self._adopt(req)
        if req._ck_completed:
            self.fail("matched",
                      f"request #{req.id} matched after completion")
        if req._ck_matched:
            self.fail("matched", f"request #{req.id} matched twice")
        req._ck_matched = True

    def on_complete(self, req):
        self.checks += 1
        self._adopt(req)
        if req._ck_completed:
            self.fail("complete", f"request #{req.id} completed twice")
        if req.freed:
            self.fail("complete", f"request #{req.id} completed after free")
        if req._ck_posted and not req._ck_matched:
            self.fail("complete",
                      f"request #{req.id} completed while still posted "
                      f"(never matched)")
        req._ck_completed = True

    def on_progress(self, req):
        self.checks += 1
        self._adopt(req)
        if req.freed:
            self.fail("progress",
                      f"wait on freed request #{req.id}")

    def on_free(self, req):
        self.checks += 1
        self._adopt(req)
        if req.freed:
            self.fail("free", f"request #{req.id} freed twice")


# ---------------------------------------------------------------------------
# receiver-region allocation (§4.1–4.2)
# ---------------------------------------------------------------------------


class AllocCheck(_Check):
    """Sender-side region allocator: allocations in bounds and disjoint,
    every free returns exactly what was allocated."""

    kind = "alloc"

    def __init__(self, san, name, alloc):
        super().__init__(san, name)
        self.alloc = alloc
        #: offset -> length of live allocations
        self.outstanding: Dict[int, int] = {}
        self.allocated_bytes = 0
        self.freed_bytes = 0

    def on_alloc(self, alloc, offset, nbytes):
        self.checks += 1
        if offset < 0 or offset + nbytes > alloc.capacity:
            self.fail("alloc", f"allocation [{offset}, {offset + nbytes}) "
                               f"outside region of {alloc.capacity} bytes")
        for off, length in self.outstanding.items():
            if offset < off + length and off < offset + nbytes:
                self.fail("alloc",
                          f"allocation [{offset}, {offset + nbytes}) "
                          f"overlaps live [{off}, {off + length})")
        self.outstanding[offset] = nbytes
        self.allocated_bytes += nbytes

    def on_free(self, alloc, offset, nbytes):
        self.checks += 1
        have = self.outstanding.get(offset)
        if have is None:
            self.fail("free", f"free of unallocated offset {offset}")
            return
        if have != nbytes:
            self.fail("free", f"free of {nbytes} bytes at {offset} but "
                              f"{have} were allocated")
        del self.outstanding[offset]
        self.freed_bytes += have

    @property
    def outstanding_bytes(self) -> int:
        return sum(self.outstanding.values())


# ---------------------------------------------------------------------------
# event scheduler
# ---------------------------------------------------------------------------


class SchedulerCheck(_Check):
    """Events execute in strictly increasing (time, seq) order; no
    cancelled (tombstoned) timer ever fires; the stale skip only ever
    discards tombstones, in queue order — it can never jump the clock
    over a live entry."""

    kind = "sched"

    def __init__(self, san, name, sim):
        super().__init__(san, name)
        self.sim = sim
        self.last: Tuple[float, int] = (float("-inf"), -1)
        #: (time, seq) of the last entry consumed from the queue front,
        #: executed *or* discarded as a tombstone.  The stale skip
        #: reports each discarded entry through on_stale, so a skip that
        #: jumped past a live entry surfaces here: the live entry
        #: eventually executes with a key behind this watermark.
        self.last_popped: Tuple[float, int] = (float("-inf"), -1)
        self.cancelled = 0
        self.stale_skipped = 0

    def _note_popped(self, entry, op):
        key = (entry[0], entry[1])
        if key <= self.last_popped:
            self.fail(op,
                      f"queue consumed (t={entry[0]}, seq={entry[1]}) after "
                      f"(t={self.last_popped[0]}, seq={self.last_popped[1]}) "
                      "— the queue skipped over a live entry")
        self.last_popped = key
        return key

    def on_execute(self, entry):
        self.checks += 1
        key = self._note_popped(entry, "execute")
        if key <= self.last:
            self.fail("execute",
                      f"event (t={entry[0]}, seq={entry[1]}) executed "
                      f"after (t={self.last[0]}, seq={self.last[1]})")
        self.last = key
        fn = entry[2]
        owner = getattr(fn, "__self__", None)
        if type(owner) is TimerHandle and owner._entry is not entry:
            # the handle no longer claims this entry: it was cancelled or
            # rescheduled, so this firing is from a dead generation
            self.fail("execute",
                      f"timer fired from a stale generation at t={entry[0]}")

    def on_stale(self, entry):
        self.checks += 1
        self.stale_skipped += 1
        self._note_popped(entry, "stale")
        if entry[2] is not None:
            self.fail("stale",
                      "the stale skip discarded a live entry")
        if entry[3] != ():
            self.fail("stale", "tombstoned entry still holds callback args")

    def on_cancel(self, entry):
        self.checks += 1
        self.cancelled += 1
        if entry[2] is not None:
            self.fail("cancel", "cancel left the entry un-tombstoned")


# ---------------------------------------------------------------------------
# the sanitizer
# ---------------------------------------------------------------------------

_KINDS = ("fifo", "window", "request", "alloc", "sched")


class Sanitizer:
    """Plants checkers across a machine and collects their verdicts.

    :param collect: when True, violations accumulate in ``violations``
        instead of raising — campaign mode, where one bad op must not
        mask the ops after it.  When False (the default, for tests),
        the first violation raises :class:`InvariantViolation`.
    :param only: restrict to a subset of checker kinds (see _KINDS).
    """

    def __init__(self, collect: bool = False,
                 only: Optional[List[str]] = None):
        if only is not None:
            bad = set(only) - set(_KINDS)
            if bad:
                raise ValueError(f"unknown checker kinds {sorted(bad)}")
        self.collect = collect
        self.only = set(only) if only is not None else None
        self.violations: List[InvariantViolation] = []
        self._checkers: List[_Check] = []
        self._machine = None

    # -- reporting ------------------------------------------------------

    def _report(self, violation: InvariantViolation) -> None:
        self.violations.append(violation)
        if not self.collect:
            raise violation

    def _want(self, kind: str) -> bool:
        return self.only is None or kind in self.only

    # -- attachment -----------------------------------------------------

    def watch_sim(self, sim) -> "Sanitizer":
        """Install the scheduler checker alone (engine-level tests)."""
        if self._want("sched"):
            sim.check = SchedulerCheck(self, "sched", sim)
        return self

    def adopt_peer(self, am, dst: int, st) -> None:
        """Checker the four windows of a freshly created peer state.

        Called by ``SPAM._peer`` (via ``am.check``) so peers created
        after attachment are covered from their first packet.
        """
        if not self._want("window"):
            return
        nid = am.node.id
        for ch, win in enumerate(st.send):
            win.check = SendWindowCheck(
                self, f"send_window[{nid}->{dst} ch{ch}]", win)
        for ch, win in enumerate(st.recv):
            win.check = RecvWindowCheck(
                self, f"recv_window[{nid}<-{dst} ch{ch}]", win)

    def attach(self, machine) -> "Sanitizer":
        """Walk the machine planting every applicable checker."""
        self._machine = machine
        self.watch_sim(machine.sim)
        for node in machine.nodes:
            adapter = getattr(node, "adapter", None)
            if adapter is not None and self._want("fifo"):
                adapter.send_fifo.check = SendFifoCheck(
                    self, f"send_fifo[{node.id}]", adapter.send_fifo)
                adapter.recv_fifo.check = RecvFifoCheck(
                    self, f"recv_fifo[{node.id}]", adapter.recv_fifo)
            am = getattr(node, "am", None)
            if am is not None and hasattr(am, "_peers"):
                am.check = self
                for dst, st in am._peers.items():
                    self.adopt_peer(am, dst, st)
            mpi = getattr(node, "mpi", None)
            adi = getattr(mpi, "adi", None) if mpi is not None else None
            if adi is not None:
                if self._want("request"):
                    adi.check = RequestCheck(self, f"request[{node.id}]")
                if self._want("alloc"):
                    for peer, alloc in getattr(adi, "_alloc", {}).items():
                        alloc.check = AllocCheck(
                            self, f"alloc[{node.id}->{peer}]", alloc)
        return self

    # -- quiescence -----------------------------------------------------

    def check_quiescent(self) -> None:
        """End-of-campaign conservation checks (machine drained).

        * every receive-FIFO slot is accounted for (no leak);
        * per (sender, receiver) pair, the bytes the sender's allocator
          ledger still holds equal the bytes the receiver legitimately
          owes back: batched frees below the combine threshold, stashed
          hybrid prefixes, and unconsumed unexpected eager messages.
        """
        from repro.mpi.adi import ADI, _UnexpectedEager

        machine = self._machine
        if machine is None:
            # engine-level sanitizers (watch_sim) have no machine to
            # walk; run whatever quiescence hooks were planted directly
            for c in self._checkers:
                if isinstance(c, RecvFifoCheck):
                    c.at_quiescence()
            return
        # per node: run the local hook (receive-FIFO accounting) and
        # collect the conservation operands — what each sender's allocator
        # ledger still holds, and what each receiver legitimately owes
        # each sender
        adis: Dict[int, ADI] = {}
        outstanding: Dict[Tuple[int, int], int] = {}
        owed: Dict[Tuple[int, int], int] = {}
        for node in machine.nodes:
            adapter = getattr(node, "adapter", None)
            if adapter is not None:
                ck = getattr(adapter.recv_fifo, "check", None)
                if isinstance(ck, RecvFifoCheck):
                    ck.at_quiescence()
            adi = getattr(getattr(node, "mpi", None), "adi", None)
            if not isinstance(adi, ADI):
                continue
            adis[node.id] = adi
            for rid, alloc in adi._alloc.items():
                if alloc.check is not None:
                    outstanding[(node.id, rid)] = \
                        alloc.check.outstanding_bytes
            rid = node.id
            senders = set(adi._frees_owed)
            senders.update(src for (src, _t) in adi._prefixes)
            senders.update(e.src for e in adi.unexpected
                           if isinstance(e, _UnexpectedEager)
                           and e.region_offset is not None)
            for sid in senders:
                o = sum(l for _o, l in adi._frees_owed.get(sid, []))
                o += sum(l for (src, _t), (_o, l)
                         in adi._prefixes.items() if src == sid)
                o += sum(e.total_len for e in adi.unexpected
                         if isinstance(e, _UnexpectedEager)
                         and e.src == sid
                         and e.region_offset is not None)
                owed[(rid, sid)] = o
        # per (sender, receiver) pair: what the sender's ledger holds must
        # equal what the receiver owes (nothing when it has no entry)
        for (sid, rid), held in sorted(outstanding.items()):
            if rid not in adis:
                continue
            ck = adis[sid]._alloc[rid].check
            ck.checks += 1
            o = owed.get((rid, sid), 0)
            if held != o:
                ck.fail("quiescence",
                        f"conservation broken: sender ledger holds "
                        f"{held} bytes but receiver "
                        f"{rid} owes {o}")

    def delivery_report(self) -> Tuple[int, int]:
        """``(units, digest)``: transfer units delivered across every
        receive window, and their combined delivery-order digest."""
        units = 0
        digest = 0
        for node in self._machine.nodes:
            am = getattr(node, "am", None)
            if am is None or not hasattr(am, "_peers"):
                continue
            for st in am._peers.values():
                for rwin in st.recv:
                    ck = rwin.check
                    if isinstance(ck, RecvWindowCheck):
                        units += ck.delivered_units
                        digest ^= ck.digest
        return units, digest

    # -- reporting ------------------------------------------------------

    def snapshot(self) -> Dict[str, int]:
        """Check counts per checker kind (campaign report material)."""
        out: Dict[str, int] = {}
        for c in self._checkers:
            out[c.kind] = out.get(c.kind, 0) + c.checks
        return out
