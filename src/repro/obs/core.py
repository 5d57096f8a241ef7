"""The :class:`Observatory`: one hub every layer reports into.

``Observatory().attach(machine)`` walks the machine and plants itself on
every device, node, and the switch; from then on the hardware models
deposit span marks, the software layers record handler/occupancy
histograms, and the Split-C profiler contributes phase spans — all into
one object that the exporters (:mod:`repro.obs.export`) and the bench
harness read back out.

The hub deliberately imports nothing from ``repro.sim`` or
``repro.hardware``: components reference *it* (via their ``obs``
attribute, ``None`` when unobserved), never the other way around, so an
uninstrumented run pays only a ``None`` check per hook.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.hist import Histogram
from repro.obs.span import MessageSpan


#: the node attributes whose ``stats`` registry the hub reads (devices,
#: then software layers); the gauge sampler watches the same ones
LAYER_ATTRS = ("adapter", "nic", "am", "mpl", "mpi", "splitc")


class Observatory:
    """Collects message spans, histograms, phase spans, and stat registries."""

    def __init__(self, span_limit: int = 200_000):
        #: trace_id -> span, in creation order
        self.spans: Dict[int, MessageSpan] = {}
        #: safety valve: each of the three buffers (spans, fault events,
        #: phase spans) holds at most this many entries, and counts what
        #: it refuses under its own ``dropped_*`` name; the fault ledger
        #: also keeps, past it, the next drop of each packet it holds an
        #: undropped fault of
        self.span_limit = span_limit
        self.dropped_spans = 0
        self.dropped_fault_events = 0
        self.dropped_phase_spans = 0
        self.histograms: Dict[str, Histogram] = {}
        #: (node, track, name, t0, t1) — e.g. Split-C compute phases
        self.phase_spans: List[Tuple[int, str, str, float, float]] = []
        #: every fault seen: injected faults (``fault``) and packet drops
        #: (``packet_dropped``), each tagged with the victim's trace_id so
        #: chaos campaigns can reconcile injections against observations
        self.fault_events: List[Dict] = []
        #: how many injected faults had been reported (:meth:`fault`) when
        #: the fault ledger first refused an event; None while it has
        #: refused none.  The ledger holds the events of exactly those
        #: faults, and the drop that answers each lossy one
        self.faults_before_full: Optional[int] = None
        self._faults_reported = 0
        #: once full: trace ids of held faults a drop may still answer (a
        #: corrupted packet is dropped at the receiver, after its fault)
        self._awaiting_drop: Optional[set] = None
        #: periodic gauge sampler (:class:`repro.obs.metrics.MetricsSampler`),
        #: None until :meth:`start_sampler` — the metrics side is opt-in
        #: even when spans are being traced
        self.metrics = None
        self.machine = None
        self._next_trace = 1
        #: kind object -> display name; enum ``.name`` is a descriptor
        #: lookup, too slow to repeat per message
        self._kind_names: Dict = {}

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------

    def attach(self, machine) -> "Observatory":
        """Plant this hub on every device/node of ``machine``."""
        self.machine = machine
        machine.obs = self
        if getattr(machine, "switch", None) is not None:
            machine.switch.obs = self
        for node in machine.nodes:
            node.obs = self
            for dev in (node.adapter, node.nic):
                if dev is not None:
                    dev.obs = self
        return self

    def start_sampler(self, machine=None, period_us: float = 50.0,
                      capacity: Optional[int] = None,
                      max_samples: Optional[int] = None):
        """Start the periodic gauge sampler on ``machine`` (defaults to
        the attached one) and return it (also readable as ``metrics``).

        Plants a recurring ``call_later`` timer, so sampled runs must be
        driven with ``run_until_processes_done`` (or call
        ``metrics.stop()`` before draining the queue).  Idempotent while
        a sampler is running.
        """
        # deferred import: the hub stays importable without the sampler
        # and repro.obs.metrics is free to grow without cycles
        from repro.obs.metrics import DEFAULT_CAPACITY, MetricsSampler

        if self.metrics is not None and self.metrics.running:
            return self.metrics
        machine = machine if machine is not None else self.machine
        if machine is None:
            raise ValueError("start_sampler needs a machine "
                             "(none attached yet)")
        self.metrics = MetricsSampler(
            self, machine, period_us=period_us,
            capacity=DEFAULT_CAPACITY if capacity is None else capacity,
            max_samples=max_samples,
        ).start()
        return self.metrics

    def _all_registries(self) -> List:
        """Machine-reachable registries (walked live, so software layers
        attached after :meth:`attach` are still found)."""
        regs: List = []
        m = self.machine
        if m is not None:
            for holder in (getattr(m, "switch", None),
                           getattr(m, "fabric", None)):
                if holder is not None:
                    regs.append(holder.stats)
            for node in m.nodes:
                regs.append(node.stats)
                for attr in LAYER_ATTRS:
                    layer = getattr(node, attr, None)
                    st = getattr(layer, "stats", None)
                    if st is not None:
                        regs.append(st)
        return regs

    # ------------------------------------------------------------------
    # span collection (called from hardware/protocol hooks)
    # ------------------------------------------------------------------

    def begin_message(self, pkt, t: float) -> Optional[MessageSpan]:
        """Open a span for ``pkt`` at time ``t`` and stamp its trace id.

        Idempotent: a packet that already carries a trace id keeps its
        span (retransmissions re-enter the TX path with the same id).
        Past ``span_limit`` the packet is still stamped, so its faults
        stay attributable, but no span is stored.
        """
        # direct loads with AttributeError fallbacks: this runs per
        # message, and a 3-arg getattr costs ~2x a plain load (the except
        # paths only ever run for duck-typed message objects in tests)
        try:
            tid = pkt.trace_id
        except AttributeError:
            tid = 0
        if tid:
            return self.spans.get(tid)
        tid = self._next_trace
        self._next_trace += 1
        try:
            pkt.trace_id = tid
        except AttributeError:     # message type without a trace_id slot
            return None
        if len(self.spans) >= self.span_limit:
            self.dropped_spans += 1
            return None
        kind_obj = getattr(pkt, "kind", None)
        kind = self._kind_names.get(kind_obj) if kind_obj is not None else None
        if kind is None:
            kind = getattr(kind_obj, "name",
                           None) or str(getattr(pkt, "kind",
                                                type(pkt).__name__))
            if kind_obj is not None and getattr(kind_obj, "__hash__",
                                                None) is not None:
                self._kind_names[kind_obj] = kind
        try:
            span = MessageSpan(trace_id=tid, src=pkt.src, dst=pkt.dst,
                               kind=kind, seq=pkt.seq,
                               wire_bytes=pkt.wire_bytes)
        except AttributeError:
            span = MessageSpan(
                trace_id=tid, src=getattr(pkt, "src", -1),
                dst=getattr(pkt, "dst", -1), kind=kind,
                seq=getattr(pkt, "seq", 0),
                wire_bytes=getattr(pkt, "wire_bytes", 0),
            )
        span.marks["begin"] = t
        self.spans[tid] = span
        return span

    def mark_packet(self, pkt, mark: str, t: float) -> Optional[MessageSpan]:
        """Deposit an absolute-time mark on ``pkt``'s span (no-op when the
        packet is untracked)."""
        try:
            tid = pkt.trace_id
        except AttributeError:
            tid = 0
        span = self.spans.get(tid)
        if span is not None:
            span.marks[mark] = t
        return span

    def packet_staged(self, pkt, t: float) -> Optional[MessageSpan]:
        """Send-FIFO staging: open the span if the software layer above
        didn't (its ``begin`` then coincides with staging) and refresh the
        fields assigned after construction (seq, wire size).

        Only the first staging is marked: a go-back-N retransmission
        stages the packet again, and the recovery wait before it is
        ``backoff_us``, which the critical path carves out of
        ``stage -> dma_start``.
        """
        span = self.begin_message(pkt, t)
        if span is not None:
            try:
                span.seq = pkt.seq
                span.wire_bytes = pkt.wire_bytes
            except AttributeError:
                pass  # duck-typed message without the refreshed fields
            marks = span.marks
            if "stage" not in marks:
                marks["stage"] = t
        return span

    def packet_dropped(self, pkt, reason: str = "") -> None:
        """A packet was lost (fabric fault, CRC reject, FIFO overflow)."""
        span = self.spans.get(getattr(pkt, "trace_id", 0))
        if span is not None:
            span.drops += 1
        self._fault_event("packet_dropped", pkt, None, reason)

    def fault(self, pkt, kind: str, t: float, detail: str = "") -> None:
        """An injected fault fired against ``pkt`` (called by the
        :class:`~repro.faults.injector.FaultInjector`)."""
        self._faults_reported += 1
        self._fault_event(kind, pkt, t, detail)

    def _fault_event(self, kind: str, pkt, t: Optional[float],
                     detail: str) -> None:
        tid = getattr(pkt, "trace_id", 0)
        if len(self.fault_events) >= self.span_limit:
            awaiting = self._awaiting_drop
            if awaiting is None:
                awaiting = self._ledger_full(kind)
            if kind != "packet_dropped" or tid not in awaiting:
                self.dropped_fault_events += 1
                return
            awaiting.discard(tid)
        self.fault_events.append({
            "kind": kind,
            "t": t,
            "packet_kind": getattr(getattr(pkt, "kind", None), "name",
                                   str(getattr(pkt, "kind", "?"))),
            "trace_id": tid,
            "seq": getattr(pkt, "seq", 0),
            "src": getattr(pkt, "src", -1),
            "dst": getattr(pkt, "dst", -1),
            "detail": detail,
        })

    def _ledger_full(self, kind: str) -> set:
        """The fault ledger refuses its first event, a ``kind`` one: note
        how many faults it holds, and which of them no drop answered yet."""
        self.faults_before_full = (self._faults_reported
                                   - (kind != "packet_dropped"))
        awaiting = self._awaiting_drop = set()
        for ev in self.fault_events:
            if ev["kind"] == "packet_dropped":
                awaiting.discard(ev["trace_id"])
            else:
                awaiting.add(ev["trace_id"])
        return awaiting

    # ------------------------------------------------------------------
    # histograms + phase spans
    # ------------------------------------------------------------------

    def hist(self, name: str) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name)
        return h

    def phase(self, node: int, track: str, name: str,
              t0: float, t1: float) -> None:
        """Record a non-message span (compute phase, barrier, custom)."""
        if len(self.phase_spans) < self.span_limit:
            self.phase_spans.append((node, track, name, t0, t1))
        else:
            self.dropped_phase_spans += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def spans_by_kind(self, kind: str) -> List[MessageSpan]:
        return [s for s in self.spans.values() if s.kind == kind]

    def snapshot(self) -> Dict:
        """One JSON-serializable snapshot: merged counters and histogram
        summaries (the exporters' ``stats`` section)."""
        counters: Dict[str, float] = {}
        for reg in self._all_registries():
            counters.update(reg.snapshot())
        snap = {
            "counters": dict(sorted(counters.items())),
            "histograms": {name: h.snapshot()
                           for name, h in sorted(self.histograms.items())},
            "spans": {
                "recorded": len(self.spans),
                "dropped": self.dropped_spans,
            },
            "fault_events": len(self.fault_events),
            "dropped_fault_events": self.dropped_fault_events,
            "phase_spans": len(self.phase_spans),
            "dropped_phase_spans": self.dropped_phase_spans,
        }
        if self.metrics is not None:
            snap["metrics"] = {
                "period_us": self.metrics.period_us,
                "samples_taken": self.metrics.samples_taken,
                "series": self.metrics.snapshot(),
            }
        return snap

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Observatory(spans={len(self.spans)}, "
                f"hists={len(self.histograms)})")
