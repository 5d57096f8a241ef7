"""Flight-recorder metrics: periodic gauge sampling over simulated time.

The span layer answers *where did one message's microseconds go*; this
module answers *which resource was loaded when*.  A
:class:`MetricsSampler` — planted by
:meth:`Observatory.start_sampler(machine, period_us)
<repro.obs.core.Observatory.start_sampler>` — wakes on a recurring
cancellable timer and snapshots gauges across every layer into bounded
ring-buffer :class:`~repro.sim.stats.TimeSeries`:

* send/receive FIFO occupancy and host-visible backlog (slots whose
  stamp has passed), per node;
* go-back-N window in-flight (and the tightest remaining credit), per
  node, summed over peers and channels;
* ``Switch.in_flight`` and the scheduler's ``live_pending_count()``;
* per-destination-link utilization and adapter TX utilization, computed
  as deltas of the busy-time accumulators the hardware maintains under
  an attached Observatory (``Switch.link_busy_us``,
  ``TB2Adapter.tx_busy_us``);
* counter-delta rates (retransmissions/s, packets/s, NACKs/s) from the
  layers' :class:`~repro.sim.stats.StatRegistry` counters.

Everything is duck-typed attribute access — this module imports nothing
from ``repro.sim.engine`` or ``repro.hardware``, keeping the obs layer's
one-way-reference rule.  Sampling is **opt-in**: without
``start_sampler`` no timer exists, no gauge is read, and the hardware's
busy-time accumulators are only maintained inside existing
``obs is not None`` blocks, so an unobserved run pays nothing.

Gauges are *compiled*: a tick runs a flat list of ``(series.record,
getter)`` probes whose names, series, windows and counters were resolved
once.  What a probe was resolved from can change under a running sampler
— a layer attached late, a peer first contacted, a counter first bumped —
so each tick compares a cheap signature of the machine's layout and
recompiles on a difference, which keeps every series identical, sample
for sample, to a walk of the whole machine per tick.

The sampler keeps rescheduling itself until :meth:`MetricsSampler.stop`
is called (or ``max_samples`` hits), so drive sampled runs with
``run_until_processes_done`` — a drain-the-queue ``run()`` would never
terminate while the recurring timer lives.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.core import LAYER_ATTRS
from repro.obs.export import GLOBAL_PID, SWITCH_PID
from repro.sim.stats import TimeSeries

#: counter names whose per-period deltas become ``rate.<name>_per_s``
#: series (summed across every registry that carries the counter)
RATE_COUNTERS: Tuple[str, ...] = (
    "retransmissions", "nacks_sent", "packets_routed", "tx_packets",
)

#: default ring-buffer bound per series (a long soak keeps the newest
#: ~4k samples per gauge instead of growing without limit)
DEFAULT_CAPACITY = 4096


def _utilization_of(read_busy: Callable[[], float], last_busy: Dict,
                    name: str, period_us: float) -> Callable[[], float]:
    """Getter: the per-period utilization implied by a cumulative
    busy-time counter (delta busy / period; may exceed 1.0 briefly — wire
    time is charged at injection, ahead of serialization)."""
    def getter() -> float:
        busy = read_busy()
        last = last_busy.get(name, 0.0)
        last_busy[name] = busy
        return (busy - last) / period_us
    return getter


def _landed_of(rf, sim) -> Callable[[], int]:
    """Getter: the receive-FIFO slots whose stamp lies before now.  A
    tick runs ahead of every event of its instant, so a slot stamped at
    that very instant has not landed yet."""
    slots = rf.slots
    def getter() -> int:
        now = sim.now
        n = 0
        for slot in slots:
            if slot[0] >= now:
                break
            n += 1
        return n
    return getter


def _rate_of(counters: List, last_counts: Dict, name: str,
             period_us: float) -> Callable[[], float]:
    """Getter: the per-period delta of ``counters``' total, in events per
    simulated **second**."""
    scale = 1e6 / period_us
    def getter() -> float:
        total = 0
        for c in counters:
            total += c.value
        last = last_counts.get(name, 0)
        last_counts[name] = total
        return (total - last) * scale
    return getter


class MetricsSampler:
    """Recurring gauge snapshots into bounded time series.

    Created by :meth:`Observatory.start_sampler`; readable as
    ``obs.metrics``.  ``series`` maps gauge name -> :class:`TimeSeries`
    and ``pid_of`` maps gauge name -> the Chrome-trace process row its
    counter track renders under (node id, :data:`SWITCH_PID`, or
    :data:`GLOBAL_PID`).
    """

    def __init__(self, obs, machine, period_us: float = 50.0,
                 capacity: Optional[int] = DEFAULT_CAPACITY,
                 max_samples: Optional[int] = None):
        if period_us <= 0.0:
            raise ValueError(f"period_us must be positive, got {period_us}")
        self.obs = obs
        self.machine = machine
        self.sim = machine.sim
        self.period_us = period_us
        self.capacity = capacity
        #: safety valve: stop sampling after this many ticks (None = run
        #: until :meth:`stop`)
        self.max_samples = max_samples
        self.samples_taken = 0
        self.series: Dict[str, TimeSeries] = {}
        self.pid_of: Dict[str, int] = {}
        self._timer = None
        # busy-time accumulators at the previous tick, for utilization
        # deltas: {series name: last cumulative value}
        self._last_busy: Dict[str, float] = {}
        # counter totals at the previous tick, for rate deltas
        self._last_counts: Dict[str, float] = {}
        # resolved per-node sample targets (adapter, am), fixed at start
        self._nodes: List[tuple] = [
            (node.id, getattr(node, "adapter", None), node)
            for node in machine.nodes
        ]
        #: the TB2 adapters, whose arrivals a tick settles first
        self._tb2 = [adapter for _nid, adapter, _node in self._nodes
                     if hasattr(adapter, "settle")]
        #: one ``(series.record, getter)`` pair per live gauge, in the
        #: order a walk of the machine visits them; a tick is one pass
        #: over this list.  Rebuilt by :meth:`_compile` whenever
        #: :meth:`_layout` reads differently from ``_compiled_layout``.
        self._probes: List[Tuple[Callable, Callable]] = []
        self._compiled_layout: Optional[Tuple[list, list]] = None
        # the growable tables the last compile flattened into probes
        self._sized: List = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "MetricsSampler":
        """Plant the recurring timer (first tick one period from now).

        The timer is *unsequenced* (negative engine seq): it reads gauges
        but schedules nothing sequenced, so planting it must not shift
        the (when, seq) identity of any protocol event — sampling on/off
        yields byte-identical event-order digests.
        """
        if self._timer is None:
            self._timer = self.sim.call_later_unsequenced(
                self.period_us, self._tick)
        return self

    def stop(self) -> None:
        """Cancel the pending tick; the sampler can be restarted."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    @property
    def running(self) -> bool:
        return self._timer is not None

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------

    def _series(self, name: str, pid: int) -> TimeSeries:
        s = self.series.get(name)
        if s is None:
            s = self.series[name] = TimeSeries(name, capacity=self.capacity)
            self.pid_of[name] = pid
        return s

    def _layout(self) -> Tuple[list, list]:
        """Everything :meth:`_compile` resolved that can change under a
        running sampler: the layers attached to each node, and the sizes
        of the tables it flattened — the switch's links, the peers each
        AM endpoint has contacted, the counters each registry holds
        (``retransmissions`` first exists at the first retransmission).
        Read every tick, in place of the walk itself."""
        return ([getattr(node, attr, None) for _nid, _adapter, node
                 in self._nodes for attr in LAYER_ATTRS],
                list(map(len, self._sized)))

    def _compile(self) -> None:
        """Resolve every gauge that records *now* into a probe.

        Series are created here, in walk order, exactly when the per-tick
        walk used to create them (``bottleneck_verdict`` breaks p95 ties
        by that order); a gauge whose subject does not exist yet — window
        state before an endpoint is attached, window credit before its
        first peer — gets its probe at the compile its subject's arrival
        triggers, i.e. at the same tick as before.
        """
        probes = self._probes = []
        sized = self._sized = []
        period = self.period_us

        def probe(name: str, pid: int, getter: Callable) -> None:
            probes.append((self._series(name, pid).record, getter))

        def util(name: str, pid: int, read_busy: Callable) -> None:
            probe(name, pid, _utilization_of(read_busy, self._last_busy,
                                             name, period))

        probe("sched.live_pending", GLOBAL_PID, self.sim.live_pending_count)
        switch = getattr(self.machine, "switch", None)
        if switch is not None:
            probe("switch.in_flight", SWITCH_PID, lambda: switch.in_flight)
            link_busy = switch.link_busy_us
            sized.append(link_busy)
            for dst in link_busy:
                util(f"link{dst}.util", SWITCH_PID,
                     lambda dst=dst: link_busy[dst])
        for nid, adapter, node in self._nodes:
            if adapter is not None:
                sf, rf = adapter.send_fifo, adapter.recv_fifo
                probe(f"n{nid}.send_fifo", nid, lambda sf=sf: sf.occupied)
                probe(f"n{nid}.recv_fifo", nid, lambda rf=rf: rf.occupied)
                probe(f"n{nid}.recv_visible", nid,
                      _landed_of(rf, self.sim))
                util(f"n{nid}.tx_util", nid,
                     lambda adapter=adapter: adapter.tx_busy_us)
            am = getattr(node, "am", None)
            if am is not None:
                sized.append(am._peers)
                wins = [win for peer in am._peers.values()
                        for win in peer.send]
                probe(f"n{nid}.win_inflight", nid, lambda wins=wins: sum(
                    [win.in_flight for win in wins]))
                if wins:
                    # the tightest remaining credit
                    probe(f"n{nid}.win_credit", nid, lambda wins=wins: min(
                        [win.window - win.in_flight for win in wins]))
        tables = [reg.counters for reg in self.obs._all_registries()]
        sized.extend(tables)
        for name in RATE_COUNTERS:
            # summed across every registry that carries the counter
            probe(f"rate.{name}_per_s", GLOBAL_PID, _rate_of(
                [table[name] for table in tables if name in table],
                self._last_counts, name, period))
        self._compiled_layout = self._layout()

    def _tick(self) -> None:
        t = self.sim.now
        self.samples_taken += 1
        for adapter in self._tb2:
            if adapter.pending:
                adapter.settle(t)
        if self._layout() != self._compiled_layout:
            self._compile()
        for record, getter in self._probes:
            record(t, getter())
        if (self.max_samples is not None
                and self.samples_taken >= self.max_samples):
            self._timer = None
            return
        self._timer = self.sim.call_later_unsequenced(
            self.period_us, self._tick)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict]:
        """Per-series summaries keyed by gauge name (sorted, JSON-safe)."""
        return {name: s.snapshot()
                for name, s in sorted(self.series.items())}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "running" if self.running else "stopped"
        return (f"MetricsSampler({len(self.series)} series, "
                f"{self.samples_taken} ticks, {state})")
