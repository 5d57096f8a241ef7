"""The compiled sampler must record exactly what a walk per tick recorded.

``MetricsSampler`` resolves its gauges once into ``(series.record,
getter)`` probes and recompiles when the machine's layout changes.
:class:`WalkingSampler` below is the per-tick walk it replaced, kept here
verbatim as the reference: for the same deterministic run both must
produce the same series, created in the same order, routed to the same
Chrome-trace rows, holding the same ``(time, value)`` samples and the
same eviction counts.
"""

import repro.obs.metrics as metrics_mod
from repro.am import attach_spam
from repro.faults import run_soak
from repro.hardware.machine import build_sp_machine
from repro.mpi import attach_mpi
from repro.obs import Observatory
from repro.obs.metrics import (GLOBAL_PID, RATE_COUNTERS, SWITCH_PID,
                               MetricsSampler)
from repro.sim import Delay, Simulator


class WalkingSampler(MetricsSampler):
    """The sampler as it was before probes were compiled: every tick
    re-formats every series name and re-walks nodes, peers and
    registries."""

    def _util(self, name, pid, t, busy):
        last = self._last_busy.get(name, 0.0)
        self._last_busy[name] = busy
        self._series(name, pid).record(t, (busy - last) / self.period_us)

    def _tick(self):
        sim = self.sim
        t = sim.now
        self.samples_taken += 1
        self._series("sched.live_pending", GLOBAL_PID).record(
            t, sim.live_pending_count())
        switch = getattr(self.machine, "switch", None)
        if switch is not None:
            self._series("switch.in_flight", SWITCH_PID).record(
                t, switch.in_flight)
            for dst, busy in switch.link_busy_us.items():
                self._util(f"link{dst}.util", SWITCH_PID, t, busy)
        for nid, adapter, node in self._nodes:
            if adapter is not None:
                self._series(f"n{nid}.send_fifo", nid).record(
                    t, adapter.send_fifo.occupied)
                rf = adapter.recv_fifo
                self._series(f"n{nid}.recv_fifo", nid).record(t, rf.occupied)
                self._series(f"n{nid}.recv_visible", nid).record(
                    t, sum(1 for slot in rf.slots if slot[0] < t))
                self._util(f"n{nid}.tx_util", nid, t, adapter.tx_busy_us)
            am = getattr(node, "am", None)
            if am is not None:
                in_flight = 0
                credit = None
                for peer in am._peers.values():
                    for win in peer.send:
                        in_flight += win.in_flight
                        c = win.window - win.in_flight
                        if credit is None or c < credit:
                            credit = c
                self._series(f"n{nid}.win_inflight", nid).record(t, in_flight)
                if credit is not None:
                    self._series(f"n{nid}.win_credit", nid).record(t, credit)
        self._sample_rates(t)
        if (self.max_samples is not None
                and self.samples_taken >= self.max_samples):
            self._timer = None
            return
        self._timer = self.sim.call_later_unsequenced(
            self.period_us, self._tick)

    def _sample_rates(self, t):
        regs = self.obs._all_registries()
        scale = 1e6 / self.period_us
        for name in RATE_COUNTERS:
            total = 0
            for reg in regs:
                total += reg.get(name)
            last = self._last_counts.get(name, 0)
            self._last_counts[name] = total
            self._series(f"rate.{name}_per_s", GLOBAL_PID).record(
                t, (total - last) * scale)


def _recorded(sampler):
    """Everything a sampler produced, in comparable form (series in
    creation order — ``bottleneck_verdict`` breaks ties by it)."""
    return {
        "ticks": sampler.samples_taken,
        "running": sampler.running,
        "order": list(sampler.series),
        "pid_of": dict(sampler.pid_of),
        "samples": {n: list(s.samples) for n, s in sampler.series.items()},
        "dropped": {n: s.dropped_samples for n, s in sampler.series.items()},
        "snapshot": sampler.snapshot(),
    }


def _both(monkeypatch, scenario):
    """Run ``scenario`` under the compiled sampler and under the walk."""
    compiled = _recorded(scenario())
    monkeypatch.setattr(metrics_mod, "MetricsSampler", WalkingSampler)
    walked = _recorded(scenario())
    assert compiled["ticks"] > 0
    return compiled, walked


def _assert_same(compiled, walked):
    # piecewise first, so a failure names the series that diverged
    assert compiled["order"] == walked["order"]
    assert compiled["pid_of"] == walked["pid_of"]
    for name in walked["order"]:
        assert compiled["samples"][name] == walked["samples"][name], name
    assert compiled == walked


def test_lossy_soak_series_identical(monkeypatch):
    def scenario():
        res = run_soak(seed=21, loss=0.02, nodes=3, pingpong=12,
                       compare_clean=False, sample_period_us=20.0)
        assert not res.violations
        assert isinstance(res.obs.metrics, metrics_mod.MetricsSampler)
        return res.obs.metrics

    compiled, walked = _both(monkeypatch, scenario)
    _assert_same(compiled, walked)
    # the run really exercised late arrivals: counters that first exist
    # mid-run feed the rates, and every node grew window gauges
    assert any(v for _t, v in
               compiled["samples"]["rate.retransmissions_per_s"])
    assert {"n0.win_credit", "n1.win_credit", "n2.win_credit"} <= set(
        compiled["order"])


def _late_arrivals(**sampler_kw):
    """Sampler first, then — with ticks already taken — the AM layer,
    a first peer, a second peer, the MPI layer; then stop and restart."""
    sim = Simulator()
    machine = build_sp_machine(sim, 3)
    obs = Observatory().attach(machine)
    sampler = obs.start_sampler(period_us=5.0, **sampler_kw)
    got = []

    def idle(us):
        def prog():
            yield Delay(us)
        sim.run_until_processes_done([sim.spawn(prog(), name="idle")])

    idle(23.0)                          # ticks with no software layer
    ams = attach_spam(machine)

    def h_reply(token, x):
        got.append(x)

    def h_request(token, x):
        yield from token.reply_1(h_reply, x)

    def talk(src, dst, n):
        def prog():
            for i in range(n):
                want = len(got) + 1
                yield from ams[src].request_1(dst, h_request, i)
                while len(got) < want:
                    yield from ams[src]._wait_progress()

        def serve():
            while True:
                yield from ams[dst]._wait_progress()

        p = sim.spawn(prog(), name="talk")
        server = sim.spawn(serve(), name="serve")
        sim.run_until_processes_done([p], limit=1e7)
        # one poller per endpoint: a server left asleep would poll dst
        # beside the next talk's process on the same node
        server.kill()

    idle(12.0)                          # AM attached, no peer yet
    talk(0, 1, 6)                       # first peer of nodes 0 and 1
    talk(2, 0, 4)                       # node 2's first, node 0's second
    attach_mpi(machine)                 # new registries
    talk(1, 2, 3)
    if sampler.running:
        sampler.stop()
        taken = sampler.samples_taken
        talk(0, 2, 5)                   # traffic while stopped
        assert sampler.samples_taken == taken
        sampler.start()
        talk(0, 1, 5)
    return sampler


def test_layers_and_peers_arriving_after_start(monkeypatch):
    compiled, walked = _both(monkeypatch, _late_arrivals)
    _assert_same(compiled, walked)
    order = compiled["order"]
    # window gauges appear only once their subject exists, so they are
    # created after the rates of the first tick, in arrival order
    assert order.index("n0.win_inflight") > order.index(
        "rate.tx_packets_per_s")
    assert order.index("n0.win_credit") > order.index("n2.win_inflight")
    assert order.index("n2.win_credit") > order.index("n1.win_credit")
    first_credit = compiled["samples"]["n2.win_credit"][0][0]
    assert first_credit > compiled["samples"]["n0.win_credit"][0][0]


def test_ring_eviction_identical(monkeypatch):
    compiled, walked = _both(monkeypatch,
                             lambda: _late_arrivals(capacity=4))
    _assert_same(compiled, walked)
    assert all(len(s) <= 4 for s in compiled["samples"].values())
    assert compiled["dropped"]["sched.live_pending"] == compiled["ticks"] - 4
    # a series born late evicted fewer samples than one born at tick 1
    assert (0 < compiled["dropped"]["n2.win_credit"]
            < compiled["dropped"]["sched.live_pending"])


def test_max_samples_identical(monkeypatch):
    compiled, walked = _both(monkeypatch,
                             lambda: _late_arrivals(max_samples=9))
    _assert_same(compiled, walked)
    assert compiled["ticks"] == 9 and not compiled["running"]
