"""The periodic gauge sampler (``Observatory.start_sampler``)."""

import pytest

from repro.am import attach_am
from repro.bench.pingpong import _am_pingpong
from repro.hardware.machine import build_machine
from repro.obs import Observatory
from repro.obs.export import chrome_trace
from repro.obs.metrics import GLOBAL_PID, SWITCH_PID, MetricsSampler
from repro.obs.schema import validate_chrome_trace
from repro.sim import Simulator


def _observed_pingpong(iterations=20, period_us=5.0, **sampler_kw):
    sim = Simulator()
    machine = build_machine(sim, 2, "sp-thin")
    obs = Observatory().attach(machine)
    attach_am(machine)
    obs.start_sampler(period_us=period_us, **sampler_kw)
    mean_rtt = _am_pingpong(machine, 1, iterations).rtt_us
    return obs, machine, mean_rtt


def test_sampler_records_gauges_across_every_layer():
    obs, machine, _ = _observed_pingpong()
    m = obs.metrics
    assert m.samples_taken > 0
    names = set(m.series)
    # scheduler + switch + per-link + per-node adapter + window + rates
    assert "sched.live_pending" in names
    assert "switch.in_flight" in names
    assert {"link0.util", "link1.util"} <= names
    for nid in (0, 1):
        assert {f"n{nid}.send_fifo", f"n{nid}.recv_fifo",
                f"n{nid}.recv_visible", f"n{nid}.tx_util",
                f"n{nid}.win_inflight", f"n{nid}.win_credit"} <= names
    assert "rate.tx_packets_per_s" in names
    # unconditional gauges get one sample per tick; conditional ones
    # (window state appears once AM peers materialize) never exceed it
    assert len(m.series["sched.live_pending"]) == m.samples_taken
    assert all(len(s) <= m.samples_taken for s in m.series.values())


def test_sampler_ticks_are_period_spaced():
    obs, _, _ = _observed_pingpong(period_us=7.0)
    times = [t for t, _ in obs.metrics.series["sched.live_pending"].samples]
    assert times[0] == pytest.approx(7.0)
    deltas = [b - a for a, b in zip(times, times[1:])]
    assert all(d == pytest.approx(7.0) for d in deltas)


def test_counter_track_pids_route_to_the_right_process_rows():
    obs, _, _ = _observed_pingpong()
    pid_of = obs.metrics.pid_of
    assert pid_of["sched.live_pending"] == GLOBAL_PID
    assert pid_of["rate.tx_packets_per_s"] == GLOBAL_PID
    assert pid_of["switch.in_flight"] == SWITCH_PID
    assert pid_of["link1.util"] == SWITCH_PID
    assert pid_of["n0.send_fifo"] == 0
    assert pid_of["n1.tx_util"] == 1


def test_utilization_gauges_see_traffic():
    obs, _, _ = _observed_pingpong(iterations=40)
    # the pingpong saturates neither side, but both adapters and both
    # destination links must show nonzero utilization in some period
    assert obs.metrics.series["n0.tx_util"].max() > 0.0
    assert obs.metrics.series["link1.util"].max() > 0.0
    assert obs.metrics.series["rate.tx_packets_per_s"].max() > 0.0


def test_stop_halts_sampling_and_restart_resumes():
    obs, machine, _ = _observed_pingpong()
    m = obs.metrics
    assert m.running
    m.stop()
    assert not m.running
    taken = m.samples_taken
    _am_pingpong(machine, 1, 5)          # more traffic, sampler off
    assert m.samples_taken == taken
    m.start()
    _am_pingpong(machine, 1, 5)
    assert m.samples_taken > taken


def test_max_samples_valve_stops_the_timer():
    obs, _, _ = _observed_pingpong(iterations=40, period_us=2.0,
                                   max_samples=3)
    assert obs.metrics.samples_taken == 3
    assert not obs.metrics.running


def test_capacity_bounds_series_and_reports_drops():
    obs, _, _ = _observed_pingpong(iterations=40, period_us=1.0, capacity=4)
    m = obs.metrics
    assert m.samples_taken > 4
    live = m.series["sched.live_pending"]
    assert len(live) == 4
    assert live.dropped_samples == m.samples_taken - 4
    assert m.snapshot()["sched.live_pending"]["dropped_samples"] > 0


def test_start_sampler_is_idempotent_while_running():
    obs, machine, _ = _observed_pingpong()
    assert obs.start_sampler() is obs.metrics
    # once stopped, a new start_sampler builds a fresh sampler
    obs.metrics.stop()
    old = obs.metrics
    assert obs.start_sampler(period_us=9.0) is not old
    assert obs.metrics.period_us == 9.0
    obs.metrics.stop()


def test_start_sampler_requires_a_machine():
    with pytest.raises(ValueError):
        Observatory().start_sampler()


def test_invalid_period_rejected():
    sim = Simulator()
    machine = build_machine(sim, 2, "sp-thin")
    obs = Observatory().attach(machine)
    with pytest.raises(ValueError):
        MetricsSampler(obs, machine, period_us=0.0)


def test_observatory_snapshot_carries_the_metrics_section():
    obs, _, _ = _observed_pingpong()
    snap = obs.snapshot()
    assert snap["metrics"]["period_us"] == 5.0
    assert snap["metrics"]["samples_taken"] == obs.metrics.samples_taken
    assert "sched.live_pending" in snap["metrics"]["series"]
    # without a sampler there is no metrics section at all
    assert "metrics" not in Observatory().snapshot()


def test_chrome_trace_gains_counter_tracks():
    obs, _, _ = _observed_pingpong()
    trace = chrome_trace(obs)
    assert validate_chrome_trace(trace) == []
    counters = [e for e in trace["traceEvents"] if e.get("ph") == "C"]
    assert counters
    by_name = {e["name"] for e in counters}
    assert "switch.in_flight" in by_name
    sample = next(e for e in counters if e["name"] == "switch.in_flight")
    assert sample["pid"] == SWITCH_PID
    # args carry the short name (text after the last dot) for the viewer
    assert set(sample["args"]) == {"in_flight"}
    assert trace["otherData"]["counter_series"] == len(obs.metrics.series)
    assert trace["otherData"]["sampler_period_us"] == 5.0


def test_unobserved_run_pays_no_busy_time_accounting():
    sim = Simulator()
    machine = build_machine(sim, 2, "sp-thin")
    attach_am(machine)
    _am_pingpong(machine, 1, 10)
    assert all(n.adapter.tx_busy_us == 0.0 for n in machine.nodes)
    assert all(v == 0.0 for v in machine.switch.link_busy_us.values())


def test_observed_run_accumulates_busy_time_even_without_sampler():
    sim = Simulator()
    machine = build_machine(sim, 2, "sp-thin")
    obs = Observatory().attach(machine)
    attach_am(machine)
    _am_pingpong(machine, 1, 10)
    assert obs.metrics is None
    assert machine.nodes[0].adapter.tx_busy_us > 0.0
    assert machine.switch.link_busy_us[1] > 0.0
