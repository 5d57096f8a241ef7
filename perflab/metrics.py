"""The metric registry: every name the benchmark prints, with its unit,
clock, direction and bound.

Two clocks: **host** is what the simulator costs us (noisy: bounded, and
in reference seconds, see :mod:`perflab.calibrate`), **sim** is what the
modelled SP would take (exact: it repeats bit for bit, so two commits
compare by equality).  ``exact`` metrics on the ``-`` clock are counts.

``BENCHMARK.json`` is :func:`benchmark_json` written to disk; a test
keeps the two identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from perflab.layers import LAYERS


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    #: "host", "sim" or "-" (a count or a ratio of counts)
    clock: str
    better: str
    #: repeats bit for bit; compared by equality, never by a bound
    exact: bool
    what: str
    #: share of the baseline the metric may worsen by before it counts
    #: as a regression (host end-to-end metrics only)
    bound: Optional[float] = None


def _host(name, unit, better, what, bound=None):
    return Metric(name, unit, "host", better, False, what, bound)


def _exact(name, unit, better, what, clock="-"):
    return Metric(name, unit, clock, better, True, what)


#: what a user of the simulator pays and gets, per workload.  The host
#: three are the ``end_to_end`` list of ``BENCHMARK.json``; ``sim_us`` and
#: ``paper_dev_pct`` are exact (gated by equality in ``perflab.compare``)
#: and ``fail_share`` is the report line's ``failed / attempted``.
END_TO_END: List[Metric] = [
    # the bounds are three times the worst spread seen over ten seeds on
    # a bad day of the reference box (README, "Noise floor"), capped at
    # the 25 % the driver allows
    _host("wall_s", "s", "lower",
          "host time of the timed regions of the workload's fixed work, in "
          "reference seconds: slices x the fastest slice of the run",
          0.25),
    _host("setup_s", "s", "lower",
          "interpreter-ready to the first timed region (imports, "
          "build_sp_machine, attach_*, buffers), in plain seconds: "
          "fastest of the repeats", 0.25),
    _host("peak_rss_mb", "MB", "lower",
          "ru_maxrss of a repeat's subprocess, median over the repeats",
          0.10),
    _exact("sim_us", "us", "lower",
           "simulated time to finish the fixed work", "sim"),
    _exact("paper_dev_pct", "%", "lower",
           "max over the workload's gated pins of |measured - paper| / "
           "paper; 0 on a workload with no pin", "sim"),
    _exact("fail_share", "ratio", "lower",
           "operations whose output check failed / operations attempted"),
]

#: the end-to-end metrics with a noise bound: BENCHMARK.json's list
DRIVER_END_TO_END = [m for m in END_TO_END if m.bound is not None]


def _layer_metrics() -> List[Metric]:
    out: List[Metric] = []
    for layer in LAYERS:
        out.append(_host(f"{layer}.self_share", "ratio", "lower",
                         f"share of profiled self time in {layer}"))
        out.append(_exact(f"{layer}.py_calls_per_op", "count", "lower",
                          f"profiled calls into {layer} per operation"))
    out += [
        # -- sim
        _exact("sim.events_per_op", "count", "lower",
               "events executed per operation"),
        _exact("sim.stale_per_op", "count", "lower",
               "cancelled entries skipped per operation"),
        _exact("sim.pending_mean", "count", "lower",
               "mean live queue depth, sampled on the unsequenced lane"),
        _host("sim.adj_events_per_s", "1/s", "higher",
              "(executed + stale) events per host second, untraced"),
        _host("sim.shallow_ns_per_event", "ns", "lower",
              "engine-churn shallow phase, host ns per event"),
        _host("sim.deep_ns_per_event", "ns", "lower",
              "engine-churn deep phase, host ns per event"),
        _host("sim.timer_cancel_ns", "ns", "lower",
              "engine-churn timers phase, host ns per call_later"),
        # -- hardware
        _exact("hardware.packets_per_op", "count", "lower",
               "packets routed per operation"),
        _exact("hardware.payload_byte_share", "ratio", "higher",
               "payload bytes asked for / bytes on the wire"),
        _exact("hardware.dest_link_queued_share", "ratio", "lower",
               "packets that queued for a busy output link"),
        _exact("hardware.rx_overflow_drops", "count", "lower",
               "packets dropped at a full receive FIFO"),
        _host("hardware.raw_rtt_host_us", "us", "lower",
              "host time per raw round trip (raw rung)"),
        _exact("hardware.raw_rtt_sim_us", "us", "lower",
               "raw round trip, paper 47", "sim"),
        _host("hardware.build_ms_per_node", "ms", "lower",
              "build_sp_machine host time per node"),
        # -- am
        _host("am.rtt_host_us", "us", "lower",
              "host time per AM round trip"),
        _host("am.rtt_host_self_us", "us", "lower",
              "am.rtt_host_us - hardware.raw_rtt_host_us: the host-time "
              "twin of the paper's 4 us of flow control"),
        _exact("am.rtt_sim_us", "us", "lower",
               "one-word round trip, paper 51.0", "sim"),
        _exact("am.request_1_sim_us", "us", "lower",
               "am.request_1 call, paper 7.7", "sim"),
        _exact("am.reply_1_sim_us", "us", "lower",
               "token.reply_1 call, paper 4.0", "sim"),
        _exact("am.poll_empty_sim_us", "us", "lower",
               "am.poll on an idle network, paper 1.3", "sim"),
        _host("am.chunk_host_us", "us", "lower",
              "host time per bulk chunk sent"),
        _exact("am.store_sim_mb_s", "MB/s", "higher",
               "blocking 256 KB stores", "sim"),
        _exact("am.get_sim_mb_s", "MB/s", "higher",
               "blocking 256 KB gets", "sim"),
        _exact("am.store_async_sim_mb_s", "MB/s", "higher",
               "pipelined 8064 B stores, paper r_inf 34.3", "sim"),
        _exact("am.retransmissions_per_kpkt", "count", "lower",
               "packets retransmitted per 1000 sent"),
        _exact("am.nacks_per_kpkt", "count", "lower",
               "NACKs of every kind per 1000 packets sent"),
        _exact("am.explicit_acks_per_kpkt", "count", "lower",
               "explicit acks per 1000 packets sent"),
        _exact("am.first_try_share", "ratio", "higher",
               "packets delivered on their first transmission"),
        # -- mpl
        _host("mpl.rtt_host_us", "us", "lower",
              "host time per MPL round trip (MPL rung)"),
        _exact("mpl.rtt_sim_us", "us", "lower",
               "mpc_bsend/mpc_brecv round trip, paper 88", "sim"),
        # -- mpi
        _exact("mpi.hop_sim_us", "us", "lower",
               "4-byte ring, time per hop, documented 39.9", "sim"),
        _host("mpi.hop_host_us", "us", "lower", "host time per ring hop"),
        _host("mpi.hop_host_self_us", "us", "lower",
              "mpi.hop_host_us minus the same ring over bare am.store"),
        _exact("mpi.bw_1k_sim_mb_s", "MB/s", "higher", "1 KB stream", "sim"),
        _exact("mpi.bw_4k_sim_mb_s", "MB/s", "higher", "4 KB stream", "sim"),
        _exact("mpi.bw_16k_sim_mb_s", "MB/s", "higher", "16 KB stream",
               "sim"),
        _exact("mpi.bw_64k_sim_mb_s", "MB/s", "higher", "64 KB stream",
               "sim"),
        _exact("mpi.eager_share", "ratio", "higher",
               "sends that took the buffered protocol"),
        _exact("mpi.unexpected_share", "ratio", "lower",
               "messages that arrived before their receive was posted"),
        # -- faults, check, obs
        _exact("faults.injected_per_kpkt", "count", "lower",
               "faults injected per 1000 packets routed"),
        _exact("faults.lossy_over_clean_sim_x", "x", "lower",
               "simulated time of the lossy soak / the same soak clean",
               "sim"),
        _host("faults.soak_wall_s", "s", "lower", "host time of run_soak"),
        _host("check.campaign_wall_s", "s", "lower",
              "host time of run_campaigns"),
        _exact("check.checks_per_op", "count", "lower",
               "sanitizer checks per operation"),
        _host("check.overhead_x", "x", "lower",
              "am-pingpong with a Sanitizer attached / without"),
        _host("obs.overhead_x", "x", "lower",
              "am-pingpong with an Observatory attached / without"),
        _exact("obs.spans_per_op", "count", "lower",
               "message spans recorded per operation"),
        # -- the benchmark itself
        _host("harness.trace_overhead_x", "x", "lower",
              "traced / untraced wall at equal size"),
        _host("harness.wall_iqr_pct", "%", "lower",
              "interquartile range of the untraced walls / their median: "
              "the run's own noise floor"),
    ]
    return out


PER_LAYER: List[Metric] = _layer_metrics()

#: the exact end-to-end metrics the driver's contract cannot hold (a
#: constant reads as a broken clock, a zero has no relative bound); its
#: ``--trace 1`` runs print them beside the layer metrics instead
DRIVER_PER_LAYER: List[Metric] = PER_LAYER + [
    m for m in END_TO_END if m.name in ("sim_us", "paper_dev_pct")]

BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}


def benchmark_json(workloads) -> Dict:
    """The contents of ``BENCHMARK.json`` (``workloads``: name -> why)."""
    return {
        "command": ["python3", "-m", "perflab.run"],
        "paths": ["perflab", "tests/perflab"],
        "run_seconds": 12,
        "workloads": [{"name": name, "why": why}
                      for name, why in workloads.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in DRIVER_END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in DRIVER_PER_LAYER],
    }
