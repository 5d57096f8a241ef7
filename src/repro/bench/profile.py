"""``spam-bench profile`` — the critical-path + metrics profiling suite.

Runs three observed workloads, each with the periodic gauge sampler
attached (:meth:`Observatory.start_sampler`), and reduces every one to
the same evidence bundle:

* **pingpong** — the §2.3 AM ping-pong on 2 thin nodes
  (:func:`~repro.bench.pingpong.am_roundtrip` with an Observatory).  The
  per-stage critical-path attribution must match the measured RTT within ±5%
  (``coverage`` in [0.95, 1.05]): less leaves time unexplained, more
  counts some of it twice.  This reproduces Table 2 / §2.3 from live
  span marks.
* **bulk** — a multi-chunk blocking ``am_store`` through the two-node
  AM stream of :mod:`repro.bench.bandwidth`, where the
  windowed pipeline (not per-message latency) dominates and the verdict
  should move toward wire/DMA occupancy.
* **soak** — the chaos soak under packet loss, where retransmit backoff
  and NACK traffic enter the critical path.

Each workload yields a critical-path rollup
(:func:`~repro.obs.critpath.critpath_rollup`), the top-K slowest message
exemplars with their full mark timelines, a bottleneck verdict naming the
dominant stage plus its saturated gauge, and the sampler's gauge
summaries.  :func:`render_dashboard` turns the bundle into the
``top``-style console view; the CLI writes it all as
``BENCH_obsprofile.json`` (validated by
``repro.obs.schema.validate_bench_report``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bench.bandwidth import _measure_am
from repro.bench.pingpong import am_roundtrip
from repro.faults import run_soak
from repro.obs.core import Observatory
from repro.obs.critpath import (
    attribution_coverage,
    bottleneck_verdict,
    critpath_rollup,
    slowest_exemplars,
)

#: attribution must explain at least this fraction of the measured RTT
COVERAGE_FLOOR = 0.95
#: ... and at most this one (beyond it, time is counted twice)
COVERAGE_CEIL = 1.05

#: (iterations, bulk bytes, soak pingpongs) per mode
_FULL = (200, 64 * 1024, 24)
_QUICK = (40, 16 * 1024, 8)


def _workload_bundle(obs, k: int) -> Dict:
    """The common per-workload evidence: rollup, exemplars, verdict,
    gauge summaries."""
    rollup = critpath_rollup(obs)
    return {
        "rollup": rollup,
        "exemplars": slowest_exemplars(obs, k),
        "verdict": bottleneck_verdict(rollup, obs.metrics),
        "gauges": obs.metrics.snapshot() if obs.metrics is not None else {},
        "spans": len(obs.spans),
        "sampler_ticks": (obs.metrics.samples_taken
                          if obs.metrics is not None else 0),
    }


def run_profile(quick: bool = False, period_us: float = 50.0,
                topk: int = 5) -> Dict:
    """Run the three profiled workloads; return the full evidence bundle.

    The returned dict carries ``entries`` (report rows), ``profile``
    (the per-workload bundles for the report's ``profile`` section),
    ``obs`` (the ping-pong observatory, for trace export), and ``ok``
    (False when attribution coverage left [:data:`COVERAGE_FLOOR`,
    :data:`COVERAGE_CEIL`] or the soak leg saw violations).
    """
    iters, bulk_bytes, soak_pp = _QUICK if quick else _FULL

    pp_obs = Observatory()
    mean_rtt = am_roundtrip(1, iters, obs=pp_obs,
                            sample_period_us=period_us).rtt_us
    pp_bundle = _workload_bundle(pp_obs, topk)
    pp_bundle["coverage"] = attribution_coverage(pp_obs, mean_rtt)
    bulk_obs = Observatory()
    _count, bulk_elapsed = _measure_am("am_store", bulk_bytes, bulk_bytes,
                                       obs=bulk_obs,
                                       sample_period_us=period_us)
    bulk_bundle = _workload_bundle(bulk_obs, topk)
    # the chaos soak at 3% loss, fault-free reference run skipped
    soak_result = run_soak(seed=7, loss=0.03, nodes=2, pingpong=soak_pp,
                           compare_clean=False, sample_period_us=period_us)
    soak_bundle = _workload_bundle(soak_result.obs, topk)
    soak_bundle["violations"] = soak_result.violations
    soak_bundle["injected"] = soak_result.total_injected

    coverage = pp_bundle["coverage"]["coverage"]
    entries: List[Tuple[str, Optional[float], float]] = [
        ("pingpong rtt (us)", 51.0, mean_rtt),
        ("pingpong attribution coverage", 1.0, coverage),
        ("bulk store elapsed (us)", None, bulk_elapsed),
        ("bulk bytes", None, float(bulk_bytes)),
        ("soak elapsed (us)", None, soak_result.elapsed_us),
        ("soak faults injected", None, float(soak_result.total_injected)),
        ("soak retransmit backoff (us)", None,
         sum(s.backoff_us for s in soak_result.obs.spans.values())),
    ]
    return {
        "entries": entries,
        "profile": {
            "period_us": period_us,
            "quick": quick,
            "workloads": {
                "pingpong": pp_bundle,
                "bulk": bulk_bundle,
                "soak": soak_bundle,
            },
        },
        "obs": pp_obs,
        "ok": (COVERAGE_FLOOR <= coverage <= COVERAGE_CEIL
               and not soak_result.violations),
    }


# ---------------------------------------------------------------------------
# console dashboard
# ---------------------------------------------------------------------------

def _fmt_verdict(verdict: Dict) -> str:
    if verdict.get("stage") is None:
        return "no attributed spans"
    line = (f"bottleneck: {verdict['stage']} "
            f"({verdict['share'] * 100.0:.1f}% of attributed time, "
            f"mean {verdict['mean_us']:.2f} us)")
    if verdict.get("gauge"):
        line += (f"; saturated gauge {verdict['gauge']} "
                 f"p95={verdict['gauge_p95']:.3g} "
                 f"max={verdict['gauge_max']:.3g}")
    return line


def render_dashboard(data: Dict) -> str:
    """The ``top``-style console view of :func:`run_profile` output."""
    from repro.bench.report import fmt_table

    out: List[str] = []
    prof = data["profile"]
    out.append(f"critical-path profile "
               f"(sampler period {prof['period_us']:.0f} us"
               f"{', quick' if prof.get('quick') else ''})")
    for wname, w in prof["workloads"].items():
        rows = []
        for stage, cell in w["rollup"].get("ALL", {}).items():
            rows.append((stage, cell["count"],
                         round(cell["mean_us"], 2),
                         round(cell["max_us"], 2),
                         f"{cell['share'] * 100.0:.1f}%"))
        out.append(fmt_table(
            f"{wname}: critical path ({w['spans']} spans, "
            f"{w['sampler_ticks']} sampler ticks)",
            ["stage", "count", "mean", "max", "share"], rows))
        out.append(f"  {_fmt_verdict(w['verdict'])}")
        cov = w.get("coverage")
        if cov is not None:
            out.append(
                f"  attribution: {cov['attributed_us']:.2f} us of "
                f"{cov['measured_rtt_us']:.2f} us measured RTT "
                f"({cov['coverage'] * 100.0:.1f}% explained; allowed "
                f"{COVERAGE_FLOOR * 100.0:.0f}-{COVERAGE_CEIL * 100.0:.0f}%)")
        ex = w.get("exemplars") or ()
        if ex:
            worst = ex[0]
            stages = sorted(worst["stages"].items(),
                            key=lambda kv: -kv[1])[:3]
            out.append(
                f"  slowest message: trace {worst['trace_id']} "
                f"{worst['kind']} {worst['src']}->{worst['dst']} "
                f"{worst['total_us']:.2f} us (top stages: "
                + ", ".join(f"{s} {d:.2f}" for s, d in stages) + ")")
    return "\n".join(out)
