"""Smoke the ``spam-bench perf`` suite on tiny workloads.

Full-size numbers live in the committed ``BENCH_simperf.json``; here we
only prove the machinery: workloads run on both schedulers, the
differential digests agree, the report validates against the
``spam-bench/1`` schema, and the regression gate passes against itself
and trips on a doctored ratio.
"""

import copy

import pytest

from repro.bench.benchjson import make_report
from repro.bench.perf import (
    PRE_PR_BASELINE,
    check_regression,
    report_entries,
    run_determinism,
    run_perf,
)
from repro.obs.schema import validate_bench_report

_TINY_SIZES = {
    "pingpong": (60,),
    "bulk": (8_192, 1),
    "alltoall": (3, 2_048, 1),
    "soak": (6,),
}
_TINY_DIGESTS = {
    "pingpong": (40,),
    "bulk": (8_192, 1),
    "alltoall": (3, 2_048, 1),
}


@pytest.fixture(scope="module")
def tiny_run():
    """One tiny suite run shared by every test below (read-only: tests
    that doctor the report deep-copy it first)."""
    return run_perf(quick=True, repeat=1, sizes=_TINY_SIZES,
                    digest_sizes=_TINY_DIGESTS)


class TestSuite:
    def test_suite_runs_and_report_validates(self, tiny_run):
        data = tiny_run
        for name in ("pingpong", "bulk", "alltoall", "soak"):
            w = data["workloads"][name]["wheel"]
            assert w["events"] > 0
            assert w["adj_eps"] > 0
            assert w["sim_us"] > 0
        for name in ("pingpong", "bulk", "alltoall"):
            per = data["workloads"][name]
            assert per["heap"]["sim_us"] == per["wheel"]["sim_us"]
            assert per["ratio_wheel_over_heap"] > 0
        assert data["determinism"]["identical"]
        assert set(PRE_PR_BASELINE) == {"pingpong", "bulk", "alltoall",
                                        "soak"}
        report = make_report("simperf", report_entries(data), extra=data)
        assert validate_bench_report(report) == []

    def test_regression_gate_self_and_doctored(self, tiny_run):
        data = tiny_run
        assert check_regression(data, data) == []
        doctored = copy.deepcopy(data)
        doctored["workloads"]["pingpong"]["ratio_wheel_over_heap"] *= 2.0
        problems = check_regression(data, doctored)
        assert problems and "pingpong" in problems[0]

    def test_regression_gate_flags_determinism_mismatch(self, tiny_run):
        data = tiny_run
        broken = copy.deepcopy(data)
        broken["determinism"]["identical"] = False
        problems = check_regression(broken, data)
        assert any("digest" in p for p in problems)


def test_determinism_digests_are_stable_within_scheduler():
    # same scheduler, same workload -> same digest (the digest itself is
    # deterministic, so a wheel/heap match is meaningful)
    a = run_determinism({"pingpong": (30,)})
    b = run_determinism({"pingpong": (30,)})
    assert a["pingpong"]["wheel_digest"] == b["pingpong"]["wheel_digest"]
