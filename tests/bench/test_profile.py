"""``spam-bench profile``: the critical-path profiling suite end to end."""

import json

import pytest

from repro.bench.benchjson import make_report
from repro.bench.profile import COVERAGE_FLOOR, render_dashboard, run_profile
from repro.obs.export import chrome_trace
from repro.obs.schema import (
    validate_bench_report,
    validate_chrome_trace,
)


@pytest.fixture(scope="module")
def data():
    return run_profile(quick=True, period_us=25.0, topk=3)


@pytest.fixture(scope="module")
def report(data):
    return make_report("obsprofile", data["entries"], obs=data["obs"],
                       extra={"profile": data["profile"]})


def test_profile_passes_its_own_gates(data):
    assert data["ok"] is True
    cov = data["profile"]["workloads"]["pingpong"]["coverage"]
    assert cov["coverage"] >= COVERAGE_FLOOR
    assert data["profile"]["workloads"]["soak"]["violations"] == []


def test_over_attribution_fails_the_gate(monkeypatch):
    """Coverage above 105% means some time is counted twice, so the
    coverage gate is two-sided."""
    import repro.bench.profile as profile

    real = profile.attribution_coverage
    monkeypatch.setattr(profile, "attribution_coverage",
                        lambda obs, rtt: real(obs, rtt / 1.2))
    data = profile.run_profile(quick=True)
    cov = data["profile"]["workloads"]["pingpong"]["coverage"]
    assert cov["coverage"] == pytest.approx(1.2)
    assert data["ok"] is False


def test_three_workloads_each_carry_the_evidence_bundle(data):
    workloads = data["profile"]["workloads"]
    assert set(workloads) == {"pingpong", "bulk", "soak"}
    for w in workloads.values():
        assert w["spans"] > 0
        assert w["sampler_ticks"] > 0
        assert "ALL" in w["rollup"]
        assert w["verdict"]["stage"] is not None
        assert w["exemplars"]
        assert len(w["exemplars"]) <= 3
        assert w["gauges"]              # sampler summaries present
    assert workloads["soak"]["injected"] > 0


def test_report_entries_include_rtt_and_coverage(data):
    names = [name for name, _, _ in data["entries"]]
    assert "pingpong rtt (us)" in names
    assert "pingpong attribution coverage" in names


def test_report_is_json_safe_and_schema_valid(report):
    json.dumps(report)                  # no sets / objects leaked through
    assert validate_bench_report(report) == []


def test_schema_rejects_malformed_profile_sections(report):
    broken = json.loads(json.dumps(report))
    del broken["profile"]["workloads"]
    assert validate_bench_report(broken)

    broken = json.loads(json.dumps(report))
    broken["profile"]["workloads"]["pingpong"]["rollup"] = {}
    assert validate_bench_report(broken)

    broken = json.loads(json.dumps(report))
    broken["profile"]["workloads"]["pingpong"]["coverage"] = {"nope": 1}
    assert validate_bench_report(broken)

    broken = json.loads(json.dumps(report))
    broken["profile"] = "not a dict"
    assert validate_bench_report(broken)


def test_dashboard_renders_every_workload(data):
    text = render_dashboard(data)
    assert "critical-path profile" in text
    for wname in ("pingpong", "bulk", "soak"):
        assert wname in text
    assert "bottleneck:" in text
    assert "attribution:" in text
    assert "slowest message:" in text


def test_pingpong_trace_exports_counter_tracks(data):
    trace = chrome_trace(data["obs"])
    assert validate_chrome_trace(trace) == []
    assert any(e.get("ph") == "C" for e in trace["traceEvents"])


def test_cli_validate_subcommand(tmp_path, report):
    from repro.cli import main

    good = tmp_path / "BENCH_obsprofile.json"
    good.write_text(json.dumps(report))
    assert main(["inspect", str(good)]) == 0

    bad = tmp_path / "BENCH_broken.json"
    broken = json.loads(json.dumps(report))
    broken["profile"] = "not a dict"
    bad.write_text(json.dumps(broken))
    assert main(["inspect", str(bad)]) != 0
    assert main(["inspect", str(good), str(bad)]) != 0
