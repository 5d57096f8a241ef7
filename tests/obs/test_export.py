"""Exporter tests: Chrome trace-event output, format sniffing, schemas."""

import json

import pytest

from repro.bench.pingpong import am_roundtrip
from repro.obs import (
    Observatory,
    chrome_trace,
    critpath_stages,
    write_chrome_trace,
)
from repro.obs.export import SWITCH_PID, TID_PHASE
from repro.obs.schema import (
    sniff_and_validate,
    validate_bench_report,
    validate_chrome_trace,
)


@pytest.fixture(scope="module")
def observed():
    obs = Observatory()
    am_roundtrip(words=1, iterations=20, obs=obs)
    obs.phase(0, "phase", "compute", 100.0, 250.0)
    return obs


class TestChromeTrace:
    def test_validates(self, observed):
        assert validate_chrome_trace(chrome_trace(observed)) == []

    def test_one_event_per_span_stage(self, observed):
        trace = chrome_trace(observed)
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"
              and e.get("cat") in ("REQUEST", "REPLY")]
        # 40 spans x 8 critical-path stages (no backoff, no link queueing)
        assert len(xs) == 40 * 8
        # the slices are the critical path: each span's slices tile its life
        for span in observed.spans.values():
            mine = [e for e in xs if e["args"]["trace_id"] == span.trace_id]
            assert [e["name"].split(":")[0] for e in mine] \
                == list(critpath_stages(span))
            assert sum(e["dur"] for e in mine) \
                == pytest.approx(span.total_us())

    def test_switch_stage_on_switch_process(self, observed):
        trace = chrome_trace(observed)
        sw = [e for e in trace["traceEvents"]
              if e["ph"] == "X" and e["pid"] == SWITCH_PID]
        assert sw and all(e["name"].startswith("switch_hw:") for e in sw)
        # switch rows are keyed by destination link
        assert {e["tid"] for e in sw} == {0, 1}

    def test_phase_spans_on_phase_track(self, observed):
        trace = chrome_trace(observed)
        ph = [e for e in trace["traceEvents"]
              if e["ph"] == "X" and e["tid"] == TID_PHASE]
        assert ph == [{"name": "compute", "cat": "phase", "ph": "X",
                       "ts": 100.0, "dur": 150.0, "pid": 0,
                       "tid": TID_PHASE, "args": {"track": "phase"}}]

    def test_process_metadata_present(self, observed):
        trace = chrome_trace(observed)
        names = {(e["pid"], e["args"]["name"])
                 for e in trace["traceEvents"] if e["ph"] == "M"
                 and e["name"] == "process_name"}
        assert (0, "node 0") in names
        assert (1, "node 1") in names
        assert (SWITCH_PID, "switch") in names

    def test_events_sorted_by_ts(self, observed):
        xs = [e["ts"] for e in chrome_trace(observed)["traceEvents"]
              if e["ph"] == "X"]
        assert xs == sorted(xs)

    def test_write_is_valid_json(self, observed, tmp_path):
        path = str(tmp_path / "trace.json")
        write_chrome_trace(observed, path)
        with open(path) as f:
            assert validate_chrome_trace(json.load(f)) == []


class TestSniff:
    def test_detects_all_three_formats(self, observed, tmp_path):
        from repro.bench.benchjson import make_report, write_report

        chrome = str(tmp_path / "t.json")
        write_chrome_trace(observed, chrome)
        report = write_report(
            make_report("x", [("a", 1.0, 1.1)]), str(tmp_path))
        for path, fmt in ((chrome, "chrome-trace"),
                          (report, "bench-report")):
            res = sniff_and_validate(path)
            assert res["format"] == fmt
            assert res["problems"] == []

    def test_non_json_rejected(self, tmp_path):
        path = str(tmp_path / "junk.txt")
        with open(path, "w") as f:
            f.write("hello\n")
        res = sniff_and_validate(path)
        assert res["format"] == "unknown" and res["problems"]


class TestBenchReport:
    def test_report_shape(self, observed):
        from repro.bench.benchjson import make_report

        report = make_report(
            "roundtrip", [("SP AM one word", 51.0, 50.95)], obs=observed)
        assert validate_bench_report(report) == []
        row = report["results"][0]
        assert row["paper"] == 51.0
        assert row["measured"] == 50.95
        assert row["dev_pct"] == pytest.approx(-0.1, abs=0.02)
        # histogram snapshot with tail percentiles rides along
        rtt = report["stats"]["histograms"]["am.rtt_us"]
        assert {"p50", "p95", "p99"} <= set(rtt)
        assert set(report["critpath"]) == {"ALL", "REQUEST", "REPLY"}
        assert set(report["critpath"]["ALL"]) >= {"switch_hw", "handler"}

    def test_report_round_trips_through_disk(self, tmp_path):
        from repro.bench.benchjson import make_report, write_report

        report = make_report("t", [("a", None, 2.0)])
        path = write_report(report, str(tmp_path))
        assert path.endswith("BENCH_t.json")
        with open(path) as f:
            assert json.load(f) == report

    def test_missing_results_invalid(self):
        assert validate_bench_report({"schema": "spam-bench/1",
                                      "experiment": "x"})
