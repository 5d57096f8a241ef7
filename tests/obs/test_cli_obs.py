"""CLI observability surface: --trace-out/--stats, reports, inspect."""

import json

from repro.cli import main
from repro.obs.schema import (
    validate_bench_report,
    validate_chrome_trace,
    validate_jsonl_trace,
)


class TestRoundtripFlags:
    def test_trace_stats_and_report(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.json")
        rc = main(["roundtrip", "--iters", "20", "--stats",
                   "--trace-out", trace, "--report-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stage attribution" in out
        assert "am.rtt_us histogram" in out

        with open(trace) as f:
            assert validate_chrome_trace(json.load(f)) == []

        report_path = tmp_path / "BENCH_roundtrip.json"
        with open(report_path) as f:
            report = json.load(f)
        assert validate_bench_report(report) == []
        names = [r["name"] for r in report["results"]]
        assert "SP AM one word" in names and "raw ping-pong" in names
        assert all("paper" in r for r in report["results"])
        rtt = report["stats"]["histograms"]["am.rtt_us"]
        assert {"p50", "p95", "p99"} <= set(rtt)
        att = report["attribution"]
        am_row = next(r for r in report["results"]
                      if r["name"] == "SP AM one word")
        # acceptance criterion: stage sum within ±5% of the measured rtt
        assert abs(att["attributed_us"] - am_row["measured"]) \
            <= 0.05 * am_row["measured"]
        assert {"REQUEST", "REPLY"} <= set(report["critpath"])

    def test_jsonl_format(self, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        rc = main(["roundtrip", "--iters", "10", "--no-report",
                   "--trace-out", trace, "--trace-format", "jsonl"])
        assert rc == 0
        assert validate_jsonl_trace(trace) == []

    def test_no_report_writes_nothing(self, tmp_path):
        rc = main(["roundtrip", "--iters", "10", "--no-report",
                   "--report-dir", str(tmp_path)])
        assert rc == 0
        assert list(tmp_path.iterdir()) == []


class TestTableReports:
    def test_table2_report(self, tmp_path):
        assert main(["table2", "--report-dir", str(tmp_path)]) == 0
        with open(tmp_path / "BENCH_table2.json") as f:
            report = json.load(f)
        assert validate_bench_report(report) == []
        assert len(report["results"]) == 8  # request/reply x 1..4 words


class TestInspect:
    def test_inspect_all_formats(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.json")
        main(["roundtrip", "--iters", "10", "--stats",
              "--trace-out", trace, "--report-dir", str(tmp_path)])
        capsys.readouterr()
        rc = main(["inspect", trace,
                   str(tmp_path / "BENCH_roundtrip.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "chrome-trace [OK]" in out
        assert "bench-report [OK]" in out
        assert "dma_wire:REQUEST" in out

    def test_inspect_jsonl(self, tmp_path, capsys):
        trace = str(tmp_path / "t.jsonl")
        main(["roundtrip", "--iters", "5", "--no-report",
              "--trace-out", trace, "--trace-format", "jsonl"])
        capsys.readouterr()
        assert main(["inspect", trace]) == 0
        out = capsys.readouterr().out
        assert "jsonl [OK]" in out and "10 spans" in out
        # the critical-path stages are re-derived from the dumped marks
        assert "dma_wire:REQUEST" in out

    def test_inspect_bad_file_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}\n")
        assert main(["inspect", str(bad)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_inspect_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "missing.json")]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestValidateCli:
    def test_validate_cli_main(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.json")
        main(["roundtrip", "--iters", "5", "--no-report",
              "--trace-out", trace])
        capsys.readouterr()
        assert main(["validate", trace]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_flags_problems(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}\n")
        assert main(["validate", str(bad)]) == 1
        assert "FAIL" in capsys.readouterr().out
