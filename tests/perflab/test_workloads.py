"""The workloads check their outputs, the checks can fail, and the exact
metrics repeat."""

from perflab import measure, run
from perflab.metrics import BY_NAME, DRIVER_PER_LAYER


def test_quick_exact_metrics_repeat():
    a = measure.run_once("am-pingpong", 11, "quick", instrument=True)
    b = measure.run_once("am-pingpong", 11, "quick", instrument=True)
    assert a["failed"] == 0 and a["attempted"] == 600
    for key in ("sim_us", "paper_dev_pct", "event_digest", "ops",
                "call_costs_sim_us"):
        assert a[key] == b[key], key
    exact = {k for k in a["layers"] if BY_NAME[k].exact}
    assert {"sim.events_per_op", "sim.pending_mean", "am.rtt_sim_us",
            "am.request_1_sim_us", "hardware.packets_per_op"} <= exact
    for key in exact:
        assert a["layers"][key] == b["layers"][key], key
    # the paper's numbers, read from outside the program
    assert abs(a["layers"]["am.request_1_sim_us"] - 7.7) < 0.05
    assert abs(a["layers"]["am.reply_1_sim_us"] - 4.0) < 0.05
    assert 49.0 < a["layers"]["am.rtt_sim_us"] < 52.0
    assert 0 < a["paper_dev_pct"] < 4.0


def test_every_emitted_metric_is_registered():
    driver = {m.name for m in DRIVER_PER_LAYER}
    for name in ("engine-churn", "am-bulk", "lossy-soak"):
        out = measure.run_once(name, 11, "quick")
        assert out["failed"] == 0, out["notes"]
        assert set(out["layers"]) <= driver, name


def _entry(name, out):
    return run.reduce_untraced(name, [out])


def test_a_corrupted_byte_is_caught():
    def flip(phases):
        st = phases[0].state
        mem = st["machine"].node(1).memory
        byte = mem.read(st["pipe_dst"] + 5, 1)[0]
        mem.write(st["pipe_dst"] + 5, bytes([byte ^ 0xFF]))

    out = measure.run_once("am-bulk", 11, "quick", before_finish=flip)
    assert out["failed"] == 1
    assert "pipelined op 0" in out["notes"][0]
    report = {"workloads": {"am-bulk": _entry("am-bulk", out)}}
    share = report["workloads"]["am-bulk"]["end_to_end"]["fail_share"]
    assert share["value"] > 0
    line = run.driver_line(report, traced=False)
    assert line["correct"] is False and line["failed"] == 1
    assert run.exit_code(line) == 1


def test_a_wrong_handler_count_is_caught():
    def bump(phases):
        phases[0].state["counts"]["served"] += 1

    out = measure.run_once("am-pingpong", 11, "quick", before_finish=bump)
    assert out["failed"] == 1
    assert "request handler runs" in out["notes"][0]
    line = run.driver_line(
        {"workloads": {"am-pingpong": _entry("am-pingpong", out)}}, False)
    assert run.exit_code(line) == 1


def test_a_clean_run_exits_zero():
    out = measure.run_once("ring-256", 11, "quick")
    line = run.driver_line(
        {"workloads": {"ring-256": _entry("ring-256", out)}}, False)
    assert line["correct"] is True and line["attempted"] == 512
    assert run.exit_code(line) == 0
    assert set(line["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in line["metrics"].values())
