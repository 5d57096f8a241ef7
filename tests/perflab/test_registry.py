"""BENCHMARK.json, the metric registry and the workloads name the same
things, within the benchmark contract's limits."""

import json
import os
import re

from perflab import metrics, run
from perflab.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_is_the_registry():
    whys = {w.name: w.why for w in WORKLOADS.values()}
    assert _benchmark() == metrics.benchmark_json(whys)


def test_workload_names_agree():
    assert tuple(WORKLOADS) == run.WORKLOAD_NAMES
    assert [w["name"] for w in _benchmark()["workloads"]] == list(WORKLOADS)


def test_names_units_and_limits():
    bench = _benchmark()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert 1 <= bench["run_seconds"] <= 60
    # 4 + 22 runs per workload, each about run_seconds plus overhead
    assert (4 + 22 * len(bench["workloads"])) * (bench["run_seconds"] + 8) \
        < 3420


def test_every_layer_has_both_profile_metrics():
    from perflab.layers import LAYERS

    for layer in LAYERS:
        assert f"{layer}.self_share" in metrics.BY_NAME
        assert f"{layer}.py_calls_per_op" in metrics.BY_NAME
