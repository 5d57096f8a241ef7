"""``perflab.compare`` verdicts on synthetic reports."""

import json

from perflab import compare
from perflab.stats import undisturbed


def test_verdict_rules():
    v = compare.verdict
    # host metric with a 10 % bound
    assert v(1.0, 1.05, "lower", 0.10, False, 0.02, 0.03) == "same"
    assert v(1.0, 1.20, "lower", 0.10, False, 0.02, 0.03) == "worse"
    assert v(1.0, 0.80, "lower", 0.10, False, 0.02, 0.03) == "better"
    assert v(1.0, 1.20, "higher", 0.10, False, 0.02, 0.03) == "better"
    # either run's spread wider than the bound: cannot tell
    assert v(1.0, 1.20, "lower", 0.10, False, 0.15, 0.03) == "unresolved"
    assert v(1.0, 1.00, "lower", 0.10, False, 0.02, 0.30) == "unresolved"
    # exact metrics compare by equality, whatever the size of the change
    assert v(50.2, 50.2, "lower", None, True) == "same"
    assert v(50.2, 50.2000001, "lower", None, True) == "worse"
    assert v(34.3, 34.4, "higher", None, True) == "better"
    # host layer metrics carry no bound
    assert v(1.0, 2.0, "lower", None, False) == "info"


def _report(wall, sim_us, events_per_op, digest="d0"):
    return {"workloads": {"am-pingpong": {
        "end_to_end": {"wall_s": undisturbed(wall),
                       "sim_us": {"value": sim_us}},
        "layers": {"sim.events_per_op": events_per_op,
                   "sim.adj_events_per_s": 1.0 / wall[0]},
        "event_digest": digest}}}


def test_rows_and_exit_code(tmp_path, capsys):
    base = _report([1.00, 1.01, 1.02, 1.01], 1506.0, 20.0)
    same = _report([1.02, 1.03, 1.01, 1.02], 1506.0, 20.0)
    slow = _report([1.30, 1.31, 1.32, 1.31], 1506.5, 21.0, digest="d1")
    paths = {}
    for name, rep in (("a", base), ("b", same), ("c", slow)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(rep))

    verdicts = {r[1]: r[-1] for r in compare.rows(base, same)}
    assert verdicts == {"wall_s": "same", "sim_us": "same",
                        "sim.events_per_op": "same",
                        "sim.adj_events_per_s": "info",
                        "event_digest": "same"}
    assert compare.main([str(paths["a"]), str(paths["b"])]) == 0

    verdicts = {r[1]: r[-1] for r in compare.rows(base, slow)}
    assert verdicts["wall_s"] == "worse"
    assert verdicts["sim_us"] == "worse"
    assert verdicts["sim.events_per_op"] == "worse"
    assert verdicts["event_digest"] == "changed"
    assert compare.main([str(paths["a"]), str(paths["c"])]) == 1
    out = capsys.readouterr().out
    assert "base: A" in out and "1.3" in out
