"""``python -m perflab.run --selfcheck``: do the exact metrics repeat?

Runs the traced worker of every workload at ``--quick`` size three times:
twice with the same seed under different ``PYTHONHASHSEED`` values — every
exact metric, every count and the event digest must be identical — and
once more with another seed: the digest of ``engine-churn`` (whose delay
streams the seed draws) must change, and the simulated time of every
machine workload (where the seed only fills payloads, or nothing at all)
must not.
"""

from __future__ import annotations

from typing import Dict, List

from perflab.metrics import BY_NAME
from perflab.run import run_worker

#: workloads whose event order depends on the seed
SEEDED = ("engine-churn",)


def exact_view(run: Dict) -> Dict:
    """Everything in a traced worker's result that must repeat exactly."""
    view = {k: run[k] for k in ("sim_us", "paper_dev_pct", "attempted",
                                "failed", "event_digest",
                                "call_costs_sim_us", "exact_mismatch")}
    view.update({k: v for k, v in run["layers"].items() if BY_NAME[k].exact})
    return view


def selfcheck(names: List[str], seed: int, log) -> int:
    problems: List[str] = []
    for name in names:
        a = run_worker(name, seed, "quick", "trace", hashseed="1")
        b = run_worker(name, seed, "quick", "trace", hashseed="2")
        c = run_worker(name, seed + 1, "quick", "trace", hashseed="1")
        va, vb = exact_view(a), exact_view(b)
        differing = sorted(k for k in va if va[k] != vb.get(k))
        for k in differing:
            problems.append(f"{name}: {k} differs between hash seeds: "
                            f"{va[k]!r} vs {vb.get(k)!r}")
        for run in (a, b, c):
            if run["failed"] or run["exact_mismatch"]:
                problems.append(f"{name}: output checks failed: "
                                f"{run['notes']} {run['exact_mismatch']}")
        if name in SEEDED:
            if a["event_digest"] == c["event_digest"]:
                problems.append(f"{name}: digest did not change with the seed")
        elif a["sim_us"] != c["sim_us"]:
            problems.append(f"{name}: sim_us changed with the seed: "
                            f"{a['sim_us']!r} vs {c['sim_us']!r}")
        log(f"  {name}: {len(va)} exact values compared, digest "
            f"{a['event_digest']}, "
            f"{'ok' if not differing else 'MISMATCH'}")
    for p in problems:
        print(f"selfcheck: {p}")
    print(f"selfcheck: {len(names)} workloads, {len(problems)} problems")
    return 1 if problems else 0
