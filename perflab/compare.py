"""Compare two perflab reports: ``python -m perflab.compare A.json B.json``.

``A`` is the base.  One row per (metric, workload) prints both values,
the ratio B / A, the bound, both runs' spread and a verdict:

* ``same``        the values differ by no more than the bound
* ``better`` / ``worse``   they differ by more, in that direction
* ``unresolved``  either run's own spread is wider than the bound, so the
  difference cannot be told from noise — not the same as ``same``

A host time is the fastest of its samples (see ``perflab.stats``); its
spread is how far the first quartile of the samples sits above it.  For
``peak_rss_mb`` (a median) it is the interquartile range over the median.

Exact metrics (simulated time, counts, digests) compare by equality: any
difference is ``better`` or ``worse`` by the metric's direction, and a
digest can only be ``same`` or ``changed``.  Host-clock layer metrics have
no bound; they are printed with their ratio and the verdict ``info``.

Exit code 1 when any row is ``worse`` (or a digest ``changed``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

from perflab.metrics import BY_NAME, END_TO_END


def verdict(base: float, new: float, better: str, bound: Optional[float],
            exact: bool, spread_base: float = 0.0,
            spread_new: float = 0.0) -> str:
    """The verdict for one (metric, workload) cell."""
    if exact:
        if new == base:
            return "same"
        improved = new < base if better == "lower" else new > base
        return "better" if improved else "worse"
    if bound is None:
        return "info"
    if max(spread_base, spread_new) > bound:
        return "unresolved"
    if base == 0:
        return "same" if new == 0 else "unresolved"
    change = (new - base) / base
    if abs(change) <= bound:
        return "same"
    improved = change < 0 if better == "lower" else change > 0
    return "better" if improved else "worse"


def rows(a: Dict, b: Dict) -> List[Tuple]:
    """(workload, metric, base, new, ratio, bound, spread_a, spread_b,
    verdict) for every cell both reports hold."""
    out = []
    for name, ea in a["workloads"].items():
        eb = b["workloads"].get(name)
        if eb is None:
            continue
        for m in END_TO_END:
            sa = ea.get("end_to_end", {}).get(m.name)
            sb = eb.get("end_to_end", {}).get(m.name)
            if sa is None or sb is None:
                continue
            va, vb = sa["value"], sb["value"]
            spa, spb = sa.get("spread", 0.0), sb.get("spread", 0.0)
            out.append((name, m.name, va, vb, vb / va if va else None,
                        m.bound, spa, spb,
                        verdict(va, vb, m.better, m.bound, m.exact,
                                spa, spb)))
        for key in sorted(set(ea["layers"]) & set(eb["layers"])):
            m = BY_NAME[key]
            va, vb = ea["layers"][key], eb["layers"][key]
            out.append((name, key, va, vb, vb / va if va else None, None,
                        0.0, 0.0, verdict(va, vb, m.better, None, m.exact)))
        da, db = ea.get("event_digest"), eb.get("event_digest")
        if da and db:
            out.append((name, "event_digest", da, db, None, None, 0.0, 0.0,
                        "same" if da == db else "changed"))
    return out


def _num(v) -> str:
    if isinstance(v, str):
        return v[:12]
    return f"{v:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perflab.compare",
                                 description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="report A (the base of every ratio)")
    ap.add_argument("new", help="report B")
    ap.add_argument("--all", action="store_true",
                    help="print 'same' and 'info' rows too")
    args = ap.parse_args(argv)
    with open(args.base) as fh:
        a = json.load(fh)
    with open(args.new) as fh:
        b = json.load(fh)
    table = rows(a, b)
    if not table:
        print("perflab.compare: the reports share no (metric, workload) cell",
              file=sys.stderr)
        return 2
    counts: Dict[str, int] = {}
    print(f"{'workload':<14}{'metric':<32}{'A':>13}{'B':>13}"
          f"{'B/A':>9}{'bound':>7}{'sprdA':>7}{'sprdB':>7}  verdict")
    for name, metric, va, vb, ratio, bound, spa, spb, v in table:
        counts[v] = counts.get(v, 0) + 1
        if v in ("same", "info") and not args.all and bound is None:
            continue
        print(f"{name:<14}{metric:<32}{_num(va):>13}{_num(vb):>13}"
              f"{(f'{ratio:.4f}' if ratio is not None else '-'):>9}"
              f"{(f'{bound:.0%}' if bound is not None else '-'):>7}"
              f"{spa:>7.1%}{spb:>7.1%}  {v}")
    print("base: A = " + args.base + "; "
          + ", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return 1 if counts.get("worse") or counts.get("changed") else 0


if __name__ == "__main__":
    sys.exit(main())
