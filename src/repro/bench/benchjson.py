"""Machine-readable bench reports: ``BENCH_<experiment>.json``.

Every table-style experiment the CLI runs can also leave behind a JSON
report (schema ``spam-bench/1``) pairing the paper's published numbers
with the measured ones, plus — when an Observatory was attached — the
merged counter/histogram snapshot and the per-kind critical-path rollup.
CI and regression tooling consume these instead of scraping the ASCII
tables.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from typing import Dict, Iterable, Optional, Tuple

from repro.obs.schema import BENCH_SCHEMA


def make_report(
    experiment: str,
    entries: Iterable[Tuple],
    obs=None,
    extra: Optional[Dict] = None,
) -> Dict:
    """Build a ``spam-bench/1`` report from ``(name, paper, measured)``
    rows (``paper`` may be ``None`` for measurements without a published
    counterpart), each optionally followed by a dict of further fields
    for its row.  ``obs`` contributes its snapshot and its critical-path
    rollup (:func:`~repro.obs.critpath.critpath_rollup`)."""
    results = []
    for name, paper, measured, *fields in entries:
        row: Dict = {"name": name, "paper": paper,
                     "measured": round(float(measured), 3)}
        if paper:
            row["dev_pct"] = round((measured - paper) / paper * 100.0, 2)
        for more in fields:
            row.update(more)
        results.append(row)
    report: Dict = {
        "schema": BENCH_SCHEMA,
        "experiment": experiment,
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "results": results,
    }
    if obs is not None:
        from repro.obs.critpath import critpath_rollup

        report["stats"] = obs.snapshot()
        critpath = critpath_rollup(obs)
        if critpath:
            report["critpath"] = critpath
    if extra:
        report.update(extra)
    return report


def write_report(report: Dict, directory: str = ".") -> str:
    """Write ``report`` to ``<directory>/BENCH_<experiment>.json``."""
    path = os.path.join(directory, f"BENCH_{report['experiment']}.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return path
