"""Pure-python schema validation for the exporter formats.

The container has no ``jsonschema``, and the formats are small, so the
checks are hand-rolled: each validator returns a list of problem strings
(empty means valid).  ``spam-bench inspect`` runs these over every file
it is given and exits 1 on any problem, which makes it CI's artifact
gate; tests assert on the problem lists directly.

Validated formats:

* Chrome trace-event JSON (object form with ``traceEvents``), the one
  trace format,
* ``BENCH_<experiment>.json`` reports (``spam-bench/1``).
"""

from __future__ import annotations

import json
from typing import Dict, List

BENCH_SCHEMA = "spam-bench/1"

_PHASE_REQUIRED = {
    "X": ("name", "ts", "dur", "pid", "tid"),
    "B": ("name", "ts", "pid", "tid"),
    "E": ("ts", "pid", "tid"),
    "M": ("name", "pid"),
    "C": ("name", "ts", "pid"),
    "i": ("name", "ts", "pid"),
}


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def validate_chrome_trace(obj) -> List[str]:
    """Problems with a Chrome trace-event JSON object (empty = valid)."""
    problems: List[str] = []
    if not isinstance(obj, dict):
        return ["top level must be an object with 'traceEvents'"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["'traceEvents' missing or not a list"]
    if not events:
        problems.append("'traceEvents' is empty")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        ph = ev.get("ph")
        if not isinstance(ph, str):
            problems.append(f"event {i}: missing 'ph'")
            continue
        for key in _PHASE_REQUIRED.get(ph, ("ts", "pid")):
            if key not in ev:
                problems.append(f"event {i} (ph={ph}): missing {key!r}")
        for key in ("ts", "dur"):
            if key in ev and not _is_num(ev[key]):
                problems.append(f"event {i}: {key!r} not numeric")
        if ev.get("ph") == "X" and _is_num(ev.get("dur")) and ev["dur"] < 0:
            problems.append(f"event {i}: negative duration {ev['dur']}")
        if len(problems) > 20:
            problems.append("... further problems suppressed")
            break
    return problems


def validate_bench_report(obj) -> List[str]:
    """Problems with a BENCH_<experiment>.json report (empty = valid)."""
    problems: List[str] = []
    if not isinstance(obj, dict):
        return ["top level must be an object"]
    if obj.get("schema") != BENCH_SCHEMA:
        problems.append(f"schema {obj.get('schema')!r} != {BENCH_SCHEMA!r}")
    if not isinstance(obj.get("experiment"), str):
        problems.append("'experiment' missing or not a string")
    results = obj.get("results")
    if not isinstance(results, list) or not results:
        problems.append("'results' missing or empty")
        results = []
    for i, row in enumerate(results):
        if not isinstance(row, dict):
            problems.append(f"result {i}: not an object")
            continue
        if not isinstance(row.get("name"), str):
            problems.append(f"result {i}: missing 'name'")
        if not _is_num(row.get("measured")):
            problems.append(f"result {i}: 'measured' not numeric")
        if "paper" in row and row["paper"] is not None \
                and not _is_num(row["paper"]):
            problems.append(f"result {i}: 'paper' not numeric/null")
    stats = obj.get("stats")
    if stats is not None:
        if not isinstance(stats, dict):
            problems.append("'stats' not an object")
        else:
            for section in ("counters", "histograms"):
                if section in stats and not isinstance(stats[section], dict):
                    problems.append(f"stats.{section} not an object")
    return problems


def sniff_and_validate(path: str) -> Dict:
    """Detect the format of ``path`` and validate it.

    Returns ``{"path", "format", "problems"}`` where format is one of
    ``chrome-trace``, ``bench-report``, or ``unknown``.  A file that does
    not parse as JSON (truncated, binary) is ``unknown`` with the parse
    error as its problem; only an unreadable path raises (``OSError``).
    """
    try:
        with open(path) as f:
            obj = json.load(f)
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
        return {"path": path, "format": "unknown",
                "problems": [f"not a JSON document: {e}"]}
    if isinstance(obj, dict) and "traceEvents" in obj:
        return {"path": path, "format": "chrome-trace",
                "problems": validate_chrome_trace(obj)}
    if isinstance(obj, dict) and obj.get("schema") == BENCH_SCHEMA:
        return {"path": path, "format": "bench-report",
                "problems": validate_bench_report(obj)}
    return {"path": path, "format": "unknown",
            "problems": ["unrecognized JSON document"]}
