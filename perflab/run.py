"""perflab: run the workloads, check their outputs, print every metric.

    python -m perflab.run [--workload W ...] [--seed 11] [--repeats 5 |
        --seconds S] [--trace] [--quick] [--json OUT] [--trace-out OUT]
    python -m perflab.run --selfcheck

Without ``--trace`` this is the untraced pass: every repeat of a workload
is one fresh ``python`` subprocess (``PYTHONHASHSEED=0``), never two at
once, repeats interleaved round-robin over the workloads so slow drift of
a shared machine hits all of them alike.  It prints the end-to-end
metrics, each with the n, min, quartiles and max of its samples.

With ``--trace`` it is the traced pass: one untraced repeat at the
measured size (simulated results and exact counts) and one traced worker
at a quarter of it (profile, digest, queue depth, sim spans, rungs).  It
prints the per-layer metrics and never an end-to-end host number.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` for the benchmark
driver, which calls ``--workload W --seed N --seconds S --trace 0|1``.
Exit code 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional

from perflab.metrics import (BY_NAME, DRIVER_END_TO_END, DRIVER_PER_LAYER,
                             END_TO_END)
from perflab.stats import iqr_share, summarize, undisturbed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: the workload names, in report order (perflab.workloads holds the
#: definitions; this process never imports the program under test)
WORKLOAD_NAMES = ("engine-churn", "am-pingpong", "am-bulk", "alltoall-16",
                  "ring-256", "mpi-mix", "lossy-soak")

DEFAULT_REPEATS = 5
#: a time budget never cuts the repeats below this
MIN_REPEATS = 3
#: one worker may take this long before it is killed
WORKER_TIMEOUT_S = 150


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, size: str, mode: str,
               hashseed: str = "0") -> Dict:
    """Run one worker subprocess to completion and return its result."""
    cmd = [sys.executable, "-m", "perflab.worker", "--workload", workload,
           "--seed", str(seed), "--size", size, "--mode", mode]
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{workload}: worker exceeded "
                           f"{WORKER_TIMEOUT_S} s and was killed") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{workload}: worker exited {proc.returncode}\n"
                           + proc.stderr[-4000:])
    return json.loads(proc.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# statistics and the manifest
# ---------------------------------------------------------------------------

def _git(*args: str) -> Optional[str]:
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def manifest(args, size: str) -> Dict:
    """Enough context to trust or reproduce the numbers (ROADMAP 1(d))."""
    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "loadavg_end": None,
        "seed": args.seed, "size": size,
        "repeats": args.repeats, "seconds": args.seconds,
        "argv": sys.argv[1:],
    }


# ---------------------------------------------------------------------------
# the two passes
# ---------------------------------------------------------------------------

def _merge_layers(name: str, runs: List[Dict], problems: List[str]) -> Dict:
    """Layer metrics of several repeats: an exact one must be the same in
    all of them (a disagreement is a failed check), a host-clock one is
    taken from its best repeat, like the end-to-end host times."""
    layer = {}
    for key in runs[0]["layers"]:
        vals = [r["layers"][key] for r in runs]
        if BY_NAME[key].exact:
            if len(set(vals)) > 1:
                problems.append(f"{name}: exact metric {key} differs "
                                f"between repeats: {sorted(set(vals))}")
            layer[key] = vals[0]
        else:
            layer[key] = (max if BY_NAME[key].better == "higher"
                          else min)(vals)
    return layer


def reduce_untraced(name: str, rs: List[Dict]) -> Dict:
    """One workload's report entry from the results of its repeats."""
    problems: List[str] = []
    slices = rs[0]["slices"]
    e2e = {
        # every slice of every repeat timed the same work
        "wall_s": undisturbed(
            [w for r in rs for w in r["slice_walls_s"]], slices),
        "setup_s": undisturbed([r["setup_s"] for r in rs]),
        "peak_rss_mb": summarize([r["peak_rss_mb"] for r in rs]),
    }
    e2e["peak_rss_mb"]["value"] = e2e["peak_rss_mb"]["median"]
    e2e["peak_rss_mb"]["spread"] = iqr_share(e2e["peak_rss_mb"])
    for key in ("sim_us", "paper_dev_pct"):
        vals = sorted({r[key] for r in rs})
        if len(vals) > 1:
            problems.append(f"{name}: exact metric {key} differs between "
                            f"repeats: {vals}")
        e2e[key] = {"value": vals[-1]}
    attempted = sum(r["attempted"] for r in rs)
    failed = sum(r["failed"] for r in rs)
    e2e["fail_share"] = {"value": failed / attempted}
    layer = _merge_layers(name, rs, problems)
    layer["harness.wall_iqr_pct"] = 100.0 * iqr_share(e2e["wall_s"])
    return {
        "size": rs[0]["size"], "slices": slices, "repeats": len(rs),
        "machine_speed_x": summarize([r["machine_speed_x"] for r in rs]),
        "attempted": attempted, "failed": failed,
        "notes": [n for r in rs for n in r["notes"]][:8] + problems,
        "exact_ok": not problems,
        "end_to_end": e2e, "layers": layer,
        "phases": rs[0]["phases"],
    }


def untraced_pass(names: List[str], seed: int, size: str,
                  repeats: Optional[int], seconds: Optional[float],
                  log) -> Dict[str, Dict]:
    """Interleaved repeats; returns one report entry per workload."""
    runs: Dict[str, List[Dict]] = {n: [] for n in names}
    t0 = time.perf_counter()
    rounds = 0
    while True:
        if repeats is not None:
            if rounds >= repeats:
                break
        elif (rounds >= MIN_REPEATS
              and time.perf_counter() - t0 >= seconds * len(names)):
            break
        for name in names:
            runs[name].append(run_worker(name, seed, size, "plain"))
            last = runs[name][-1]
            log(f"  {name} repeat {rounds + 1}: setup "
                f"{last['setup_s']:.3f} s, machine speed "
                f"x{last['machine_speed_x']:.3f}, slices "
                + " ".join(f"{w:.3f}" for w in last["slice_walls_s"]))
        rounds += 1
    return {name: reduce_untraced(name, runs[name]) for name in names}


def traced_pass(names: List[str], seed: int, size: str, log,
                spans_out: Optional[Dict] = None) -> Dict[str, Dict]:
    """One untraced repeat at ``size`` plus one traced worker per workload."""
    trace_size = "quick" if size == "quick" else "trace"
    report = {}
    for name in names:
        plain = run_worker(name, seed, size, "plain")
        traced = run_worker(name, seed, trace_size, "trace")
        log(f"  {name}: untraced {sum(plain['slice_walls_s']):.3f} s, "
            "traced worker "
            f"{traced['profiled_wall_s'] + traced['instrumented_wall_s']:.3f}"
            " s")
        layer = dict(traced["layers"])
        # simulated results and counts come from the measured size; host
        # times and what only tracing can see from the quarter-size worker
        layer.update({k: v for k, v in plain["layers"].items()
                      if BY_NAME[k].exact})
        # a build time is only honest in a fresh process (see derive)
        if "hardware.build_ms_per_node" in plain["layers"]:
            layer["hardware.build_ms_per_node"] = (
                plain["layers"]["hardware.build_ms_per_node"])
        layer["sim_us"] = plain["sim_us"]
        layer["paper_dev_pct"] = plain["paper_dev_pct"]
        problems = [f"{name}: traced and untraced runs disagree on {k}"
                    for k in traced["exact_mismatch"]]
        if spans_out is not None:
            spans_out[name] = traced["spans"]
        report[name] = {
            "size": size, "trace_size": trace_size,
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "notes": (plain["notes"] + traced["notes"])[:8] + problems,
            "exact_ok": not problems,
            "event_digest": traced["event_digest"],
            "call_costs_sim_us": traced["call_costs_sim_us"],
            "layers": layer,
        }
    return report


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.1f}"
    return f"{value:.4g}" if abs(value) < 1 else f"{value:.4f}"


def print_report(report: Dict, out=sys.stdout) -> None:
    for name, entry in report["workloads"].items():
        print(f"\n== {name}  (seed {report['manifest']['seed']}, size "
              f"{entry['size']}, {entry.get('repeats', 1)} repeat(s))",
              file=out)
        share = entry["failed"] / entry["attempted"]
        print(f"  checks: {entry['attempted']} attempted, "
              f"{entry['failed']} failed, fail_share {_fmt(share)}", file=out)
        for note in entry["notes"]:
            print(f"    ! {note}", file=out)
        for m in END_TO_END:
            st = entry.get("end_to_end", {}).get(m.name)
            if st is None:
                continue
            head = (f"  {m.name:<34}{m.clock:>5} {m.unit:>6}  "
                    f"{_fmt(st['value']):>14}  ")
            if m.exact:
                print(f"{head}exact", file=out)
            else:
                print(f"{head}n={st['n']} min {_fmt(st['min'])} "
                      f"q1 {_fmt(st['q1'])} median {_fmt(st['median'])} "
                      f"q3 {_fmt(st['q3'])} max {_fmt(st['max'])}  "
                      f"bound {m.bound:.0%}", file=out)
        for key in sorted(entry["layers"]):
            m = BY_NAME[key]
            print(f"  {key:<34}{m.clock:>5} {m.unit:>6}  "
                  f"{_fmt(entry['layers'][key]):>14}"
                  f"{'  exact' if m.exact else ''}", file=out)
        if entry.get("event_digest"):
            print(f"  event_digest {entry['event_digest']}", file=out)


def driver_line(report: Dict, traced: bool) -> Dict:
    """The benchmark driver's result object.  The driver runs one workload
    at a time; after several, each metric name is prefixed with its
    workload's."""
    entries = report["workloads"]
    metrics = {}
    for name, entry in entries.items():
        prefix = f"{name}/" if len(entries) > 1 else ""
        if traced:
            for m in DRIVER_PER_LAYER:
                # a layer metric the workload does not exercise reads 0
                metrics[prefix + m.name] = {
                    "value": entry["layers"].get(m.name, 0.0), "unit": m.unit}
        else:
            for m in DRIVER_END_TO_END:
                metrics[prefix + m.name] = {
                    "value": entry["end_to_end"][m.name]["value"],
                    "unit": m.unit}
    failed = sum(e["failed"] for e in entries.values())
    return {
        "correct": failed == 0 and all(e["exact_ok"]
                                       for e in entries.values()),
        "attempted": sum(e["attempted"] for e in entries.values()),
        "failed": failed,
        "metrics": metrics,
    }


def exit_code(line: Dict) -> int:
    """0 only when every output check of every run passed."""
    return 0 if line["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="perflab.run", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                    help="run only this workload (repeatable)")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--repeats", type=int,
                    help=f"repeats per workload (default {DEFAULT_REPEATS})")
    ap.add_argument("--seconds", type=float,
                    help="instead of --repeats: add rounds of repeats until "
                         "this many seconds per workload are spent "
                         f"(at least {MIN_REPEATS} rounds)")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                    choices=(0, 1), help="run the traced pass")
    ap.add_argument("--quick", action="store_true",
                    help="smoke sizes (numbers are not comparable)")
    ap.add_argument("--json", metavar="OUT", help="write the report here")
    ap.add_argument("--trace-out", metavar="OUT",
                    help="with --trace: write every span here (JSON)")
    ap.add_argument("--selfcheck", action="store_true",
                    help="prove the exact metrics repeat (see README)")
    args = ap.parse_args(argv)
    if args.repeats is not None and args.seconds is not None:
        ap.error("--repeats and --seconds exclude each other")
    if args.repeats is not None and args.repeats < 1:
        ap.error("--repeats must be at least 1")
    if args.repeats is None and args.seconds is None:
        args.repeats = 3 if args.quick else DEFAULT_REPEATS
    if args.trace_out and not args.trace:
        ap.error("--trace-out needs --trace")

    def log(msg: str) -> None:
        print(msg, file=sys.stderr, flush=True)

    try:
        if args.selfcheck:
            from perflab.selfcheck import selfcheck
            return selfcheck(args.workload or list(WORKLOAD_NAMES),
                             args.seed, log)
        names = args.workload or list(WORKLOAD_NAMES)
        size = "quick" if args.quick else "full"
        report = {"manifest": manifest(args, size),
                  "pass": "traced" if args.trace else "untraced"}
        spans: Optional[Dict] = {} if args.trace_out else None
        if args.trace:
            report["workloads"] = traced_pass(names, args.seed, size, log,
                                              spans)
        else:
            report["workloads"] = untraced_pass(
                names, args.seed, size, args.repeats, args.seconds, log)
    except WorkerFailed as exc:
        print(f"perflab: {exc}", file=sys.stderr)
        return 2
    report["manifest"]["loadavg_end"] = list(os.getloadavg())

    print_report(report)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=1)
    if spans is not None:
        with open(args.trace_out, "w") as fh:
            json.dump(spans, fh)
    line = driver_line(report, bool(args.trace))
    print(json.dumps(line))
    return exit_code(line)


if __name__ == "__main__":
    sys.exit(main())
