"""``spam-bench`` — command-line driver for the reproduction experiments.

Usage::

    spam-bench list                     # what can be run
    spam-bench roundtrip                # §2.3 latencies
        [--iters N] [--stats] [--trace-out FILE [--trace-format jsonl]]
        [--report-dir DIR | --no-report]
    spam-bench table2|table3|table4|table6
    spam-bench fig3|fig7|fig8|fig9|fig10|fig11
    spam-bench table5 [--keys 2048]
    spam-bench nas [BT|FT|LU|MG|SP]
    spam-bench inspect FILE...          # validate + summarize traces/reports
    spam-bench validate FILE...         # schema validation only (CI gate)
    spam-bench profile [--quick] [--period-us 50] [--topk 5]
                                        # metrics sampler + critical-path
                                        # attribution over three workloads
    spam-bench soak --seed 7 --loss 0.05 [--chaos]
                                        # chaos campaign vs the reliability layer
    spam-bench check --seeds 20 [--loss 0.01] [--shrink]
                                        # randomized conformance campaigns
                                        # under the invariant sanitizer

Table-style experiments also leave a machine-readable
``BENCH_<experiment>.json`` report next to the ASCII table (suppress with
``--no-report``); ``roundtrip --trace-out`` dumps the full message-span
trace in Chrome trace-event or JSONL form (see docs/observability.md).

The table and figure commands print the claim rows of
:mod:`repro.claims` — paper value, measured value, bound and status —
that ``pytest benchmarks/`` checks.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.report import fmt_series, fmt_table

#: the commands that run one experiment of :mod:`repro.claims`
EXPERIMENT_COMMANDS = ("roundtrip", "table2", "table3", "table4", "table5",
                       "table6", "nas", "fig3", "fig7", "fig8", "fig9",
                       "fig10", "fig11")
#: ``spam-bench nas`` kernels: the keys of ``repro.apps.nas.NAS_KERNELS``,
#: spelled out so that parsing arguments does not import the apps
NAS_KERNELS = ("BT", "FT", "LU", "MG", "SP")


def _check_report_dir(args) -> None:
    """Fail before running anything if the report could not be written.

    A missing or read-only ``--report-dir`` would otherwise surface only
    after the whole experiment had run.  Same message as the late failure
    in :func:`_write_report`.
    """
    if getattr(args, "no_report", True):
        return
    import errno
    import os
    import tempfile

    d = args.report_dir
    try:
        if not os.path.isdir(d):
            code = errno.ENOTDIR if os.path.exists(d) else errno.ENOENT
            raise OSError(code, os.strerror(code), d)
        with tempfile.TemporaryFile(dir=d):
            pass
    except OSError as e:
        raise SystemExit(f"spam-bench: cannot write report: {e}")


def _write_report(args, experiment, entries, obs=None, extra=None) -> None:
    if getattr(args, "no_report", True):
        return
    from repro.bench.benchjson import make_report, write_report

    report = make_report(experiment, entries, obs=obs, extra=extra)
    try:
        path = write_report(report, getattr(args, "report_dir", "."))
    except OSError as e:
        raise SystemExit(f"spam-bench: cannot write report: {e}")
    print(f"report: {path}")


def _print_data(name: str, result) -> None:
    """The measurements behind an experiment's claim rows, where the rows
    show only ratios: figure curves, Table 4/5/6 cells."""
    from repro.claims import title

    heading = title(name)
    if name.startswith("fig"):
        unit = "us/hop" if name in ("fig8", "fig10") else "MB/s"
        print(fmt_series(heading, {k: list(v.items())
                                   for k, v in result.items()}, ylabel=unit))
    elif name == "table5":
        rows = []
        for (bench, stack), r in result.runs.items():
            f = result.scale if "sort" in bench else 1
            rows.append((bench, stack, *(f"{t * f:.4g}" for t in
                                         (r.elapsed_s, r.cpu_s, r.net_s))))
        print(fmt_table(f"{heading}, sorts projected x{result.scale}",
                        ["bench", "stack", "total", "cpu", "net"], rows))
    elif name in ("table4", "table6"):
        cols = list(next(iter(result.values())))
        print(fmt_table(heading, ["", *cols],
                        [(k, *(f"{v:.4g}" if isinstance(v, float) else v
                               for v in row.values()))
                         for k, row in result.items()]))


def _observed_roundtrip(args):
    """The §2.3 ping-pong again with an Observatory: ``--stats``,
    ``--trace-out`` and the report's critical-path attribution."""
    from repro.bench.pingpong import am_roundtrip
    from repro.obs import Observatory
    from repro.obs.critpath import attribution_coverage, critpath_rollup

    obs = Observatory()
    am_mean = am_roundtrip(1, args.iters, obs=obs).rtt_us
    att = attribution_coverage(obs, am_mean)
    if args.stats:
        rollup = critpath_rollup(obs)
        # the reply's whole life rides inside the request's handler, which
        # attribution_coverage therefore leaves out of the sum
        rows = [(kind.lower(), stage, round(cell["mean_us"], 2))
                for kind in ("REQUEST", "REPLY")
                for stage, cell in rollup.get(kind, {}).items()
                if (kind, stage) != ("REQUEST", "handler")]
        rows.append(("sum", "request+reply", round(att["attributed_us"], 2)))
        rows.append(("measured", "mean rtt", round(am_mean, 2)))
        print(fmt_table("AM stage attribution (us)",
                        ["kind", "stage", "mean"], rows))
        print(fmt_table("am.rtt_us histogram",
                        ["stat", "value"],
                        [(k, round(v, 2)) for k, v in
                         obs.hist("am.rtt_us").snapshot().items()]))
    if args.trace_out:
        from repro.obs import write_chrome_trace, write_jsonl

        try:
            if args.trace_format == "jsonl":
                write_jsonl(obs, args.trace_out)
            else:
                write_chrome_trace(obs, args.trace_out)
        except OSError as e:
            raise SystemExit(f"spam-bench: cannot write trace: {e}")
        print(f"trace: {args.trace_out} ({args.trace_format})")
    return obs, {"iterations": args.iters, "attribution": att}


def cmd_experiment(args) -> None:
    """Run one experiment of :mod:`repro.claims` and print its claim rows
    (the rows ``pytest benchmarks/`` checks) with paper value, measured
    value, bound and status."""
    from repro import claims

    name = "table6" if args.cmd == "nas" else args.cmd
    kernel = getattr(args, "kernel", None)
    if name == "table5":
        result = claims.table5(args.keys)
    elif kernel:
        result = claims.table6((kernel,))
    else:
        result = claims.EXPERIMENTS[name]()
    rows = [claims.evaluate(c, result) for c in claims.CLAIMS
            if c.experiment == name
            and (kernel is None or c.id == f"table6.{kernel}")]
    _print_data(name, result)
    print(claims.render(claims.title(name), rows))
    obs = extra = None
    if name == "roundtrip":
        obs, extra = _observed_roundtrip(args)
    _write_report(args, name, claims.report_entries(rows), obs=obs,
                  extra=extra)


def cmd_profile(args) -> int:
    from repro.bench.profile import (
        COVERAGE_CEIL,
        COVERAGE_FLOOR,
        render_dashboard,
        run_profile,
    )

    data = run_profile(quick=args.quick, period_us=args.period_us,
                       topk=args.topk)
    print(render_dashboard(data))
    if args.trace_out:
        from repro.obs import write_chrome_trace

        try:
            write_chrome_trace(data["obs"], args.trace_out)
        except OSError as e:
            raise SystemExit(f"spam-bench: cannot write trace: {e}")
        print(f"trace: {args.trace_out} (chrome, with counter tracks)")
    _write_report(args, "obsprofile", data["entries"], obs=data["obs"],
                  extra={"profile": data["profile"]})
    if not data["ok"]:
        cov = data["profile"]["workloads"]["pingpong"]["coverage"]
        print(f"FAIL: attribution coverage "
              f"{cov['coverage'] * 100.0:.1f}% outside "
              f"{COVERAGE_FLOOR * 100.0:.0f}-{COVERAGE_CEIL * 100.0:.0f}%, "
              f"or the soak leg saw violations")
        return 1
    return 0


def cmd_validate(args) -> int:
    from repro.obs.schema import sniff_and_validate

    failed = False
    for path in args.files:
        try:
            result = sniff_and_validate(path)
        except OSError as e:
            print(f"FAIL  {path}: {e}")
            failed = True
            continue
        if result["problems"]:
            failed = True
            print(f"FAIL  {path} ({result['format']})")
            for p in result["problems"]:
                print(f"      - {p}")
        else:
            print(f"OK    {path} ({result['format']})")
    return 1 if failed else 0


def cmd_soak(args) -> int:
    from repro.faults import run_soak
    from repro.obs.critpath import bottleneck_verdict, critpath_rollup

    sample = args.sample_period_us if args.sample_period_us > 0 else None
    try:
        result = run_soak(
            seed=args.seed, loss=args.loss, nodes=args.nodes,
            pingpong=args.pingpong, chaos=args.chaos,
            compare_clean=not args.no_clean,
            sample_period_us=sample,
        )
    except ValueError as e:
        # e.g. --nodes 1: every rank needs a right neighbour
        raise SystemExit(f"spam-bench: {e}")
    print("\n".join(result.summary_lines()))
    critpath = critpath_rollup(result.obs)
    verdict = bottleneck_verdict(critpath, result.obs.metrics)
    if verdict["stage"] is not None:
        line = (f"  critical path: {verdict['stage']} dominates "
                f"({verdict['share'] * 100.0:.1f}% of attributed time)")
        if verdict.get("gauge"):
            line += f", gauge {verdict['gauge']} p95={verdict['gauge_p95']:.3g}"
        print(line)
    if args.trace_out:
        from repro.obs import write_jsonl

        try:
            write_jsonl(result.obs, args.trace_out)
        except OSError as e:
            raise SystemExit(f"spam-bench: cannot write trace: {e}")
        print(f"trace: {args.trace_out} (jsonl)")
    entries = [
        ("faults injected", None, float(result.total_injected)),
        ("retransmissions", None, result.counters.get("retransmissions", 0.0)),
        ("nacks sent", None, result.counters.get("nacks_sent", 0.0)),
        ("stall nacks sent", None,
         result.counters.get("stall_nacks_sent", 0.0)),
        ("keepalives sent", None,
         result.counters.get("keepalives_sent", 0.0)),
        ("elapsed (us)", None, result.elapsed_us),
        ("violations", None, float(len(result.violations))),
    ]
    if result.clean_elapsed_us is not None:
        entries.append(("clean elapsed (us)", None, result.clean_elapsed_us))
    _write_report(args, "soak", entries, obs=result.obs, extra={
        "seed": result.seed, "loss": result.loss, "nodes": result.nodes,
        "chaos": result.chaos,
        "injected_counts": result.injected_counts,
        "violations": result.violations,
        "bottleneck": verdict,
    })
    return 1 if result.violations else 0


def cmd_check(args) -> int:
    from repro.check import run_campaign, shrink_failure

    failures = []
    results = []
    for k in range(args.seeds):
        seed = args.seed_base + k
        # every third campaign runs under packet loss so the sanitizer
        # also sees the retransmission/go-back-N paths
        loss = args.loss if k % 3 == 2 else 0.0
        r = run_campaign(seed, nodes=args.nodes, nops=args.ops, loss=loss)
        results.append(r)
        print(r.summary())
        for v in r.violations:
            print(f"  violation: {v}")
        if not r.ok:
            failures.append(r)
            if args.shrink:
                s = shrink_failure(seed, nodes=args.nodes, nops=args.ops,
                                   loss=loss)
                if s.reproduced:
                    print(f"  shrunk to {len(s.minimal)}/{s.original_nops} "
                          f"ops in {s.runs} runs:")
                    for op in s.minimal:
                        print(f"    {op}")
                else:
                    print("  (failure did not reproduce during shrinking)")
    total_checks = sum(sum(r.checks.values()) for r in results)
    print(f"{len(results)} campaigns, {len(failures)} failing, "
          f"{total_checks} invariant checks")
    entries = [
        ("campaigns", None, float(len(results))),
        ("failing campaigns", None, float(len(failures))),
        ("invariant checks", None, float(total_checks)),
        ("delivered units", None,
         float(sum(r.delivered_units for r in results))),
    ]
    _write_report(args, "check", entries, extra={
        "seed_base": args.seed_base, "seeds": args.seeds,
        "nodes": args.nodes, "ops": args.ops, "loss": args.loss,
        "campaigns": [{
            "seed": r.seed, "loss": r.loss, "ok": r.ok,
            "checks": r.checks, "delivered_units": r.delivered_units,
            "digest": r.digest, "violations": r.violations,
            "critpath": r.critpath,
        } for r in results],
    })
    return 1 if failures else 0


def _print_hists(title: str, key: str, samples) -> None:
    """One histogram per name over ``(name, value)`` samples, as a
    count/mean/p95/max table."""
    from repro.obs.hist import Histogram

    hists = {}
    for name, value in samples:
        h = hists.get(name)
        if h is None:
            h = hists[name] = Histogram(name)
        h.observe(value)
    rows = [(name, h.count, round(h.mean(), 2),
             round(h.percentile(95), 2), round(h.max(), 2))
            for name, h in sorted(hists.items())]
    print(fmt_table(title, [key, "count", "mean", "p95", "max"], rows))


def _inspect_chrome(path: str) -> None:
    import json

    with open(path) as f:
        obj = json.load(f)
    _print_hists("trace events (dur, us)", "event",
                 ((ev["name"], ev["dur"]) for ev in obj["traceEvents"]
                  if ev.get("ph") == "X"))


def _inspect_jsonl(path: str) -> None:
    from repro.obs import critpath_stages, read_jsonl

    meta, spans = read_jsonl(path)
    print(f"  {len(spans)} spans, {len(meta['phases'])} phase spans, "
          f"{meta.get('dropped_spans', 0)} dropped")
    _print_hists("critical-path stages (us)", "stage",
                 ((f"{stage}:{s.kind}", dur) for s in spans
                  for stage, dur in critpath_stages(s).items()))


def _inspect_report(path: str) -> None:
    import json

    with open(path) as f:
        obj = json.load(f)
    rows = [(r["name"],
             "-" if r.get("paper") is None else r["paper"],
             r["measured"],
             "-" if r.get("dev_pct") is None else f"{r['dev_pct']}%")
            for r in obj["results"]]
    print(fmt_table(f"{obj['experiment']} ({obj.get('generated', '?')})",
                    ["name", "paper", "measured", "dev"], rows))


def cmd_inspect(args) -> int:
    from repro.obs.schema import sniff_and_validate

    failures = 0
    for path in args.files:
        try:
            res = sniff_and_validate(path)
        except OSError as e:
            print(f"{path}: [FAIL] {e}")
            failures += 1
            continue
        ok = not res["problems"]
        print(f"{path}: {res['format']} [{'OK' if ok else 'FAIL'}]")
        for problem in res["problems"]:
            print(f"  - {problem}")
        if not ok:
            failures += 1
            continue
        {"chrome-trace": _inspect_chrome,
         "jsonl": _inspect_jsonl,
         "bench-report": _inspect_report}[res["format"]](path)
    return 1 if failures else 0


def _positive_int(s: str) -> int:
    v = int(s)
    if v < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return v


def _rate(s: str) -> float:
    v = float(s)
    if not 0.0 <= v <= 1.0:
        raise argparse.ArgumentTypeError(f"{s} outside [0, 1]")
    return v


def _period(s: str) -> float:
    v = float(s)
    if not 0.0 < v < float("inf"):
        raise argparse.ArgumentTypeError(f"{s} is not a positive period")
    return v


def _period_or_off(s: str) -> float:
    return 0.0 if float(s) == 0.0 else _period(s)


def _add_report_opts(p) -> None:
    p.add_argument("--report-dir", default=".", metavar="DIR",
                   help="where to write BENCH_<experiment>.json")
    p.add_argument("--no-report", action="store_true",
                   help="skip the JSON report")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spam-bench",
        description="Reproduction experiments for 'Low-Latency "
                    "Communication on the IBM RISC System/6000 SP'")
    sub = parser.add_subparsers(dest="cmd")
    for name in ("list", "fig3", "fig7", "fig8", "fig9", "fig10", "fig11"):
        sub.add_parser(name)
    pr = sub.add_parser("roundtrip")
    pr.add_argument("--iters", type=_positive_int, default=100,
                    help="round trips of the observed ping-pong behind "
                         "--stats, --trace-out and the report")
    pr.add_argument("--stats", action="store_true",
                    help="print stage attribution + rtt histogram")
    pr.add_argument("--trace-out", metavar="FILE", default=None,
                    help="dump the AM ping-pong message trace")
    pr.add_argument("--trace-format", choices=("chrome", "jsonl"),
                    default="chrome")
    _add_report_opts(pr)
    for name in ("table2", "table3", "table4"):
        _add_report_opts(sub.add_parser(name))
    p5 = sub.add_parser("table5")
    p5.add_argument("--keys", type=_positive_int, default=2048,
                    help="sort keys per processor (default 2048)")
    sub.add_parser("table6")
    pn = sub.add_parser("nas")
    pn.add_argument("kernel", nargs="?", default=None, type=str.upper,
                    choices=NAS_KERNELS)
    pi = sub.add_parser("inspect")
    pi.add_argument("files", nargs="+", metavar="FILE")
    pv = sub.add_parser(
        "validate", help="schema-validate traces/reports (exit 1 on any "
                         "failure; the CI gate)")
    pv.add_argument("files", nargs="+", metavar="FILE")
    pf = sub.add_parser(
        "profile", help="metrics sampler + critical-path attribution "
                        "over pingpong/bulk/soak workloads")
    pf.add_argument("--quick", action="store_true",
                    help="reduced workloads (CI smoke)")
    pf.add_argument("--period-us", type=_period, default=50.0,
                    help="gauge sampling period in simulated us "
                         "(default 50)")
    pf.add_argument("--topk", type=_positive_int, default=5,
                    help="slowest-message exemplars per workload")
    pf.add_argument("--trace-out", metavar="FILE", default=None,
                    help="dump the ping-pong Chrome trace with counter "
                         "tracks")
    _add_report_opts(pf)
    ps = sub.add_parser(
        "soak", help="chaos soak: full AM workload under injected faults")
    ps.add_argument("--seed", type=int, default=7,
                    help="fault-plan seed (campaigns replay exactly)")
    ps.add_argument("--loss", type=_rate, default=0.05,
                    help="fault rate per packet (0..1)")
    ps.add_argument("--nodes", type=_positive_int, default=2)
    ps.add_argument("--pingpong", type=_positive_int, default=24,
                    help="ping-pong messages per rank")
    ps.add_argument("--chaos", action="store_true",
                    help="all six fault kinds, not just drops")
    ps.add_argument("--no-clean", action="store_true",
                    help="skip the fault-free reference run "
                         "(disables the recovery-time bound)")
    ps.add_argument("--trace-out", metavar="FILE", default=None,
                    help="dump the message-span trace (JSONL)")
    ps.add_argument("--sample-period-us", type=_period_or_off, default=50.0,
                    metavar="US",
                    help="periodic gauge sampler on the lossy run; the "
                         "unsequenced lane keeps it digest-neutral "
                         "(default 50, 0 disables)")
    _add_report_opts(ps)
    pc = sub.add_parser(
        "check", help="seeded randomized MPI/AM campaigns under the "
                      "protocol invariant sanitizer")
    pc.add_argument("--seeds", type=_positive_int, default=20,
                    help="number of campaigns (default 20)")
    pc.add_argument("--seed-base", type=int, default=100,
                    help="first campaign seed (default 100)")
    pc.add_argument("--nodes", type=_positive_int, default=4)
    pc.add_argument("--ops", type=_positive_int, default=24,
                    help="random ops per campaign")
    pc.add_argument("--loss", type=_rate, default=0.01,
                    help="packet-loss rate applied to every third "
                         "campaign (default 0.01)")
    pc.add_argument("--shrink", action="store_true",
                    help="minimize any failing campaign to its smallest "
                         "failing op list")
    _add_report_opts(pc)
    args = parser.parse_args(argv)
    _check_report_dir(args)

    dispatch = {
        "list": lambda a: parser.print_help(),
        **{name: cmd_experiment for name in EXPERIMENT_COMMANDS},
        "inspect": cmd_inspect,
        "validate": cmd_validate,
        "profile": cmd_profile,
        "soak": cmd_soak,
        "check": cmd_check,
    }
    return dispatch[args.cmd or "list"](args) or 0

if __name__ == "__main__":
    sys.exit(main())
