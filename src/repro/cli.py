"""``spam-bench`` — command-line driver for the reproduction experiments.

Usage::

    spam-bench list                     # what can be run
    spam-bench roundtrip                # §2.3 latencies
        [--iters N] [--stats] [--trace-out FILE [--trace-format jsonl]]
        [--report-dir DIR | --no-report]
    spam-bench table2|table3|table4|table6
    spam-bench fig3|fig7|fig8|fig9|fig10|fig11
    spam-bench table5 [--keys 2048]
    spam-bench nas [BT|FT|LU|MG|SP] [--variant mpi-am|mpi-f]
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
    spam-bench protocols [--quick]      # AM eager vs MPL vs MPI-F
                                        # bandwidth curves

Table-style experiments also leave a machine-readable
``BENCH_<experiment>.json`` report next to the ASCII table (suppress with
``--no-report``); ``roundtrip --trace-out`` dumps the full message-span
trace in Chrome trace-event or JSONL form (see docs/observability.md).

Everything is also runnable through pytest (``pytest benchmarks/``); this
driver is for quick interactive looks at single experiments.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.report import fmt_series, fmt_table, paper_vs_measured


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


def cmd_roundtrip(args) -> None:
    from repro.bench.pingpong import (
        am_roundtrip_observed,
        mpl_roundtrip,
        raw_roundtrip,
        stage_attribution,
    )

    iters = getattr(args, "iters", 100)
    am_mean, obs = am_roundtrip_observed(1, iters)
    entries = [("raw ping-pong", 47.0, raw_roundtrip(iters)),
               ("SP AM one word", 51.0, am_mean),
               ("IBM MPL", 88.0, mpl_roundtrip(iters))]
    print(paper_vs_measured("S2.3 round-trip latency (us)", entries))
    att = stage_attribution(obs)
    if getattr(args, "stats", False):
        rows = []
        for kind in ("REQUEST", "REPLY"):
            for stage, mean in att["stages"].get(kind, {}).items():
                rows.append((kind.lower(), stage, round(mean, 2)))
        rows.append(("sum", "request+reply", round(att["stage_sum_us"], 2)))
        rows.append(("measured", "mean rtt", round(am_mean, 2)))
        print(fmt_table("AM stage attribution (us)",
                        ["kind", "stage", "mean"], rows))
        print(fmt_table("am.rtt_us histogram",
                        ["stat", "value"],
                        [(k, round(v, 2)) for k, v in
                         obs.hist("am.rtt_us").snapshot().items()]))
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        from repro.obs import write_chrome_trace, write_jsonl

        fmt = getattr(args, "trace_format", "chrome")
        try:
            if fmt == "jsonl":
                write_jsonl(obs, trace_out)
            else:
                write_chrome_trace(obs, trace_out)
        except OSError as e:
            raise SystemExit(f"spam-bench: cannot write trace: {e}")
        print(f"trace: {trace_out} ({fmt})")
    _write_report(args, "roundtrip", entries, obs=obs,
                  extra={"iterations": iters, "stage_attribution": att})


def cmd_table2(args) -> None:
    from repro.bench.callcosts import (
        PAPER_REPLY,
        PAPER_REQUEST,
        reply_call_cost,
        request_call_cost,
    )

    rows = []
    entries = []
    for n in (1, 2, 3, 4):
        for name, paper, measured in (
            (f"am_request_{n}", PAPER_REQUEST[n], request_call_cost(n)),
            (f"am_reply_{n}", PAPER_REPLY[n], reply_call_cost(n)),
        ):
            rows.append((name, paper, round(measured, 2)))
            entries.append((name, paper, measured))
    print(fmt_table("Table 2: AM call costs (us)",
                    ["call", "paper", "measured"], rows))
    _write_report(args, "table2", entries)


def cmd_table3(args) -> None:
    from repro.bench.bandwidth import n_half, r_inf, sweep
    from repro.bench.pingpong import am_roundtrip, mpl_roundtrip

    sizes = [128, 256, 512, 1024, 4096, 16384, 262144, 1048576]
    am = sweep("am_store_async", sizes)
    mpl = sweep("mpl_send", sizes)
    entries = [("AM round trip (us)", 51.0, am_roundtrip(1, 100)),
               ("MPL round trip (us)", 88.0, mpl_roundtrip(100)),
               ("AM r_inf (MB/s)", 34.3, r_inf(am)),
               ("MPL r_inf (MB/s)", 34.6, r_inf(mpl)),
               ("AM n1/2 async (B)", 260, n_half(am, 34.3)),
               ("MPL n1/2 async (B)", 2040, n_half(mpl, 34.6))]
    print(paper_vs_measured("Table 3: SP AM vs IBM MPL", entries))
    _write_report(args, "table3", entries)


def cmd_table4(args) -> None:
    from repro.bench.machines import TABLE4_PAPER, table4_rows

    rows = []
    entries = []
    for r in table4_rows():
        p = TABLE4_PAPER[r.name]
        rows.append((p["label"], p["rtt"], round(r.rtt_us, 1),
                     p["bw"], round(r.bandwidth_mbs, 1)))
        entries.append((f"{p['label']} rtt (us)", p["rtt"], r.rtt_us))
        entries.append((f"{p['label']} bw (MB/s)", p["bw"], r.bandwidth_mbs))
    print(fmt_table("Table 4 (paper/measured)",
                    ["machine", "rtt(p)", "rtt(m)", "bw(p)", "bw(m)"], rows))
    _write_report(args, "table4", entries)


def cmd_fig3(_args) -> None:
    from repro.bench.bandwidth import MODES, sweep

    sizes = [64, 256, 1024, 8064, 65536, 1048576]
    print(fmt_series("Figure 3: bulk-transfer bandwidth",
                     {m: sweep(m, sizes) for m in MODES}))


def cmd_fig7(_args) -> None:
    from repro.bench.figures import PROTOCOL_CONFIGS, protocol_bandwidth

    sizes = [512, 1024, 2048, 4096, 8192, 16384]
    print(fmt_series(
        "Figure 7: protocol bandwidth",
        {p: [(n, protocol_bandwidth(p, n)) for n in sizes]
         for p in PROTOCOL_CONFIGS}))


def _fig_mpi(kind: str, what: str) -> None:
    from repro.bench.figures import MPI_VARIANTS, mpi_bandwidth, mpi_ring_latency

    if what == "latency":
        sizes = [4, 64, 256, 1024, 4096, 16384]
        fn = lambda v, n: mpi_ring_latency(v, n, kind)  # noqa: E731
        unit = "us/hop"
    else:
        sizes = [1024, 4096, 8192, 16384, 65536, 262144]
        fn = lambda v, n: mpi_bandwidth(v, n, kind)  # noqa: E731
        unit = "MB/s"
    print(fmt_series(f"MPI {what}, {kind}",
                     {v: [(n, fn(v, n)) for n in sizes]
                      for v in MPI_VARIANTS}, ylabel=unit))


def cmd_table5(args) -> None:
    from repro.apps.matmul import run_matmul
    from repro.apps.radix_sort import run_radix_sort
    from repro.apps.sample_sort import run_sample_sort
    from repro.apps.workloads import STACKS

    keys = args.keys
    rows = []
    for stack in ("sp-am", "sp-mpl"):
        for tag, (n, b) in (("mm128", (4, 128)), ("mm16", (16, 16))):
            r = run_matmul(stack, nprocs=8, n=n, b=b)
            rows.append((tag, stack, round(r.elapsed_s, 3),
                         round(r.cpu_s, 3), round(r.net_s, 3)))
    for variant in ("small", "bulk"):
        for stack in STACKS:
            r = run_sample_sort(stack, nprocs=8, keys_per_proc=keys,
                                variant=variant)
            rows.append((f"smpsort-{variant}", stack,
                         round(r.elapsed_s, 3), round(r.cpu_s, 3),
                         round(r.net_s, 3)))
    for variant in ("small", "large"):
        for stack in ("sp-am", "sp-mpl"):
            r = run_radix_sort(stack, nprocs=8, keys_per_proc=keys,
                               variant=variant)
            rows.append((f"rdxsort-{variant}", stack,
                         round(r.elapsed_s, 3), round(r.cpu_s, 3),
                         round(r.net_s, 3)))
    print(fmt_table(f"Table 5 / Fig 4 ({keys} keys/proc; seconds)",
                    ["bench", "stack", "total", "cpu", "net"], rows))


def cmd_nas(args) -> None:
    from repro.apps.nas import NAS_KERNELS

    kernels = [args.kernel.upper()] if args.kernel else sorted(NAS_KERNELS)
    rows = []
    for name in kernels:
        am = NAS_KERNELS[name]("mpi-am")
        f = NAS_KERNELS[name]("mpi-f")
        rows.append((name, round(f.elapsed_s, 4), round(am.elapsed_s, 4),
                     round(am.elapsed_s / f.elapsed_s, 2),
                     am.verified and f.verified))
    print(fmt_table("Table 6: NAS kernels (16 thin nodes; seconds)",
                    ["bench", "MPI-F", "MPI-AM", "ratio", "ok"], rows))


def cmd_profile(args) -> int:
    from repro.bench.profile import (
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
              f"{cov['coverage'] * 100.0:.1f}% below the "
              f"{COVERAGE_FLOOR * 100.0:.0f}% floor, or the soak leg "
              f"saw violations")
        return 1
    return 0


def cmd_validate(args) -> int:
    from repro.obs.validate import main as validate_main

    return validate_main(args.files)


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
        "critpath": critpath, "bottleneck": verdict,
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


def cmd_protocols(args) -> int:
    from repro.bench.protocols import report_entries, run_protocols

    data = run_protocols(quick=args.quick)
    print(fmt_series("protocol bandwidth (eager vs MPL vs MPI-F)",
                     data["curves"]))
    print(fmt_table("single-transfer latency (us)", ["bytes", "eager"],
                    data["latency_us"]["eager"]))
    _write_report(args, "protocols", report_entries(data), extra=data)
    return 0


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
    from repro.obs import read_jsonl

    meta, spans = read_jsonl(path)
    print(f"  {len(spans)} spans, {len(meta['phases'])} phase spans, "
          f"{meta.get('dropped_spans', 0)} dropped")
    _print_hists("span stages (us)", "stage",
                 ((f"{stage}:{s.kind}", dur) for s in spans
                  for stage, dur in s.stage_durations().items()))


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
    pr.add_argument("--iters", type=_positive_int, default=100)
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
    p5.add_argument("--keys", type=int, default=2048)
    sub.add_parser("table6")
    pn = sub.add_parser("nas")
    pn.add_argument("kernel", nargs="?", default=None)
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
    pb = sub.add_parser(
        "protocols", help="AM eager vs MPL vs MPI-F bandwidth curves")
    pb.add_argument("--quick", action="store_true",
                    help="reduced size sweep (CI smoke)")
    _add_report_opts(pb)
    args = parser.parse_args(argv)
    _check_report_dir(args)

    dispatch = {
        "list": lambda a: parser.print_help(),
        "roundtrip": cmd_roundtrip,
        "table2": cmd_table2,
        "table3": cmd_table3,
        "table4": cmd_table4,
        "table5": cmd_table5,
        "table6": lambda a: cmd_nas(argparse.Namespace(kernel=None)),
        "nas": cmd_nas,
        "fig3": cmd_fig3,
        "fig7": cmd_fig7,
        "fig8": lambda a: _fig_mpi("sp-thin", "latency"),
        "fig9": lambda a: _fig_mpi("sp-thin", "bandwidth"),
        "fig10": lambda a: _fig_mpi("sp-wide", "latency"),
        "fig11": lambda a: _fig_mpi("sp-wide", "bandwidth"),
        "inspect": cmd_inspect,
        "validate": cmd_validate,
        "profile": cmd_profile,
        "soak": cmd_soak,
        "check": cmd_check,
        "protocols": cmd_protocols,
    }
    return dispatch[args.cmd or "list"](args) or 0

if __name__ == "__main__":
    sys.exit(main())
