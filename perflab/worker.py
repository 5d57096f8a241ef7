"""One repeat of one workload in a fresh interpreter.

``python -m perflab.worker --workload W --seed N --size S --mode M`` prints
one JSON object as its last line of standard output.  :mod:`perflab.run`
starts one of these per repeat, so every repeat pays its own imports,
starts from a clean heap and reports its own peak memory.  Single-threaded;
the parent never runs two at once.
"""

import time

T_READY = time.perf_counter()  # interpreter ready: set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perflab.worker", description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full",
                    choices=("full", "trace", "quick"))
    ap.add_argument("--mode", default="plain", choices=("plain", "trace"))
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perflab: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    # measure this checkout's sources, never an installed copy
    sys.path.insert(0, SRC)
    from perflab import measure

    if args.workload not in measure.WORKLOADS:
        print(f"perflab: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.mode == "plain":
        out = measure.run_once(args.workload, args.seed, args.size,
                               t_ready=T_READY)
    else:
        out = measure.trace_pass(args.workload, args.seed, args.size)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
