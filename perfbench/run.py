"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload enum --seed 1 --seconds 20 --trace 0

The last line of standard output is the result object (correct, attempted,
failed, metrics); the line before it holds the run's details: stamp, pass
and sample counts, fail_rate and every failed op with its exception text.
See perfbench/README.md.
"""
import time

T0 = time.perf_counter()  # set-up time is measured from here

import argparse
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "afkit", "__init__.py")):
        print(f"error: no afkit sources under {os.path.join(ROOT, 'src')}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, BENCH_DIR)
    import harness
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": harness.probe_setup(args.workload, args.seed, T0)}))
            return 0
        if args.trace:
            detail, result = harness.traced_run(args.workload, args.seed, args.seconds)
        else:
            detail, result = harness.timed_run(args.workload, args.seed, args.seconds, T0)
    except workloads.InstanceMismatch as exc:
        print(f"error: {exc}; the expected answers no longer match the generated instances",
              file=sys.stderr)
        return 3
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
