"""Print the in-process per-op minima of one benchmark workload's pass.

    python3 scripts/op_minima.py --workload enum [--seed 1] [--repeat 5]

The ops are those `perfbench/run.py --workload W --seed N` times: the
workload's instances and ops from `perfbench/workloads.py`, checked against
`perfbench/expected.json`, then `workloads.sample` for the seed.  The script
runs R passes over them in one process, each pass in a fresh seeded order,
and keeps each op's best wall time.  Every answer is checked once, off the
clock; a wrong answer or an exception stops the script with exit code 1.

It prints one line per op, slowest first (best time in ms and the op's
key), then the pass sum (the sum of the minima), and the ops at the p50 and
p90 ranks of the minima with the value `statistics.quantiles` interpolates
there, as the harness does for its booked latencies.  A single best-of-R
pass shows where a change moved the time without the run-to-run spread of
a 20 s run.  APX files for `ingest` go to a temporary directory; nothing is
written under `perfbench/`.  It imports afkit from this checkout's `src/`.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _rank(ranked: list[tuple[float, str]], q: int) -> str:
    """The value at percentile q of the ascending times, and the op(s) at that
    rank (two when the value falls between them)."""
    times = [t for t, _ in ranked]
    value = statistics.quantiles(times, n=100, method="inclusive")[q - 1]
    pos = (len(ranked) - 1) * q / 100
    keys = dict.fromkeys(ranked[i][1] for i in (int(pos), -int(-pos)))
    return f"p{q} {value * 1000:.4f} ms: {', '.join(keys)}"


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=5, help="passes (default 5)")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    with open(os.path.join(ROOT, "perfbench", "expected.json"), encoding="utf-8") as handle:
        expected = json.load(handle)
    with tempfile.TemporaryDirectory() as workdir:
        prepared = workloads.prepare(args.workload, "full", expected, workdir)
        ops = workloads.sample(prepared.universe, args.seed)
        best = {op.key: float("inf") for op in ops}
        for r in range(args.repeat):
            order = list(ops)
            random.Random(f"minima/{args.seed}/{r}").shuffle(order)
            for op in order:
                start = time.perf_counter()
                raw = op.call()
                elapsed = time.perf_counter() - start
                if r == 0 and op.canon(raw) != expected["answers"].get(op.key):
                    print(f"wrong answer: {op.key}", file=sys.stderr)
                    return 1
                best[op.key] = min(best[op.key], elapsed)

    ranked = sorted((t, key) for key, t in best.items())
    for t, key in reversed(ranked):
        print(f"{t * 1000:10.4f} ms  {key}")
    print(f"{len(ranked)} ops, best of {args.repeat}: pass sum "
          f"{sum(best.values()) * 1000:.2f} ms")
    if len(ranked) > 1:
        print(_rank(ranked, 50))
        print(_rank(ranked, 90))
    return 0


if __name__ == "__main__":
    sys.exit(main())
