"""Alternate parent and change runs of the benchmark; write BENCH_<change>.json.

    python3 scripts/bench_pairs.py --parent e033418 --change HEAD \\
        --workload enum:1-10 --workload decide:1-10 --workload ingest:1-10

Each of the two commits is cloned into a temporary directory, so both sides run
their own committed `perfbench/` and `src/`.  For every seed of a workload the
script runs one pair, `python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0` in each clone, with S the `run_seconds` of
BENCHMARK.json; even pairs run the parent first, odd pairs the change.

The file, written at the repository root after every pair, keeps the detail and
result lines of every run and, per workload, each side's total of failed ops
and, per end-to-end metric, each side's median, quartiles and range over the
seeds and the number of pairs the change won (ties count for neither side).

perfbench/run.py exits 0 even when a run answers wrongly, so this script exits
1, after writing the file, if any run reported "correct": false.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str, cwd: str = ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def workload_seeds(spec: str) -> tuple[str, list[int]]:
    name, _, seeds = spec.partition(":")
    first, _, last = seeds.partition("-")
    return name, list(range(int(first), int(last or first) + 1))


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} in {checkout}: {proc.stderr[-500:]}")
    return {"detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def spread(values: list[float]) -> dict:
    if len(values) == 1:
        values = values * 2  # quantiles needs two points
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    out = {
        "failed": {
            s: sum(r[s]["result"]["failed"] for r in runs) for s in ("parent", "change")
        }
    }
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        side = {
            s: [r[s]["result"]["metrics"][name]["value"] for r in runs]
            for s in ("parent", "change")
        }
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": spread(side["parent"]),
            "change": spread(side["change"]),
            "change_wins": sum(
                sign * (c - p) > 0 for p, c in zip(side["parent"], side["change"])
            ),
            "pairs": len(runs),
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--change", default="HEAD", help="commit under test")
    parser.add_argument("--workload", action="append", required=True,
                        metavar="NAME:FIRST-LAST", help="workload and seed range")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    shas = {s: git("rev-parse", ref) for s, ref in
            (("parent", args.parent), ("change", args.change))}
    out_path = os.path.join(ROOT, f"BENCH_{shas['change'][:7]}.json")
    report = {
        "command": "python3 scripts/bench_pairs.py " + " ".join(sys.argv[1:]),
        "parent": shas["parent"],
        "change": shas["change"],
        "run_seconds": bench["run_seconds"],
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {}
        for side, sha in shas.items():
            checkouts[side] = os.path.join(tmp, side)
            git("clone", "--quiet", "--no-checkout", ROOT, checkouts[side])
            git("checkout", "--quiet", sha, cwd=checkouts[side])
        for spec in args.workload:
            workload, seeds = workload_seeds(spec)
            runs = []
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(checkouts[side], workload, seed, bench["run_seconds"])
                    print(f"{workload} seed {seed} {side}: "
                          f"{pair[side]['result']['metrics']['ops_per_s']['value']:.4g} ops/s",
                          file=sys.stderr)
                runs.append(pair)
                report["workloads"][workload] = {
                    "summary": summarize(runs, bench["end_to_end"]),
                    "runs": runs,
                }
                with open(out_path, "w") as fh:
                    json.dump(report, fh, indent=1)
                    fh.write("\n")
    print(out_path)
    incorrect = [
        f"{workload} seed {pair['seed']} {side}"
        for workload, entry in report["workloads"].items()
        for pair in entry["runs"]
        for side in ("parent", "change")
        if not pair[side]["result"]["correct"]
    ]
    if incorrect:
        print("incorrect answers in: " + ", ".join(incorrect), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
