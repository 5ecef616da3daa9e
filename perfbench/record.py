"""Record the benchmark's expected answers into perfbench/expected.json.

    python3 perfbench/record.py

Run once, at a commit whose answers are trusted; timed runs compare against
the file and never recompute it.  Before writing, every answer that an
independent route can reach is cross-checked:

* instances with n <= 20: enumerations against ``brute_force``;
* ``grd_star`` answers against ``grd_star_naive`` wherever the mutual pairs
  fit its resolution cap;
* decisions and verifications against full enumerations (n <= 30, and the
  grounded and stable extensions on larger instances);
* CLI outputs against the library's grounded extension.

Any disagreement aborts without writing.
"""
from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import numpy  # noqa: E402

import afkit  # noqa: E402
import workloads  # noqa: E402
from harness import EXPECTED_PATH  # noqa: E402
from workloads import canon_bool, canon_cli, canon_extensions  # noqa: E402

POOL_SIZE = 8
CA_ARGS = 16
BRUTE_MAX_N = afkit.semantics.ORACLE_CAP


def random_maximal_cf(af: afkit.AF, rng: random.Random) -> int:
    order = list(range(af.n))
    rng.shuffle(order)
    mask = 0
    for i in order:
        bit = 1 << i
        if not af.self_loop_mask & bit and not (af.out_masks[i] | af.in_masks[i]) & mask:
            mask |= bit
    return mask


def make_pools(workload: str, inst: workloads.Instance, role: str | None, af: afkit.AF) -> dict:
    rng = random.Random(f"pool/{workload}/{inst.key}")
    if workload == "decide":
        sem = "prf" if role == "full" else "stb"
        exts = list(afkit.enumerate_extensions(af, sem, max_args=None).masks())
        exts = sorted(rng.sample(exts, min(POOL_SIZE, len(exts)))) or [afkit.grounded(af).mask]
        cfs = sorted({random_maximal_cf(af, rng) for _ in range(POOL_SIZE)})
        return {"ext": [format(m, "x") for m in exts], "cf": [format(m, "x") for m in cfs]}
    if workload == "ingest":
        pools = {"grounded": format(afkit.grounded(af).mask, "x")}
        if role == "full":
            names = [a.name for a in af.args]
            pools["args"] = sorted(rng.sample(names, min(CA_ARGS, len(names))))
        return pools
    return {}


class Checker:
    def __init__(self, answers: dict):
        self.answers = answers
        self.checked = 0
        self.mismatches: list[str] = []

    def expect(self, key: str, want: str, why: str) -> None:
        self.checked += 1
        if self.answers[key] != want:
            self.mismatches.append(f"{key}: recorded {self.answers[key]!r}, {why} gives {want!r}")


def naive_grd_star(af: afkit.AF):
    if len(afkit.mutual_pairs(af)) > afkit.resolution.RESOLUTION_CAP:
        return None
    return afkit.grd_star_naive(af)


def reference_extensions(af: afkit.AF, sem: str):
    """Extensions from the oracle where it reaches, else from full enumeration."""
    if af.n <= BRUTE_MAX_N:
        return afkit.brute_force(af, sem), "brute_force"
    return afkit.enumerate_extensions(af, sem, max_args=None), "enumeration"


def cross_check(workload: str, inst: workloads.Instance, role, af: afkit.AF, pools: dict,
                check: Checker) -> None:
    naive = naive_grd_star(af)
    if workload == "enum":
        for sem in workloads.CLASSIC:
            if af.n <= BRUTE_MAX_N:
                check.expect(f"EE/{sem}/{inst.key}", canon_extensions(afkit.brute_force(af, sem)), "brute_force")
        if af.n <= workloads.GRD_STAR_MAX_N and naive is not None:
            check.expect(f"EE/grd_star/{inst.key}", canon_extensions(naive), "grd_star_naive")
    elif workload == "decide":
        sems = workloads.CLASSIC if role == "full" else ("grd", "stb")
        cands = {f"{p}{i}": int(h, 16) for p in ("ext", "cf") for i, h in enumerate(pools[p])}
        for sem in sems:
            exts, why = reference_extensions(af, sem)
            for a in af.args:
                bit = 1 << a.id
                for task, answer in (("CA", any(e.mask & bit for e in exts)),
                                     ("SA", all(e.mask & bit for e in exts))):
                    key = f"{task}/{sem}/{inst.key}/{a.name}"
                    if key in check.answers:
                        check.expect(key, canon_bool(answer), why)
            masks = set(exts.masks())
            for cid, mask in cands.items():
                check.expect(f"VER/{sem}/{inst.key}/{cid}", canon_bool(mask in masks), why)
        if naive is not None:
            masks = set(naive.masks())
            for cid, mask in cands.items():
                check.expect(f"VER/grd_star/{inst.key}/{cid}", canon_bool(mask in masks), "grd_star_naive")
    else:
        def answer(yes) -> str:
            return canon_cli((0, "YES\n") if yes else (1, "NO\n"))

        g = int(pools["grounded"], 16)
        wants = {
            f"cli/EE-grd/{inst.key}": (canon_cli((0, ",".join(af.names(g)) + "\n")), "grounded"),
            f"cli/VER-com/{inst.key}": (answer(True), "grounded is complete"),
            f"cli/VER-stb/{inst.key}": (answer(g | afkit.core._attacked_mask(af, g) == af.full_mask), "range"),
        }
        if naive is not None:
            wants[f"cli/VER-grd_star/{inst.key}"] = (answer(g in set(naive.masks())), "grd_star_naive")
        for name in pools.get("args", ()):
            wants[f"cli/CA-grd/{inst.key}/{name}"] = (answer(g >> af.arg_id(name) & 1), "grounded")
        for key, (want, why) in wants.items():
            if key in check.answers:  # large files run a subset of the tasks
                check.expect(key, want, why)


def main() -> int:
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    expected = {
        "recorded_at": {"commit": commit.stdout.strip() or None, "numpy": numpy.__version__,
                        "python": sys.version.split()[0]},
        "instances": {}, "pools": {}, "answers": {},
    }
    check = Checker(expected["answers"])
    workdir = tempfile.mkdtemp(prefix="afkit-record-")
    try:
        for scale in ("tiny", "full"):
            for workload in workloads.WORKLOADS:
                items = workloads.INSTANCES[scale][workload]
                staged = []
                for item in items:
                    inst, role = item if isinstance(item, tuple) else (item, None)
                    af = afkit.generate(inst.spec())
                    expected["instances"][inst.key] = workloads.apx_digest(afkit.serialize_apx(af))
                    pools = make_pools(workload, inst, role, af)
                    if pools:
                        expected["pools"][f"{workload}/{inst.key}"] = pools
                    staged.append((inst, role, af, pools))
                prepared = workloads.prepare(workload, scale, expected, workdir)
                for op in prepared.universe:
                    expected["answers"][op.key] = op.canon(op.call())
                print(f"{scale}/{workload}: {len(prepared.universe)} answers", flush=True)
                for inst, role, af, pools in staged:
                    cross_check(workload, inst, role, af, pools, check)
                print(f"{scale}/{workload}: {check.checked} cross-checks so far", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if check.mismatches:
        print("\n".join(check.mismatches), file=sys.stderr)
        return 1
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(expected['answers'])} answers, {check.checked} cross-checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
