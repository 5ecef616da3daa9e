"""Check that another commit gives the same `afkit solve` answers as this one.

    python3 scripts/same_answers.py --parent d0f98ec

The commit is cloned into a temporary directory.  One child Python per side
(the clone's `src/`, then this checkout's) runs a fixed call set of
`afkit.cli.main(["solve", ...])` in-process and reports each call's exit code,
stderr and a digest of its stdout; the script diffs them call by call.

The call set covers all nine semantics on six frameworks: af6 (the tests'
six-argument example), grid 25, arb 30 and grid 25 joined with a disjoint
3-cycle (the instances of `scripts/hard_cases.py`), and two arb 20 with
self-attacks (p=0.15): seed 2, three self-attackers and no stable extension;
and seed 5, whose one self-attacker a16 has two other attackers that an
admissible set off a16's neighbourhood attacks, so only the self-attack test
keeps CA adm/com/prf of a16 at NO.  Each runs at the default cap and with
`--max-args 40`.  It asks EE, CA and SA of
every argument, then VER of sets taken from the parent's EE output: up to
five extensions per semantics, each also with one argument dropped and with
one added, and five seeded random sets.  The VER calls are built after the
first pass, from the parent's answers alone, so both sides get the same
calls.  Two wider frameworks get only uncapped EE cf, adm and stg, the calls that reach the
conflict-free and admissible builds at their word boundary: arb 64 (p=0.35,
seed 1), whose top argument sets the 64th bit, and
`hard_cases.free_below_clique()`, whose 76 arguments take the builds past 64
bits.

It prints the number of calls and each difference (at most 20), and exits 1
if any call differs, 0 otherwise.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEMANTICS = ("cf", "adm", "com", "grd", "stb", "prf", "sem", "stg", "grd_star")
CAPS = ((), ("--max-args", "40"))
SHOWN = 20

# Runs in the child: reads a JSON list of argv lists on stdin, writes one
# [exit code, stdout digest, first stdout lines, stderr] per call.
RUNNER = """
import contextlib, hashlib, io, json, sys
from afkit.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    results.append([code, hashlib.sha256(text.encode()).hexdigest(),
                    text.splitlines()[:5], err.getvalue()])
json.dump(results, sys.stdout)
"""


def git(*args: str, cwd: str = ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def write_instances(folder: str) -> tuple[dict[str, list[str]], list[str]]:
    """Write the frameworks as APX files: map each of the six's paths to its
    names, and list the two wide ones' paths."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "scripts"),
                    os.path.join(ROOT, "tests")]
    from afkit import GenSpec, generate
    from afkit.core import serialize_apx
    from conftest import make_af6
    from hard_cases import arb, free_below_clique, grid, plus_three_cycle

    def write(label, af):
        path = os.path.join(folder, f"{label}.apx")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(serialize_apx(af))
        return path

    instances = {
        write(label, af): [a.name for a in af.args]
        for label, af in (("af6", make_af6()), ("grid25", grid(25)), ("arb30", arb(30)),
                          ("grid25_cycle", plus_three_cycle(grid(25))),
                          *((f"arb20_self{seed}",
                             generate(GenSpec(kind="arbitrary", n=20, p=0.15, seed=seed,
                                              self_attacks=True)))
                            for seed in (2, 5)))
    }
    wide = [write("arb64", generate(GenSpec(kind="arbitrary", n=64, p=0.35, seed=1))),
            write("free_below_clique", free_below_clique())]
    return instances, wide


def solve(path: str, sem: str, cap: tuple[str, ...], *task: str) -> list[str]:
    return ["solve", "--input", path, "--semantics", sem, *cap, "--task", *task]


def run_side(checkout: str, calls: list[list[str]]) -> list[list]:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", RUNNER], input=json.dumps(calls),
                          cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"runner failed in {checkout}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def ver_sets(names: list[str], extensions: list[str], rng: random.Random) -> list[str]:
    """Up to five extensions, each with one argument dropped and one added,
    and five seeded random sets, as --set values."""
    sets = []
    for line in extensions[:5]:
        ext = [a for a in line.split(",") if a]
        sets.append(ext)
        if ext:
            sets.append([a for a in ext if a != rng.choice(ext)])
        rest = [a for a in names if a not in ext]
        if rest:
            sets.append(ext + [rng.choice(rest)])
    sets += [[a for a in names if rng.random() < 0.2] for _ in range(5)]
    return [",".join(s) for s in sets]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    args = parser.parse_args()
    sha = git("rev-parse", args.parent)
    with tempfile.TemporaryDirectory() as tmp:
        clone = os.path.join(tmp, "parent")
        git("clone", "--quiet", "--no-checkout", ROOT, clone)
        git("checkout", "--quiet", sha, cwd=clone)
        instances, wide = write_instances(tmp)
        first = [
            solve(path, sem, cap, *task)
            for path, names in instances.items()
            for cap in CAPS
            for sem in SEMANTICS
            for task in [("EE",)] + [(t, "--arg", a) for t in ("CA", "SA") for a in names]
        ] + [solve(path, sem, ("--max-args", "0"), "EE")
             for path in wide for sem in ("cf", "adm", "stg")]
        parent = run_side(clone, first)
        rng = random.Random(1)
        second = [
            solve(path, sem, cap, "VER", "--set", s)
            for path, names in instances.items()
            for cap in CAPS
            for sem in SEMANTICS
            for s in ver_sets(names, parent[first.index(solve(path, sem, cap, "EE"))][2], rng)
        ]
        calls = first + second
        parent += run_side(clone, second)
        change = run_side(ROOT, calls)
    differ = [(c, p, q) for c, p, q in zip(calls, parent, change) if p != q]
    print(f"{len(calls)} calls, {len(differ)} differ ({sha[:7]} against this checkout)")
    for call, p, q in differ[:SHOWN]:
        print(" ".join(call[1:]))
        print(f"  parent: exit {p[0]}, stdout {p[2]}, stderr {p[3]!r}")
        print(f"  change: exit {q[0]}, stdout {q[2]}, stderr {q[3]!r}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
