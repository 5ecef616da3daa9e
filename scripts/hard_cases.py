"""Print ROADMAP's ingest, decide and hard-cases tables.

    python3 scripts/hard_cases.py

The ingest table comes first.  Its rows are the `ingest` benchmark's four
instance shapes, built with `generators` (grid 1200 is `grid_dimensions(1200)`,
30x40): per instance, the minimum wall time of 5 in-process `parse_apx` calls
on its APX text (tokenizer and AF build), of 5 `_grounded_mask` calls on the
whole framework and of 5 `serialize_apx` calls, then the gen-0/1/2
collections of CPython's cyclic garbage collector that one `parse_apx` call
triggers (from `gc.get_stats()`, after a `gc.collect()`).

The decide table times the `decide` benchmark's costliest query kinds, CA
stb on the sparse 2,000-argument ingest shape, where the search touches a
few arguments but the tables span them all, CA adm on grid 100, which the
benchmark leaves out, where each NO answer is a walk off the argument's
neighbourhood that finds no set attacking its attackers, and CA/SA grd_star
on `10 linked pairs`: ten triples x_i <-> y_i -> z_i, with z_{i-1} -> x_i
linking them into one weak component, where each query enumerates every
grd_star extension; VER grd_star there asks of each of those extensions,
whose walks run up to ten levels deep, where no benchmark op passes four.
VER stg on `grid 25 ← 3-cycle` (see below), which has no stable extension,
reaches verify's per-component range walks, which no benchmark op reaches.
It asks CA/SA of each of the first 100 arguments, with `max_args=None`, and
VER of 20 seeded sets: conflict-free ones, or, in the `adm sets` rows,
admissible ones, which get past verify sem's admissibility test to its
stable checks and, on `grid 25 ← 3-cycle`, its range walks.  On grid 100 the
admissible sets grow over the lower half of the ids only, since grown over
all of them they come out stable and verify answers before `_has_stable`;
the script checks, off the clock, that every query of an `adm sets` row
calls `semantics._has_stable`, and stops if one does not.  Per row it gives the minimum over 5
passes of one pass's wall time per query, twice.  Cold runs ask each query
of a fresh copy of the AF, as `afkit solve` does, so each pays for the search
tables an AF builds on its first query (the copy is built off the clock).
Warm runs ask every query of one AF whose tables an untimed pass has built,
as a caller asking many questions of one framework does.

In the hard-cases table, each cell is the minimum wall time of 3 in-process
`enumerate_extensions(af, sem, max_args=None)` calls, followed by the number of
extensions.  A call that runs past 10 s is stopped by SIGALRM and its cell
reads `>10 s`.  The table runs under a 2 GiB address-space limit
(RLIMIT_AS, on this process alone), so a call whose sets outgrow it stops
with MemoryError and its cell reads `>2 GB`: the conflict-free and
admissible builds fill 2 GiB on grid 60 within seconds, inside numpy calls
the alarm cannot interrupt, and would otherwise take the host's memory
before 10 s.  One
process, no workers; the instances are those of ROADMAP:
`grid N` is `grid_dimensions(N)` with p=0.3 and seed 1, `arb N` is `arbitrary`
with p=0.15 and seed 1, `+ 3-cycle` joins a disjoint odd cycle, `← 3-cycle`
attaches one (a cycle z0 -> z1 -> z2 -> z0 whose z0 also attacks argument id
0, so the framework stays one weak component and has no stable extension),
the 30x40 grid has p=0, and `16 free + 60-clique` puts 16 unattacked
arguments below a 60-clique that attacks all of them.  Run as a script, it
imports afkit from this checkout's `src/`; imported (for `grid`, `arb`,
`plus_three_cycle`, `linked_pairs`, `free_below_clique`), it leaves
`sys.path` alone, so the importer times the afkit it put on its own path.
"""
from __future__ import annotations

import gc
import os
import random
import resource
import signal
import sys
import time

if __name__ == "__main__":
    ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(ROOT, "src"))

from afkit import (  # noqa: E402
    AF,
    ArgSet,
    GenSpec,
    credulous,
    enumerate_extensions,
    generate,
    skeptical,
    verify,
)
from afkit import semantics  # noqa: E402
from afkit.bench import grid_dimensions  # noqa: E402
from afkit.core import _char_mask, _grounded_mask, parse_apx, serialize_apx  # noqa: E402

SEMANTICS = ("cf", "adm", "com", "stb", "prf", "sem", "stg", "grd_star")
RUNS = 3
INGEST_RUNS = 5
DECIDE_RUNS = 5
LIMIT_S = 10
LIMIT_GB = 2


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout


def grid(size: int, p: float = 0.3) -> AF:
    rows, cols = grid_dimensions(size)
    return generate(GenSpec(kind="grid", n=rows, m=cols, p=p, seed=1))


def arb(size: int) -> AF:
    return generate(GenSpec(kind="arbitrary", n=size, p=0.15, seed=1))


def free_below_clique(free: int = 16, clique: int = 60) -> AF:
    """free unattacked arguments, then a clique of mutual attackers that
    attack every one of them.  The conflict-free build leans on its block
    skip here: each clique argument skips every block but the empty set's,
    where a build without the skip would test every earlier set."""
    low = [f"f{i}" for i in range(free)]
    high = [f"c{i}" for i in range(clique)]
    attacks = [(x, y) for x in high for y in high if x != y]
    attacks += [(x, y) for x in high for y in low]
    return AF(low + high, attacks)


def plus_three_cycle(af: AF, attached: bool = False) -> AF:
    """af joined with an odd cycle z0 -> z1 -> z2 -> z0; attached, z0 also
    attacks argument id 0."""
    names = [a.name for a in af.args]
    cycle = ["z0", "z1", "z2"]
    attacks = [(names[a], names[b]) for a, b in af.attacks]
    attacks += zip(cycle, cycle[1:] + cycle[:1])
    if attached:
        attacks.append(("z0", names[0]))
    return AF(names + cycle, attacks)


def linked_pairs(k: int) -> AF:
    """k triples x_i <-> y_i -> z_i, linked by z_{i-1} -> x_i."""
    names, attacks = [], []
    for i in range(k):
        x, y, z = f"x{i}", f"y{i}", f"z{i}"
        names += [x, y, z]
        attacks += [(x, y), (y, x), (y, z)]
        if i:
            attacks.append((f"z{i - 1}", x))
    return AF(names, attacks)


INGEST_INSTANCES = (
    ("grid 1200, p=0.3", lambda: grid(1200)),
    ("grid 1200, p=0", lambda: grid(1200, p=0.0)),
    ("arb 1000, p=0.002", lambda: generate(GenSpec(kind="arbitrary", n=1000, p=0.002, seed=1))),
    ("arb 2000, p=0.001", lambda: generate(GenSpec(kind="arbitrary", n=2000, p=0.001, seed=1))),
)

DECIDE_ROWS = (
    ("CA stb grid 100", "CA", "stb", lambda: grid(100)),
    ("SA stb grid 100", "SA", "stb", lambda: grid(100)),
    ("CA adm grid 100", "CA", "adm", lambda: grid(100)),
    ("CA sem arb 30", "CA", "sem", lambda: arb(30)),
    ("SA sem arb 30", "SA", "sem", lambda: arb(30)),
    ("CA stg arb 30", "CA", "stg", lambda: arb(30)),
    ("SA stg arb 30", "SA", "stg", lambda: arb(30)),
    ("VER sem grid 100 (cf sets)", "VER", "sem", lambda: grid(100)),
    ("VER stg grid 100 (cf sets)", "VER", "stg", lambda: grid(100)),
    ("VER sem grid 100 (lower-half adm sets)", "VER", "sem", lambda: grid(100)),
    ("VER sem grid 25 ← 3-cycle (cf sets)", "VER", "sem",
     lambda: plus_three_cycle(grid(25), attached=True)),
    ("VER sem grid 25 ← 3-cycle (adm sets)", "VER", "sem",
     lambda: plus_three_cycle(grid(25), attached=True)),
    ("VER stg grid 25 ← 3-cycle (cf sets)", "VER", "stg",
     lambda: plus_three_cycle(grid(25), attached=True)),
    ("SA prf grid 25", "SA", "prf", lambda: grid(25)),
    ("CA stb arb 2000, p=0.001", "CA", "stb",
     lambda: generate(GenSpec(kind="arbitrary", n=2000, p=0.001, seed=1))),
    ("CA grd_star 10 linked pairs", "CA", "grd_star", lambda: linked_pairs(10)),
    ("SA grd_star 10 linked pairs", "SA", "grd_star", lambda: linked_pairs(10)),
    ("VER grd_star 10 linked pairs (extensions)", "VER", "grd_star",
     lambda: linked_pairs(10)),
)

INSTANCES = (
    ("grid 30", lambda: grid(30)),
    ("grid 60", lambda: grid(60)),
    ("arb 60", lambda: arb(60)),
    ("grid 30 + 3-cycle", lambda: plus_three_cycle(grid(30))),
    ("grid 25 ← 3-cycle", lambda: plus_three_cycle(grid(25), attached=True)),
    ("arb 30 ← 3-cycle", lambda: plus_three_cycle(arb(30), attached=True)),
    ("grid 30 ← 3-cycle", lambda: plus_three_cycle(grid(30), attached=True)),
    ("30×40 grid, p=0", lambda: grid(1200, p=0.0)),
    ("16 free + 60-clique", free_below_clique),
)


def _ms(seconds: float) -> str:
    ms = seconds * 1000
    if ms >= 1000:
        return f"{ms / 1000:.2f} s"
    return f"{ms:.2g} ms" if ms < 10 else f"{ms:.0f} ms"


def cell(af: AF, sem: str) -> str:
    best, count = float("inf"), 0
    for _ in range(RUNS):
        signal.alarm(LIMIT_S)
        start = time.perf_counter()
        try:
            count = len(enumerate_extensions(af, sem, max_args=None))
        except Timeout:
            return f">{LIMIT_S} s"
        except MemoryError:
            return f">{LIMIT_GB} GB"
        finally:
            signal.alarm(0)
        best = min(best, time.perf_counter() - start)
    return f"{_ms(best)} ({count:,})"


def best_of(call, runs: int = INGEST_RUNS) -> float:
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def collections_per_parse(text: str) -> str:
    gc.collect()
    before = [gen["collections"] for gen in gc.get_stats()]
    parse_apx(text)
    after = [gen["collections"] for gen in gc.get_stats()]
    return "/".join(str(b - a) for a, b in zip(before, after))


def ingest_table() -> None:
    print("| instance | args | attacks | parse_apx | _grounded_mask | serialize_apx | gc gen 0/1/2 per parse |")
    print("|---" * 7 + "|")
    for label, build in INGEST_INSTANCES:
        af = build()
        text = serialize_apx(af)
        out, inn = af.out_masks, af.in_masks
        times = [
            best_of(lambda: parse_apx(text)),
            best_of(lambda: _grounded_mask(out, inn)),
            best_of(lambda: serialize_apx(af)),
        ]
        edges = sum(map(int.bit_count, out))
        print(f"| {label} | {af.n:,} | {edges:,} | " + " | ".join(map(_ms, times))
              + f" | {collections_per_parse(text)} |", flush=True)


def cf_sets(af: AF, count: int = 20) -> list[ArgSet]:
    """count seeded conflict-free sets, each grown greedily over the ids in a
    shuffled order."""
    rng = random.Random(1)
    sets = []
    for _ in range(count):
        ids = list(range(af.n))
        rng.shuffle(ids)
        mask = 0
        for i in ids:
            if not (af.out_masks[i] | af.in_masks[i]) & (mask | 1 << i):
                mask |= 1 << i
        sets.append(ArgSet(mask, af.n))
    return sets


def adm_sets(af: AF, count: int = 20, span: int | None = None) -> list[ArgSet]:
    """count seeded admissible sets, each grown greedily over the ids below
    span (all of them by default) in a shuffled order: an id joins when the
    set stays conflict-free and inside its own _char_mask, and the passes
    repeat until no id joins."""
    rng = random.Random(1)
    sets = []
    for _ in range(count):
        ids = list(range(af.n if span is None else span))
        rng.shuffle(ids)
        mask, grown = 0, True
        while grown:
            grown = False
            for i in ids:
                more = mask | 1 << i
                if (more != mask and not (af.out_masks[i] | af.in_masks[i]) & more
                        and not more & ~_char_mask(af, more)):
                    mask, grown = more, True
        sets.append(ArgSet(mask, af.n))
    return sets


def reaches_has_stable(af: AF, sem: str, sets: list[ArgSet]) -> bool:
    """Whether verify(af, sem, s) calls semantics._has_stable for every s."""
    real, calls = semantics._has_stable, []

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    semantics._has_stable = counted
    try:
        for s in sets:
            before = len(calls)
            verify(af, sem, s)
            if len(calls) == before:
                return False
    finally:
        semantics._has_stable = real
    return True


def decide_table() -> None:
    print("| query | queries | cold, per query | warm, per query | cold / warm |")
    print("|---" * 5 + "|")
    for label, task, sem, build in DECIDE_ROWS:
        af = build()
        names = [a.name for a in af.args]
        attacks = [(names[a], names[b]) for a, b in af.attacks]
        if task == "VER":
            if "extensions" in label:
                queries = list(enumerate_extensions(af, sem, max_args=None))
            elif "adm sets" in label:
                queries = adm_sets(af, span=af.n // 2 if "lower-half" in label else None)
                if not reaches_has_stable(af, sem, queries):
                    sys.exit(f"{label}: a query does not reach _has_stable")
            else:
                queries = cf_sets(af)
            ask = lambda af_, s: verify(af_, sem, s)
        else:
            queries = list(range(min(af.n, 100)))
            fn = credulous if task == "CA" else skeptical
            ask = lambda af_, a: fn(af_, sem, a, max_args=None)

        def cold() -> float:
            busy = 0.0
            for q in queries:
                fresh = AF(names, attacks)
                start = time.perf_counter()
                ask(fresh, q)
                busy += time.perf_counter() - start
            return busy

        def warm() -> float:
            start = time.perf_counter()
            for q in queries:
                ask(af, q)
            return time.perf_counter() - start

        warm()  # builds af's tables
        cold_s = min(cold() for _ in range(DECIDE_RUNS)) / len(queries)
        warm_s = min(warm() for _ in range(DECIDE_RUNS)) / len(queries)
        print(f"| {label} | {len(queries)} | {_ms(cold_s)} | {_ms(warm_s)} | "
              f"{cold_s / warm_s:.2f} |", flush=True)


def main() -> None:
    ingest_table()
    print()
    decide_table()
    print()
    signal.signal(signal.SIGALRM, _alarm)
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT_GB << 30, hard))
    print("| instance | " + " | ".join(SEMANTICS) + " |")
    print("|---" * (len(SEMANTICS) + 1) + "|")
    for label, build in INSTANCES:
        af = build()
        cells = [cell(af, sem) for sem in SEMANTICS]
        print(f"| {label} | " + " | ".join(cells) + " |", flush=True)


if __name__ == "__main__":
    main()
