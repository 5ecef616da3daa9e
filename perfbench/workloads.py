"""The benchmark's three workloads: instances, the ops each one runs, and
the canonical form of every answer.

Instances are fixed (generator seed GEN_SEED), so every run measures the same
frameworks and the committed expected answers cover them.  The workload seed
picks the queries (arguments, candidate sets) from recorded pools and the op
order; see README.md for why.

Every call into afkit goes through a module attribute looked up at call time
(``semantics.credulous``, not a name bound at import), so the traced run's
wrappers see it.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
from dataclasses import dataclass
from typing import Callable

import afkit.bench as bench
import afkit.cli as cli
import afkit.core as core
import afkit.generators as generators
import afkit.semantics as semantics

WORKLOADS = ("enum", "decide", "ingest")
GEN_SEED = 1
CLASSIC = tuple(s.value for s in semantics.Semantics if s is not semantics.Semantics.GRD_STAR)
ALL_SEMANTICS = CLASSIC + ("grd_star",)
GRD_STAR_MAX_N = 20  # above this, grd_star enumeration takes seconds per op


@dataclass(frozen=True)
class Instance:
    kind: str
    size: int
    p: float

    @property
    def key(self) -> str:
        return f"{self.kind}{self.size}-p{self.p:g}"

    def spec(self) -> generators.GenSpec:
        if self.kind == "grid":
            rows, cols = bench.grid_dimensions(self.size)
            return generators.GenSpec(kind="grid", n=rows, m=cols, p=self.p, seed=GEN_SEED)
        return generators.GenSpec(kind="arbitrary", n=self.size, p=self.p, seed=GEN_SEED)


def _grid(size: int, p: float = 0.3) -> Instance:
    return Instance("grid", size, p)


def _arb(size: int, p: float = 0.15) -> Instance:
    return Instance("arbitrary", size, p)


# Roles.  decide: "full" instances get every task; "fast" ones only the tasks
# that answer in milliseconds there (CA com/adm/prf exceed 5 s on grid 100).
# ingest: every op on a "large" file pays a parse of about a second, so it
# gets the three tasks that reach distinct layers (LARGE_TASKS).
INSTANCES = {
    "full": {
        "enum": [_grid(20), _grid(25), _grid(30), _arb(20), _arb(30), _arb(40)],
        "decide": [(_grid(25), "full"), (_arb(30), "full"), (_grid(100), "fast")],
        "ingest": [(_grid(1200), "full"), (_grid(1200, 0.0), "full"), (_arb(1000, 0.002), "full"),
                   (_arb(2000, 0.001), "large")],
    },
    "tiny": {
        "enum": [_grid(9), _arb(10)],
        "decide": [(_grid(9), "full"), (_arb(10), "full"), (_grid(16), "fast")],
        "ingest": [(_grid(30), "full"), (_grid(30, 0.0), "full"), (_arb(40, 0.05), "large")],
    },
}

LARGE_TASKS = ("EE-grd", "VER-grd_star", "emit-grd_star_handcraft")
FAST_CA = ("grd", "stb")
FAST_SA = ("grd", "stb", "com")
# Picks per slot for one run; every other slot contributes one op.
PICKS = {"CA": 2, "SA": 2}


def apx_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ------------------------------------------------------------ answers


def canon_extensions(exts) -> str:
    masks = exts.masks()
    digest = hashlib.sha256(",".join(format(m, "x") for m in masks).encode()).hexdigest()
    return f"EXT {len(masks)} {digest}"


def canon_bool(answer) -> str:
    if not isinstance(answer, bool):
        raise TypeError(f"expected a bool answer, got {type(answer).__name__}")
    return "YES" if answer else "NO"


def canon_cli(result) -> str:
    code, text = result
    data = text.encode()
    return f"EXIT {code} {len(data)} {hashlib.sha256(data).hexdigest()}"


def run_cli(argv: list[str]) -> tuple[int, str]:
    """In-process ``afkit`` run; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------- ops


@dataclass
class Op:
    slot: str  # ops sharing a slot are alternatives; a run picks PICKS[task] of them
    key: str  # names the expected answer
    call: Callable[[], object]
    canon: Callable[[object], str]


def enum_ops(inst: Instance, af: core.AF) -> list[Op]:
    sems = CLASSIC + (("grd_star",) if af.n <= GRD_STAR_MAX_N else ())
    ops = []
    for sem in sems:
        key = f"EE/{sem}/{inst.key}"
        ops.append(Op(key, key, lambda sem=sem: semantics.enumerate_extensions(af, sem, max_args=None),
                      canon_extensions))
    return ops


def decide_ops(inst: Instance, role: str, af: core.AF, pools: dict) -> list[Op]:
    ca = CLASSIC if role == "full" else FAST_CA
    sa = CLASSIC if role == "full" else FAST_SA
    ops = []
    for task, sems, fn in (("CA", ca, "credulous"), ("SA", sa, "skeptical")):
        for sem in sems:
            slot = f"{task}/{sem}/{inst.key}"
            for a in af.args:
                ops.append(Op(slot, f"{slot}/{a.name}",
                              lambda fn=fn, sem=sem, a=a.id: getattr(semantics, fn)(af, sem, a, max_args=None),
                              canon_bool))
    for sem in ALL_SEMANTICS:
        for pool in ("ext", "cf"):
            slot = f"VER/{sem}/{inst.key}/{pool}"
            for i, hexmask in enumerate(pools[pool]):
                cand = core.ArgSet(int(hexmask, 16), af.n)
                ops.append(Op(slot, f"{slot}{i}",
                              lambda sem=sem, cand=cand: semantics.verify(af, sem, cand),
                              canon_bool))
    return ops


def ingest_ops(inst: Instance, role: str, af: core.AF, path: str, pools: dict) -> list[Op]:
    grounded = ",".join(af.names(int(pools["grounded"], 16)))
    argvs = {
        "EE-grd": ["solve", "--input", path, "--semantics", "grd", "--task", "EE", "--max-args", "0"],
        "VER-stb": ["solve", "--input", path, "--semantics", "stb", "--task", "VER", "--set", grounded],
        "VER-com": ["solve", "--input", path, "--semantics", "com", "--task", "VER", "--set", grounded],
        "VER-grd_star": ["solve", "--input", path, "--semantics", "grd_star", "--task", "VER",
                         "--set", grounded],
        "emit-grd_star_handcraft": ["emit", "--encoding", "grd_star_handcraft", "--input", path],
    }
    ops = []
    for task, argv in argvs.items():
        if role == "large" and task not in LARGE_TASKS:
            continue
        key = f"cli/{task}/{inst.key}"
        ops.append(Op(key, key, lambda argv=argv: run_cli(argv), canon_cli))
    if role == "large":
        return ops
    slot = f"cli/CA-grd/{inst.key}"
    for name in pools["args"]:
        argv = ["solve", "--input", path, "--semantics", "grd", "--task", "CA", "--arg", name]
        ops.append(Op(slot, f"{slot}/{name}", lambda argv=argv: run_cli(argv), canon_cli))
    return ops


# The baseline failure kept out of the timed ingest loop: the recursive
# search raises RecursionError on the 30x40 grid with p=0.
KNOWN_FAILURE = (_grid(1200, 0.0), ["--semantics", "stb", "--task", "EE", "--max-args", "0"])


# -------------------------------------------------------------- setup


class InstanceMismatch(RuntimeError):
    """A generated instance differs from the one the answers were recorded on."""


@dataclass
class Prepared:
    universe: list[Op]  # every op the expected answers cover
    files: dict[str, str]  # ingest: instance key -> APX path


def prepare(workload: str, scale: str, expected: dict, workdir: str) -> Prepared:
    """Generate the workload's instances, check them against the recorded
    digests, write APX files for ``ingest``, and build every possible op."""
    files: dict[str, str] = {}
    universe: list[Op] = []
    recorded = expected.get("instances", {})
    for item in INSTANCES[scale][workload]:
        inst, role = item if isinstance(item, tuple) else (item, None)
        af = generators.generate(inst.spec())
        text = core.serialize_apx(af)
        digest = apx_digest(text)
        if recorded.get(inst.key) != digest:
            raise InstanceMismatch(f"{inst.key}: generated APX digest {digest[:12]} is not the recorded one")
        pools = expected.get("pools", {}).get(f"{workload}/{inst.key}", {})
        if workload == "enum":
            universe += enum_ops(inst, af)
        elif workload == "decide":
            universe += decide_ops(inst, role, af, pools)
        else:
            path = os.path.join(workdir, f"{inst.key}.apx")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            files[inst.key] = path
            universe += ingest_ops(inst, role, af, path, pools)
    return Prepared(universe, files)


def sample(universe: list[Op], seed: int) -> list[Op]:
    """The run's ops: PICKS[task] seeded picks from each slot, else one."""
    rng = random.Random(f"sample/{seed}")
    slots: dict[str, list[Op]] = {}
    for op in universe:
        slots.setdefault(op.slot, []).append(op)
    chosen = []
    for slot, ops in slots.items():
        k = min(PICKS.get(slot.split("/", 1)[0], 1), len(ops))
        chosen += rng.sample(ops, k)
    return chosen
