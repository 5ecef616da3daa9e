"""Mutation gate: every seeded mutant of afkit must fail its tests.

    python3 scripts/mutants.py [NAME ...]

MUTANTS is a table of named textual substitutions: a file, the old text (which
must occur exactly once in it), the new text, and the test files that must
catch the change.  The script copies `src/`, `tests/` and `pyproject.toml` into
a temporary directory, applies one mutant at a time there, runs
`python -m pytest -q -x` on that mutant's test files against the copy's `src/`,
and restores the file.  It prints one verdict per mutant: `killed` when the
tests fail, `SURVIVED` when they pass, `ERROR` when pytest could not run them
(or the old text is not found exactly once).  It exits 1 unless every mutant
selected (all of them by default, or those named) was killed, and 2 for an
unknown name.

The mutants cover the engines, the solver bridge's configuration checks, the
bench harness's kill at the time limit and its CSV rows, and the CLI's exit
codes and count output.  Each change to them adds its own mutants here; a
refactor that rewrites a mutant's old text updates the entry, which
`tests/test_mutants.py` enforces.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


CORE = "src/afkit/core.py"
RESOLUTION = "src/afkit/resolution.py"
SEMANTICS = "src/afkit/semantics.py"
DIFFERENTIAL = "tests/test_differential.py"
APX = "tests/test_apx.py"
CORE_TESTS = "tests/test_core.py"
CLI = "src/afkit/cli.py"
CLI_TESTS = "tests/test_cli.py"

MUTANTS = (
    # the one-pass APX tokenizer
    Mutant(
        "intra-line whitespace may cross line breaks",
        CORE,
        r'_WS = r"[^\S\n]*"',
        r'_WS = r"\s*"',
        (APX,),
    ),
    Mutant(
        "duplicate arg check dropped",
        CORE,
        "if len(seen) != n or not all(map(NAME_RE.match, names)):",
        "if not all(map(NAME_RE.match, names)):",
        (APX,),
    ),
    Mutant(
        "error line number off by one",
        CORE,
        "enumerate(text.splitlines(), start=1)",
        "enumerate(text.splitlines(), start=2)",
        (APX,),
    ),
    Mutant(
        "att no longer accepted",
        CORE,
        'rf"|(?:defeat|att){_WS}',
        'rf"|defeat{_WS}',
        (APX,),
    ),
    # the split columns, the mask-only AF and its derived views
    Mutant(
        "attack columns swapped",
        CORE,
        "zip(filter(None, parts[2::5]), filter(None, parts[3::5]))",
        "zip(filter(None, parts[3::5]), filter(None, parts[2::5]))",
        (APX,),
    ),
    Mutant(
        "attacks view derived from in_masks",
        CORE,
        "(a, b) for a, targets in enumerate(self.out_masks) for b in _ids(targets)",
        "(a, b) for a, targets in enumerate(self.in_masks) for b in _ids(targets)",
        (CORE_TESTS,),
    ),
    Mutant(
        "serialized attacks left in walk order",
        CORE,
        "lines += reversed(defeats)",
        "lines += defeats",
        (APX,),
    ),
    # the set-bit primitives every engine scan goes through
    Mutant(
        "union keeps only the last table entry",
        CORE,
        "acc |= table[low.bit_length() - 1]",
        "acc = table[low.bit_length() - 1]",
        (CORE_TESTS,),
    ),
    Mutant(
        "unsupported stops after the first bit checked",
        CORE,
        "            return True\n        mask ^= low\n",
        "            return True\n        break\n",
        (CORE_TESTS,),
    ),
    # the worklist grounded fixpoint
    Mutant(
        "grounded start ignores the universe",
        CORE,
        "fresh = _unattacked(inn, universe, universe)",
        "fresh = _unattacked(inn, universe, -1)",
        (CORE_TESTS,),
    ),
    Mutant(
        "grounded candidates from the new members' targets",
        CORE,
        "_unattacked(inn, _union(out, defeated) & open_",
        "_unattacked(inn, _union(out, fresh) & open_",
        (CORE_TESTS,),
    ),
    Mutant(
        "grounded open set taken before covered grows",
        CORE,
        "covered |= defeated\n        open_ = universe & ~covered",
        "open_ = universe & ~covered\n        covered |= defeated",
        (CORE_TESTS,),
    ),
    # the characteristic function
    Mutant(
        "characteristic function without its outer complement",
        CORE,
        "return af.full_mask & ~_attacked_mask(",
        "return af.full_mask & _attacked_mask(",
        (CORE_TESTS, "tests/test_semantics.py"),
    ),
    # Kosaraju SCCs and the minimal relevant components
    Mutant(
        "flood fill ignores already-placed ids",
        CORE,
        "frontier = _union(inn, frontier) & rest & ~comp",
        "frontier = _union(inn, frontier) & universe & ~comp",
        (CORE_TESTS,),
    ),
    Mutant(
        "finishing order not reversed",
        CORE,
        "for v in reversed(finished):",
        "for v in finished:",
        (CORE_TESTS,),
    ),
    Mutant(
        "predecessor test without & universe",
        RESOLUTION,
        "af.in_masks[x] & universe != af.out_masks[x] & c",
        "af.in_masks[x] != af.out_masks[x] & c",
        ("tests/test_resolution.py",),
    ),
    Mutant(
        "no tree count",
        RESOLUTION,
        "== 2 * (len(ids) - 1):",
        ">= 0:",
        ("tests/test_resolution.py",),
    ),
    # the naive oracle's binary counter over the mutual pairs
    Mutant(
        "naive engine drops one direction per pair",
        RESOLUTION,
        "(hi, lo) if code >> i & 1 else (lo, hi)",
        "(lo, hi)",
        ("tests/test_resolution.py",),
    ),
    # the one grd* walk, behind grd_star and verify_grd_star
    Mutant(
        "grd_star branch drops | g",
        RESOLUTION,
        "chosen | g | s, depth + 1))",
        "chosen | s, depth + 1))",
        (DIFFERENTIAL,),
    ),
    Mutant(
        "grd_star keeps the struck arguments in the next universe",
        RESOLUTION,
        "rest & ~(pi | _attacked_mask(af, s))",
        "rest & ~pi",
        (DIFFERENTIAL,),
    ),
    Mutant(
        "grd_star branches on unstable sets",
        RESOLUTION,
        "_search(af, admissible=False, cover=pi, universe=pi & within)",
        "_search(af, admissible=False, universe=pi & within)",
        (DIFFERENTIAL,),
    ),
    Mutant(
        "grd_star records chosen without g",
        RESOLUTION,
        "masks.append(chosen | g)",
        "masks.append(chosen)",
        (DIFFERENTIAL,),
    ),
    # verification: the walk restricted to the candidate adds no frame for a
    # branch off it; no answer changes, and test_verify_grd_star_trace (and,
    # for the first, the differential deep-trace test) pins the frames
    Mutant(
        "walk ignores within",
        RESOLUTION,
        "universe=pi & within)",
        "universe=pi)",
        ("tests/test_resolution.py", DIFFERENTIAL),
    ),
    Mutant(
        "grounded part outside within kept",
        RESOLUTION,
        "if g & ~within:",
        "if False:",
        ("tests/test_resolution.py",),
    ),
    # the support rule of _search
    Mutant(
        "hostile from the full in_masks",
        SEMANTICS,
        "hostile | inns[p]",
        "hostile | attackers[ids[p]]",
        (DIFFERENTIAL,),
    ),
    Mutant(
        "skip children pushed unchecked",
        SEMANTICS,
        "if not (todo and _unsupported(attackers, todo, helpers)):",
        "if True:",
        (DIFFERENTIAL,),
    ),
    Mutant(
        "skip check limited to the skipped id",
        SEMANTICS,
        "todo = (bit | out) & ~covered",
        "todo = bit & ~covered",
        (DIFFERENTIAL,),
    ),
    # the take-first loop
    Mutant(
        "take path continues after a failed support check",
        SEMANTICS,
        "            if todo and _unsupported(attackers, todo, helpers):\n                break\n",
        "            if todo and _unsupported(attackers, todo, helpers):\n                pass\n",
        (DIFFERENTIAL,),
    ),
    # the complete walk's defended-skip rule and leaf test
    Mutant(
        "complete walk without the defended-skip rule",
        SEMANTICS,
        "if not complete or inns[p] & ~covered:",
        "if True:",
        (DIFFERENTIAL,),
    ),
    Mutant(
        "complete walk without the leaf test",
        SEMANTICS,
        "if not (complete and _defends_left_out(attackers, universe, chosen, covered)):",
        "if True:",
        (DIFFERENTIAL,),
    ),
    Mutant(
        "leaf test counts attackers outside the universe",
        SEMANTICS,
        "_unsupported(attackers, uncountered & ~chosen, uncountered)",
        "_unsupported(attackers, uncountered & ~chosen, ~covered)",
        (DIFFERENTIAL,),
    ),
    Mutant(
        "defended-skip rule fires when the lowest attacker alone is countered",
        SEMANTICS,
        "or inns[p] & ~covered:",
        "or inns[p] & -inns[p] & ~covered:",
        (DIFFERENTIAL,),
    ),
    # the per-AF search tables
    Mutant(
        "near without the taken id's attackers",
        SEMANTICS,
        "inn[i] | _attacked_mask(af, (1 << i)",
        "_attacked_mask(af, (1 << i)",
        (CORE_TESTS, DIFFERENTIAL),
    ),
    Mutant(
        "near without the targets of the taken id's attackers",
        SEMANTICS,
        "(1 << i) | out[i] | inn[i])",
        "(1 << i) | out[i])",
        (CORE_TESTS, DIFFERENTIAL),
    ),
    Mutant(
        "near table kept on the class",
        SEMANTICS,
        "    table = af._near\n"
        "    if table is None:\n"
        "        table = af._near = [None] * af.n\n",
        "    table = getattr(AF, '_near', None)\n"
        "    if table is None:\n"
        "        table = AF._near = [None] * af.n\n",
        (DIFFERENTIAL,),
    ),
    Mutant(
        "near entries not kept on the AF",
        SEMANTICS,
        "near[j] = table[i] = inn[i]",
        "near[j] = inn[i]",
        (CORE_TESTS,),
    ),
    Mutant(
        "split without the grounded extension's targets",
        SEMANTICS,
        "gatt = _attacked_mask(af, g)",
        "gatt = 0",
        ("tests/test_semantics.py", DIFFERENTIAL),
    ),
    # per-component stable decisions
    Mutant(
        "no pin check in _has_stable",
        SEMANTICS,
        "if inside & gatt or outside & g:",
        "if False:",
        ("tests/test_semantics.py", DIFFERENTIAL),
    ),
    Mutant(
        "pinned-out id left in the component's universe",
        SEMANTICS,
        "cut = outside | (",
        "cut = (",
        ("tests/test_semantics.py", DIFFERENTIAL),
    ),
    Mutant(
        "stable cut without inside's neighbours",
        SEMANTICS,
        "cut = outside | (_attacked_mask(af, inside) | _union(af.in_masks, inside)) & ~inside",
        "cut = outside",
        ("tests/test_semantics.py", DIFFERENTIAL),
    ),
    Mutant(
        "first component only",
        SEMANTICS,
        "universe=c & ~cut)) for c in comps)",
        "universe=c & ~cut)) for c in comps[:1])",
        ("tests/test_semantics.py", DIFFERENTIAL),
    ),
    # the one existence query behind credulous and skeptical
    Mutant(
        "sem/stg stable switch dropped",
        SEMANTICS,
        "and _has_stable(af):",
        "and False:",
        ("tests/test_semantics.py",),
    ),
    Mutant(
        "grounded test ignores inside",
        SEMANTICS,
        "g & inside == inside",
        "True",
        ("tests/test_semantics.py",),
    ),
    # credulous adm/com/prf as a cut of the universe
    Mutant(
        "credulous tests the walk for a true yield",
        SEMANTICS,
        "next(walk, None) is not None",
        "any(walk)",
        ("tests/test_semantics.py", DIFFERENTIAL),
    ),
    Mutant(
        "credulous walk admits a self-attacker",
        SEMANTICS,
        "not af.self_loop_mask & inside and next(",
        "next(",
        ("tests/test_semantics.py", DIFFERENTIAL),
    ),
    Mutant(
        "credulous cover without the argument's attackers",
        SEMANTICS,
        "cover=inn & ~out,",
        "cover=0,",
        ("tests/test_semantics.py", DIFFERENTIAL),
    ),
    Mutant(
        "stg checked for admissibility",
        SEMANTICS,
        "    if sem is not Semantics.STG:\n        defended",
        "    if True:\n        defended",
        ("tests/test_semantics.py", DIFFERENTIAL),
    ),
    Mutant(
        "sem range check over cf sets",
        SEMANTICS,
        "covering = _search(af, admissible=sem is Semantics.SEM, cover=rng & c, universe=c)",
        "covering = _search(af, admissible=False, cover=rng & c, universe=c)",
        ("tests/test_semantics.py", DIFFERENTIAL),
    ),
    # the conflict-free build, the solver's dedupe and verify's one pass
    Mutant(
        "cf build takes conflicts from out_masks only",
        SEMANTICS,
        "near, bit = out[v] | inn[v], 1 << v",
        "near, bit = out[v], 1 << v",
        (DIFFERENTIAL,),
    ),
    Mutant(
        "cf build keeps self-attackers among the ids",
        SEMANTICS,
        "ids = _ids(universe & ~af.self_loop_mask)",
        "ids = _ids(universe)",
        (DIFFERENTIAL,),
    ),
    Mutant(
        "cf build tests only the block's top id",
        SEMANTICS,
        "keep = rows[0] & near == 0",
        "keep = rows[0] == rows[0]",
        (DIFFERENTIAL,),
    ),
    Mutant(
        "cf build skips the blocks it should keep",
        SEMANTICS,
        "[b for top, b in blocks if not top & near]",
        "[b for top, b in blocks if top & near]",
        (DIFFERENTIAL,),
    ),
    Mutant(
        "cf build returns numpy scalars",
        SEMANTICS,
        "return sets.tolist()",
        "return list(sets)",
        (DIFFERENTIAL,),
    ),
    Mutant(
        "cf build keeps uint64 past 64 arguments",
        SEMANTICS,
        "numpy.uint64 if af.n <= 64 else object",
        "numpy.uint64 if af.n <= 65 else object",
        (DIFFERENTIAL,),
    ),
    # the admissible build: its prune rule and its final filter
    Mutant(
        "adm build keeps sets with a threat at the end",
        SEMANTICS,
        "sets = sets[host & ~att == 0]",
        "sets = sets",
        (DIFFERENTIAL,),
    ),
    Mutant(
        "adm build prunes threats the next id attacks",
        SEMANTICS,
        "keep = host & ~(att | later[j + 1]) == 0",
        "keep = host & ~(att | later[min(j + 2, len(ids))]) == 0",
        (DIFFERENTIAL,),
    ),
    Mutant(
        "adm build filters the sets alone",
        SEMANTICS,
        "block = [sets[keep], att[keep], host[keep]]",
        "block = [sets[keep], att, host]",
        (DIFFERENTIAL,),
    ),
    Mutant(
        "solver keeps repeated models",
        "src/afkit/solver.py",
        "if mask not in seen:",
        "if True:",
        ("tests/test_solver.py",),
    ),
    Mutant(
        "prf reduct taken outside the set instead of its range",
        SEMANTICS,
        "universe=af.full_mask & ~rng))",
        "universe=af.full_mask & ~mask))",
        ("tests/test_semantics.py", DIFFERENTIAL),
    ),
    Mutant(
        "conflict test dropped",
        SEMANTICS,
        "if attacked & mask:",
        "if False:",
        ("tests/test_semantics.py", DIFFERENTIAL),
    ),
    Mutant(
        "range without the set itself",
        SEMANTICS,
        "rng = mask | attacked",
        "rng = attacked",
        ("tests/test_semantics.py", DIFFERENTIAL),
    ),
    Mutant(
        "verify skips the per-component stable check",
        SEMANTICS,
        "if any(_search(af, admissible=False, cover=c, universe=c)):",
        "if False:",
        (DIFFERENTIAL,),
    ),
    # the solver configuration's one construction-time check and one
    # precondition check
    Mutant(
        "solver config accepts a blank command",
        "src/afkit/solver.py",
        'if not tokens:\n            raise SolverConfigError("solver command is empty")',
        'if False:\n            raise SolverConfigError("solver command is empty")',
        ("tests/test_solver.py", CLI_TESTS),
    ),
    Mutant(
        "metasp refusal dropped from the shared solver check",
        "src/afkit/solver.py",
        "if is_optimization_encoding(encoding) and not config.metasp_capable:",
        "if False:",
        ("tests/test_solver.py", "tests/test_bench.py"),
    ),
    # the bench harness's one timeout check, one deadline and CSV row codec,
    # and the CLI's one exit-code map and count output
    Mutant(
        "bench accepts any timeout",
        "src/afkit/bench.py",
        "if timeout is not None and not 0 < timeout < inf:",
        "if False:",
        ("tests/test_bench.py",),
    ),
    Mutant(
        "bench kills the child alone at the limit",
        "src/afkit/bench.py",
        "os.killpg(proc.pid, signal.SIGKILL)",
        "os.kill(proc.pid, signal.SIGKILL)",
        ("tests/test_bench.py",),
    ),
    Mutant(
        "CSV reads an empty detail as None",
        "src/afkit/bench.py",
        "if not text and kind != field.type:",
        "if not text:",
        ("tests/test_bench.py",),
    ),
    Mutant(
        "unwritable output not turned into an input error",
        CLI,
        "except OSError as exc:\n            raise CommandError(EXIT_INPUT, f\"cannot write {output}",
        "except () as exc:\n            raise CommandError(EXIT_INPUT, f\"cannot write {output}",
        (CLI_TESTS,),
    ),
    Mutant(
        "search cap mapped to the input-error exit code",
        CLI,
        "return EXIT_CAP",
        "return EXIT_INPUT",
        (CLI_TESTS,),
    ),
    Mutant(
        "count format builds every name",
        CLI,
        "print(len(exts))",
        "print(len(exts.names()))",
        (CLI_TESTS,),
    ),
)


def run(mutant: Mutant, tree: str) -> str:
    target = os.path.join(tree, mutant.path)
    with open(target, encoding="utf-8") as handle:
        original = handle.read()
    if original.count(mutant.old) != 1:
        return "ERROR (old text not found exactly once)"
    with open(target, "w", encoding="utf-8") as handle:
        handle.write(original.replace(mutant.old, mutant.new))
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=tree, env=env, capture_output=True, text=True,
        )
    finally:
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(original)
    # pytest exits 1 when a test failed and 0 when all passed; anything else
    # (collection error, no tests found) says nothing about the mutant
    verdicts = {1: "killed", 0: "SURVIVED"}
    return verdicts.get(proc.returncode, f"ERROR (pytest exit {proc.returncode})")


def main(argv: list[str]) -> int:
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    failed = 0
    with tempfile.TemporaryDirectory() as tree:
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(tree, part), ignore=ignore)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tree)
        for mutant in chosen:
            start = time.perf_counter()
            verdict = run(mutant, tree)
            failed += verdict != "killed"
            print(f"{verdict:<9} {mutant.name} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
