"""Differential tests for the mask-native engines.

Engines against the oracles at 13-16 arguments, past the sizes the property
tests reach: the classic semantics against brute_force, grd_star against
grd_star_naive.  The seeds are fixed so that the grd_star recursion goes two
levels deep and the grounded remainder splits into several weak components;
test_instances_reach_deep_traces_and_split_remainders keeps that true.
All of them have stable extensions, so every semantics is also checked on
frameworks without one, where semi-stable and stage fall back to the
range-maximal filter in the components that lack stable sets; in a random
sweep of small frameworks of both kinds; and on the small ones of that sweep
joined with a disjoint 3-cycle.  The sweeps check credulous and skeptical
acceptance of every argument and verification of every subset for stb, sem
and stg too.  Call recorders check that the fallback runs on the 3-cycle
alone when a grid sits beside it, that stage searches a one-component grid's
grounded remainder piece by piece, as stable does, that stable decisions
search the same pieces, or none when the grounded extension already answers,
and that verification walks ranges on the 3-cycle's component alone.  A
shuffled mix of queries under all nine semantics on one AF object, whose
search tables its first queries build, against the same queries on freshly
parsed copies and against the oracles.

The constructive grd_star against its definition by generate and test, on
random frameworks with more mutual pairs than grd_star_naive can resolve, and
past its enumeration cap on a 600-argument grid.

Routines that take a universe mask against the same routine run on the
sub-framework that restrict() builds, mapped back to parent ids.

The backtracking _search, in yield order, against every subset tested by
definition and sorted into its take-first order, with random cover and
universe in both modes, and with the shapes its support rule serves: the
grounded extension, partly outside the universe, held in by a stable walk,
and cover bits outside it.  _search has no pins; a walk that holds some
arguments in is a cut of the universe off their neighbourhood (_pinned), and
the tests that draw pins check the cut against the pinned definition.  The
conflict-free build _cf_masks against _search, sorted: the same sets, in
ascending order, also where it skips whole blocks of sets, and on dense
frameworks either side of 64 arguments, where its buffer switches from uint64
to Python ints, as plain ints.  Its admissible build against brute_force
and against the admissible _search on random universes, on those shapes and
either side of 64 arguments, sorted, each set once.  The
complete walk against the plain admissible walk and brute_force: it must
yield exactly the complete extensions, in the plain walk's order; a pinned
leaf count on one grid fails if its defended-skip rule is dropped, and a call
recorder checks that com enumeration builds no characteristic function.
"""
from __future__ import annotations

import random

import pytest

from afkit import (
    AF,
    ArgSet,
    ExtensionSet,
    GenSpec,
    brute_force,
    credulous,
    enumerate_extensions,
    generate,
    grd_star,
    grd_star_naive,
    grounded,
    minimal_relevant,
    mutual_pairs,
    restrict,
    sccs,
    skeptical,
    verify,
    verify_grd_star,
)
from afkit.core import _attacked_mask, _grounded_mask, _union, parse_apx, serialize_apx
from afkit import semantics
from afkit.semantics import _cf_masks, _search, _weak_component_masks
from conftest import plus_three_cycle, scc_graph

NAIVE_PAIRS = 14

INSTANCES = [
    GenSpec(kind="grid", n=2, m=8, p=0.3, seed=9),  # 2 components, depth 2
    GenSpec(kind="grid", n=3, m=5, p=0.3, seed=3),  # depth 2
    GenSpec(kind="grid", n=2, m=7, p=0.3, seed=7),  # 2 components
    GenSpec(kind="grid", n=1, m=14, p=0.3, seed=8),  # depth 3
    GenSpec(kind="grid", n=1, m=13, p=0.2, seed=6),  # 2 components
    GenSpec(kind="arbitrary", n=13, p=0.12, seed=6),
    GenSpec(kind="arbitrary", n=14, p=0.12, seed=2),
]


def _label(spec: GenSpec) -> str:
    shape = f"{spec.n}x{spec.m}" if spec.kind == "grid" else str(spec.n)
    return f"{spec.kind}{shape}-p{spec.p:g}-s{spec.seed}"


@pytest.mark.parametrize("spec", INSTANCES, ids=_label)
def test_engines_match_oracles(spec):
    af = generate(spec)
    assert 13 <= af.n <= 16
    for sem in ("com", "prf", "sem", "stg"):
        assert enumerate_extensions(af, sem) == brute_force(af, sem), sem
    assert len(mutual_pairs(af)) <= NAIVE_PAIRS
    assert grd_star(af) == grd_star_naive(af, max_pairs=NAIVE_PAIRS)


def test_instances_reach_deep_traces_and_split_remainders():
    depths, splits = [], []
    for spec in INSTANCES:
        af = generate(spec)
        g = grounded(af).mask
        rest = af.full_mask & ~(g | _attacked_mask(af, g))
        splits.append(len(_weak_component_masks(af, rest)))
        for ext in grd_star(af):
            trace = []
            assert verify_grd_star(af, ext, trace=trace)
            for outer, inner in zip(trace, trace[1:]):
                assert inner.universe < outer.universe
            depths.append(trace[-1].depth)
    assert max(depths) >= 2
    assert max(splits) >= 2


# grids made unstable by a disjoint 3-cycle, and random frameworks with no
# stable extension of their own
NO_STABLE = [
    (GenSpec(kind="grid", n=2, m=5, p=0.3, seed=3), True),
    (GenSpec(kind="grid", n=1, m=11, p=0.3, seed=3), True),
    (GenSpec(kind="arbitrary", n=14, p=0.15, seed=3), False),  # sem != prf
    (GenSpec(kind="arbitrary", n=14, p=0.12, seed=37), False),  # 3 components
]


@pytest.mark.parametrize(
    "spec, cycle", NO_STABLE, ids=[_label(s) + "+cycle" * c for s, c in NO_STABLE]
)
def test_range_maximal_fallback_matches_oracle(spec, cycle):
    af = generate(spec)
    if cycle:
        af = plus_three_cycle(af)
    assert 13 <= af.n <= 16
    for sem in ("stb", "com", "prf", "sem", "stg"):
        expected = brute_force(af, sem)
        assert enumerate_extensions(af, sem) == expected, sem
        # no extension has full range, so the framework has no stable one
        assert all(e.mask | _attacked_mask(af, e.mask) != af.full_mask for e in expected), sem


@pytest.mark.parametrize("spec", [s for s, cycle in NO_STABLE if cycle], ids=_label)
def test_range_maximal_runs_only_on_the_cycle(spec, monkeypatch):
    """Stable-first holds per component: the grid keeps its stable sets and
    only the 3-cycle, the one component without any, is range-filtered."""
    af = plus_three_cycle(generate(spec))
    cycle = 0b111 << (af.n - 3)
    calls = []
    range_maximal = semantics._range_maximal

    def recorder(af_, masks, universe):
        calls.append(universe)
        return range_maximal(af_, masks, universe)

    monkeypatch.setattr(semantics, "_range_maximal", recorder)
    for sem in ("sem", "stg"):
        calls.clear()
        enumerate_extensions(af, sem)
        assert calls == [cycle], sem


@pytest.mark.parametrize("spec", [s for s, cycle in NO_STABLE if cycle], ids=_label)
def test_verify_walks_ranges_only_on_the_cycle(spec, monkeypatch):
    """verify sem/stg checks range-maximality per weak component: a grid
    component the set is stable on, or one with a stable set of its own,
    settles without a range walk, so only the 3-cycle gets one.  A range walk
    is a _search whose cover is not its whole universe."""
    af = plus_three_cycle(generate(spec))
    cycle = 0b111 << (af.n - 3)
    walks = []
    search = semantics._search

    def recorder(af_, **kwargs):
        if kwargs.get("cover") != kwargs.get("universe"):
            walks.append(kwargs.get("universe"))
        return search(af_, **kwargs)

    monkeypatch.setattr(semantics, "_search", recorder)
    for sem in ("sem", "stg"):
        extensions = brute_force(af, sem)
        assert extensions, sem
        for s in extensions:
            walks.clear()
            assert verify(af, sem, s), (sem, s)
            assert walks == [cycle], (sem, s)
            # less its lowest grid argument, s is not stable on that argument's
            # component, which has a stable set of its own
            grid_part = s.mask & ~cycle
            walks.clear()
            assert not verify(af, sem, ArgSet(s.mask ^ (grid_part & -grid_part), af.n))
            assert set(walks) <= {cycle}, (sem, s)


def test_verify_asks_the_cheap_tests_first(af6, monkeypatch):
    """verify runs down the semantics once: cf and stb answer from the range
    alone, and every semantics but stg tests admissibility before any walk,
    so a set that is conflict-free but not admissible costs no search; stg
    never builds the characteristic function."""
    calls = []
    search, char_mask = semantics._search, semantics._char_mask

    def record_search(af_, **kwargs):
        calls.append("_search")
        return search(af_, **kwargs)

    def record_char_mask(af_, mask):
        calls.append("_char_mask")
        return char_mask(af_, mask)

    monkeypatch.setattr(semantics, "_search", record_search)
    monkeypatch.setattr(semantics, "_char_mask", record_char_mask)
    assert brute_force(af6, "stb")  # af6 has a stable extension
    b = af6.argset(["b"])  # conflict-free, but nothing counters a -> b
    for sem, answer, asked in (
        ("cf", True, []),
        ("stb", False, []),
        ("adm", False, ["_char_mask"]),
        ("com", False, ["_char_mask"]),
        ("prf", False, ["_char_mask"]),
        ("sem", False, ["_char_mask"]),
    ):
        calls.clear()
        assert verify(af6, sem, b) is answer, sem
        assert calls == asked, sem
    af = plus_three_cycle(af6)  # no stable extension
    for s in (af.argset(["b"]), af.argset(["a", "c", "f", "z0"])):
        calls.clear()
        assert verify(af, "stg", s) is (s in brute_force(af, "stg"))
        assert "_char_mask" not in calls, s


def test_stage_splits_a_component_over_its_grounded_remainder(monkeypatch):
    """On one weak component with a stable extension, stage finds its stable
    sets as stb does: one search per component of the grounded remainder."""
    af = generate(GenSpec(kind="grid", n=2, m=8, p=0.3, seed=9))
    g = _grounded_mask(af.out_masks, af.in_masks)
    remainder = af.full_mask & ~(g | _attacked_mask(af, g))
    assert _weak_component_masks(af) == [af.full_mask]
    assert g and len(_weak_component_masks(af, remainder)) == 2
    universes = []
    search = semantics._search

    def recorder(af_, **kwargs):
        universes.append(kwargs.get("universe"))
        return search(af_, **kwargs)

    monkeypatch.setattr(semantics, "_search", recorder)
    calls = {}
    for sem in ("stb", "stg"):
        universes.clear()
        assert enumerate_extensions(af, sem) == brute_force(af, "stb"), sem
        calls[sem] = list(universes)
    assert calls["stg"] == calls["stb"] == _weak_component_masks(af, remainder)


def _sweep_frameworks() -> list[AF]:
    rng = random.Random(31)
    afs = []
    for _ in range(200):
        names = [f"a{i}" for i in range(rng.randint(1, 9))]
        p = rng.choice((0.15, 0.25, 0.35))
        afs.append(AF(names, [(x, y) for x in names for y in names if rng.random() < p]))
    return afs


SWEEP = _sweep_frameworks()


def test_sweep_has_frameworks_with_and_without_stable_extensions():
    has_stable = [len(brute_force(af, "stb")) > 0 for af in SWEEP]
    assert has_stable.count(True) >= 50
    assert has_stable.count(False) >= 50


def _assert_decisions_match(af: AF, sem: str, expected: ExtensionSet) -> None:
    """CA/SA of every argument and VER of every subset against expected."""
    for a in range(af.n):
        assert credulous(af, sem, a) == any(a in e for e in expected), (af.attacks, sem, a)
        assert skeptical(af, sem, a) == all(a in e for e in expected), (af.attacks, sem, a)
    subsets = [ArgSet(m, af.n) for m in range(1 << af.n)]
    assert [verify(af, sem, s) for s in subsets] == [
        s in expected for s in subsets
    ], (af.attacks, sem)


def test_stable_first_semantics_match_oracle():
    for af in SWEEP:
        for sem in ("stb", "sem", "stg"):
            expected = brute_force(af, sem)
            assert enumerate_extensions(af, sem) == expected, (af.attacks, sem)
            _assert_decisions_match(af, sem, expected)


def test_per_component_semantics_match_oracle_beside_a_three_cycle():
    for af in (plus_three_cycle(af) for af in SWEEP if af.n <= 6):
        for sem in ("cf", "adm", "grd", "stb", "com", "prf", "sem", "stg"):
            expected = brute_force(af, sem)
            assert enumerate_extensions(af, sem) == expected, (af.attacks, sem)
            _assert_decisions_match(af, sem, expected)


def test_stable_decisions_search_the_grounded_remainder_by_component(monkeypatch):
    """CA/SA stb run one stable search per weak component of the grounded
    remainder, as enumeration does, CA each on its component cut off the
    argument's neighbourhood, and none when the grounded extension settles
    the query."""
    af = generate(GenSpec(kind="grid", n=2, m=8, p=0.3, seed=9))
    g = _grounded_mask(af.out_masks, af.in_masks)
    gatt = _attacked_mask(af, g)
    components = _weak_component_masks(af, af.full_mask & ~(g | gatt))
    assert g and gatt and len(components) == 2
    stable = brute_force(af, "stb")
    universes = []
    search = semantics._search

    def recorder(af_, **kwargs):
        universes.append(kwargs.get("universe"))
        return search(af_, **kwargs)

    monkeypatch.setattr(semantics, "_search", recorder)
    accepted = next(a for a in range(af.n) if any(a in e for e in stable))
    bit = 1 << accepted
    cut = (_attacked_mask(af, bit) | af.in_masks[accepted]) & ~bit
    assert cut & sum(components)  # the argument's neighbourhood is cut
    assert credulous(af, "stb", accepted)
    assert universes == [c & ~cut for c in components]
    for fn, pins, answer in ((credulous, gatt, False), (skeptical, g, True)):
        for a in range(af.n):
            if pins >> a & 1:
                universes.clear()
                assert fn(af, "stb", a) is answer
                assert universes == [], (fn.__name__, a)


ALL_SEMANTICS = tuple(s.value for s in semantics.Semantics)


def _ask(af: AF, task: str, sem: str, query):
    if task == "EE":
        return enumerate_extensions(af, sem)
    if task == "VER":
        return verify(af, sem, ArgSet(query, af.n))
    return (credulous if task == "CA" else skeptical)(af, sem, query)


def test_interleaved_queries_on_one_af_match_fresh_frameworks():
    """The per-AF search tables serve every later query on the same AF: a
    shuffled mix of EE/CA/SA/VER over all nine semantics on one AF object
    answers as the same call on a freshly parsed copy, and as the oracles."""
    rng = random.Random(59)
    asked = 0
    for k in range(90):
        n = rng.randint(1, 10)
        names = [f"a{i}" for i in range(n)]
        p = rng.choice((0.15, 0.25, 0.35))
        af = AF(names, [(x, y) for x in names for y in names if rng.random() < p])
        if k % 3 == 0:
            af = plus_three_cycle(af)
        text = serialize_apx(af)
        oracle = {
            sem: grd_star_naive(af) if sem == "grd_star" else brute_force(af, sem)
            for sem in ALL_SEMANTICS
        }
        queries = []
        for sem, exts in oracle.items():
            queries.append(("EE", sem, None))
            queries += [(task, sem, a) for task in ("CA", "SA") for a in range(af.n)]
            candidates = [e.mask for e in list(exts)[:3]]
            candidates += [rng.getrandbits(af.n) & rng.getrandbits(af.n) for _ in range(4)]
            queries += [("VER", sem, m) for m in candidates]
        rng.shuffle(queries)
        for task, sem, query in queries:
            got = _ask(af, task, sem, query)
            assert got == _ask(parse_apx(text), task, sem, query), (text, task, sem, query)
            exts = oracle[sem]
            if task == "EE":
                expected = exts
            elif task == "VER":
                expected = ArgSet(query, af.n) in exts
            elif task == "CA":
                expected = any(query in e for e in exts)
            else:
                expected = all(query in e for e in exts)
            assert got == expected, (text, task, sem, query)
            asked += 1
        assert af._near is not None and af._split is not None
    assert asked >= 14000


def _grd_star_by_candidates(af: AF) -> ExtensionSet:
    """grd_star by generate and test: the conflict-free supersets of the
    grounded extension that avoid its targets, kept if verify_grd_star
    accepts them."""
    g = _grounded_mask(af.out_masks, af.in_masks)
    candidates = _pinned(af, g, admissible=False, universe=af.full_mask & ~_attacked_mask(af, g))
    return ExtensionSet(
        af, [m for m in candidates if verify_grd_star(af, ArgSet(m, af.n))]
    )


def test_grd_star_matches_generate_and_test():
    rng = random.Random(23)
    pairs, branching = [], 0
    for _ in range(320):
        n = rng.randint(1, 12)
        names = [f"a{i}" for i in range(n)]
        attacks = set()
        for x in range(n):
            for y in range(x, n):
                if rng.random() < 0.3:
                    attacks.add((names[x], names[y]))
                    if rng.random() < 0.8:
                        attacks.add((names[y], names[x]))
        af = AF(names, sorted(attacks))
        extensions = grd_star(af)
        assert extensions == _grd_star_by_candidates(af)
        pairs.append(len(mutual_pairs(af)))
        branching += len(extensions) > 1
    assert sum(p > NAIVE_PAIRS for p in pairs) >= 20  # beyond grd_star_naive
    assert branching >= 20


@pytest.mark.parametrize("cols", [5, 6])
def test_grd_star_matches_naive_on_grid(cols):
    af = generate(GenSpec(kind="grid", n=5, m=cols, p=0.3, seed=1))
    assert len(mutual_pairs(af)) <= NAIVE_PAIRS
    assert grd_star(af, max_args=None) == grd_star_naive(af, max_pairs=NAIVE_PAIRS)


def test_grd_star_past_the_cap():
    af = generate(GenSpec(kind="grid", n=20, m=30, p=0.3, seed=1))
    extensions = grd_star(af, max_args=None)
    assert len(extensions) > 1
    # no oracle reaches 600 arguments: a repeated mask would go unseen
    masks = extensions.masks()
    assert all(a < b for a, b in zip(masks, masks[1:]))
    assert all(verify_grd_star(af, ext) for ext in extensions)
    # resolution-based grounded extensions are subset-minimal
    assert not any(a < b for a in extensions for b in extensions)


def _to_parent(mask: int, orig: tuple[int, ...]) -> int:
    return sum(1 << orig[i] for i in range(len(orig)) if mask >> i & 1)


def test_universe_routines_match_restricted_frameworks():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(1, 10)
        names = [f"a{i}" for i in range(n)]
        af = AF(names, [(x, y) for x in names for y in names if rng.random() < 0.3])
        universe = rng.getrandbits(n)
        sub, orig = restrict(af, ArgSet(universe, n))

        def lifted(masks):
            return [_to_parent(m, orig) for m in masks]

        assert _grounded_mask(af.out_masks, af.in_masks, universe) == _to_parent(
            _grounded_mask(sub.out_masks, sub.in_masks), orig
        )
        comps, sub_comps = sccs(af, universe), sccs(sub)
        assert comps == lifted(sub_comps)
        comp_of, edges = scc_graph(af, comps)
        assert edges == scc_graph(sub, sub_comps)[1]
        assert all(comp_of[i] == -1 for i in range(n) if not universe >> i & 1)
        assert [c.mask for c in minimal_relevant(af, universe)] == lifted(
            c.mask for c in minimal_relevant(sub)
        )
        assert sorted(_weak_component_masks(af, universe)) == sorted(
            lifted(_weak_component_masks(sub))
        )
        for admissible in (False, True):
            assert list(_search(af, admissible=admissible, universe=universe)) == lifted(
                _search(sub, admissible=admissible)
            )


def _pinned(
    af: AF, pins: int, *, admissible: bool, cover: int = 0, universe: int, complete: bool = False
) -> list[int]:
    """The sets of universe holding pins that _search's walk restricted to
    universe would find, in its order: the walk over universe off the pins'
    neighbourhood, each yield joined with the pins.  The pins' targets and
    pins are in range and leave cover; an admissible walk must still attack
    the pins' other attackers in universe.  Pins that are not conflict-free
    (a self-attacking pin included) give nothing."""
    pins &= universe
    targets, attackers = _attacked_mask(af, pins), _union(af.in_masks, pins)
    if pins & targets:
        return []
    cover &= ~(pins | targets)
    if admissible:
        cover |= attackers & universe & ~targets
    walk = _search(af, admissible=admissible, cover=cover, complete=complete,
                   universe=universe & ~(pins | targets | attackers))
    return [m | pins for m in walk]


def _search_by_definition(
    af: AF, admissible: bool, forced_in: int, cover: int, universe: int
) -> list[int]:
    """What _search yields, by testing every subset of universe: conflict-free
    (admissible against attackers inside universe), pins inside universe
    respected, cover inside the range; in take-first order, where at the
    lowest id two sets differ on, the set that contains it comes first."""
    ids = [i for i in range(af.n) if universe >> i & 1]
    found = []
    for m in range(1 << af.n):
        if m & ~universe or forced_in & universe & ~m:
            continue
        targets = _attacked_mask(af, m)
        if m & targets or cover & ~(m | targets):
            continue
        if admissible and any(
            af.in_masks[i] & universe & ~targets for i in ids if m >> i & 1
        ):
            continue
        found.append(m)
    return sorted(found, key=lambda m: [not m >> i & 1 for i in ids])


def test_search_matches_definition_in_yield_order():
    rng = random.Random(41)
    calls = yielded = 0
    for _ in range(1500):
        n = rng.randint(0, 11)
        names = [f"a{i}" for i in range(n)]
        p = rng.choice((0.1, 0.2, 0.3, 0.45))
        # self-attacks included: they block an id as a cut from the universe does
        af = AF(names, [(x, y) for x in names for y in names if rng.random() < p])

        def draw(q: float) -> int:
            return sum(1 << i for i in range(n) if rng.random() < q)

        for _ in range(3):
            pins, out = draw(0.1), draw(0.1)
            cover = draw(0.3) if rng.random() < 0.5 else 0
            universe = (draw(0.75) if rng.random() < 0.5 else af.full_mask) & ~out
            for admissible in (False, True):
                got = _pinned(af, pins, admissible=admissible, cover=cover, universe=universe)
                expected = _search_by_definition(af, admissible, pins, cover, universe)
                assert got == expected, (af.attacks, admissible, pins, cover, universe)
                calls += 1
                yielded += len(got) > 1
    assert yielded >= calls // 4  # most calls have an order to check


def test_cf_masks_match_the_search_in_ascending_order():
    """The conflict-free walk yields what the unpinned cf search yields, each
    set once, in ascending order."""
    rng = random.Random(47)
    calls = ordered = 0
    for _ in range(1500):
        n = rng.randint(0, 12)
        names = [f"a{i}" for i in range(n)]
        p = rng.choice((0.1, 0.2, 0.3, 0.45))
        # self-attacks included: the walk drops them from the candidates
        af = AF(names, [(x, y) for x in names for y in names if rng.random() < p])
        for universe in (af.full_mask, rng.getrandbits(n)):
            got = list(_cf_masks(af, universe))
            expected = sorted(_search(af, admissible=False, universe=universe))
            assert got == expected, (af.attacks, universe)
            calls += 1
            ordered += got != list(_search(af, admissible=False, universe=universe))
    assert ordered >= calls // 2  # most calls yield in another order than _search


def _free_below_attackers(rng: random.Random) -> AF:
    """k unattacked ids below a clique or a chain of later ids that attack
    some or all of them, with a few self-attacks: the shape where _cf_masks
    skips whole blocks, those whose top id conflicts with the id added."""
    k = rng.randint(0, 7)
    names = [f"a{i}" for i in range(k + rng.randint(1, 12 - k))]
    free, later = names[:k], names[k:]
    if rng.random() < 0.5:
        attacks = [(x, y) for x in later for y in later if x != y]
    else:
        links = list(zip(later, later[1:]))
        attacks = [rng.choice(((x, y), (y, x))) for x, y in links]
        attacks += [(y, x) for x, y in links if rng.random() < 0.3]
    q = rng.choice((0.3, 1.0))
    attacks += [(x, f) for x in later for f in free if rng.random() < q]
    attacks += [(x, x) for x in names if rng.random() < 0.1]
    return AF(names, attacks)


def test_cf_masks_match_the_search_where_blocks_are_skipped():
    rng = random.Random(53)
    skipped = 0
    for _ in range(300):
        af = _free_below_attackers(rng)
        for universe in (af.full_mask, rng.getrandbits(af.n)):
            got = _cf_masks(af, universe)
            assert got == sorted(set(got)), (af.attacks, universe)
            assert got == sorted(_search(af, admissible=False, universe=universe)), (
                af.attacks, universe)
            # some id conflicts with a lower id that tops a block of its own
            ids = [i for i in range(af.n) if (universe & ~af.self_loop_mask) >> i & 1]
            skipped += any(
                (af.out_masks[v] | af.in_masks[v]) >> u & 1 for u in ids for v in ids if u < v
            )
        assert enumerate_extensions(af, "cf") == brute_force(af, "cf"), af.attacks
    assert skipped >= 400


@pytest.mark.parametrize("n", [1, 63, 64, 65, 76])
def test_cf_masks_match_the_search_across_the_word_boundary(n):
    """Dense frameworks with self-attacks on both sides of 64 arguments, where
    the build's buffer switches from uint64 to Python ints: universes hold
    the top id, so its bit is set in the sets and their neighbourhoods, and
    every mask comes back a plain int."""
    rng = random.Random(59 + n)
    names = [f"a{i}" for i in range(n)]
    top = 1 << (n - 1)
    sets = 0
    for _ in range(4):
        p = rng.choice((0.4, 0.5, 0.6))
        attacks = [(x, y) for x in names for y in names if x != y and rng.random() < p]
        attacks += [(x, x) for x in names[:-1] if rng.random() < 0.1]
        af = AF(names, attacks)
        for universe in (af.full_mask, rng.getrandbits(n) | top):
            got = _cf_masks(af, universe)
            assert got == sorted(_search(af, admissible=False, universe=universe)), (
                af.attacks, universe)
            assert all(type(m) is int for m in got)
            assert any(m & top for m in got)
            sets += len(got)
    assert sets < 60_000  # dense enough that the oracle walk stays quick


def test_adm_build_matches_brute_force():
    """The admissible build against the oracle, with self-attacks: each
    admissible set once, whatever its build order."""
    rng = random.Random(61)
    nontrivial = 0
    for _ in range(600):
        n = rng.randint(0, 12)
        names = [f"a{i}" for i in range(n)]
        p = rng.choice((0.1, 0.2, 0.3, 0.45))
        af = AF(names, [(x, y) for x in names for y in names if rng.random() < p])
        got = _cf_masks(af, af.full_mask, admissible=True)
        assert len(got) == len(set(got)), af.attacks
        expected = brute_force(af, "adm")
        assert sorted(got) == list(expected.masks()), af.attacks
        assert enumerate_extensions(af, "adm") == expected, af.attacks
        # some conflict-free set is not admissible, so the filters have work
        nontrivial += len(expected) < len(brute_force(af, "cf"))
    assert nontrivial >= 400


def test_adm_build_matches_the_search_on_random_universes():
    rng = random.Random(67)
    for _ in range(1000):
        n = rng.randint(0, 12)
        names = [f"a{i}" for i in range(n)]
        p = rng.choice((0.1, 0.2, 0.3, 0.45))
        af = AF(names, [(x, y) for x in names for y in names if rng.random() < p])
        for universe in (af.full_mask, rng.getrandbits(n)):
            got = _cf_masks(af, universe, admissible=True)
            assert len(got) == len(set(got)), (af.attacks, universe)
            assert sorted(got) == sorted(_search(af, admissible=True, universe=universe)), (
                af.attacks, universe)


def test_adm_build_matches_the_search_where_blocks_are_skipped():
    rng = random.Random(71)
    for _ in range(300):
        af = _free_below_attackers(rng)
        for universe in (af.full_mask, rng.getrandbits(af.n)):
            got = _cf_masks(af, universe, admissible=True)
            assert sorted(got) == sorted(_search(af, admissible=True, universe=universe)), (
                af.attacks, universe)
        assert enumerate_extensions(af, "adm") == brute_force(af, "adm"), af.attacks


@pytest.mark.parametrize("n", [1, 63, 64, 65, 76])
def test_adm_build_matches_the_search_across_the_word_boundary(n):
    """Dense frameworks either side of 64 arguments whose top id attacks each
    of its attackers, so it defends itself: universes hold it, the admissible
    sets that hold it set its bit in the buffer, and every mask comes back a
    plain int."""
    rng = random.Random(73 + n)
    names = [f"a{i}" for i in range(n)]
    top = 1 << (n - 1)
    for _ in range(4):
        p = rng.choice((0.4, 0.5, 0.6))
        attacks = [(x, y) for x in names for y in names if x != y and rng.random() < p]
        attacks += [(names[-1], x) for x, y in attacks if y == names[-1]]
        attacks += [(x, x) for x in names[:-1] if rng.random() < 0.1]
        af = AF(names, attacks)
        for universe in (af.full_mask, rng.getrandbits(n) | top):
            got = _cf_masks(af, universe, admissible=True)
            assert sorted(got) == sorted(_search(af, admissible=True, universe=universe)), (
                af.attacks, universe)
            assert all(type(m) is int for m in got)
            assert top in got


def test_search_matches_definition_on_the_support_rule_shapes():
    """The call shapes the support rule serves: a walk holding the grounded
    extension, which lies partly outside the universe, on a universe without
    its targets, and cover bits outside the universe."""
    rng = random.Random(43)
    calls = yielded = 0
    for _ in range(1200):
        n = rng.randint(1, 11)
        names = [f"a{i}" for i in range(n)]
        p = rng.choice((0.1, 0.2, 0.3, 0.45))
        af = AF(names, [(x, y) for x in names for y in names if rng.random() < p])
        g = _grounded_mask(af.out_masks, af.in_masks)
        gatt = _attacked_mask(af, g)
        universe = sum(1 << i for i in range(n) if rng.random() < 0.7)
        some = universe & rng.getrandbits(n) & rng.getrandbits(n)
        beyond = af.full_mask & ~universe & rng.getrandbits(n)
        shapes = [(g, gatt, universe), (0, 0, some | beyond), (g, gatt, some | beyond)]
        for pins, out, cover in shapes:
            cut = universe & ~out
            for admissible in (False, True):
                got = _pinned(af, pins, admissible=admissible, cover=cover, universe=cut)
                expected = _search_by_definition(af, admissible, pins, cover, cut)
                assert got == expected, (af.attacks, admissible, pins, cover, cut)
                calls += 1
                yielded += len(got) > 1
    assert yielded >= calls // 8  # many calls have an order to check


def test_complete_walk_keeps_every_complete_set_in_walk_order():
    """The complete walk against the plain admissible walk and the oracle:
    with random pins, on the whole framework and on each weak component of
    the grounded remainder (the universes _local walks), each cut by a random
    set, it yields exactly the complete extensions of the cut universe's
    sub-framework that meet the pins, in the plain walk's order."""
    rng = random.Random(59)
    calls = cut = 0
    for _ in range(800):
        n = rng.randint(1, 10)
        names = [f"a{i}" for i in range(n)]
        p = rng.choice((0.15, 0.25, 0.35))
        af = AF(names, [(x, y) for x in names for y in names if rng.random() < p])
        _, _, comps = semantics._split(af)
        for universe in (af.full_mask, *comps):
            for _ in range(3):
                pins = universe & rng.getrandbits(n) & rng.getrandbits(n)
                kept = universe & ~(rng.getrandbits(n) & rng.getrandbits(n))
                sub, orig = restrict(af, ArgSet(kept, n))
                complete = {_to_parent(e.mask, orig) for e in brute_force(sub, "com")}
                plain = _pinned(af, pins, admissible=True, universe=kept)
                got = _pinned(af, pins, admissible=True, universe=kept, complete=True)
                assert got == [m for m in plain if m in complete], (af.attacks, pins, kept)
                assert set(got) == {m for m in complete if not pins & kept & ~m}, (
                    af.attacks, pins, kept)
                calls += 1
                cut += len(got) < len(plain)
    assert cut >= calls // 8  # the walk often drops something


def test_complete_walk_yield_count_on_a_grid(monkeypatch):
    """On grid 30's grounded remainder (one 24-argument component), the
    complete walk reaches 772 leaves, of the plain walk's 3,052 admissible
    sets, and yields the 79 complete sets among them; a walk without its
    defended-skip rule reaches all 3,052."""
    af = generate(GenSpec(kind="grid", n=5, m=6, p=0.3, seed=1))
    _, _, comps = semantics._split(af)
    assert len(comps) == 1
    (c,) = comps
    leaves = []
    leaf_test = semantics._defends_left_out

    def record_leaf(*args):
        leaves.append(args)
        return leaf_test(*args)

    monkeypatch.setattr(semantics, "_defends_left_out", record_leaf)
    assert sum(1 for _ in _search(af, admissible=True, universe=c)) == 3052
    assert not leaves  # the plain walk runs no leaf test
    assert sum(1 for _ in _search(af, admissible=True, universe=c, complete=True)) == 79
    assert len(leaves) == 772


def test_complete_enumeration_builds_no_characteristic_function(monkeypatch):
    """com EE returns the complete walk's yields as they are: it never builds
    the characteristic function to filter them."""
    calls = []
    char_mask = semantics._char_mask

    def record_char_mask(af_, mask):
        calls.append(mask)
        return char_mask(af_, mask)

    monkeypatch.setattr(semantics, "_char_mask", record_char_mask)
    for spec in INSTANCES:
        assert enumerate_extensions(generate(spec), "com")
    af = generate(GenSpec(kind="grid", n=5, m=6, p=0.3, seed=1))
    assert len(enumerate_extensions(af, "com", max_args=None)) == 79
    assert calls == []
