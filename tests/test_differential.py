"""Differential tests for the mask-native engines.

Engines against the oracles at 13-16 arguments, past the sizes the property
tests reach: the classic semantics against brute_force, grd_star against
grd_star_naive.  The seeds are fixed so that the grd_star recursion goes two
levels deep and the grounded remainder splits into several weak components;
test_instances_reach_deep_traces_and_split_remainders keeps that true.

The constructive grd_star against its definition by generate and test, on
random frameworks with more mutual pairs than grd_star_naive can resolve, and
past its enumeration cap on a 600-argument grid.

Routines that take a universe mask against the same routine run on the
sub-framework that restrict() builds, mapped back to parent ids.
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
    enumerate_extensions,
    generate,
    grd_star,
    grd_star_naive,
    grounded,
    minimal_relevant,
    mutual_pairs,
    range_of,
    restrict,
    sccs,
    verify_grd_star,
)
from afkit.core import _attacked_mask, _grounded_mask
from afkit.semantics import _search, _weak_component_masks

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
        rest = af.full_mask & ~range_of(af, grounded(af)).mask
        splits.append(len(_weak_component_masks(af, rest)))
        for ext in grd_star(af):
            trace = []
            assert verify_grd_star(af, ext, trace=trace)
            for outer, inner in zip(trace, trace[1:]):
                assert inner.universe < outer.universe
            depths.append(trace[-1].depth)
    assert max(depths) >= 2
    assert max(splits) >= 2


def _grd_star_by_candidates(af: AF) -> ExtensionSet:
    """grd_star by generate and test: the conflict-free supersets of the
    grounded extension that avoid its targets, kept if verify_grd_star
    accepts them."""
    g = _grounded_mask(af.out_masks, af.in_masks)
    candidates = _search(
        af, admissible=False, forced_in=g, forced_out=_attacked_mask(af, g)
    )
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
        part, sub_part = sccs(af, universe), sccs(sub)
        assert [c.mask for c in part.components] == lifted(
            c.mask for c in sub_part.components
        )
        assert part.order_edges == sub_part.order_edges
        assert all(part.comp_of[i] == -1 for i in range(n) if not universe >> i & 1)
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
