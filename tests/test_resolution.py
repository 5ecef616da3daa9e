from __future__ import annotations

import random

import pytest

from afkit.core import AF, ArgSet, restrict
from afkit.resolution import (
    grd_star,
    grd_star_naive,
    minimal_relevant,
    mutual_pairs,
    verify_grd_star,
)
from afkit.semantics import SearchCapError

from conftest import name_sets


def test_mutual_pairs_demo(af6):
    assert mutual_pairs(af6) == [(2, 3)]  # c <-> d


def test_resolution_cap():
    names = [f"a{i}" for i in range(10)]
    attacks = []
    for i in range(0, 10, 2):
        attacks += [(names[i], names[i + 1]), (names[i + 1], names[i])]
    af = AF(names, attacks)
    # five disjoint mutual pairs: 32 resolutions, each its own grounded extension
    assert len(grd_star_naive(af)) == 32
    with pytest.raises(SearchCapError, match="5 mutual pairs exceed the resolution cap of 4"):
        grd_star_naive(af, max_pairs=4)


def test_grd_star_demo_both_engines(af6):
    expected = {("a", "c", "f"), ("a", "d", "f")}
    assert name_sets(af6, grd_star_naive(af6)) == expected
    assert name_sets(af6, grd_star(af6)) == expected
    assert grd_star(af6) == grd_star_naive(af6)


def test_verify_grd_star_demo(af6):
    assert verify_grd_star(af6, af6.argset(["a", "d", "f"]))
    assert verify_grd_star(af6, af6.argset(["a", "c", "f"]))
    assert not verify_grd_star(af6, af6.argset(["a"]))
    assert not verify_grd_star(af6, af6.argset(["a", "c"]))
    assert not verify_grd_star(af6, af6.argset(["c", "d"]))  # not conflict-free


def test_verify_grd_star_trace(af6):
    trace = []
    assert verify_grd_star(af6, af6.argset(["a", "d", "f"]), trace=trace)
    assert [f.depth for f in trace] == [0, 1]
    top, leaf = trace
    assert top.af is af6 and leaf.af is af6
    assert top.universe.mask == af6.full_mask
    assert af6.names(top.grounded_part) == ("a",)
    assert af6.names(top.remainder) == ("d", "f")
    assert af6.names(top.minimal_scc_union) == ("c", "d")
    assert af6.names(leaf.universe) == ("f",)
    assert af6.names(leaf.grounded_part) == ("f",)
    assert len(leaf.remainder) == 0 and len(leaf.minimal_scc_union) == 0
    # {d, f} leaves out the grounded part {a}: the first level rejects it,
    # though {d} is stable on that level's components {c, d}
    trace = []
    assert not verify_grd_star(af6, af6.argset(["d", "f"]), trace=trace)
    assert [f.depth for f in trace] == [0]
    assert af6.names(trace[0].remainder) == ("d", "f")


def test_minimal_relevant_demo(af6):
    sub, _ = restrict(af6, af6.argset(["c", "d", "e", "f"]))
    assert [sub.names(c) for c in minimal_relevant(sub)] == [("c", "d")]


def test_minimal_relevant_needs_symmetry():
    cycle = AF(["x", "y", "z"], [("x", "y"), ("y", "z"), ("z", "x")])
    assert minimal_relevant(cycle) == []


def test_minimal_relevant_rejects_mutual_cycle():
    # four mutual attacks arranged in a square: symmetric but not a tree
    names = ["w", "x", "y", "z"]
    attacks = []
    for a, b in [("w", "x"), ("x", "y"), ("y", "z"), ("z", "w")]:
        attacks += [(a, b), (b, a)]
    af = AF(names, attacks)
    assert minimal_relevant(af) == []


def test_minimal_relevant_rejects_self_attack():
    af = AF(["x", "y"], [("x", "x"), ("x", "y"), ("y", "x")])
    assert minimal_relevant(af) == []


def test_minimal_relevant_isolated_singleton():
    af = AF(["x"], [])
    assert [af.names(c) for c in minimal_relevant(af)] == [("x",)]


def _relevant_by_definition(n, attacks, inside):
    """Mutual-reachability classes inside the universe that no attacker from
    the rest of the universe reaches, with symmetric, self-attack-free
    attacks that form a tree (2·(|c|−1) directed attacks)."""
    attacks = {(a, b) for a, b in attacks if a in inside and b in inside}
    reach = {v: {v} for v in inside}
    for v in inside:
        todo = [v]
        while todo:
            x = todo.pop()
            for a, b in attacks:
                if a == x and b not in reach[v]:
                    reach[v].add(b)
                    todo.append(b)
    found = set()
    for v in inside:
        c = frozenset(w for w in reach[v] if v in reach[w])
        within = {(a, b) for a, b in attacks if a in c and b in c}
        if (
            not any(b in c and a not in c for a, b in attacks)
            and not any(a == b for a, b in within)
            and all((b, a) in within for a, b in within)
            and len(within) == 2 * (len(c) - 1)
        ):
            found.add(c)
    return found


def test_minimal_relevant_matches_definition():
    rng = random.Random(5)
    qualified = 0
    for _ in range(300):
        n = rng.randint(1, 10)
        attacks = set()
        for a in range(n):
            for b in range(a, n):
                r = rng.random()
                if a == b:
                    if r < 0.03:
                        attacks.add((a, a))
                elif r < 0.2:
                    attacks |= {(a, b), (b, a)}
                elif r < 0.25:
                    attacks.add((a, b) if rng.random() < 0.5 else (b, a))
        names = [f"a{i}" for i in range(n)]
        af = AF(names, [(names[a], names[b]) for a, b in attacks])
        for universe in (None, rng.getrandbits(n)):
            inside = {i for i in range(n) if universe is None or universe >> i & 1}
            got = [frozenset(c.ids()) for c in minimal_relevant(af, universe)]
            assert len(set(got)) == len(got)
            assert set(got) == _relevant_by_definition(n, attacks, inside)
            qualified += sum(len(c) > 1 for c in got)
    assert qualified > 100


def test_mutual_pair_and_cycle_basics():
    pair = AF(["x", "y"], [("x", "y"), ("y", "x")])
    assert name_sets(pair, grd_star(pair)) == {("x",), ("y",)}
    assert name_sets(pair, grd_star_naive(pair)) == {("x",), ("y",)}
    cycle = AF(["x", "y", "z"], [("x", "y"), ("y", "z"), ("z", "x")])
    assert grd_star(cycle).masks() == (0,)
    assert grd_star_naive(cycle).masks() == (0,)


def _random_af(rng: random.Random, n: int, p: float) -> AF:
    names = [f"a{i}" for i in range(n)]
    attacks = [
        (names[a], names[b])
        for a in range(n)
        for b in range(n)
        if a != b and rng.random() < p
    ]
    return AF(names, attacks)


def test_engines_agree_on_random_afs():
    rng = random.Random(5150)
    for _ in range(80):
        af = _random_af(rng, rng.randint(0, 8), rng.choice([0.2, 0.35, 0.5]))
        assert grd_star(af) == grd_star_naive(af), af.attacks


def test_verify_agrees_with_naive_membership():
    rng = random.Random(77)
    for _ in range(25):
        af = _random_af(rng, rng.randint(1, 6), 0.35)
        members = set(grd_star_naive(af).masks())
        for bits in range(1 << af.n):
            got = verify_grd_star(af, ArgSet(bits, af.n))
            assert got == (bits in members), (af.attacks, bits)


def test_grd_star_cap():
    af = AF([f"a{i}" for i in range(30)], [])
    with pytest.raises(SearchCapError):
        grd_star(af)
    assert grd_star(af, max_args=None).masks() == (af.full_mask,)
