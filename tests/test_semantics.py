from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from afkit.core import AF, ArgSet
from afkit.generators import GenSpec, generate
from afkit.resolution import verify_grd_star
from afkit.semantics import (
    DEFAULT_SEARCH_CAP,
    ExtensionSet,
    SearchCapError,
    Semantics,
    brute_force,
    credulous,
    enumerate_extensions,
    grounded,
    skeptical,
    verify,
)

from conftest import name_sets, plus_three_cycle

ALL_EIGHT = [s for s in Semantics if s is not Semantics.GRD_STAR]


# --- frozen expectations for the six-argument framework ---------------------

def test_grounded_demo(af6):
    assert af6.names(grounded(af6)) == ("a",)


def test_admissible_demo(af6):
    got = name_sets(af6, enumerate_extensions(af6, "adm"))
    assert got == {
        (),
        ("a",),
        ("c",),
        ("a", "c"),
        ("a", "d"),
        ("c", "f"),
        ("a", "c", "f"),
        ("a", "d", "f"),
    }


def test_complete_demo(af6):
    got = name_sets(af6, enumerate_extensions(af6, "com"))
    assert got == {("a",), ("a", "c", "f"), ("a", "d", "f")}


@pytest.mark.parametrize("sem", ["prf", "stb", "sem", "stg"])
def test_two_extension_semantics_demo(af6, sem):
    got = name_sets(af6, enumerate_extensions(af6, sem))
    assert got == {("a", "c", "f"), ("a", "d", "f")}


def test_canonical_order(af6):
    exts = enumerate_extensions(af6, "prf")
    assert exts.names() == [("a", "c", "f"), ("a", "d", "f")]
    assert list(exts.masks()) == sorted(exts.masks())


def test_grd_dispatch(af6):
    exts = enumerate_extensions(af6, Semantics.GRD)
    assert exts.names() == [("a",)]


# --- ExtensionSet ------------------------------------------------------------

def test_extension_set_behaviour(af6):
    es = ExtensionSet(af6, [0b100101, 0b101001, 0b100101])
    assert len(es) == 2
    assert es.masks() == (0b100101, 0b101001)
    assert af6.argset(["a", "c", "f"]) in es
    assert af6.argset(["a"]) not in es
    assert es == ExtensionSet(af6, [0b101001, 0b100101])


# --- verification ------------------------------------------------------------

def test_verify_demo(af6):
    acf = af6.argset(["a", "c", "f"])
    a = af6.argset(["a"])
    assert verify(af6, "stb", acf)
    assert not verify(af6, "stb", a)
    assert verify(af6, "com", a)
    assert not verify(af6, "prf", a)
    assert verify(af6, "grd", a)
    assert verify(af6, "adm", af6.argset(["c"]))
    assert not verify(af6, "adm", af6.argset(["b"]))
    assert not verify(af6, "cf", af6.argset(["c", "d"]))
    assert verify(af6, "sem", acf) and verify(af6, "stg", acf)
    assert not verify(af6, "sem", a) and not verify(af6, "stg", af6.argset([]))


def test_verify_matches_enumeration_on_random_afs():
    rng = random.Random(7)
    for _ in range(40):
        af = _random_af(rng, rng.randint(1, 7), 0.3)
        for sem in ALL_EIGHT:
            exts = enumerate_extensions(af, sem)
            for bits in range(1 << af.n):
                s = ArgSet(bits, af.n)
                assert verify(af, sem, s) == (s in exts), (af.attacks, sem, bits)


# --- decision tasks ----------------------------------------------------------

def test_credulous_demo(af6):
    assert credulous(af6, "adm", "d")
    assert credulous(af6, "prf", "c")
    assert not credulous(af6, "grd", "d")
    assert credulous(af6, "stb", "c")
    assert not credulous(af6, "adm", "b")
    assert credulous(af6, "cf", "b")


def test_skeptical_demo(af6):
    assert skeptical(af6, "prf", "a")
    assert not skeptical(af6, "prf", "c")
    assert skeptical(af6, "com", "a")
    assert skeptical(af6, "stb", "f")
    assert not skeptical(af6, "cf", "a")
    assert not skeptical(af6, "adm", "a")
    assert skeptical(af6, "grd", "a")


def test_credulous_cf_is_self_attack_freeness():
    af = AF(["x", "y"], [("x", "x"), ("x", "y")])
    assert not credulous(af, "cf", "x")
    assert credulous(af, "cf", "y")


def test_skeptical_vacuous_on_empty_stable_set():
    cycle = AF(["x", "y", "z"], [("x", "y"), ("y", "z"), ("z", "x")])
    assert len(enumerate_extensions(cycle, "stb")) == 0
    assert skeptical(cycle, "stb", "x")  # vacuously
    assert not credulous(cycle, "stb", "x")


def test_decisions_match_enumeration_quantifiers():
    rng = random.Random(99)
    for _ in range(30):
        af = _random_af(rng, rng.randint(1, 7), 0.25)
        for sem in list(Semantics):
            exts = enumerate_extensions(af, sem)
            for a in range(af.n):
                bit = 1 << a
                assert credulous(af, sem, a) == any(e.mask & bit for e in exts)
                assert skeptical(af, sem, a) == all(e.mask & bit for e in exts)


# --- engine vs oracle --------------------------------------------------------

def _random_af(rng: random.Random, n: int, p: float, self_attacks=False) -> AF:
    names = [f"a{i}" for i in range(n)]
    attacks = [
        (names[a], names[b])
        for a in range(n)
        for b in range(n)
        if (a != b or self_attacks) and rng.random() < p
    ]
    return AF(names, attacks)


def test_engine_matches_oracle_on_random_afs():
    rng = random.Random(2024)
    for i in range(120):
        af = _random_af(rng, rng.randint(0, 8), rng.choice([0.15, 0.3, 0.5]),
                        self_attacks=(i % 4 == 0))
        for sem in ALL_EIGHT:
            assert enumerate_extensions(af, sem) == brute_force(af, sem), (
                af.attacks,
                sem,
            )


def test_structured_products():
    af = AF(
        ["x1", "y1", "x2", "y2"],
        [("x1", "y1"), ("y1", "x1"), ("x2", "y2"), ("y2", "x2")],
    )
    got = name_sets(af, enumerate_extensions(af, "prf"))
    assert got == {("x1", "x2"), ("x1", "y2"), ("x2", "y1"), ("y1", "y2")}


def test_grounded_absorbs_chain():
    af = AF(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert name_sets(af, enumerate_extensions(af, "prf")) == {("a", "c")}
    assert name_sets(af, enumerate_extensions(af, "sem")) == {("a", "c")}


def test_empty_framework():
    af = AF([], [])
    for sem in ALL_EIGHT:
        assert enumerate_extensions(af, sem).masks() == (0,)


# --- lattice invariants ------------------------------------------------------

attack_lists = st.integers(1, 7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=24
        ),
    )
)


@settings(max_examples=60, deadline=None)
@given(attack_lists)
def test_semantics_lattice(data):
    n, attacks = data
    names = [f"a{i}" for i in range(n)]
    af = AF(names, [(names[a], names[b]) for a, b in attacks])
    ext = {
        sem: set(enumerate_extensions(af, sem).masks()) for sem in ALL_EIGHT
    }
    assert ext["stb"] <= ext["sem"] <= ext["prf"] <= ext["com"] <= ext["adm"] <= ext["cf"]
    assert ext["stb"] <= ext["stg"]
    assert ext["grd"] <= ext["com"]
    if ext["stb"]:
        assert ext["stb"] == ext["sem"] == ext["stg"]


# --- caps and guards ----------------------------------------------------------

def test_enumeration_cap():
    af = AF([f"a{i}" for i in range(27)], [])
    with pytest.raises(SearchCapError):
        enumerate_extensions(af, "grd")
    assert enumerate_extensions(af, "grd", max_args=None).masks() == (af.full_mask,)
    assert enumerate_extensions(af, "grd", max_args=30).masks() == (af.full_mask,)


def test_sem_stg_decisions_skip_the_cap_only_with_a_stable_extension():
    af = generate(GenSpec(kind="grid", n=5, m=6, p=0.3, seed=1))
    assert af.n == 30 > DEFAULT_SEARCH_CAP
    stable = enumerate_extensions(af, "stb", max_args=None)
    assert len(stable) > 1
    unstable = plus_three_cycle(af)
    for sem in ("sem", "stg"):
        with pytest.raises(SearchCapError):
            enumerate_extensions(af, sem)
        # answered by the stable search, as stb decisions are
        for a in range(af.n):
            assert credulous(af, sem, a) == any(a in e for e in stable)
            assert skeptical(af, sem, a) == all(a in e for e in stable)
        # without a stable extension they enumerate, and the cap applies
        with pytest.raises(SearchCapError):
            credulous(unstable, sem, 0)
        with pytest.raises(SearchCapError):
            skeptical(unstable, sem, 0)


def test_oracle_cap():
    af = AF([f"a{i}" for i in range(21)], [])
    with pytest.raises(SearchCapError):
        brute_force(af, "cf")


def test_oracle_rejects_grd_star(af6):
    with pytest.raises(ValueError, match="grd_star"):
        brute_force(af6, "grd_star")


def test_verify_rejects_a_foreign_universe(af6):
    # 8 arguments against 6 (one set with a bit past the last id), and 5
    foreign = [ArgSet(1 << 7, 8), ArgSet(0, 5)]
    for s in foreign:
        for sem in Semantics:
            with pytest.raises(ValueError, match="ArgSet universes differ"):
                verify(af6, sem, s)
        with pytest.raises(ValueError, match="ArgSet universes differ"):
            verify_grd_star(af6, s)


def test_unknown_semantics(af6):
    with pytest.raises(ValueError):
        enumerate_extensions(af6, "weird")
