from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from afkit.core import (
    AF,
    ArgSet,
    _ids,
    attacked_by,
    characteristic,
    is_conflict_free,
    range_of,
    restrict,
    sccs,
)


def test_argset_basics():
    s = ArgSet.from_ids([0, 2, 5], 6)
    t = ArgSet.from_ids([2, 3], 6)
    assert s.ids() == [0, 2, 5]
    assert list(s) == [0, 2, 5]
    assert 2 in s and 3 not in s and 7 not in s
    assert len(s) == 3
    assert (s | t).ids() == [0, 2, 3, 5]
    assert (s & t).ids() == [2]
    assert (s - t).ids() == [0, 5]
    assert ArgSet.from_ids([2], 6) <= t < (s | t)
    assert s == ArgSet(0b100101, 6)
    assert hash(s) == hash(ArgSet(0b100101, 6))


def test_argset_is_immutable():
    s = ArgSet(0, 3)
    with pytest.raises(AttributeError):
        s.mask = 1


def test_argset_guards():
    with pytest.raises(ValueError):
        ArgSet(1 << 4, 4)
    with pytest.raises(ValueError):
        ArgSet(1, 2) | ArgSet(1, 3)


def test_set_bit_listing_matches_scan():
    rng = random.Random(3)
    for width in (1, 7, 64, 300):
        for density in (0.0, 0.02, 0.5, 1.0):
            mask = sum(1 << i for i in range(width) if rng.random() < density)
            assert _ids(mask) == [i for i in range(width) if mask >> i & 1]


def test_af_construction_guards():
    with pytest.raises(ValueError, match="duplicate"):
        AF(["a", "a"], [])
    with pytest.raises(ValueError, match="not declared"):
        AF(["a"], [("a", "b")])
    with pytest.raises(ValueError, match="invalid"):
        AF(["A"], [])


@pytest.mark.parametrize(
    "names,attacks,message",
    [
        (["a", "a", "B"], [], "duplicate argument 'a'"),
        (["a", "B", "a"], [], "invalid argument name 'B'"),
        (["a", ""], [], "invalid argument name ''"),
        (["a"], [("a", "a"), ("x", "y")], "attack endpoint 'x' not declared"),
        (["a"], [("a", "y"), ("x", "a")], "attack endpoint 'y' not declared"),
    ],
)
def test_af_reports_the_first_bad_name_in_order(names, attacks, message):
    with pytest.raises(ValueError) as exc:
        AF(names, attacks)
    assert str(exc.value) == message


def test_af_relation_from_any_attack_order():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 12)
        names = [f"a{i}" for i in range(n)]
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 30))]
        af = AF(names, [(names[a], names[b]) for a, b in pairs])
        assert af.attacks == tuple(sorted(set(pairs)))
        assert [a.name for a in af.args] == names and [a.id for a in af.args] == list(range(n))
        for v in range(n):
            assert af.out_masks[v] == sum({1 << b for a, b in pairs if a == v})
            assert af.in_masks[v] == sum({1 << a for a, b in pairs if b == v})
        assert af.self_loop_mask == sum({1 << a for a, b in pairs if a == b})


def test_af_accessors(af6):
    assert af6.n == 6
    assert af6.names(af6.full_mask) == ("a", "b", "c", "d", "e", "f")
    assert af6.arg_id("c") == 2 and af6.arg_id(2) == 2
    assert af6.has_attack("c", "d") and af6.has_attack("d", "c")
    assert not af6.has_attack("a", "c")
    assert af6.names(af6.out_masks[2]) == ("b", "d", "e")  # c's targets
    assert af6.names(af6.in_masks[3]) == ("b", "c")  # d's attackers
    with pytest.raises(ValueError, match="unknown"):
        af6.arg_id("zz")


def test_attacked_by(af6):
    s = af6.argset(["a", "d", "f"])
    assert af6.names(attacked_by(af6, s)) == ("b", "c", "e")


def test_range_of(af6):
    assert af6.names(range_of(af6, af6.argset(["a"]))) == ("a", "b")
    assert range_of(af6, af6.argset()) == af6.argset()


def test_conflict_free(af6):
    assert is_conflict_free(af6, af6.argset())
    assert is_conflict_free(af6, af6.argset(["a", "c", "f"]))
    assert not is_conflict_free(af6, af6.argset(["c", "d"]))
    loop = AF(["x"], [("x", "x")])
    assert not is_conflict_free(loop, loop.argset(["x"]))
    assert loop.self_loop_mask == 1


def test_characteristic(af6):
    assert af6.names(characteristic(af6, af6.argset())) == ("a",)
    # with c in, b and e are covered, so d's attackers {b,c} are not all covered
    assert af6.names(characteristic(af6, af6.argset(["a", "c"]))) == ("a", "c", "f")


@given(st.data())
def test_characteristic_is_monotone(data):
    n = data.draw(st.integers(1, 7))
    attacks = data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20)
    )
    names = [f"a{i}" for i in range(n)]
    af = AF(names, [(names[a], names[b]) for a, b in attacks])
    small = data.draw(st.integers(0, af.full_mask))
    big = small | data.draw(st.integers(0, af.full_mask))
    assert characteristic(af, ArgSet(small, n)) <= characteristic(af, ArgSet(big, n))


def test_restrict(af6):
    sub, orig = restrict(af6, af6.argset(["c", "d"]))
    assert [a.name for a in sub.args] == ["c", "d"]
    assert sub.attacks == ((0, 1), (1, 0))
    assert orig == (2, 3)


def test_sccs_demo(af6):
    part = sccs(af6)
    # b -> d -> c -> b closes a 3-cycle, so b,c,d share a component
    assert [af6.names(c) for c in part.components] == [
        ("a",),
        ("b", "c", "d"),
        ("e",),
        ("f",),
    ]
    assert all(i < j for i, j in part.order_edges)
    assert part.comp_of == (0, 1, 1, 1, 2, 3)


def test_sccs_after_removing_grounded_range(af6):
    remainder = af6.argset(["c", "d", "e", "f"])
    sub, _ = restrict(af6, remainder)
    part = sccs(sub)
    assert [sub.names(c) for c in part.components] == [("c", "d"), ("e",), ("f",)]
    assert part.order_edges == frozenset({(0, 1), (1, 2)})
    assert part.minimal() == (0,)


def test_scc_self_loop_is_plain_singleton():
    af = AF(["x", "y"], [("x", "x"), ("x", "y")])
    part = sccs(af)
    assert [af.names(c) for c in part.components] == [("x",), ("y",)]
    assert part.order_edges == frozenset({(0, 1)})


def _reachability_partition(n, attacks):
    # Floyd-Warshall closure; mutually reachable ids share a component.
    reach = [[False] * n for _ in range(n)]
    for a, b in attacks:
        reach[a][b] = True
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    groups = {}
    for v in range(n):
        key = frozenset(
            w for w in range(n) if (v == w) or (reach[v][w] and reach[w][v])
        )
        groups.setdefault(key, set()).add(v)
    return {frozenset(g) for g in groups.values()}


def test_sccs_match_reachability_oracle():
    rng = random.Random(42)
    universe_rng = random.Random(43)
    for _ in range(150):
        n = rng.randint(1, 9)
        attacks = [
            (a, b)
            for a in range(n)
            for b in range(n)
            if rng.random() < 0.25
        ]
        names = [f"a{i}" for i in range(n)]
        af = AF(names, [(names[a], names[b]) for a, b in attacks])
        for universe in (None, universe_rng.getrandbits(n)):
            inside = {i for i in range(n) if universe is None or universe >> i & 1}
            sub = {(a, b) for a, b in attacks if a in inside and b in inside}
            part = sccs(af, universe)
            got = {frozenset(c.ids()) for c in part.components}
            assert got == {g for g in _reachability_partition(n, sub) if g <= inside}
            assert all(part.comp_of[i] == -1 for i in range(n) if i not in inside)
            assert all(v in part.components[part.comp_of[v]] for v in inside)
            # topological component indexing: every cross-component attack
            # goes forward, and the direct edges are exactly those attacks
            cross = {
                (part.comp_of[a], part.comp_of[b])
                for a, b in sub
                if part.comp_of[a] != part.comp_of[b]
            }
            assert all(i < j for i, j in cross)
            assert part.order_edges == cross
