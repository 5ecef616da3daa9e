from __future__ import annotations

import gc
import random

import pytest
from hypothesis import given, strategies as st

from afkit import GenSpec, credulous, generate, verify
from afkit.core import (
    AF,
    Argument,
    ArgSet,
    _attacked_mask,
    _char_mask,
    _grounded_mask,
    _ids,
    _unattacked,
    _union,
    _unsupported,
    is_conflict_free,
    parse_apx,
    restrict,
    sccs,
    serialize_apx,
)
from afkit.semantics import _near_table, _split
from conftest import scc_graph


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


def _random_pairs(rng, n):
    """Attacks as id pairs in random order, with repeats and self-attacks."""
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))]
    pairs += rng.sample(pairs, len(pairs) // 3)
    rng.shuffle(pairs)
    return pairs


def test_lazy_views_match_the_eager_build():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(0, 14)
        names = [f"x{rng.randrange(10**6)}_{i}" for i in range(n)]
        pairs = _random_pairs(rng, n) if n else []
        af = AF(names, [(names[a], names[b]) for a, b in pairs])
        eager_attacks = tuple(sorted(set(pairs)))
        assert af.attacks == eager_attacks
        assert af.args == tuple(Argument(i, x) for i, x in enumerate(names))
        eager_text = [f"arg({x})." for x in names]
        eager_text += [f"defeat({names[a]},{names[b]})." for a, b in eager_attacks]
        assert serialize_apx(af) == ("\n".join(eager_text) + "\n" if eager_text else "")


def test_equality_and_repr_read_the_masks_only():
    rng = random.Random(19)
    for _ in range(100):
        n = rng.randint(1, 10)
        names = [f"a{i}" for i in range(n)]
        pairs = _random_pairs(rng, n)
        af = AF(names, [(names[a], names[b]) for a, b in pairs])
        same = AF(names, [(names[a], names[b]) for a, b in reversed(pairs)])
        other = AF(names, [(names[a], names[b]) for a, b in pairs + [(0, n - 1)]])
        assert af == same and same == af
        assert (af == other) == ((0, n - 1) in pairs)
        renamed = [f"b{i}" for i in range(n)]
        assert af != AF(renamed, [(renamed[a], renamed[b]) for a, b in pairs])
        assert repr(af) == f"AF(n={n}, attacks={len(set(pairs))})"
        for built in (af, same, other):
            assert built._args is None and built._attacks is None


def test_near_table_matches_its_definition():
    """near[i]: i's attackers, and every target of i, of i's targets and of
    i's attackers, over the whole relation; each entry filled on its id's
    first use and kept."""
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(0, 12)
        names = [f"a{i}" for i in range(n)]
        pairs = set(_random_pairs(rng, n)) if n else set()
        af = AF(names, [(names[a], names[b]) for a, b in pairs])

        def targets(s):
            return {b for a, b in pairs if a in s}

        expected = []
        for i in range(n):
            attackers = {a for a, b in pairs if b == i}
            near = attackers | targets({i} | targets({i}) | attackers)
            expected.append(sum(1 << x for x in near))
        some = [i for i in range(n) if rng.random() < 0.5]
        assert _near_table(af, some) == [expected[i] for i in some], pairs
        table = af._near
        assert [i for i in range(n) if table[i] is not None] == some
        assert _near_table(af, list(range(n))) == expected, pairs
        assert af._near is table and table == expected


def test_parse_and_build_leave_the_search_tables_unbuilt(af6):
    """An AF derives its search tables on the first query that needs them,
    never while it is built."""
    parsed = parse_apx(serialize_apx(af6))
    for af in (af6, parsed):
        assert af._near is None and af._split is None
    assert verify(parsed, "cf", parsed.argset(["a"]))
    assert parsed._near is None and parsed._split is None
    assert credulous(parsed, "stb", "a")
    near, split = parsed._near, parsed._split
    assert split == _split(af6)
    # {a}, its target b, and the one component c, d, e, f outside that range
    assert split == (0b000001, 0b000010, (0b111100,))
    # the stable search walked that component alone, so only its ids have entries
    assert near == [None, None, *_near_table(af6, [2, 3, 4, 5])]
    assert credulous(parsed, "stb", "e") is False  # c or d attacks it
    assert parsed._near is near and parsed._split is split


def _tracked_objects() -> int:
    return len(gc.get_objects())


def test_parse_keeps_no_object_per_fact():
    af = generate(GenSpec(kind="arbitrary", n=1000, p=0.002, seed=1))
    text = serialize_apx(af)
    edges = len(af.attacks)
    assert edges > 1000
    gc.collect()
    gc.disable()  # a collection in between would untrack tuples of ints
    try:
        before = _tracked_objects()
        parsed = parse_apx(text)
        after_parse = _tracked_objects()
        parsed.attacks
        after_attacks = _tracked_objects()
    finally:
        gc.enable()
    assert parsed == af
    assert after_parse - before < 50
    assert edges <= after_attacks - after_parse <= edges + 10


def _grounded_oracle(n, pairs, inside):
    """The least fixpoint of the characteristic function of the sub-framework
    on inside, iterated from the empty set over frozensets."""
    attackers = {x: frozenset(a for a, b in pairs if b == x and a in inside) for x in inside}
    current = frozenset()
    while True:
        defeated = frozenset(b for a, b in pairs if a in current)
        step = frozenset(x for x in inside if attackers[x] <= defeated)
        if step == current:
            return current
        current = step


def test_grounded_mask_matches_the_literal_fixpoint_on_sub_universes():
    rng = random.Random(23)
    for _ in range(600):
        n = rng.randint(1, 12)
        p = rng.choice((0.1, 0.2, 0.35))
        pairs = {(a, b) for a in range(n) for b in range(n) if rng.random() < p}
        names = [f"a{i}" for i in range(n)]
        af = AF(names, [(names[a], names[b]) for a, b in pairs])
        for universe in (None, rng.getrandbits(n), af.full_mask & ~(1 << rng.randrange(n))):
            inside = frozenset(i for i in range(n) if universe is None or universe >> i & 1)
            got = _grounded_mask(af.out_masks, af.in_masks, universe)
            assert set(_ids(got)) == _grounded_oracle(n, pairs, inside), (pairs, universe)


def test_grounded_mask_walks_a_long_chain_link_by_link():
    n = 300
    names = [f"c{i}" for i in range(n)]
    af = AF(names, list(zip(names, names[1:])))
    evens = sum(1 << i for i in range(0, n, 2))
    assert _grounded_mask(af.out_masks, af.in_masks) == evens
    # cut the chain's head off: c1 is unattacked inside, its attacker outside
    tail = af.full_mask & ~1
    assert _grounded_mask(af.out_masks, af.in_masks, tail) == af.full_mask & ~evens
    # a self-attacker in the middle stops the walk there
    looped = AF(names, list(zip(names, names[1:])) + [("c150", "c150")])
    assert _grounded_mask(looped.out_masks, looped.in_masks) == evens & ((1 << 150) - 1)


def test_set_bit_primitives_match_their_literal_definitions():
    rng = random.Random(29)
    for n in (1, 5, 63, 64, 65, 130):
        full = (1 << n) - 1
        table = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(n)]
        masks = (0, full, 1, 1 << (n - 1), *(rng.getrandbits(n) for _ in range(20)))
        for mask in masks:
            members = [i for i in range(n) if mask >> i & 1]
            union = 0
            for i in members:
                union |= table[i]
            assert _union(table, mask) == union, (n, mask)
            for by in (0, full, *(rng.getrandbits(n) for _ in range(5))):
                free = sum(1 << i for i in members if not table[i] & by)
                assert _unattacked(table, mask, by) == free, (n, mask, by)
                assert _unsupported(table, mask, by) is bool(free), (n, mask, by)


def test_af_accessors(af6):
    assert af6.n == 6
    assert af6.names(af6.full_mask) == ("a", "b", "c", "d", "e", "f")
    assert af6.arg_id("c") == 2 and af6.arg_id(2) == 2
    assert (2, 3) in af6.attacks and (3, 2) in af6.attacks  # c <-> d
    assert (0, 2) not in af6.attacks  # a does not attack c
    assert af6.names(af6.out_masks[2]) == ("b", "d", "e")  # c's targets
    assert af6.names(af6.in_masks[3]) == ("b", "c")  # d's attackers
    with pytest.raises(ValueError, match="unknown"):
        af6.arg_id("zz")


def test_attacked_by(af6):
    s = af6.argset(["a", "d", "f"])
    assert af6.names(_attacked_mask(af6, s.mask)) == ("b", "c", "e")


def test_range_of(af6):
    a, empty = af6.argset(["a"]).mask, af6.argset().mask
    assert af6.names(a | _attacked_mask(af6, a)) == ("a", "b")
    assert empty | _attacked_mask(af6, empty) == empty


def test_conflict_free(af6):
    assert is_conflict_free(af6, af6.argset())
    assert is_conflict_free(af6, af6.argset(["a", "c", "f"]))
    assert not is_conflict_free(af6, af6.argset(["c", "d"]))
    loop = AF(["x"], [("x", "x")])
    assert not is_conflict_free(loop, loop.argset(["x"]))
    assert loop.self_loop_mask == 1


def test_characteristic(af6):
    assert af6.names(_char_mask(af6, af6.argset().mask)) == ("a",)
    # with c in, b and e are covered, so d's attackers {b,c} are not all covered
    assert af6.names(_char_mask(af6, af6.argset(["a", "c"]).mask)) == ("a", "c", "f")


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
    assert _char_mask(af, small) & ~_char_mask(af, big) == 0


def test_restrict(af6):
    sub, orig = restrict(af6, af6.argset(["c", "d"]))
    assert [a.name for a in sub.args] == ["c", "d"]
    assert sub.attacks == ((0, 1), (1, 0))
    assert orig == (2, 3)


def test_sccs_demo(af6):
    comps = sccs(af6)
    # b -> d -> c -> b closes a 3-cycle, so b,c,d share a component
    assert [af6.names(c) for c in comps] == [
        ("a",),
        ("b", "c", "d"),
        ("e",),
        ("f",),
    ]
    comp_of, edges = scc_graph(af6, comps)
    assert all(i < j for i, j in edges)
    assert comp_of == [0, 1, 1, 1, 2, 3]


def test_sccs_after_removing_grounded_range(af6):
    remainder = af6.argset(["c", "d", "e", "f"])
    sub, _ = restrict(af6, remainder)
    comps = sccs(sub)
    assert [sub.names(c) for c in comps] == [("c", "d"), ("e",), ("f",)]
    _, edges = scc_graph(sub, comps)
    assert edges == {(0, 1), (1, 2)}
    # the components with no predecessor
    assert [i for i in range(len(comps)) if all(j != i for _, j in edges)] == [0]


def test_scc_self_loop_is_plain_singleton():
    af = AF(["x", "y"], [("x", "x"), ("x", "y")])
    comps = sccs(af)
    assert [af.names(c) for c in comps] == [("x",), ("y",)]
    assert scc_graph(af, comps)[1] == {(0, 1)}


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
            comps = sccs(af, universe)
            comp_of, edges = scc_graph(af, comps)
            got = {frozenset(_ids(c)) for c in comps}
            assert got == {g for g in _reachability_partition(n, sub) if g <= inside}
            assert all(comp_of[i] == -1 for i in range(n) if i not in inside)
            assert all(comps[comp_of[v]] >> v & 1 for v in inside)
            # topological component order: every cross-component attack
            # goes forward, and the component-graph edges are exactly those
            # attacks
            cross = {(comp_of[a], comp_of[b]) for a, b in sub if comp_of[a] != comp_of[b]}
            assert all(i < j for i, j in cross)
            assert edges == cross
