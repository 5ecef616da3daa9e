"""Generator tests: determinism, documented draw order, statistics, shape."""
import re
import statistics

import numpy as np
import pytest

from afkit.core import serialize_apx
from afkit.generators import GenSpec, generate
from afkit.resolution import mutual_pairs


# ------------------------------------------------------------- validation


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="random", n=5),
        dict(kind="arbitrary", n=0),
        dict(kind="arbitrary", n=5, p=-0.1),
        dict(kind="arbitrary", n=5, p=1.5),
        dict(kind="arbitrary", n=5, seed=-1),
        dict(kind="arbitrary", n=5, seed=2**64),
        dict(kind="arbitrary", n=5, m=4),
        dict(kind="grid", n=3),
        dict(kind="grid", n=3, m=0),
        dict(kind="grid", n=3, m=3, neighborhood="knight"),
        dict(kind="grid", n=3, m=3, self_attacks=True),
    ],
)
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(ValueError):
        GenSpec(**kwargs)


# ------------------------------------------------------------ determinism


def test_identical_spec_means_identical_bytes():
    spec = GenSpec(kind="arbitrary", n=12, p=0.3, seed=99)
    assert serialize_apx(generate(spec)) == serialize_apx(generate(spec))
    grid = GenSpec(kind="grid", n=4, m=5, p=0.4, neighborhood="diagonal", seed=7)
    assert serialize_apx(generate(grid)) == serialize_apx(generate(grid))


def test_different_seeds_differ():
    texts = {
        serialize_apx(generate(GenSpec(kind="arbitrary", n=10, p=0.5, seed=s)))
        for s in range(5)
    }
    assert len(texts) > 1


def test_generate_dispatches_by_kind():
    grid = generate(GenSpec(kind="grid", n=2, m=3, p=0.5, seed=3))
    assert [a.name for a in grid.args] == ["a1_1", "a1_2", "a1_3", "a2_1", "a2_2", "a2_3"]
    arbitrary = generate(GenSpec(kind="arbitrary", n=6, p=0.5, seed=3))
    assert [a.name for a in arbitrary.args] == ["a1", "a2", "a3", "a4", "a5", "a6"]


# ---------------------------------------------------------- arbitrary kind


def test_arbitrary_extremes():
    empty = generate(GenSpec(kind="arbitrary", n=20, p=0.0, seed=1))
    assert empty.n == 20 and len(empty.attacks) == 0
    full = generate(GenSpec(kind="arbitrary", n=5, p=1.0, seed=1))
    assert len(full.attacks) == 5 * 4
    with_self = generate(GenSpec(kind="arbitrary", n=5, p=1.0, seed=1, self_attacks=True))
    assert len(with_self.attacks) == 5 * 5


def test_arbitrary_names_and_no_self_attacks_by_default():
    af = generate(GenSpec(kind="arbitrary", n=11, p=0.7, seed=4))
    assert [a.name for a in af.args] == [f"a{i}" for i in range(1, 12)]
    assert all(src != dst for src, dst in af.attacks)


def test_arbitrary_documented_draw_order():
    # replay the documented stream: row-major ordered pairs, self-pairs
    # skipped without consuming a draw
    spec = GenSpec(kind="arbitrary", n=4, p=0.5, seed=20260818)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    expected = set()
    for i in range(1, 5):
        for j in range(1, 5):
            if i == j:
                continue
            if rng.random() < spec.p:
                expected.add((f"a{i}", f"a{j}"))
    af = generate(spec)
    got = {(af.args[s].name, af.args[d].name) for s, d in af.attacks}
    assert got == expected


def test_arbitrary_attack_count_statistics():
    # mean over 100 seeds within 3 sigma of the binomial expectation
    n, p, trials = 50, 0.25, 100
    pairs = n * (n - 1)
    counts = [
        len(generate(GenSpec(kind="arbitrary", n=n, p=p, seed=s)).attacks)
        for s in range(trials)
    ]
    mean = statistics.fmean(counts)
    expectation = pairs * p
    sigma_of_mean = (pairs * p * (1 - p)) ** 0.5 / trials**0.5
    assert abs(mean - expectation) <= 3 * sigma_of_mean


# --------------------------------------------------------------- grid kind


def _coords(name: str) -> tuple[int, int]:
    match = re.fullmatch(r"a(\d+)_(\d+)", name)
    assert match, name
    return int(match.group(1)), int(match.group(2))


def _grid_edge_count(rows: int, cols: int, neighborhood: str) -> int:
    edges = rows * (cols - 1) + (rows - 1) * cols
    if neighborhood == "diagonal":
        edges += 2 * (rows - 1) * (cols - 1)
    return edges


def test_grid_single_cell():
    af = generate(GenSpec(kind="grid", n=1, m=1, p=0.5, seed=0))
    assert af.n == 1 and len(af.attacks) == 0
    assert af.args[0].name == "a1_1"


def test_grid_all_mutual_at_p_one():
    af = generate(GenSpec(kind="grid", n=2, m=2, p=1.0, seed=0))
    assert len(af.attacks) == 8  # 4 orthogonal edges, both directions each


def test_grid_names_row_major():
    af = generate(GenSpec(kind="grid", n=2, m=3, p=0.5, seed=5))
    assert [a.name for a in af.args] == [
        "a1_1", "a1_2", "a1_3", "a2_1", "a2_2", "a2_3",
    ]


@pytest.mark.parametrize("neighborhood", ["orthogonal", "diagonal"])
def test_grid_shape_invariants(neighborhood):
    rows, cols = 5, 4
    spec = GenSpec(kind="grid", n=rows, m=cols, p=0.35, neighborhood=neighborhood, seed=13)
    af = generate(spec)
    assert af.n == rows * cols
    edges = _grid_edge_count(rows, cols, neighborhood)
    assert edges <= len(af.attacks) <= 2 * edges

    allowed = {(0, 1), (1, 0)} if neighborhood == "orthogonal" else {(0, 1), (1, 0), (1, 1)}
    seen_pairs = set()
    for src, dst in af.attacks:
        (r1, c1), (r2, c2) = _coords(af.args[src].name), _coords(af.args[dst].name)
        assert (abs(r1 - r2), abs(c1 - c2)) in allowed
        assert src != dst
        seen_pairs.add(frozenset((src, dst)))
    # every attack pair is a neighbor pair; count matches at least one per edge
    assert len(seen_pairs) <= edges


def test_grid_documented_draw_order():
    # replay: row-major cells, neighbor offsets right, down, down-right,
    # down-left; one draw per edge, second draw only for single direction
    rows, cols, p, seed = 3, 3, 0.4, 77
    rng = np.random.Generator(np.random.PCG64(seed))
    expected = set()
    for r in range(rows):
        for c in range(cols):
            for dr, dc in ((0, 1), (1, 0), (1, 1), (1, -1)):
                nr, nc = r + dr, c + dc
                if not (0 <= nr < rows and 0 <= nc < cols):
                    continue
                here = f"a{r + 1}_{c + 1}"
                there = f"a{nr + 1}_{nc + 1}"
                if rng.random() < p:
                    expected |= {(here, there), (there, here)}
                elif rng.random() < 0.5:
                    expected.add((here, there))
                else:
                    expected.add((there, here))
    af = generate(GenSpec(kind="grid", n=rows, m=cols, p=p, neighborhood="diagonal", seed=seed))
    got = {(af.args[s].name, af.args[d].name) for s, d in af.attacks}
    assert got == expected


def test_grid_mutual_fraction_statistics():
    # mean mutual fraction over 100 seeds within 3 sigma of p
    rows = cols = 10
    p, trials = 0.3, 100
    edges = _grid_edge_count(rows, cols, "diagonal")
    fractions = []
    for seed in range(trials):
        af = generate(
            GenSpec(kind="grid", n=rows, m=cols, p=p, neighborhood="diagonal", seed=seed)
        )
        fractions.append(len(mutual_pairs(af)) / edges)
    mean = statistics.fmean(fractions)
    sigma_of_mean = (p * (1 - p) / edges) ** 0.5 / trials**0.5
    assert abs(mean - p) <= 3 * sigma_of_mean
