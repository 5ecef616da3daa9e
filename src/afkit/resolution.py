"""Resolution-based grounded semantics.

A resolution keeps one direction of every mutual attack and drops the other.
The resolution-based grounded extensions are the subset-minimal grounded
extensions taken over all resolutions.  Two independent engines:

* grd_star_naive enumerates every resolution literally (capped at 2^20);
* verify_grd_star / grd_star use the recursive characterization over minimal
  relevant components and never materialize a resolution; each level tests
  the remainder's SCCs, in masks, for those components.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import (
    AF,
    ArgSet,
    _attacked_mask,
    _grounded_mask,
    _ids,
    _scc_masks,
    is_conflict_free,
)
from .semantics import (
    DEFAULT_SEARCH_CAP,
    ExtensionSet,
    SearchCapError,
    _check_cap,
    _search,
)

RESOLUTION_CAP = 20


def mutual_pairs(af: AF) -> list[tuple[int, int]]:
    """The mutual attacks as (lo, hi) id pairs, ascending.  Self-attacks are
    not mutual pairs."""
    return [(a, b) for a, b in af.attacks if a < b and af.out_masks[b] >> a & 1]


def grd_star_naive(af: AF, *, max_pairs: int | None = RESOLUTION_CAP) -> ExtensionSet:
    """Oracle engine: grounded extension of every resolution, then minimize.

    The resolutions go in binary-counter order over the mutual pairs: bit i
    of the counter picks the dropped direction of pair i, 0 drops (lo,hi)
    and 1 drops (hi,lo).
    """
    pairs = mutual_pairs(af)
    if max_pairs is not None and len(pairs) > max_pairs:
        raise SearchCapError(
            f"{len(pairs)} mutual pairs exceed the resolution cap of {max_pairs}"
        )
    results: set[int] = set()
    for code in range(1 << len(pairs)):
        out = list(af.out_masks)
        inn = list(af.in_masks)
        for i, (lo, hi) in enumerate(pairs):
            a, b = (hi, lo) if code >> i & 1 else (lo, hi)
            out[a] &= ~(1 << b)
            inn[b] &= ~(1 << a)
        results.add(_grounded_mask(out, inn))
    minimal = [
        m for m in results if not any(o != m and o & ~m == 0 for o in results)
    ]
    return ExtensionSet(af, minimal)


def minimal_relevant(af: AF, universe: int | None = None) -> list[ArgSet]:
    """Predecessor-free SCCs of the sub-framework on universe (default: every
    argument) whose internal attacks form a symmetric, self-attack-free
    relation with an acyclic undirected collapse (a tree)."""
    if universe is None:
        universe = af.full_mask
    found = []
    for c in _scc_masks(af, universe):
        if c & af.self_loop_mask:
            continue
        ids = _ids(c)
        # x's attackers in the universe are exactly its targets in c: nothing
        # outside c attacks c, and the attacks inside c are symmetric
        if any(af.in_masks[x] & universe != af.out_masks[x] & c for x in ids):
            continue
        # symmetric and strongly connected: a tree iff half the directed
        # count is one less than the node count
        if sum((af.out_masks[x] & c).bit_count() for x in ids) == 2 * (len(ids) - 1):
            found.append(ArgSet(c, af.n))
    return found


@dataclass(frozen=True)
class RbgFrame:
    """One level of the recursive acceptance check, for inspection.

    af is the top-level framework at every level and universe the level's
    sub-framework; the other sets are in the same top-level ids.
    """

    af: AF
    universe: ArgSet
    grounded_part: ArgSet
    remainder: ArgSet
    minimal_scc_union: ArgSet
    depth: int


def verify_grd_star(af: AF, u: ArgSet, *, trace: list[RbgFrame] | None = None) -> bool:
    """Decide membership of u in the resolution-based grounded extensions
    without enumerating resolutions."""
    if u.n != af.n:
        raise ValueError("ArgSet universes differ")
    if not is_conflict_free(af, u):
        return False
    return _accept(af, u.mask, trace)


def _level(af: AF, universe: int) -> tuple[int, int, int]:
    """One recursion level on the sub-framework universe: its grounded part,
    the remainder outside that part's range, and the union (a sum, as they
    are disjoint) of the remainder's minimal relevant components."""
    g = _grounded_mask(af.out_masks, af.in_masks, universe)
    rest = universe & ~(g | _attacked_mask(af, g))
    return g, rest, sum(c.mask for c in minimal_relevant(af, rest))


def _accept(af: AF, u_mask: int, trace: list[RbgFrame] | None) -> bool:
    """One pass per recursion level; (universe, u_mask) is the level's
    sub-framework and the part of the candidate still to be justified (inside
    the universe, as the candidate is conflict-free)."""
    universe = af.full_mask
    depth = 0
    while True:
        g, rest, pi = _level(af, universe)
        t = u_mask & rest
        if trace is not None:
            trace.append(
                RbgFrame(
                    af,
                    ArgSet(universe, af.n),
                    ArgSet(g, af.n),
                    ArgSet(t, af.n),
                    ArgSet(pi, af.n),
                    depth,
                )
            )
        if u_mask & ~rest != g:
            return False
        if not pi:
            return t == 0
        t_pi = t & pi
        struck = _attacked_mask(af, t_pi)
        if pi & ~(t_pi | struck):
            return False  # not stable inside the selected components
        universe = rest & ~(pi | struck)
        u_mask = t & ~pi
        depth += 1


def grd_star(
    af: AF, *, max_args: int | None = DEFAULT_SEARCH_CAP
) -> ExtensionSet:
    """Enumerate resolution-based grounded extensions recursively.

    Branches the recursion that verify_grd_star follows: each level adds its
    grounded part, then one branch per stable set of the minimal relevant
    components, recursing on the remainder that set leaves undecided.
    """
    _check_cap(af, max_args)
    masks = []
    work = [(af.full_mask, 0)]
    while work:
        universe, chosen = work.pop()
        g, rest, pi = _level(af, universe)
        if not pi:
            masks.append(chosen | g)
            continue
        for s in _search(af, admissible=False, cover=pi, universe=pi):
            work.append((rest & ~(pi | _attacked_mask(af, s)), chosen | g | s))
    return ExtensionSet(af, masks)
