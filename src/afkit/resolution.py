"""Resolution-based grounded semantics.

A resolution keeps one direction of every mutual attack and drops the other.
The resolution-based grounded extensions are the subset-minimal grounded
extensions taken over all resolutions.  Two independent engines:

* grd_star_naive enumerates every resolution literally (capped at 2^20);
* grd_star walks the recursive characterization over minimal relevant
  components (Baroni, Dunne & Giacomin, AIJ 2011) and never materializes a
  resolution; each level tests the remainder's SCCs, in masks, for those
  components.  verify_grd_star is the same walk restricted to the
  candidate, which leaves it one path through the levels.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import (
    AF,
    ArgSet,
    _attacked_mask,
    _grounded_mask,
    _ids,
    is_conflict_free,
    sccs,
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
    for c in sccs(af, universe):
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
    without enumerating resolutions: grd_star's walk restricted to u."""
    if u.n != af.n:
        raise ValueError("ArgSet universes differ")
    if not is_conflict_free(af, u):
        return False
    return u.mask in _walk(af, u.mask, trace)


def grd_star(
    af: AF, *, max_args: int | None = DEFAULT_SEARCH_CAP
) -> ExtensionSet:
    """Enumerate resolution-based grounded extensions recursively: each
    level adds its grounded part, then one branch per stable set of the
    minimal relevant components, recursing on the remainder that set leaves
    undecided."""
    _check_cap(af, max_args)
    return ExtensionSet(af, _walk(af, af.full_mask))


def _walk(af: AF, within: int, trace: list[RbgFrame] | None = None) -> list[int]:
    """The resolution-based grounded extensions inside within, as masks.

    A work item is a level's sub-framework (universe), the arguments chosen
    above it and its depth.  A branch whose grounded part leaves within ends,
    and the branches of a level are the stable sets of its minimal relevant
    components inside within.  For a conflict-free within there is at most
    one such set, within's part of them, so verification follows one path;
    trace gets one frame per level, before the level's checks, whose
    remainder is within's part of the undecided rest.
    """
    masks = []
    work = [(af.full_mask, 0, 0)]
    while work:
        universe, chosen, depth = work.pop()
        g = _grounded_mask(af.out_masks, af.in_masks, universe)
        rest = universe & ~(g | _attacked_mask(af, g))
        pi = sum(c.mask for c in minimal_relevant(af, rest))  # disjoint: sum is union
        if trace is not None:
            sets = (ArgSet(m, af.n) for m in (universe, g, within & rest, pi))
            trace.append(RbgFrame(af, *sets, depth))
        if g & ~within:
            continue
        if not pi:
            masks.append(chosen | g)
            continue
        for s in _search(af, admissible=False, cover=pi, universe=pi & within):
            work.append((rest & ~(pi | _attacked_mask(af, s)), chosen | g | s, depth + 1))
    return masks
