"""Extension semantics: enumeration, verification, and acceptance decisions.

Supported semantics tags: conflict-free (cf), admissible (adm), complete (com),
grounded (grd), stable (stb), preferred (prf), semi-stable (sem), stage (stg),
and resolution-based grounded (grd_star, handled by the resolution module).

The enumeration engine is a backtracking walk over argument ids with bitmask
state.  For preferred/semi-stable it first absorbs the grounded part (every
complete extension contains grd(F) and excludes its targets), then splits the
remainder into weakly connected components and recombines the per-component
results; stage gets the component split only, since absorbing the grounded
range is not sound for plain conflict-free maximality.

Semi-stable and stage are stable-first: when a framework has a stable
extension, its semi-stable and its stage extensions are exactly its stable
ones (Caminada, "Semi-stable semantics", COMMA 2006; Verheij 1996).  So
sem/stg run the stable search first, and enumeration, acceptance and
verification fall back to the range-maximal filters only when it finds
nothing.

brute_force is the deliberately naive oracle: literal definitions evaluated
over all subsets with frozenset algebra, sharing no search code with the
engine above.
"""
from __future__ import annotations

from enum import Enum
from typing import Iterable, Iterator

from .core import (
    AF,
    ArgSet,
    _attacked_mask,
    _char_mask,
    _grounded_mask,
    _ids,
    is_conflict_free,
)

DEFAULT_SEARCH_CAP = 26
ORACLE_CAP = 20


class SearchCapError(RuntimeError):
    """Instance exceeds a configured enumeration cap; nothing was truncated."""


class Semantics(str, Enum):
    CF = "cf"
    ADM = "adm"
    COM = "com"
    GRD = "grd"
    STB = "stb"
    PRF = "prf"
    SEM = "sem"
    STG = "stg"
    GRD_STAR = "grd_star"


class ExtensionSet:
    """Extensions of one framework in canonical order (ascending bitmask)."""

    __slots__ = ("af", "extensions", "_masks")

    def __init__(self, af: AF, masks: Iterable[int]):
        self.af = af
        ordered = sorted(set(masks))
        self.extensions = tuple(ArgSet(m, af.n) for m in ordered)
        self._masks = frozenset(ordered)

    def masks(self) -> tuple[int, ...]:
        return tuple(e.mask for e in self.extensions)

    def names(self) -> list[tuple[str, ...]]:
        return [self.af.names(e) for e in self.extensions]

    def __len__(self) -> int:
        return len(self.extensions)

    def __iter__(self) -> Iterator[ArgSet]:
        return iter(self.extensions)

    def __contains__(self, s: ArgSet) -> bool:
        return s.mask in self._masks

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExtensionSet)
            and self.af.n == other.af.n
            and self._masks == other._masks
        )

    def __repr__(self) -> str:
        return f"ExtensionSet({len(self.extensions)} extensions over {self.af.n} args)"


def grounded(af: AF) -> ArgSet:
    """The least fixpoint of the characteristic function."""
    return ArgSet(_grounded_mask(af.out_masks, af.in_masks), af.n)


def _search(
    af: AF,
    *,
    admissible: bool,
    forced_in: int = 0,
    forced_out: int = 0,
    cover: int = 0,
    universe: int | None = None,
) -> Iterator[int]:
    """Yield conflict-free (or admissible) sets of the sub-framework on
    universe (default: every argument) as bitmasks.

    forced_in/forced_out pin membership decisions; cover prunes to sets whose
    final range includes every cover bit (cover == universe gives stable
    candidates directly).  Yield order is search order, not canonical order:
    ids ascending, taking an id before skipping it.
    """
    if universe is None:
        ids, outs, inns = range(af.n), af.out_masks, af.in_masks
    else:
        ids = _ids(universe)
        outs = [af.out_masks[i] for i in ids]
        inns = [af.in_masks[i] & universe for i in ids]
    k = len(ids)
    bits = [1 << i for i in ids]
    blocked = forced_out | af.self_loop_mask
    # future_in[p]: still-choosable ids from position p on; future_pot[p]:
    # those ids and their targets
    future_in = [0] * (k + 1)
    future_pot = [0] * (k + 1)
    for p in range(k - 1, -1, -1):
        free = not bits[p] & blocked
        future_in[p] = future_in[p + 1] | (bits[p] if free else 0)
        future_pot[p] = future_pot[p + 1] | ((bits[p] | outs[p]) if free else 0)

    # explicit stack of (position, chosen, covered, threats); the skip branch
    # is pushed first so the take branch is explored first
    stack = [(0, 0, 0, 0)]
    while stack:
        p, chosen, covered, threats = stack.pop()
        if cover & ~(chosen | covered | future_pot[p]):
            continue  # some required bit is out of reach
        if p == k:
            if threats == 0 and not (cover & ~(chosen | covered)):
                yield chosen
            continue
        bit = bits[p]
        if not (bit & forced_in):
            stack.append((p + 1, chosen, covered, threats))
        if bit & (blocked | covered) or outs[p] & chosen:
            continue
        ncovered = covered | outs[p]
        if not admissible:
            stack.append((p + 1, chosen | bit, ncovered, 0))
            continue
        nthreats = (threats | inns[p]) & ~ncovered
        # a threat nobody can ever counter kills the whole branch
        fresh = nthreats & ~threats
        while fresh:
            low = fresh & -fresh
            fresh ^= low
            if not af.in_masks[low.bit_length() - 1] & future_in[p + 1]:
                break
        else:
            stack.append((p + 1, chosen | bit, ncovered, nthreats))


def _stable_search(af: AF, *, forced_in: int = 0, forced_out: int = 0) -> Iterator[int]:
    """Stable extensions under the given pins.  Every stable extension is
    complete, so it contains the grounded extension and avoids its targets."""
    g = _grounded_mask(af.out_masks, af.in_masks)
    return _search(
        af,
        admissible=False,
        forced_in=forced_in | g,
        forced_out=forced_out | _attacked_mask(af, g),
        cover=af.full_mask,
    )


def _as_stable(af: AF, sem: Semantics) -> Semantics:
    """STB for sem/stg on a framework with a stable extension, whose
    semi-stable and stage extensions are then exactly the stable ones;
    sem itself otherwise."""
    if sem in (Semantics.SEM, Semantics.STG) and any(_stable_search(af)):
        return Semantics.STB
    return sem


def _weak_component_masks(af: AF, universe: int | None = None) -> list[int]:
    """Weakly connected components of the sub-framework on universe
    (default: every argument), by lowest id."""
    rest = af.full_mask if universe is None else universe
    comps = []
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            reach = 0
            for v in _ids(frontier):
                reach |= af.out_masks[v] | af.in_masks[v]
            frontier = reach & rest & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


def _subset_maximal(masks: Iterable[int]) -> list[int]:
    out: list[int] = []
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        if not any(m & ~k == 0 for k in out):
            out.append(m)
    return out


def _range_maximal(af: AF, masks: Iterable[int], universe: int) -> list[int]:
    pairs = [(m, (m | _attacked_mask(af, m)) & universe) for m in set(masks)]
    best = set(_subset_maximal(r for _, r in pairs))
    return [m for m, r in pairs if r in best]


def _combine_components(af: AF, base: int, universe: int, comp_fn) -> list[int]:
    """base joined with one comp_fn(af, cmask) result per weak component of
    the sub-framework on universe, in every combination."""
    combos = [base]
    for cmask in _weak_component_masks(af, universe):
        local = comp_fn(af, cmask)
        combos = [p | q for p in combos for q in local]
    return combos


def _enum_masks(af: AF, sem: Semantics) -> list[int]:
    if sem is Semantics.CF:
        return list(_search(af, admissible=False))
    if sem is Semantics.ADM:
        return list(_search(af, admissible=True))
    if sem in (Semantics.STB, Semantics.SEM, Semantics.STG):
        stable = list(_stable_search(af))
        if stable or sem is Semantics.STB:
            return stable
    g = _grounded_mask(af.out_masks, af.in_masks)
    if sem is Semantics.GRD:
        return [g]
    gatt = _attacked_mask(af, g)
    if sem is Semantics.COM:
        return [
            m
            for m in _search(af, admissible=True, forced_in=g, forced_out=gatt)
            if _char_mask(af, m) == m
        ]
    rest = af.full_mask & ~(g | gatt)
    if sem is Semantics.PRF:
        return _combine_components(
            af,
            g,
            rest,
            lambda a, c: _subset_maximal(_search(a, admissible=True, universe=c)),
        )
    if sem is Semantics.SEM:
        return _combine_components(
            af,
            g,
            rest,
            lambda a, c: _range_maximal(a, _search(a, admissible=True, universe=c), c),
        )
    if sem is Semantics.STG:
        return _combine_components(
            af,
            0,
            af.full_mask,
            lambda a, c: _range_maximal(a, _search(a, admissible=False, universe=c), c),
        )
    if sem is Semantics.GRD_STAR:
        from . import resolution

        return list(resolution.grd_star(af, max_args=None).masks())
    raise ValueError(f"unhandled semantics {sem!r}")


def enumerate_extensions(
    af: AF, semantics: Semantics | str, *, max_args: int | None = DEFAULT_SEARCH_CAP
) -> ExtensionSet:
    """All extensions under the given semantics, canonically ordered.

    Refuses frameworks beyond max_args arguments (default 26) rather than
    answering slowly or partially; pass max_args=None to lift the cap.
    """
    sem = Semantics(semantics)
    if max_args is not None and af.n > max_args:
        raise SearchCapError(
            f"{af.n} arguments exceed the enumeration cap of {max_args}"
        )
    return ExtensionSet(af, _enum_masks(af, sem))


def verify(af: AF, semantics: Semantics | str, s: ArgSet) -> bool:
    """Decide whether s is an extension under the given semantics."""
    sem = Semantics(semantics)
    if s.n != af.n:
        raise ValueError("ArgSet universes differ")
    mask = s.mask
    if sem is Semantics.GRD:
        return mask == _grounded_mask(af.out_masks, af.in_masks)
    if sem is Semantics.GRD_STAR:
        from . import resolution

        return resolution.verify_grd_star(af, s)
    if not is_conflict_free(af, s):
        return False
    if sem is Semantics.CF:
        return True
    if sem in (Semantics.STB, Semantics.SEM, Semantics.STG):
        rng = mask | _attacked_mask(af, mask)
        if rng == af.full_mask:
            return True  # stable, hence semi-stable and stage
        if _as_stable(af, sem) is Semantics.STB:
            return False
    if sem is Semantics.STG:
        return all(
            m | _attacked_mask(af, m) == rng
            for m in _search(af, admissible=False, cover=rng)
        )
    if mask & ~_char_mask(af, mask):
        return False  # not admissible
    if sem is Semantics.ADM:
        return True
    if sem is Semantics.COM:
        return _char_mask(af, mask) == mask
    if sem is Semantics.PRF:
        return all(m == mask for m in _search(af, admissible=True, forced_in=mask))
    if sem is Semantics.SEM:
        return all(
            m | _attacked_mask(af, m) == rng
            for m in _search(af, admissible=True, cover=rng)
        )
    raise ValueError(f"unhandled semantics {sem!r}")


def credulous(
    af: AF,
    semantics: Semantics | str,
    arg: int | str,
    *,
    max_args: int | None = DEFAULT_SEARCH_CAP,
) -> bool:
    """Is arg in at least one extension?

    cf/adm/com/grd/prf/stb answer by short-circuit search and ignore max_args.
    sem/stg do the same as stb when a stable extension exists; without one
    they enumerate (capped), as grd_star always does.
    """
    sem = Semantics(semantics)
    bit = 1 << af.arg_id(arg)
    sem = _as_stable(af, sem)
    if sem is Semantics.CF:
        return not af.self_loop_mask & bit
    if sem is Semantics.GRD:
        return bool(_grounded_mask(af.out_masks, af.in_masks) & bit)
    if sem in (Semantics.ADM, Semantics.COM, Semantics.PRF):
        # credulously accepted under preferred/complete iff under admissible
        return any(_search(af, admissible=True, forced_in=bit))
    if sem is Semantics.STB:
        return any(_stable_search(af, forced_in=bit))
    exts = enumerate_extensions(af, sem, max_args=max_args)
    return any(e.mask & bit for e in exts)


def skeptical(
    af: AF,
    semantics: Semantics | str,
    arg: int | str,
    *,
    max_args: int | None = DEFAULT_SEARCH_CAP,
) -> bool:
    """Is arg in every extension?  Vacuously true when there are none.

    cf/adm/com/grd/stb answer by short-circuit search and ignore max_args.
    sem/stg do the same as stb when a stable extension exists; without one
    they enumerate (capped), as prf/grd_star always do.
    """
    sem = Semantics(semantics)
    bit = 1 << af.arg_id(arg)
    sem = _as_stable(af, sem)
    if sem in (Semantics.CF, Semantics.ADM):
        return False  # the empty set is conflict-free and admissible
    if sem in (Semantics.GRD, Semantics.COM):
        # the grounded extension is the least complete extension
        return bool(_grounded_mask(af.out_masks, af.in_masks) & bit)
    if sem is Semantics.STB:
        return not any(_stable_search(af, forced_out=bit))
    exts = enumerate_extensions(af, sem, max_args=max_args)
    return all(e.mask & bit for e in exts)


def brute_force(af: AF, semantics: Semantics | str) -> ExtensionSet:
    """Oracle enumeration by literal definition over every subset (n <= 20).

    Kept deliberately separate from the search engine: frozenset algebra over
    af.attacks, no bitmask walks, no pruning.
    """
    sem = Semantics(semantics)
    if sem is Semantics.GRD_STAR:
        raise ValueError("grd_star has its own oracle: resolution.grd_star_naive")
    if af.n > ORACLE_CAP:
        raise SearchCapError(f"{af.n} arguments exceed the oracle cap of {ORACLE_CAP}")
    n = af.n
    universe = frozenset(range(n))
    pairs = set(af.attacks)
    targets_of = {a: frozenset(b for x, b in pairs if x == a) for a in universe}
    attackers_of = {b: frozenset(x for x, y in pairs if y == b) for b in universe}

    def targets(s: frozenset) -> frozenset:
        acc: frozenset = frozenset()
        for a in s:
            acc |= targets_of[a]
        return acc

    def rng(s: frozenset) -> frozenset:
        return s | targets(s)

    def conflict_free(s: frozenset) -> bool:
        return not any(b in s for a in s for b in targets_of[a])

    def defended(s: frozenset, x: int) -> bool:
        return attackers_of[x] <= targets(s)

    subsets = [
        frozenset(i for i in range(n) if bits >> i & 1) for bits in range(1 << n)
    ]
    cf_sets = [s for s in subsets if conflict_free(s)]
    adm_sets = [s for s in cf_sets if all(defended(s, x) for x in s)]

    if sem is Semantics.CF:
        chosen = cf_sets
    elif sem is Semantics.ADM:
        chosen = adm_sets
    elif sem is Semantics.COM:
        chosen = [
            s
            for s in cf_sets
            if frozenset(x for x in universe if defended(s, x)) == s
        ]
    elif sem is Semantics.GRD:
        com = [
            s
            for s in cf_sets
            if frozenset(x for x in universe if defended(s, x)) == s
        ]
        chosen = [s for s in com if not any(t < s for t in com)]
    elif sem is Semantics.STB:
        chosen = [s for s in cf_sets if rng(s) == universe]
    elif sem is Semantics.PRF:
        chosen = [s for s in adm_sets if not any(s < t for t in adm_sets)]
    elif sem is Semantics.SEM:
        chosen = [s for s in adm_sets if not any(rng(s) < rng(t) for t in adm_sets)]
    elif sem is Semantics.STG:
        chosen = [s for s in cf_sets if not any(rng(s) < rng(t) for t in cf_sets)]
    else:
        raise ValueError(f"unhandled semantics {sem!r}")
    return ExtensionSet(af, [sum(1 << i for i in s) for s in chosen])
