"""Extension semantics: enumeration, verification, and acceptance decisions.

Supported semantics tags: conflict-free (cf), admissible (adm), complete (com),
grounded (grd), stable (stb), preferred (prf), semi-stable (sem), stage (stg),
and resolution-based grounded (grd_star, handled by the resolution module).

The enumeration engine is a backtracking walk over argument ids with bitmask
state.  One support rule prunes it, serving both constraints of the paper's
encodings: an argument the chosen set must still attack needs an attacker a
later step could take.  Admissibility asks this of the unattacked attackers
of the chosen set (the must-out rule of Nofal, Atkinson & Dunne, "Algorithms
for decision problems in argument systems under preferred semantics", AIJ
2014), and the range condition of stable, semi-stable and stage of the cover
arguments no later step can take themselves.  Enumerated conflict-free and
admissible sets are built bottom-up instead, id by id: each id joins every
earlier set it does not conflict with, skipping whole the sets whose last id
it conflicts with.  The sets sharing a last id are held in one numpy array,
so an id filters all the sets it may join with one vector test; the array
holds uint64 up to 64 arguments and Python ints above.  Conflict-free sets
take the ids from the lowest and come out in ascending order, which
ExtensionSet sorts in linear time.  Admissible sets take them by descending
out-degree and carry their targets and attackers, so the must-out rule
becomes one vector test per id: a set with an unattacked attacker that no
later id attacks is dropped.  numpy is imported on the first build, so
importing afkit, or a query that builds no sets, does not load it.

Where the answer depends only on complete sets (com, prf and sem's
range-maximal candidates per component), the walk is asked for complete sets
and yields exactly those: a branch that skips an argument the chosen set
already defends is cut, since every complete extension holds each argument it
defends (Modgil & Caminada 2009; Nofal, Atkinson & Dunne 2014), and a leaf
that defends an argument it left out, one defended only by later takes, is
dropped.  Every preferred and semi-stable extension is complete, and every
admissible set's range lies inside some complete set's range, so these
filters see every set they keep, and com takes the walk's yields as they are.
Verifying prf needs no superset walk: an admissible set is preferred iff its
reduct, the sub-framework outside its range, has no non-empty admissible set
(the modularization of Baumann, Brewka & Ulbricht, AAAI 2020), so one
admissible walk over that universe decides it.  Credulous decisions cut
universes too: an argument that does not attack itself is in an admissible
set iff what lies off its neighbourhood has one attacking the argument's
attackers that it does not attack itself.

Complete, stable, preferred, semi-stable and stage extensions are built one
weak component at a time, after Baroni, Giacomin & Guida ("SCC-recursiveness",
AIJ 2005): each is a base joined with one local extension per component.  For
com/stb/prf/sem the base is the grounded extension, which every complete
extension contains along with none of its targets, and the components are
those of what lies outside its range.  An argument there is attacked from
outside its component only by the grounded extension's targets, which the base
already counters.  Stage gets base 0 and the components of the whole
framework, since absorbing the grounded range is not sound for plain
conflict-free maximality; a stage component's stable sets are still found
over the components of its own grounded remainder, as stb finds them.

Semi-stable and stage are stable-first in each component: a component's local
extensions are its stable sets when it has any, since a framework with a
stable extension has exactly its stable ones as semi-stable and stage
extensions (Caminada, "Semi-stable semantics", COMMA 2006; Verheij 1996).
Only a component without a stable set runs the range-maximal filter, so a
disjoint odd cycle costs what the cycle costs.  Credulous and skeptical
acceptance are one existence query, _exists: whether some extension holds the
argument, or avoids it.  Acceptance and verification find stable sets per
component of the grounded remainder, as enumeration does; sem/stg switch to
stb only when the whole framework has a stable extension, and otherwise fall
back to the range-maximal filters.  Verification
checks range-maximality per weak component: a component the set is stable on
passes, one with a stable set of its own fails, and only the others are
walked.  It runs down the semantics once, cheapest test first: one attacked
set gives the conflict-free test and the range, which decides stb; every
semantics but stg then tests admissibility (a stable set is admissible, so
this only moves sem's False earlier), and only sem and stg go on to the
stable checks and the walks.

Each AF keeps two search tables, built by the queries that need them and
read by every later one, so many short queries of one framework pay for them
once: _near_table, the support rule's scope per id over the whole relation,
whose entry for an id is filled by the first search of a universe holding it,
and _split, the grounded extension, its targets and the weak components of
what lies outside its range, built whole on first use.  No answer is cached.
Grounded-only answers (grd, and skeptical com) compute the grounded extension
alone, so a one-off grounded query of a large framework does not pay for the
component walk.

brute_force is the deliberately naive oracle: literal definitions evaluated
over all subsets with frozenset algebra, sharing no search code with the
engine above.
"""
from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from typing import Iterable, Iterator

from .core import (
    AF,
    ArgSet,
    _attacked_mask,
    _char_mask,
    _grounded_mask,
    _ids,
    _union,
    _unsupported,
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
    """Extensions of one framework in canonical order (ascending bitmask).

    Holds only the sorted masks; ArgSets are built on iteration.  It takes
    distinct masks in any order: every producer hands distinct ones (the
    walks, the joins and grd_star's worklist by construction, the solver's
    models after run_job's dedupe), so none is deduplicated here.  The sort
    takes linear time on the ascending output of the conflict-free build; the
    admissible build hands its sets in build order.
    """

    __slots__ = ("af", "_masks")

    def __init__(self, af: AF, masks: Iterable[int]):
        self.af = af
        self._masks = tuple(sorted(masks))

    def masks(self) -> tuple[int, ...]:
        return self._masks

    def names(self) -> list[tuple[str, ...]]:
        return [self.af.names(m) for m in self._masks]

    def __len__(self) -> int:
        return len(self._masks)

    def __iter__(self) -> Iterator[ArgSet]:
        n = self.af.n
        return (ArgSet(m, n) for m in self._masks)

    def __contains__(self, s: ArgSet) -> bool:
        if s.n != self.af.n:
            return False
        i = bisect_left(self._masks, s.mask)
        return i < len(self._masks) and self._masks[i] == s.mask

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExtensionSet)
            and self.af.n == other.af.n
            and self._masks == other._masks
        )

    def __repr__(self) -> str:
        return f"ExtensionSet({len(self._masks)} extensions over {self.af.n} args)"


def grounded(af: AF) -> ArgSet:
    """The least fixpoint of the characteristic function."""
    return ArgSet(_grounded_mask(af.out_masks, af.in_masks), af.n)


def _near_table(af: AF, ids: list[int]) -> list[int]:
    """near[i] for each id i of ids, where taking i can break _search's
    support rule: its attackers, and the targets of the helpers taking it
    removes (i itself, its targets, its attackers).  It depends on the attack
    relation alone, so the AF keeps one entry per id, filled on the id's first
    use: a search of a few ids of a large framework pays for those alone."""
    table = af._near
    if table is None:
        table = af._near = [None] * af.n
    near = [table[i] for i in ids]
    if None in near:
        out, inn = af.out_masks, af.in_masks
        for j, i in enumerate(ids):
            if near[j] is None:
                near[j] = table[i] = inn[i] | _attacked_mask(af, (1 << i) | out[i] | inn[i])
    return near


def _split(af: AF) -> tuple[int, int, tuple[int, ...]]:
    """The grounded extension g, its targets gatt and the weak components of
    what lies outside g's range, by lowest id: computed on first use and kept
    on the AF."""
    if af._split is None:
        g = _grounded_mask(af.out_masks, af.in_masks)
        gatt = _attacked_mask(af, g)
        comps = tuple(_weak_component_masks(af, af.full_mask & ~(g | gatt)))
        af._split = g, gatt, comps
    return af._split


def _search(
    af: AF,
    *,
    admissible: bool,
    cover: int = 0,
    universe: int = -1,
    complete: bool = False,
) -> Iterator[int]:
    """Yield conflict-free (or admissible) sets of the sub-framework on
    universe (default: every argument) as bitmasks.

    universe is the walk's one restriction: an id is kept out by leaving it
    out.  cover prunes to sets whose final range includes every cover bit, in
    universe or not (cover == universe gives stable candidates directly).
    Yield order is search order, not canonical order: ids ascending, taking
    an id before skipping it.

    The walk is take-first: each pop follows its branch down, taking every id
    it can, to a leaf (which it yields) or a dead end, and pushes only the
    skip child of each id it takes, so a skip branch runs once the take
    branch above it is done.  An id that cannot be taken (a self-attacker,
    covered, or in conflict with the chosen set) has only its skip child,
    which the walk steps into in place with no defended-skip check, since
    the chosen set defends no such id: a covered id and a self-attacker each
    have an attacker the chosen set does not counter (a chosen id, itself),
    and a threat keeps one among the helpers by the support rule.

    One support rule prunes the walk, checked at every take and at every skip
    child it pushes.  hostile, the attackers of the chosen set, can never join
    it; helpers are the later free ids neither covered nor hostile.  todo
    holds the threats, hostile arguments not yet attacked (admissible walk
    only; the must-out rule of Nofal, Atkinson & Dunne, AIJ 2014), and the
    cover bits out of range that no helper can take (the range condition of
    the stable, semi-stable and stage encodings).  A branch with a todo
    argument that no helper attacks yields nothing and is cut, so the yield
    order is that of the plain walk.  The rule runs on every walk; a cf walk
    without cover never has a todo argument.  Skipping an id that cannot be
    taken leaves the helpers as they are, so such a step needs no check.

    A take is checked over near[p], the _near_table entry of its id, which
    spans the whole relation.  On a universe it is a superset of the entry
    built over the universe alone, so it only widens the check's scope; the
    rule still cuts only branches that yield nothing, and the yield order is
    unchanged.

    complete (admissible walk only) asks for the complete sets of the
    universe's sub-framework, in the plain admissible walk's order.  The skip
    child of an id is cut when the chosen set already attacks each of its
    attackers in the universe, since every complete extension holds each
    argument it defends (the labelling rule "an argument whose attackers are
    all OUT must be IN": Modgil & Caminada, "Proof theories and algorithms
    for abstract argumentation frameworks", 2009; Nofal, Atkinson & Dunne,
    AIJ 2014).  That cut only prunes: an id defended only by later takes is
    still skipped, so each leaf also runs _defends_left_out and is dropped
    when it defends an id it left out.
    """
    universe &= af.full_mask
    ids = _ids(universe)
    outs = [af.out_masks[i] for i in ids]
    inns = [af.in_masks[i] & universe for i in ids]
    near = _near_table(af, ids)
    attackers = af.in_masks
    k = len(ids)
    bits = [1 << i for i in ids]
    blocked = af.self_loop_mask
    # future_in[p]: still-choosable ids from position p on
    future_in = [0] * (k + 1)
    for p in range(k - 1, -1, -1):
        future_in[p] = future_in[p + 1] | (0 if bits[p] & blocked else bits[p])
    threat = -1 if admissible else 0
    # explicit stack of skip branches (position, chosen, covered, hostile)
    todo = cover & ~future_in[0]
    stack = [] if todo and _unsupported(attackers, todo, future_in[0]) else [(0, 0, 0, 0)]
    while stack:
        p, chosen, covered, hostile = stack.pop()
        while p < k:
            bit, out, q = bits[p], outs[p], p + 1
            if bit & (blocked | covered) or out & chosen:
                p = q  # an id that cannot be taken is stepped over in place
                continue
            # a complete walk never skips an id the chosen set already defends
            if not complete or inns[p] & ~covered:
                # skipping a helper shrinks the helpers of bit and its targets only
                helpers = future_in[q] & ~(covered | hostile)
                todo = (bit | out) & ~covered & (hostile & threat | cover & ~(chosen | helpers))
                if not (todo and _unsupported(attackers, todo, helpers)):
                    stack.append((q, chosen, covered, hostile))
            chosen, covered, hostile = chosen | bit, covered | out, hostile | inns[p]
            helpers = future_in[q] & ~(covered | hostile)
            todo = near[p] & ~covered & (hostile & threat | cover & ~(chosen | helpers))
            if todo and _unsupported(attackers, todo, helpers):
                break
            p = q
        else:
            if not (complete and _defends_left_out(attackers, universe, chosen, covered)):
                yield chosen


def _defends_left_out(
    attackers: tuple[int, ...], universe: int, chosen: int, covered: int
) -> bool:
    """Whether the admissible set chosen, whose targets are covered, defends
    an id of universe it leaves out, one whose attackers in universe are all
    covered; a complete set defends none.  Only the ids outside chosen's range
    are asked: a conflict-free set defends no id it attacks."""
    uncountered = universe & ~covered
    return _unsupported(attackers, uncountered & ~chosen, uncountered)


def _cf_masks(af: AF, universe: int, admissible: bool = False) -> list[int]:
    """The conflict-free (or admissible) subsets of universe as bitmasks:
    conflict-free ones ascending, admissible ones in build order.

    Built id by id in a fixed order: block v holds the sets whose last id in
    that order is v, each an earlier set that does not conflict with v, plus
    v.  A block whose top id conflicts with v is skipped whole, as all its
    sets hold it.  A block's rows are numpy arrays, so v filters the blocks
    it keeps with one vector test.  The dtype follows the framework's width:
    uint64 up to 64 arguments, Python ints (object) above.  numpy is imported
    here, so a query that builds no sets does not load it.

    Conflict-free sets take the ids ascending, so they come out ascending.
    Admissible sets take them by descending out-degree in universe (ties by
    id), and a block's rows are its sets, their targets (att) and their
    attackers in universe (host).  The must-out rule of _search prunes them
    as a vector test: v drops each new set with a threat, an attacker the
    set does not attack (host & ~att), that no later id of the order
    attacks, since later steps only add later ids.  The sets left with no
    threat at the end are the admissible ones.
    """
    import numpy

    out, inn = af.out_masks, af.in_masks
    dtype = numpy.uint64 if af.n <= 64 else object
    ids = _ids(universe & ~af.self_loop_mask)
    if admissible:
        ids.sort(key=lambda i: -(out[i] & universe).bit_count())
    # later[j]: the targets of the ids from position j of the order on
    later = [0] * (len(ids) + 1)
    for j in range(len(ids) - 1, -1, -1):
        later[j] = later[j + 1] | out[ids[j]]
    blocks = [(0, [numpy.zeros(1, dtype)] * (3 if admissible else 1))]
    for j, v in enumerate(ids):
        near, bit = out[v] | inn[v], 1 << v
        rows = [numpy.concatenate(r) for r in zip(*[b for top, b in blocks if not top & near])]
        keep = rows[0] & near == 0
        block = [r[keep] | add for r, add in zip(rows, (bit, out[v], inn[v] & universe))]
        if admissible:
            sets, att, host = block
            keep = host & ~(att | later[j + 1]) == 0
            block = [sets[keep], att[keep], host[keep]]
        blocks.append((bit, block))
    sets, *rest = [numpy.concatenate(r) for r in zip(*[b for _, b in blocks])]
    if admissible:
        att, host = rest
        sets = sets[host & ~att == 0]
    return sets.tolist()


def _weak_component_masks(af: AF, universe: int | None = None) -> list[int]:
    """Weakly connected components of the sub-framework on universe
    (default: every argument), by lowest id."""
    rest = af.full_mask if universe is None else universe
    nbrs = list(map(int.__or__, af.out_masks, af.in_masks))
    comps = []
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            frontier = _union(nbrs, frontier) & rest & ~comp
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


def _join(af: AF, sem: Semantics, base: int, comps: Iterable[int]) -> list[int]:
    """base joined with one of sem's local extensions per weak component in
    comps; none when some component has none."""
    combos = [base]
    for c in comps:
        local = _local(af, sem, c)
        if not local:
            return []
        combos = [p | q for p in combos for q in local]
    return combos


def _local(af: AF, sem: Semantics, c: int) -> list[int]:
    """sem's extensions of the weak component c, as masks inside c.  com's
    are the complete walk's yields, prf's the subset-maximal ones among them."""
    if sem is Semantics.COM:
        return list(_search(af, admissible=True, universe=c, complete=True))
    if sem is Semantics.PRF:
        return _subset_maximal(_search(af, admissible=True, universe=c, complete=True))
    g, _, comps = _split(af)
    if sem is Semantics.STG:
        # c's stable sets split over what lies outside g's range, as stb's
        # do: the remainder's components inside c
        stable = _join(af, Semantics.STB, g & c, [d for d in comps if d & c])
    else:
        stable = list(_search(af, admissible=False, cover=c, universe=c))
    if stable or sem is Semantics.STB:
        return stable
    # semi-stable extensions are complete, and every admissible set's range
    # lies inside the range of a complete set, so the complete walk suffices
    sets = (_search(af, admissible=True, universe=c, complete=True) if sem is Semantics.SEM
            else _cf_masks(af, c))
    return _range_maximal(af, sets, c)


def _has_stable(af: AF, inside: int = 0, outside: int = 0) -> bool:
    """Whether a stable extension holds the conflict-free inside and avoids
    outside.  It is complete, so it holds the grounded extension g and none
    of g's targets; the rest is one stable set per weak component outside g's
    range.  outside and inside's neighbours are cut from each component's
    universe but stay in its cover, so inside is covered only by taking it;
    a self-attacking inside is blocked, so it is never covered."""
    g, gatt, comps = _split(af)
    if inside & gatt or outside & g:
        return False  # a component's universe would drop these
    cut = outside | (_attacked_mask(af, inside) | _union(af.in_masks, inside)) & ~inside
    return all(any(_search(af, admissible=False, cover=c, universe=c & ~cut)) for c in comps)


def _enum_masks(af: AF, sem: Semantics) -> list[int]:
    if sem is Semantics.CF:
        return _cf_masks(af, af.full_mask)
    if sem is Semantics.ADM:
        return _cf_masks(af, af.full_mask, admissible=True)
    if sem is Semantics.GRD_STAR:
        from . import resolution

        return list(resolution.grd_star(af, max_args=None).masks())
    if sem is Semantics.GRD:
        return [_grounded_mask(af.out_masks, af.in_masks)]
    g, _, comps = _split(af)
    if sem is Semantics.STG:
        return _join(af, sem, 0, _weak_component_masks(af))
    return _join(af, sem, g, comps)


def enumerate_extensions(
    af: AF, semantics: Semantics | str, *, max_args: int | None = DEFAULT_SEARCH_CAP
) -> ExtensionSet:
    """All extensions under the given semantics, canonically ordered.

    Refuses frameworks beyond max_args arguments (default 26) rather than
    answering slowly or partially; pass max_args=None to lift the cap.
    """
    sem = Semantics(semantics)
    _check_cap(af, max_args)
    return ExtensionSet(af, _enum_masks(af, sem))


def _check_cap(af: AF, max_args: int | None) -> None:
    """Refuse af when it has more than max_args arguments (None: no cap)."""
    if max_args is not None and af.n > max_args:
        raise SearchCapError(f"{af.n} arguments exceed the enumeration cap of {max_args}")


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
    attacked = _attacked_mask(af, mask)
    if attacked & mask:
        return False  # not conflict-free
    if sem is Semantics.CF:
        return True
    rng = mask | attacked
    if sem is Semantics.STB:
        return rng == af.full_mask
    if sem is not Semantics.STG:
        defended = _char_mask(af, mask)
        if mask & ~defended:
            return False  # not admissible
        if sem is Semantics.ADM:
            return True
        if sem is Semantics.COM:
            return defended == mask
        if sem is Semantics.PRF:
            # the reduct: an admissible s is preferred iff no non-empty admissible
            # set lies outside its range (Baumann, Brewka & Ulbricht, AAAI 2020)
            return not any(_search(af, admissible=True, universe=af.full_mask & ~rng))
    if rng == af.full_mask:
        return True  # stable, hence semi-stable and stage
    if _has_stable(af):
        return False
    # no admissible (sem) or conflict-free (stg) set has a larger range; both
    # kinds of set and their ranges split over the weak components
    for c in _weak_component_masks(af):
        if rng & c == c:
            continue  # s is stable on c
        if any(_search(af, admissible=False, cover=c, universe=c)):
            return False  # a stable set of c has a larger range there
        covering = _search(af, admissible=sem is Semantics.SEM, cover=rng & c, universe=c)
        if any(m | _attacked_mask(af, m) != rng & c for m in covering):
            return False
    return True


def _exists(
    af: AF, sem: Semantics, inside: int, outside: int, max_args: int | None
) -> bool:
    """Whether some sem extension holds inside and avoids outside (each one
    argument or none).  cf/adm/com/grd/stb, prf with inside, and sem/stg with
    a stable extension answer by short-circuit search; the rest (prf with
    outside, sem/stg without one, grd_star) enumerate, refusing frameworks
    beyond max_args arguments."""
    if sem in (Semantics.SEM, Semantics.STG) and _has_stable(af):
        sem = Semantics.STB  # its sem/stg extensions are then its stable ones
    if sem is Semantics.STB:
        return _has_stable(af, inside, outside)
    if sem is Semantics.GRD or sem is Semantics.COM and outside:
        # the grounded extension is the least complete extension
        g = _grounded_mask(af.out_masks, af.in_masks)
        return g & inside == inside and not g & outside
    if inside and sem in (Semantics.CF, Semantics.ADM, Semantics.COM, Semantics.PRF):
        if sem is Semantics.CF:
            return not af.self_loop_mask & inside
        # in a preferred/complete extension iff in an admissible set: inside
        # joins an admissible set off its neighbourhood that attacks the
        # attackers inside does not; mask 0 is such a set, so test for any yield
        inn, out = _union(af.in_masks, inside), _attacked_mask(af, inside)
        walk = _search(af, admissible=True, cover=inn & ~out,
                       universe=af.full_mask & ~(inside | inn | out))
        return not af.self_loop_mask & inside and next(walk, None) is not None
    if sem in (Semantics.CF, Semantics.ADM):
        return True  # the empty set is conflict-free and admissible
    exts = enumerate_extensions(af, sem, max_args=max_args)
    return any(m & inside == inside and not m & outside for m in exts.masks())


def credulous(
    af: AF,
    semantics: Semantics | str,
    arg: int | str,
    *,
    max_args: int | None = DEFAULT_SEARCH_CAP,
) -> bool:
    """Is arg in at least one extension?  max_args (default 26) caps the
    enumeration that some semantics fall back to (see _exists)."""
    sem = Semantics(semantics)
    return _exists(af, sem, 1 << af.arg_id(arg), 0, max_args)


def skeptical(
    af: AF,
    semantics: Semantics | str,
    arg: int | str,
    *,
    max_args: int | None = DEFAULT_SEARCH_CAP,
) -> bool:
    """Is arg in every extension?  Vacuously true when there are none.
    max_args (default 26) caps the enumeration that some semantics fall back
    to (see _exists)."""
    sem = Semantics(semantics)
    return not _exists(af, sem, 0, 1 << af.arg_id(arg), max_args)


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
    elif sem in (Semantics.COM, Semantics.GRD):
        chosen = [
            s
            for s in cf_sets
            if frozenset(x for x in universe if defended(s, x)) == s
        ]
        if sem is Semantics.GRD:
            chosen = [s for s in chosen if not any(t < s for t in chosen)]
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
