"""Core data structures for abstract argumentation frameworks.

An AF is a finite set of arguments plus a binary defeat (attack) relation.
Arguments get dense integer ids in order of first appearance; argument sets
are bitmasks wrapped in ArgSet, with id 0 on the least-significant bit.  A
sub-framework is a universe mask: the grounded fixpoint and sccs (two
bitmask sweeps, whose components come back as masks in topological order)
run on the attack masks inside it, with nothing rebuilt.
Every scan of a mask's set bits in the engines goes through one of four
helpers: _ids lists them, _union ORs a per-id table over them, _unattacked
keeps those with no attacker in a given mask, and _unsupported asks whether
there is one.

APX text is read by one tokenizer pass (parse_apx): a single regex splits the
text into one flat list of strings, whose columns hold the names of every
fact.  Only text it refuses is read again, line by line, to report the first
error with its line number (_apx_error).  Ingest keeps no object per fact or
per argument: an AF holds its names as one tuple and its relation as attack
masks, and derives its args and attacks tuples on first use.
"""
from __future__ import annotations

import re
from typing import Iterable, Iterator, NamedTuple, Sequence

NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
# One APX token: leading whitespace (line breaks too), then an arg fact, a
# defeat/att fact, a comment, the end of the text, or any other character.
# Inside a fact only intra-line whitespace may stand, so no fact spans lines.
_WS = r"[^\S\n]*"
_NAMED = r"([a-z][a-z0-9_]*)"
_TOKEN_RE = re.compile(
    rf"\s*(?:arg{_WS}\({_WS}{_NAMED}{_WS}\){_WS}\."
    rf"|(?:defeat|att){_WS}\({_WS}{_NAMED}{_WS},{_WS}{_NAMED}{_WS}\){_WS}\."
    r"|%.*|\Z|(.))"
)
# One fact of any predicate and arity, as _apx_error reads a line.
_FACT_RE = re.compile(r"\s*([a-z][a-z0-9_]*)\s*\(\s*([a-z0-9_,\s]*?)\s*\)\s*\.")


class ApxError(ValueError):
    """Raised on malformed APX input; carries the 1-based source line."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class Argument(NamedTuple):
    id: int
    name: str


class ArgSet:
    """Immutable argument set over a fixed universe of n ids, backed by a bitmask."""

    __slots__ = ("mask", "n")

    def __init__(self, mask: int, n: int):
        if mask < 0 or mask >> n:
            raise ValueError(f"mask {mask:#x} out of range for universe of {n}")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "n", n)

    def __setattr__(self, *_):
        raise AttributeError("ArgSet is immutable")

    @classmethod
    def from_ids(cls, ids: Iterable[int], n: int) -> "ArgSet":
        mask = 0
        for i in ids:
            mask |= 1 << i
        return cls(mask, n)

    def ids(self) -> list[int]:
        return _ids(self.mask)

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids())

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.n and bool(self.mask >> i & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def _check(self, other: "ArgSet") -> None:
        if self.n != other.n:
            raise ValueError("ArgSet universes differ")

    def __or__(self, other: "ArgSet") -> "ArgSet":
        self._check(other)
        return ArgSet(self.mask | other.mask, self.n)

    def __and__(self, other: "ArgSet") -> "ArgSet":
        self._check(other)
        return ArgSet(self.mask & other.mask, self.n)

    def __sub__(self, other: "ArgSet") -> "ArgSet":
        self._check(other)
        return ArgSet(self.mask & ~other.mask, self.n)

    def __le__(self, other: "ArgSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def __lt__(self, other: "ArgSet") -> bool:
        return self <= other and self.mask != other.mask

    def __eq__(self, other) -> bool:
        return isinstance(other, ArgSet) and self.mask == other.mask and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.mask, self.n))

    def __repr__(self) -> str:
        return f"ArgSet({{{','.join(map(str, self.ids()))}}}, n={self.n})"


def _reject_names(names: Sequence[str]) -> None:
    """Raise for the first invalid or repeated argument name, in order."""
    seen = set()
    for name in names:
        if not NAME_RE.match(name):
            raise ValueError(f"invalid argument name {name!r}")
        if name in seen:
            raise ValueError(f"duplicate argument {name!r}")
        seen.add(name)
    raise AssertionError("no invalid or repeated argument name")


class AF:
    """Argumentation framework: named arguments plus a defeat relation over ids.

    An AF must not be mutated after construction: the views and tables below
    are derived from its masks once and never refreshed.  out_masks[a] holds
    the targets of argument a as a bitmask, in_masks[a] its attackers; both
    are filled in one loop over the attacks, so repeated attacks collapse.
    The args and attacks tuples are views derived on first use, so building
    an AF allocates no object per argument or per attack.  Two search tables
    are derived lazily too, by the semantics module on the first query that
    needs them, and serve every later query on the same AF: _near, the
    support rule's scope per id (semantics._near_table, an entry filled on
    its id's first search), and _split, the grounded extension, its targets
    and the weak components of what lies outside its range
    (semantics._split).  All four are cached in attributes
    that __init__ sets to None, not by functools.cached_property: that
    writes through the instance __dict__, and on CPython 3.11 every later
    attribute load on the AF (out_masks in the search, for one) then takes
    about four times as long.
    """

    def __init__(self, names: Iterable[str], attacks: Iterable[tuple[str, str]]):
        names = tuple(names)
        n = len(names)
        seen = dict(zip(names, range(n)))
        if len(seen) != n or not all(map(NAME_RE.match, names)):
            _reject_names(names)
        self._names = names
        self.n = n
        self.name_to_id: dict[str, int] = seen
        self.full_mask = (1 << n) - 1

        out = [0] * n
        inn = [0] * n
        loops = 0
        try:
            for src, dst in attacks:
                a, b = seen[src], seen[dst]
                out[a] |= 1 << b
                inn[b] |= 1 << a
                if a == b:
                    loops |= 1 << a
        except KeyError as missing:
            raise ValueError(f"attack endpoint {missing.args[0]!r} not declared") from None
        self.out_masks: tuple[int, ...] = tuple(out)
        self.in_masks: tuple[int, ...] = tuple(inn)
        self.self_loop_mask = loops
        self._args: tuple[Argument, ...] | None = None
        self._attacks: tuple[tuple[int, int], ...] | None = None
        self._near: list[int | None] | None = None
        self._split: tuple[int, int, tuple[int, ...]] | None = None

    @property
    def args(self) -> tuple[Argument, ...]:
        if self._args is None:
            self._args = tuple(map(Argument._make, enumerate(self._names)))
        return self._args

    @property
    def attacks(self) -> tuple[tuple[int, int], ...]:
        """Every attack once as an id pair, in (src, dst) order."""
        if self._attacks is None:
            self._attacks = tuple(
                (a, b) for a, targets in enumerate(self.out_masks) for b in _ids(targets)
            )
        return self._attacks

    def names(self, s: ArgSet | int) -> tuple[str, ...]:
        mask = s.mask if isinstance(s, ArgSet) else s
        return tuple(map(self._names.__getitem__, _ids(mask)))

    def argset(self, names: Iterable[str] = ()) -> ArgSet:
        return ArgSet.from_ids((self.arg_id(x) for x in names), self.n)

    def arg_id(self, x: int | str) -> int:
        if isinstance(x, int):
            if not 0 <= x < self.n:
                raise ValueError(f"argument id {x} out of range")
            return x
        try:
            return self.name_to_id[x]
        except KeyError:
            raise ValueError(f"unknown argument {x!r}") from None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AF)
            and self._names == other._names
            and self.out_masks == other.out_masks
        )

    def __repr__(self) -> str:
        return f"AF(n={self.n}, attacks={sum(map(int.bit_count, self.out_masks))})"


def parse_apx(text: str) -> AF:
    """Parse APX text: ``arg(x).`` and ``defeat(x,y).`` facts (``att`` accepted).

    ``%`` starts a comment.  Multiple facts per line are fine; facts do not
    span lines (any ``str.splitlines`` boundary).  Attack endpoints may be
    declared later in the file.

    Valid text takes one pass: line breaks are normalised to ``\\n`` and one
    ``split`` by _TOKEN_RE returns a flat list, five entries per token: the
    text between tokens (always empty) and the token's four groups, None
    where a group did not take part.  So the columns ``parts[1::5]``,
    ``parts[2::5]`` and ``parts[3::5]`` hold the arg names and the attack
    endpoints, and AF reads them through ``filter`` and ``zip`` without a
    tuple per fact.  Errors come from _apx_error, which classifies the text
    line by line and never builds an AF.  It runs only when a character is no
    part of a fact, comment or whitespace (``parts[4::5]``), or when AF
    refuses the names (a duplicate arg fact, an undeclared attack endpoint),
    and finds the first error and its line.
    """
    text = "\n".join(text.splitlines())
    parts = _TOKEN_RE.split(text)
    if any(parts[4::5]):
        raise _apx_error(text)
    attacks = zip(filter(None, parts[2::5]), filter(None, parts[3::5]))
    try:
        return AF(filter(None, parts[1::5]), attacks)
    except ValueError:
        raise _apx_error(text) from None


def _apx_error(text: str) -> ApxError:
    """The first error of APX text that parse_apx refused, classified line by
    line: a malformed token, arity or predicate, or a duplicate arg fact, in
    text order; then the first attack that names an undeclared endpoint."""
    declared: set[str] = set()
    attacks: list[tuple[str, str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0]
        pos = 0
        while pos < len(line):
            if line[pos:].isspace():
                break
            m = _FACT_RE.match(line, pos)
            if not m:
                snippet = line[pos:].strip()[:30]
                return ApxError(f"malformed token near {snippet!r}", lineno)
            pred, argstr = m.group(1), m.group(2)
            terms = [t.strip() for t in argstr.split(",")] if argstr.strip() else []
            if any(not NAME_RE.match(t) for t in terms):
                return ApxError(f"malformed token in {pred} fact", lineno)
            if pred == "arg":
                if len(terms) != 1:
                    return ApxError("arg/1 takes exactly one argument", lineno)
                if terms[0] in declared:
                    return ApxError(f"duplicate arg fact for {terms[0]!r}", lineno)
                declared.add(terms[0])
            elif pred in ("defeat", "att"):
                if len(terms) != 2:
                    return ApxError(f"{pred}/2 takes exactly two arguments", lineno)
                attacks.append((terms[0], terms[1], lineno))
            else:
                return ApxError(f"unexpected predicate {pred!r}", lineno)
            pos = m.end()
    for src, dst, lineno in attacks:
        for endpoint in (src, dst):
            if endpoint not in declared:
                return ApxError(f"attack endpoint {endpoint!r} not declared", lineno)
    raise AssertionError("parse_apx refused APX text that has no error")


def serialize_apx(af: AF) -> str:
    """Render an AF as APX text: args in id order, then attacks in (src,dst) id order.

    The attacks come from the out masks directly: sources from the highest id
    down, each mask's targets from its top bit down (bit_length is constant
    time, and clearing the top bit shrinks the int), and the lines reversed.
    """
    names = af._names
    defeats = []
    for src, targets in zip(reversed(names), reversed(af.out_masks)):
        while targets:
            b = targets.bit_length() - 1
            defeats.append(f"defeat({src},{names[b]}).")
            targets ^= 1 << b
    lines = [f"arg({x})." for x in names]
    lines += reversed(defeats)
    return "\n".join(lines) + "\n" if lines else ""


def is_conflict_free(af: AF, s: ArgSet) -> bool:
    return _attacked_mask(af, s.mask) & s.mask == 0


def _attacked_mask(af: AF, mask: int) -> int:
    return _union(af.out_masks, mask)


def _ids(mask: int) -> list[int]:
    """The set bits of a non-negative mask, ascending."""
    if not mask & (mask + 1):  # all ones, e.g. a whole framework
        return list(range(mask.bit_length()))
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


def _union(table: Sequence[int], mask: int) -> int:
    """The OR of table[i] over the set bits i of mask."""
    acc = 0
    while mask:
        low = mask & -mask
        acc |= table[low.bit_length() - 1]
        mask ^= low
    return acc


def _unattacked(inn: Sequence[int], mask: int, by: int) -> int:
    """The bits i of mask with no attacker in by (inn[i] & by == 0)."""
    acc = 0
    for i in _ids(mask):
        if not inn[i] & by:
            acc |= 1 << i
    return acc


def _unsupported(inn: Sequence[int], mask: int, by: int) -> bool:
    """Whether some bit of mask has no attacker in by: _unattacked(inn, mask,
    by) != 0, stopping at the first such bit."""
    while mask:
        low = mask & -mask
        if not inn[low.bit_length() - 1] & by:
            return True
        mask ^= low
    return False


def _char_mask(af: AF, mask: int) -> int:
    """The ids that no argument outside mask's targets attacks."""
    return af.full_mask & ~_attacked_mask(af, af.full_mask & ~_attacked_mask(af, mask))


def _grounded_mask(out, inn, universe: int | None = None) -> int:
    """Grounded extension of the sub-framework on universe (default: every
    argument) under the attack masks out/inn, grown by a worklist: an id
    joins when its last open (undefeated) attacker becomes defeated, so each
    step tests only the targets of the arguments its new members defeat."""
    if universe is None:
        universe = (1 << len(out)) - 1
    fresh = _unattacked(inn, universe, universe)
    mask = covered = 0
    while fresh:
        mask |= fresh
        defeated = _union(out, fresh) & universe & ~covered
        covered |= defeated
        open_ = universe & ~covered
        fresh = _unattacked(inn, _union(out, defeated) & open_ & ~mask, open_)
    return mask


def restrict(af: AF, s: ArgSet) -> tuple[AF, tuple[int, ...]]:
    """Sub-framework induced by s.  Names are kept; ids are re-densified.

    Returns (sub, orig_ids) where orig_ids[i] is the parent id of sub-argument i.
    """
    keep = s.ids()
    keep_set = set(keep)
    names = af._names
    sub_attacks = [
        (names[a], names[b]) for a, b in af.attacks if a in keep_set and b in keep_set
    ]
    return AF([names[i] for i in keep], sub_attacks), tuple(keep)


def sccs(af: AF, universe: int | None = None) -> list[int]:
    """Strongly connected components of the sub-framework on universe
    (default: every argument) as masks in topological order (no attack runs
    from a later component to an earlier one), by Kosaraju's two sweeps
    (Sharir 1981).  A depth-first pass that always descends into the lowest
    unvisited target records the finishing order; then, latest finisher
    first, a flood fill over the attackers within what is not yet placed cuts
    out each component."""
    if universe is None:
        universe = af.full_mask
    out, inn = af.out_masks, af.in_masks
    path, seen, finished = [], 0, []
    while True:  # an empty path stands on a virtual root that targets universe
        fresh = (out[path[-1]] if path else universe) & universe & ~seen
        if fresh:
            low = fresh & -fresh
            seen |= low
            path.append(low.bit_length() - 1)
        elif path:
            finished.append(path.pop())
        else:
            break
    comps = []
    rest = universe
    for v in reversed(finished):
        if not rest >> v & 1:
            continue
        comp = frontier = 1 << v
        while frontier:
            frontier = _union(inn, frontier) & rest & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps
