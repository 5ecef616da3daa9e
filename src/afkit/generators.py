"""Random-instance generators: arbitrary digraphs and grid frameworks.

Both families are deterministic functions of a GenSpec.  Randomness comes
from numpy's PCG64 (a named, portable 64-bit generator), and the order in
which draws are consumed is part of the contract so instances reproduce
exactly:

* arbitrary — arguments a1..an; ordered pairs are visited in row-major
  order (source-major, then target); each pair that is eligible (no
  self-pairs unless self_attacks is set) consumes exactly one uniform draw
  and becomes an attack when the draw is < p.  Skipped self-pairs consume
  nothing.

* grid — arguments a<row>_<col> (1-based) at the cells of an n×m grid,
  created in row-major order.  Cells are scanned in row-major order; for
  each cell its forward neighbors are visited in the fixed order right,
  down, then (diagonal neighborhood only) down-right, down-left, so every
  undirected neighbor pair is handled exactly once.  Each pair consumes one
  uniform draw: < p makes the connection mutual (both attacks); otherwise a
  second draw picks the single direction (< 0.5 points from the scanned
  cell to its neighbor, else the reverse).
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import AF

KINDS = ("arbitrary", "grid")
NEIGHBORHOODS = ("orthogonal", "diagonal")


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one generated instance; validated on construction."""

    kind: str
    n: int
    m: int | None = None
    p: float = 0.25
    neighborhood: str = "orthogonal"
    seed: int = 0
    self_attacks: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0,1], got {self.p}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.kind == "grid":
            if self.m is None or self.m < 1:
                raise ValueError("grid generation needs columns m >= 1")
            if self.neighborhood not in NEIGHBORHOODS:
                raise ValueError(f"unknown neighborhood {self.neighborhood!r}")
            if self.self_attacks:
                raise ValueError("self-attacks only apply to the arbitrary kind")
        else:
            if self.m is not None:
                raise ValueError("m only applies to the grid kind")


def _rng(seed: int) -> "numpy.random.Generator":
    # imported here so that importing afkit (and starting `afkit solve`)
    # does not pay for loading numpy
    import numpy

    return numpy.random.Generator(numpy.random.PCG64(seed))


def _arbitrary(spec: GenSpec) -> AF:
    """Independent attacks over every ordered pair of distinct arguments."""
    rng = _rng(spec.seed)
    names = [f"a{i}" for i in range(1, spec.n + 1)]
    attacks = []
    for i, src in enumerate(names):
        # one batched draw per source consumes the stream exactly as one
        # scalar draw per eligible pair would
        targets = names if spec.self_attacks else names[:i] + names[i + 1:]
        hits = (rng.random(len(targets)) < spec.p).nonzero()[0]
        attacks += [(src, targets[j]) for j in hits]
    return AF(names, attacks)


def _grid(spec: GenSpec) -> AF:
    """Grid framework: every neighbor pair carries one or two attacks."""
    rng = _rng(spec.seed)
    rows, cols = spec.n, spec.m
    names = [f"a{r}_{c}" for r in range(1, rows + 1) for c in range(1, cols + 1)]

    def cell(r: int, c: int) -> str:
        return names[r * cols + c]

    offsets = [(0, 1), (1, 0)]
    if spec.neighborhood == "diagonal":
        offsets += [(1, 1), (1, -1)]

    attacks = []
    for r in range(rows):
        for c in range(cols):
            for dr, dc in offsets:
                nr, nc = r + dr, c + dc
                if not (0 <= nr < rows and 0 <= nc < cols):
                    continue
                here, there = cell(r, c), cell(nr, nc)
                if rng.random() < spec.p:
                    attacks.append((here, there))
                    attacks.append((there, here))
                elif rng.random() < 0.5:
                    attacks.append((here, there))
                else:
                    attacks.append((there, here))
    return AF(names, attacks)


def generate(spec: GenSpec) -> AF:
    """Dispatch on spec.kind."""
    if spec.kind == "grid":
        return _grid(spec)
    return _arbitrary(spec)
