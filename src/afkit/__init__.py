"""afkit: abstract argumentation frameworks — solving, encoding, benchmarks.

The pieces:

* core — AF/ArgSet data model, APX parsing and serialization, SCCs.
* semantics — extension enumeration and decision procedures for nine
  semantics, plus an independent brute-force oracle.
* resolution — resolution-based grounded semantics: naive and recursive
  engines, verification with optional recursion traces.
* encodings — ASP program emitter for the nine solver encodings.
* solver — bridge to an external gringo/clasp-style solver.
* generators — seeded random instance families (arbitrary, grid).
* bench — timed runs, CSV records, summaries.
* cli — the `afkit` command.
"""

from .core import (
    AF,
    ApxError,
    Argument,
    ArgSet,
    is_conflict_free,
    parse_apx,
    restrict,
    sccs,
    serialize_apx,
)
from .semantics import (
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
from .resolution import (
    RbgFrame,
    grd_star,
    grd_star_naive,
    minimal_relevant,
    mutual_pairs,
    verify_grd_star,
)
from .encodings import (
    AspJob,
    EncodingId,
    emit_encoding,
    emit_job,
    is_optimization_encoding,
)
from .solver import (
    SolverConfig,
    SolverConfigError,
    SolverError,
    SolverOutputError,
    SolverRunError,
    SolverTimeoutError,
    run_job,
)
from .generators import GenSpec, generate
from .bench import BenchRecord, grid_dimensions, read_csv, run_bench, run_one, summarize, write_csv

__version__ = "0.1.0"

__all__ = [
    "AF",
    "ApxError",
    "Argument",
    "ArgSet",
    "AspJob",
    "BenchRecord",
    "DEFAULT_SEARCH_CAP",
    "EncodingId",
    "ExtensionSet",
    "GenSpec",
    "RbgFrame",
    "SearchCapError",
    "Semantics",
    "SolverConfig",
    "SolverConfigError",
    "SolverError",
    "SolverOutputError",
    "SolverRunError",
    "SolverTimeoutError",
    "brute_force",
    "credulous",
    "emit_encoding",
    "emit_job",
    "enumerate_extensions",
    "generate",
    "grd_star",
    "grd_star_naive",
    "grid_dimensions",
    "grounded",
    "is_conflict_free",
    "is_optimization_encoding",
    "minimal_relevant",
    "mutual_pairs",
    "parse_apx",
    "read_csv",
    "restrict",
    "run_bench",
    "run_job",
    "run_one",
    "sccs",
    "serialize_apx",
    "skeptical",
    "summarize",
    "verify",
    "verify_grd_star",
    "write_csv",
]
