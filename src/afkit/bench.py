"""Benchmark harness: timed solve runs over generated instances, CSV in/out.

Runs go one at a time, each in a forked child process that leads its own
process group.  The parent's wait for the child's result is the only
deadline: at the limit the parent kills the whole group, the child and any
solver it started, and books the run at exactly the limit, which keeps
averages honest when comparing configurations that time out at different
real costs.  Error rows keep the child's error text in detail.  Wall time is
measured around the solve call alone — instance generation and process
startup are excluded.

Engines are either "native" (this package's enumeration, argument cap
lifted) or "external:<encoding-id>" (the ASP bridge).  Trial t runs seed
base_seed + t on every engine, so engines are compared on the same instances.
"""
from __future__ import annotations

import csv
import os
import signal
import time
from dataclasses import Field, astuple, dataclass, fields
from math import inf, isqrt
from typing import Iterable, Sequence

from .encodings import EncodingId, emit_job
from .generators import GenSpec, generate
from .semantics import Semantics, enumerate_extensions
from .solver import SolverConfig, require_solver, run_job

STATUSES = ("ok", "timeout", "error")


@dataclass(frozen=True)
class BenchRecord:
    """One timed solve; spec fields plus outcome.  detail holds the reason
    for an error row, empty otherwise."""

    kind: str
    n: int
    m: int | None
    p: float
    neighborhood: str | None
    seed: int
    semantics: str
    engine: str
    time_ms: float
    extensions: int | None
    status: str
    detail: str = ""

    def size(self) -> int:
        """Total argument count of the instance."""
        return self.n * (self.m or 1)

    def to_row(self) -> list[str]:
        return ["" if v is None else str(v) for v in astuple(self)]

    @staticmethod
    def from_row(row: Sequence[str]) -> "BenchRecord":
        if len(row) != len(CSV_COLUMNS):
            raise ValueError(f"expected {len(CSV_COLUMNS)} columns, got {len(row)}")
        record = BenchRecord(*map(_cell, fields(BenchRecord), row))
        if record.status not in STATUSES:
            raise ValueError(f"unknown status {record.status!r}")
        return record


CSV_COLUMNS = [f.name for f in fields(BenchRecord)]

_PARSE = {"int": int, "float": float, "str": str}


def _cell(field: Field, text: str):
    """One CSV cell parsed by its field's annotation; an empty cell of an
    optional (X | None) field is None."""
    kind = field.type.removesuffix(" | None")
    if not text and kind != field.type:
        return None
    return _PARSE[kind](text)


def _bench_worker(conn, spec: GenSpec, semantics: str, engine: str,
                  solver_config: SolverConfig | None) -> None:
    """Child-process body: generate, solve, report (status, time_ms, count)."""
    os.setpgid(0, 0)  # so that the parent's kill takes any solver along
    try:
        af = generate(spec)
        if engine == "native":
            start = time.perf_counter()
            exts = enumerate_extensions(af, semantics, max_args=None)
            elapsed = time.perf_counter() - start
        else:
            encoding = engine.split(":", 1)[1]
            job = emit_job(af, encoding)
            start = time.perf_counter()
            exts = run_job(job, solver_config)
            elapsed = time.perf_counter() - start
        conn.send(("ok", elapsed * 1000.0, len(exts)))
    except Exception as exc:  # report everything; the parent books an error row
        conn.send(("error", f"{type(exc).__name__}: {exc}", None))
    finally:
        conn.close()


def run_one(
    spec: GenSpec,
    semantics: Semantics | str,
    engine: str = "native",
    *,
    timeout: float | None = None,
    solver_config: SolverConfig | None = None,
) -> BenchRecord:
    """Run one timed solve in a child process group killed at the limit.
    An engine that cannot run, or a timeout that is not positive and finite,
    is refused here, before the fork."""
    import multiprocessing  # here, so that importing afkit stays light

    sem = Semantics(semantics).value
    solver_config = _validate([engine], timeout, solver_config)
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_bench_worker,
        args=(child_conn, spec, sem, engine, solver_config),
    )
    proc.start()
    # set from both sides, so the group exists whichever runs first
    os.setpgid(proc.pid, proc.pid)
    child_conn.close()

    status = "error"
    time_ms = 0.0
    extensions = None
    lost = False
    detail = ""
    try:
        if parent_conn.poll(timeout):
            outcome, payload, count = parent_conn.recv()
            if outcome == "ok":
                status, time_ms, extensions = "ok", float(payload), int(count)
            else:
                detail = payload
        else:
            status = "timeout"
            time_ms = timeout * 1000.0
    except EOFError:
        lost = True
    finally:
        parent_conn.close()
        os.killpg(proc.pid, signal.SIGKILL)
        proc.join()
    if lost:
        detail = f"child exited without a result (exit code {proc.exitcode})"

    return BenchRecord(
        kind=spec.kind,
        n=spec.n,
        m=spec.m,
        p=spec.p,
        neighborhood=spec.neighborhood if spec.kind == "grid" else None,
        seed=spec.seed,
        semantics=sem,
        engine=engine,
        time_ms=time_ms,
        extensions=extensions,
        status=status,
        detail=detail,
    )


def grid_dimensions(size: int) -> tuple[int, int]:
    """Split a total argument count into (rows, cols), rows <= cols.

    Rows is the largest divisor of size not exceeding its square root, so
    the grid is as square as the factorization allows (primes fall back to
    a single row).
    """
    if size < 1:
        raise ValueError(f"grid size must be >= 1, got {size}")
    for rows in range(isqrt(size), 0, -1):
        if size % rows == 0:
            return rows, size // rows
    return 1, size


def _spec_for(kind: str, size: int, p: float, neighborhood: str, seed: int) -> GenSpec:
    if kind == "grid":
        rows, cols = grid_dimensions(size)
        return GenSpec(kind="grid", n=rows, m=cols, p=p,
                       neighborhood=neighborhood, seed=seed)
    return GenSpec(kind=kind, n=size, p=p, seed=seed)


def plan_runs(
    *,
    kinds: Sequence[str],
    sizes: Sequence[int],
    ps: Sequence[float],
    semantics: Sequence[Semantics | str],
    engines: Sequence[str] = ("native",),
    trials: int = 1,
    neighborhood: str = "orthogonal",
    base_seed: int = 0,
) -> list[tuple[GenSpec, str, str]]:
    """The full cross product of configurations, trials and engines: trial t
    runs seed base_seed + t once on each engine, in the order given."""
    runs = []
    for kind in kinds:
        for size in sizes:
            for p in ps:
                for sem in semantics:
                    for trial in range(trials):
                        spec = _spec_for(kind, size, p, neighborhood, base_seed + trial)
                        for engine in engines:
                            runs.append((spec, Semantics(sem).value, engine))
    return runs


def _validate(
    engines: Sequence[str], timeout: float | None, solver_config: SolverConfig | None
) -> SolverConfig | None:
    """Refuse a timeout other than None or a positive finite number and
    unknown engines (ValueError), and external engines the solver cannot run
    (SolverConfigError); return the solver config the runs use, read from
    the environment only when some engine is external."""
    if timeout is not None and not 0 < timeout < inf:
        raise ValueError("timeout must be positive and finite")
    if not engines:
        raise ValueError("need at least one engine")
    for engine in engines:
        if engine == "native":
            continue
        if not engine.startswith("external:"):
            raise ValueError(f"unknown engine {engine!r}")
        encoding = engine.split(":", 1)[1]
        try:
            EncodingId(encoding)
        except ValueError:
            raise ValueError(f"unknown encoding in engine {engine!r}") from None
        solver_config = require_solver(solver_config, encoding)
    return solver_config


def run_bench(
    *,
    kinds: Sequence[str],
    sizes: Sequence[int],
    ps: Sequence[float],
    semantics: Sequence[Semantics | str],
    engines: Sequence[str] = ("native",),
    trials: int = 1,
    timeout: float | None = None,
    neighborhood: str = "orthogonal",
    base_seed: int = 0,
    solver_config: SolverConfig | None = None,
) -> list[BenchRecord]:
    """Run the whole benchmark plan, one run at a time; one record per run,
    in plan order.  Every engine and the timeout are checked before the first
    run."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    solver_config = _validate(engines, timeout, solver_config)

    runs = plan_runs(
        kinds=kinds,
        sizes=sizes,
        ps=ps,
        semantics=semantics,
        engines=engines,
        trials=trials,
        neighborhood=neighborhood,
        base_seed=base_seed,
    )
    return [
        run_one(spec, sem, engine, timeout=timeout, solver_config=solver_config)
        for spec, sem, engine in runs
    ]


def write_csv(records: Iterable[BenchRecord], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for record in records:
            writer.writerow(record.to_row())


def read_csv(path: str) -> list[BenchRecord]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header {header!r}")
        return [BenchRecord.from_row(row) for row in reader if row]


def summarize(records: Iterable[BenchRecord]) -> list[dict]:
    """Per (kind, semantics, engine, total size) counts and mean times; the
    means leave error rows out (NaN when a group has nothing else)."""
    groups: dict[tuple, list[BenchRecord]] = {}
    for record in records:
        groups.setdefault(
            (record.kind, record.semantics, record.engine, record.size()), []
        ).append(record)
    rows = []
    for (kind, sem, engine, size), group in sorted(groups.items()):
        timed = [r.time_ms for r in group if r.status != "error"]
        rows.append(
            {
                "kind": kind,
                "semantics": sem,
                "engine": engine,
                "size": size,
                "runs": len(group),
                "ok": sum(1 for r in group if r.status == "ok"),
                "timeouts": sum(1 for r in group if r.status == "timeout"),
                "errors": sum(1 for r in group if r.status == "error"),
                "mean_time_ms": sum(timed) / len(timed) if timed else float("nan"),
            }
        )
    return rows
