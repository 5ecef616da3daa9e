"""Benchmark harness: timed solve runs over generated instances, CSV in/out.

Every run happens in a forked child process so a hung or slow solve can be
killed at the time limit; timed-out runs are booked at exactly the limit,
which keeps averages honest when comparing configurations that time out at
different real costs.  Error rows keep the child's error text in detail.
Wall time is measured around the solve call alone — instance generation and
process startup are excluded.

Engines are either "native" (this package's enumeration, argument cap
lifted) or "external:<encoding-id>" (the ASP bridge).  When several engines
are given, trials cycle through them so each engine sees the same seeds.
"""
from __future__ import annotations

import csv
import multiprocessing
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import isqrt
from typing import Iterable, Sequence

from .encodings import EncodingId, emit_job, is_optimization_encoding
from .generators import GenSpec, generate
from .semantics import Semantics, enumerate_extensions
from .solver import SolverConfig, SolverTimeoutError, run_job

CSV_COLUMNS = [
    "kind",
    "n",
    "m",
    "p",
    "neighborhood",
    "seed",
    "semantics",
    "engine",
    "time_ms",
    "extensions",
    "status",
    "jobs",
    "detail",
]

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
    jobs: int
    detail: str = ""

    def size(self) -> int:
        """Total argument count of the instance."""
        return self.n * (self.m or 1)

    def to_row(self) -> list[str]:
        return [
            self.kind,
            str(self.n),
            "" if self.m is None else str(self.m),
            repr(self.p),
            self.neighborhood or "",
            str(self.seed),
            self.semantics,
            self.engine,
            repr(self.time_ms),
            "" if self.extensions is None else str(self.extensions),
            self.status,
            str(self.jobs),
            self.detail,
        ]

    @staticmethod
    def from_row(row: Sequence[str]) -> "BenchRecord":
        if len(row) != len(CSV_COLUMNS):
            raise ValueError(f"expected {len(CSV_COLUMNS)} columns, got {len(row)}")
        record = BenchRecord(
            kind=row[0],
            n=int(row[1]),
            m=int(row[2]) if row[2] else None,
            p=float(row[3]),
            neighborhood=row[4] or None,
            seed=int(row[5]),
            semantics=row[6],
            engine=row[7],
            time_ms=float(row[8]),
            extensions=int(row[9]) if row[9] else None,
            status=row[10],
            jobs=int(row[11]),
            detail=row[12],
        )
        if record.status not in STATUSES:
            raise ValueError(f"unknown status {record.status!r}")
        return record


def _bench_worker(conn, spec: GenSpec, semantics: str, engine: str,
                  timeout: float | None, solver_config: SolverConfig | None) -> None:
    """Child-process body: generate, solve, report (status, time_ms, count)."""
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
            exts = run_job(job, solver_config, timeout=timeout)
            elapsed = time.perf_counter() - start
        conn.send(("ok", elapsed * 1000.0, len(exts)))
    except SolverTimeoutError:
        conn.send(("timeout", None, None))
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
    jobs: int = 1,
) -> BenchRecord:
    """Run one timed solve in a killable child process."""
    sem = Semantics(semantics).value
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_bench_worker,
        args=(child_conn, spec, sem, engine, timeout, solver_config),
    )
    proc.start()
    child_conn.close()

    status = "error"
    time_ms = 0.0
    extensions = None
    detail = ""
    try:
        if parent_conn.poll(timeout):
            outcome, payload, count = parent_conn.recv()
            if outcome == "ok":
                status, time_ms, extensions = "ok", float(payload), int(count)
            elif outcome == "timeout":
                status = "timeout"
                time_ms = (timeout or 0.0) * 1000.0
            else:
                detail = payload
        else:
            status = "timeout"
            time_ms = (timeout or 0.0) * 1000.0
    except EOFError:
        proc.join(5)
        detail = f"child exited without a result (exit code {proc.exitcode})"
    finally:
        parent_conn.close()
        if proc.is_alive():
            proc.terminate()
        proc.join(5)
        if proc.is_alive():
            proc.kill()
            proc.join()

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
        jobs=jobs,
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
    return GenSpec(kind="arbitrary", n=size, p=p, seed=seed)


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
    """The full cross product of configurations, trials cycling engines."""
    runs = []
    for kind in kinds:
        for size in sizes:
            for p in ps:
                for sem in semantics:
                    for trial in range(trials):
                        spec = _spec_for(kind, size, p, neighborhood, base_seed + trial)
                        engine = engines[trial % len(engines)]
                        runs.append((spec, Semantics(sem).value, engine))
    return runs


def _validate_engines(engines: Sequence[str], solver_config: SolverConfig | None) -> None:
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
        if solver_config is None:
            raise ValueError(f"engine {engine!r} needs a configured solver")
        if is_optimization_encoding(encoding) and not solver_config.metasp_capable:
            raise ValueError(
                f"engine {engine!r} needs a metasp-capable solver configuration"
            )


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
    jobs: int = 1,
    solver_config: SolverConfig | None = None,
) -> list[BenchRecord]:
    """Run the whole benchmark plan; one record per run, in plan order."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if timeout is not None and timeout <= 0:
        raise ValueError("timeout must be positive")
    if solver_config is None:
        solver_config = SolverConfig.from_env()
    _validate_engines(engines, solver_config)

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

    def execute(run: tuple[GenSpec, str, str]) -> BenchRecord:
        spec, sem, engine = run
        return run_one(
            spec, sem, engine,
            timeout=timeout, solver_config=solver_config, jobs=jobs,
        )

    if jobs == 1:
        return [execute(run) for run in runs]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(execute, runs))


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
