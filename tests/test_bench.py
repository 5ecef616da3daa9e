"""Bench harness tests: subprocess runs, timeout booking, CSV, summaries."""
import os
import pathlib
import shlex
import sys

import pytest

from afkit import bench
from afkit.bench import (
    BenchRecord,
    CSV_COLUMNS,
    grid_dimensions,
    plan_runs,
    read_csv,
    run_bench,
    run_one,
    summarize,
    write_csv,
)
from afkit.generators import GenSpec
from afkit.solver import SolverConfig

STUB = pathlib.Path(__file__).parent / "stub_solver.py"


def stub_config(mode: str, metasp: bool = False) -> SolverConfig:
    command = f"{shlex.quote(sys.executable)} {shlex.quote(str(STUB))} {mode}"
    return SolverConfig(command=command, metasp_capable=metasp)


def small_spec(seed: int = 0) -> GenSpec:
    return GenSpec(kind="arbitrary", n=6, p=0.3, seed=seed)


# ------------------------------------------------------------- single runs


def test_native_run_ok():
    record = run_one(small_spec(), "grd", "native", timeout=30.0)
    assert record.status == "ok"
    assert record.extensions == 1  # grounded extension is unique
    assert record.time_ms > 0
    assert record.engine == "native"
    assert record.semantics == "grd"
    assert (record.kind, record.n, record.m) == ("arbitrary", 6, None)


def test_timeout_is_booked_at_the_limit():
    # the 534,496 conflict-free sets of a sparse 26-argument instance take
    # far longer than the 50 ms limit to enumerate
    spec = GenSpec(kind="arbitrary", n=26, p=0.05, seed=1)
    record = run_one(spec, "cf", "native", timeout=0.05)
    assert record.status == "timeout"
    assert record.time_ms == pytest.approx(50.0)
    assert record.extensions is None


def test_external_run_ok():
    record = run_one(small_spec(), "cf", "external:cf",
                     timeout=30.0, solver_config=stub_config("echo"))
    assert record.status == "ok"
    assert record.engine == "external:cf"
    assert record.extensions == 1


def test_external_failure_is_an_error_row():
    record = run_one(small_spec(), "cf", "external:cf",
                     timeout=30.0, solver_config=stub_config("fail"))
    assert record.status == "error"
    assert record.extensions is None
    assert record.detail


def test_child_lost_without_a_result_is_an_error_row(monkeypatch):
    def die(spec):
        os._exit(3)

    monkeypatch.setattr(bench, "generate", die)  # the forked child inherits it
    record = run_one(small_spec(), "grd", "native", timeout=30.0)
    assert record.status == "error"
    assert record.detail == "child exited without a result (exit code 3)"


def test_external_solver_timeout_is_booked_at_the_limit():
    record = run_one(small_spec(), "cf", "external:cf",
                     timeout=0.5, solver_config=stub_config("sleep"))
    assert record.status == "timeout"
    assert record.time_ms == pytest.approx(500.0)


# ------------------------------------------------------------ run planning


def test_grid_dimensions():
    assert grid_dimensions(20) == (4, 5)
    assert grid_dimensions(30) == (5, 6)
    assert grid_dimensions(40) == (5, 8)
    assert grid_dimensions(36) == (6, 6)
    assert grid_dimensions(7) == (1, 7)
    assert grid_dimensions(1) == (1, 1)
    with pytest.raises(ValueError):
        grid_dimensions(0)


def test_plan_covers_cross_product_and_cycles_engines():
    runs = plan_runs(
        kinds=["arbitrary"],
        sizes=[6],
        ps=[0.2],
        semantics=["grd", "stb"],
        engines=["native", "external:cf"],
        trials=4,
        base_seed=100,
    )
    assert len(runs) == 2 * 4
    grd_runs = [r for r in runs if r[1] == "grd"]
    assert [engine for _, _, engine in grd_runs] == [
        "native", "external:cf", "native", "external:cf",
    ]
    assert [spec.seed for spec, _, _ in grd_runs] == [100, 101, 102, 103]


def test_plan_grid_sizes_become_rows_and_cols():
    runs = plan_runs(
        kinds=["grid"], sizes=[20], ps=[0.3], semantics=["grd"], trials=1,
        neighborhood="diagonal",
    )
    spec = runs[0][0]
    assert (spec.kind, spec.n, spec.m, spec.neighborhood) == ("grid", 4, 5, "diagonal")


def test_run_bench_end_to_end():
    records = run_bench(
        kinds=["arbitrary", "grid"],
        sizes=[6],
        ps=[0.2],
        semantics=["grd"],
        trials=2,
        timeout=30.0,
    )
    assert len(records) == 4
    assert all(r.status == "ok" for r in records)
    assert all(r.extensions == 1 for r in records)
    assert {r.kind for r in records} == {"arbitrary", "grid"}


def test_run_bench_parallel_jobs():
    records = run_bench(
        kinds=["arbitrary"],
        sizes=[5],
        ps=[0.2],
        semantics=["grd", "stb"],
        trials=2,
        timeout=30.0,
        jobs=2,
    )
    assert len(records) == 4
    assert all(r.jobs == 2 for r in records)
    assert all(r.status == "ok" for r in records)


def test_external_engine_requires_solver_config(monkeypatch):
    for var in ("AFKIT_SOLVER_CMD", "AFKIT_SOLVER_METASP", "AFKIT_SOLVER_CONFIG"):
        monkeypatch.delenv(var, raising=False)
    with pytest.raises(ValueError):
        run_bench(kinds=["arbitrary"], sizes=[5], ps=[0.2],
                  semantics=["grd"], engines=["external:cf"], trials=1)


def test_optimization_engine_requires_metasp_capability():
    with pytest.raises(ValueError):
        run_bench(kinds=["arbitrary"], sizes=[5], ps=[0.2],
                  semantics=["prf"], engines=["external:prf_metasp"],
                  trials=1, solver_config=stub_config("echo", metasp=False))


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        run_bench(kinds=["arbitrary"], sizes=[5], ps=[0.2],
                  semantics=["grd"], engines=["clingo"], trials=1)
    with pytest.raises(ValueError):
        run_bench(kinds=["arbitrary"], sizes=[5], ps=[0.2],
                  semantics=["grd"], engines=["external:mystery"], trials=1,
                  solver_config=stub_config("echo"))


# -------------------------------------------------------------- CSV + sums


def sample_records() -> list[BenchRecord]:
    return [
        BenchRecord("arbitrary", 20, None, 0.3, None, 0, "grd", "native",
                    12.5, 1, "ok", 1),
        BenchRecord("arbitrary", 20, None, 0.3, None, 1, "grd", "native",
                    60000.0, None, "timeout", 1),
        BenchRecord("grid", 4, 5, 0.3, "orthogonal", 0, "prf", "external:cf",
                    7.25, 3, "ok", 2),
    ]


def test_csv_round_trip(tmp_path):
    path = tmp_path / "bench.csv"
    error = BenchRecord("grid", 4, 5, 0.3, "orthogonal", 1, "prf", "external:cf",
                        0.0, None, "error", 2, 'SolverError: exit 1, "bad, input"')
    records = sample_records() + [error]
    write_csv(records, str(path))
    text = path.read_text()
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert CSV_COLUMNS[-3:] == ["status", "jobs", "detail"]
    assert read_csv(str(path)) == records


def test_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_csv(str(path))


def test_record_row_round_trip_rejects_bad_status():
    row = sample_records()[0].to_row()
    row[10] = "exploded"
    with pytest.raises(ValueError):
        BenchRecord.from_row(row)


def test_summarize_books_timeouts_into_means():
    error = BenchRecord("arbitrary", 20, None, 0.3, None, 2, "grd", "native",
                        0.0, None, "error", 1)
    rows = summarize(sample_records() + [error])
    assert len(rows) == 2
    arbitrary = next(r for r in rows if r["kind"] == "arbitrary")
    assert arbitrary["size"] == 20
    assert arbitrary["runs"] == 3
    assert arbitrary["ok"] == 1
    assert arbitrary["timeouts"] == 1
    assert arbitrary["errors"] == 1
    # the error row is counted but does not pull the mean down
    assert arbitrary["mean_time_ms"] == pytest.approx((12.5 + 60000.0) / 2)
    grid = next(r for r in rows if r["kind"] == "grid")
    assert grid["size"] == 20  # 4 rows x 5 cols
    assert grid["engine"] == "external:cf"
