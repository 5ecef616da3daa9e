"""Bench harness tests: subprocess runs, timeout booking, CSV, summaries."""
import os
import pathlib
import shlex
import signal
import sys
import time

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
from afkit.solver import SolverConfig, SolverConfigError

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
    # enumerating the conflict-free sets of a 6x10 grid takes seconds, far
    # longer than the 50 ms limit; the child is killed at the limit
    spec = GenSpec(kind="grid", n=6, m=10, p=0.3, seed=1)
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


def _running(pid: int) -> bool:
    """Whether pid names a live process; a zombie (dead, not yet reaped by
    whoever inherited it) is not one."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_external_solver_timeout_is_booked_at_the_limit(tmp_path, monkeypatch):
    pid_file = tmp_path / "stub.pid"
    monkeypatch.setenv("STUB_SOLVER_PID_FILE", str(pid_file))
    record = run_one(small_spec(), "cf", "external:cf",
                     timeout=0.5, solver_config=stub_config("sleep"))
    assert record.status == "timeout"
    assert record.time_ms == pytest.approx(500.0)
    # the kill at the limit takes the solver along; the stub would otherwise
    # sleep on for 10 s.  Allow a moment for the SIGKILL to land.
    pid = int(pid_file.read_text())
    try:
        deadline = time.monotonic() + 2.0
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _running(pid)
    finally:
        if _running(pid):  # the kill missed it: do not leave it sleeping
            os.kill(pid, signal.SIGKILL)


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
    assert len(runs) == 2 * 4 * 2
    grd_runs = [r for r in runs if r[1] == "grd"]
    assert [engine for _, _, engine in grd_runs] == ["native", "external:cf"] * 4
    assert [spec.seed for spec, _, _ in grd_runs] == [100, 100, 101, 101, 102, 102, 103, 103]
    # paired: both engines see the very same instances
    for (spec_a, _, _), (spec_b, _, _) in zip(grd_runs[::2], grd_runs[1::2]):
        assert spec_a == spec_b


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


def test_external_engine_requires_solver_config(monkeypatch):
    for var in ("AFKIT_SOLVER_CMD", "AFKIT_SOLVER_METASP"):
        monkeypatch.delenv(var, raising=False)
    with pytest.raises(SolverConfigError, match="no solver configured"):
        run_bench(kinds=["arbitrary"], sizes=[5], ps=[0.2],
                  semantics=["grd"], engines=["external:cf"], trials=1)


def test_optimization_engine_requires_metasp_capability():
    with pytest.raises(SolverConfigError, match="prf_metasp needs a metasp-capable"):
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


def test_run_one_refuses_an_engine_before_it_forks(monkeypatch):
    def no_fork(*args, **kwargs):
        raise AssertionError("run_one forked a child for an engine it cannot run")
    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(ValueError, match="unknown engine 'clingo'"):
        run_one(small_spec(), "grd", "clingo")
    with pytest.raises(ValueError, match="unknown encoding"):
        run_one(small_spec(), "grd", "external:mystery", solver_config=stub_config("echo"))
    with pytest.raises(SolverConfigError, match="prf_metasp"):
        run_one(small_spec(), "prf", "external:prf_metasp",
                solver_config=stub_config("echo", metasp=False))
    for timeout in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="timeout must be positive and finite"):
            run_one(small_spec(), "grd", "native", timeout=timeout)


# -------------------------------------------------------------- CSV + sums


def sample_records() -> list[BenchRecord]:
    return [
        BenchRecord("arbitrary", 20, None, 0.3, None, 0, "grd", "native",
                    12.5, 1, "ok"),
        BenchRecord("arbitrary", 20, None, 0.3, None, 1, "grd", "native",
                    60000.0, None, "timeout"),
        BenchRecord("grid", 4, 5, 0.3, "orthogonal", 0, "prf", "external:cf",
                    7.25, 3, "ok"),
    ]


def test_csv_round_trip(tmp_path):
    path = tmp_path / "bench.csv"
    error = BenchRecord("grid", 4, 5, 0.3, "orthogonal", 1, "prf", "external:cf",
                        0.0, None, "error", 'SolverError: exit 1, "bad, input"')
    records = sample_records() + [error]
    write_csv(records, str(path))
    text = path.read_text()
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert CSV_COLUMNS[-2:] == ["status", "detail"]
    assert read_csv(str(path)) == records


def test_csv_bytes_are_pinned(tmp_path):
    path = tmp_path / "bench.csv"
    write_csv(sample_records()[:1], str(path))
    assert path.read_bytes() == (
        b"kind,n,m,p,neighborhood,seed,semantics,engine,time_ms,extensions,status,detail\r\n"
        b"arbitrary,20,,0.3,,0,grd,native,12.5,1,ok,\r\n"
    )


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
                        0.0, None, "error")
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
