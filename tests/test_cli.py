"""CLI tests: tasks, formats, exit codes, gen/emit/bench subcommands."""
import ast
import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import afkit
from afkit.bench import read_csv
from afkit.cli import build_parser, main
from afkit.core import parse_apx, serialize_apx
from afkit.semantics import ExtensionSet, verify

from conftest import make_af6


@pytest.fixture
def af6_file(tmp_path):
    path = tmp_path / "demo.apx"
    path.write_text(serialize_apx(make_af6()))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ solve


def test_ee_lines_stable(af6_file, capsys):
    code, out, _ = run_cli(capsys, "solve", "--input", af6_file,
                           "--semantics", "stb", "--task", "EE")
    assert code == 0
    assert out == "a,c,f\na,d,f\n"


def test_ee_count(af6_file, capsys):
    code, out, _ = run_cli(capsys, "solve", "--input", af6_file,
                           "--semantics", "grd", "--task", "EE",
                           "--format", "count")
    assert code == 0
    assert out == "1\n"


def test_ee_count_builds_no_names(af6_file, capsys, monkeypatch):
    def no_names(self):
        raise AssertionError("--format count built the extensions' names")

    monkeypatch.setattr(ExtensionSet, "names", no_names)
    code, out, err = run_cli(capsys, "solve", "--input", af6_file,
                             "--semantics", "com", "--task", "EE",
                             "--format", "count")
    assert (code, out, err) == (0, "3\n", "")


def test_ee_json(af6_file, capsys):
    code, out, _ = run_cli(capsys, "solve", "--input", af6_file,
                           "--semantics", "prf", "--task", "EE",
                           "--format", "json")
    assert code == 0
    assert out.strip() == '[["a", "c", "f"], ["a", "d", "f"]]'


def test_ee_no_extensions_prints_nothing(tmp_path, capsys):
    path = tmp_path / "cycle3.apx"
    path.write_text(
        "arg(x).\narg(y).\narg(z).\n"
        "defeat(x,y).\ndefeat(y,z).\ndefeat(z,x).\n"
    )
    code, out, _ = run_cli(capsys, "solve", "--input", str(path),
                           "--semantics", "stb", "--task", "EE")
    assert code == 0
    assert out == ""


def test_credulous_yes(af6_file, capsys):
    code, out, _ = run_cli(capsys, "solve", "--input", af6_file,
                           "--semantics", "prf", "--task", "CA", "--arg", "a")
    assert code == 0
    assert out == "YES\n"


def test_skeptical_no(af6_file, capsys):
    # c is in one preferred extension but not the other
    code, out, _ = run_cli(capsys, "solve", "--input", af6_file,
                           "--semantics", "prf", "--task", "SA", "--arg", "c")
    assert code == 1
    assert out == "NO\n"


def test_verify_yes_and_no(af6_file, capsys):
    code, out, _ = run_cli(capsys, "solve", "--input", af6_file,
                           "--semantics", "stb", "--task", "VER",
                           "--set", "a,c,f")
    assert (code, out) == (0, "YES\n")
    code, out, _ = run_cli(capsys, "solve", "--input", af6_file,
                           "--semantics", "stb", "--task", "VER",
                           "--set", "a,b")
    assert (code, out) == (1, "NO\n")


def test_verify_empty_set(af6_file, capsys):
    code, out, _ = run_cli(capsys, "solve", "--input", af6_file,
                           "--semantics", "cf", "--task", "VER", "--set", "")
    assert (code, out) == (0, "YES\n")


def test_missing_arg_flag_is_usage_error(af6_file, capsys):
    code, _, err = run_cli(capsys, "solve", "--input", af6_file,
                           "--semantics", "prf", "--task", "CA")
    assert code == 2
    assert "--arg" in err


def test_missing_set_flag_is_usage_error(af6_file, capsys):
    code, _, err = run_cli(capsys, "solve", "--input", af6_file,
                           "--semantics", "prf", "--task", "VER")
    assert code == 2
    assert "--set" in err


def test_unknown_semantics_is_usage_error(af6_file, capsys):
    code = main(["solve", "--input", af6_file,
                 "--semantics", "weird", "--task", "EE"])
    assert code == 2


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "solve", "--input", "/nonexistent.apx",
                           "--semantics", "grd", "--task", "EE")
    assert code == 3
    assert "cannot read" in err


def test_malformed_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.apx"
    path.write_text("arg(a).\ndefeat(a,zz).\n")
    code, _, err = run_cli(capsys, "solve", "--input", str(path),
                           "--semantics", "grd", "--task", "EE")
    assert code == 3
    assert "line 2" in err


def test_non_utf8_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "latin.apx"
    path.write_bytes(b"arg(a).\narg(\xff).\n")
    for argv in (("solve", "--semantics", "grd", "--task", "EE"),
                 ("emit", "--encoding", "adm")):
        code, _, err = run_cli(capsys, *argv, "--input", str(path))
        assert code == 3
        assert "internal" not in err


def test_unknown_argument_name_is_input_error(af6_file, capsys):
    code, _, _ = run_cli(capsys, "solve", "--input", af6_file,
                         "--semantics", "prf", "--task", "CA", "--arg", "zz")
    assert code == 3
    code, _, _ = run_cli(capsys, "solve", "--input", af6_file,
                         "--semantics", "prf", "--task", "VER", "--set", "a,zz")
    assert code == 3


def test_enumeration_cap_exit_code(tmp_path, capsys):
    big = tmp_path / "big.apx"
    main(["gen", "--kind", "arbitrary", "--n", "30", "--p", "0",
          "--output", str(big)])
    capsys.readouterr()
    code, _, err = run_cli(capsys, "solve", "--input", str(big),
                           "--semantics", "prf", "--task", "EE")
    assert code == 4
    assert "cap" in err.lower()
    # lifting the cap makes the same call succeed
    code, out, _ = run_cli(capsys, "solve", "--input", str(big),
                           "--semantics", "prf", "--task", "EE",
                           "--format", "count", "--max-args", "0")
    assert (code, out) == (0, "1\n")


def test_negative_max_args_is_usage_error(af6_file, capsys):
    code, out, err = run_cli(capsys, "solve", "--input", af6_file,
                             "--semantics", "grd", "--task", "EE",
                             "--max-args", "-1")
    assert (code, out) == (2, "")
    assert "--max-args" in err


def test_internal_error_exit_code(af6_file, capsys, monkeypatch):
    def broken(*_args, **_kwargs):
        raise RuntimeError("engine fault")

    monkeypatch.setattr("afkit.cli.enumerate_extensions", broken)
    code, out, err = run_cli(capsys, "solve", "--input", af6_file,
                             "--semantics", "prf", "--task", "EE")
    assert code == 5  # never 1, which would read as a NO answer
    assert out == ""
    assert err == "error: internal: RuntimeError: engine fault\n"


def test_stable_on_a_large_sparse_grid(tmp_path, capsys):
    # 1200 arguments: deeper than the interpreter's recursion limit
    path = tmp_path / "grid.apx"
    main(["gen", "--kind", "grid", "--n", "30", "--m", "40", "--p", "0",
          "--seed", "1", "--output", str(path)])
    capsys.readouterr()
    af = parse_apx(path.read_text())
    assert af.n == 1200
    code, out, _ = run_cli(capsys, "solve", "--input", str(path),
                           "--semantics", "stb", "--task", "EE", "--max-args", "0")
    assert code == 0
    exts = [af.argset(line.split(",")) for line in out.splitlines()]
    assert len(set(exts)) == len(exts) > 0
    assert all(verify(af, "stb", e) for e in exts)
    accepted = set().union(*(af.names(e) for e in exts))
    rejected = sorted(a.name for a in af.args if a.name not in accepted)
    assert rejected
    for name, expected in ((min(accepted), 0), (rejected[0], 1)):
        code, out, _ = run_cli(capsys, "solve", "--input", str(path),
                               "--semantics", "stb", "--task", "CA", "--arg", name)
        assert (code, out) == (expected, "YES\n" if expected == 0 else "NO\n")


# -------------------------------------------------------------------- gen


def test_gen_to_stdout_is_deterministic(capsys):
    argv = ["gen", "--kind", "arbitrary", "--n", "6", "--p", "0.4",
            "--seed", "9"]
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    code, second, _ = run_cli(capsys, *argv)
    assert first == second
    assert "arg(a1).\n" in first


def test_gen_to_file_prints_path(tmp_path, capsys):
    out = tmp_path / "inst.apx"
    code, printed, _ = run_cli(capsys, "gen", "--kind", "grid", "--n", "2",
                               "--m", "2", "--p", "1", "--output", str(out))
    assert code == 0
    assert printed.strip() == str(out)
    assert out.read_text().count("defeat(") == 8


def test_gen_invalid_spec_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "gen", "--kind", "grid", "--n", "3")
    assert code == 2
    assert "m" in err


# ------------------------------------------------------------------- emit


def test_emit_program_only(capsys):
    code, out, _ = run_cli(capsys, "emit", "--encoding", "cf",
                           "--program-only")
    assert code == 0
    assert "in(X) :- not out(X), arg(X)." in out
    assert "arg(a)." not in out


def test_emit_full_job(af6_file, capsys):
    code, out, _ = run_cli(capsys, "emit", "--encoding", "prf_metasp",
                           "--input", af6_file)
    assert code == 0
    assert "arg(a).\n" in out
    assert "optimize(1,1,incl)." in out
    assert "#minimize[out]." in out


def test_emit_instance_only(af6_file, capsys):
    code, out, _ = run_cli(capsys, "emit", "--encoding", "cf",
                           "--input", af6_file, "--instance-only")
    assert code == 0
    assert out == serialize_apx(make_af6())


def test_emit_without_input_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "emit", "--encoding", "cf")
    assert code == 2
    assert "--input" in err


def test_emit_unknown_encoding_is_usage_error(af6_file):
    code = main(["emit", "--encoding", "mystery", "--input", af6_file])
    assert code == 2


def test_emit_to_file(tmp_path, af6_file, capsys):
    out = tmp_path / "job.lp"
    code, printed, _ = run_cli(capsys, "emit", "--encoding", "adm",
                               "--input", af6_file, "--output", str(out))
    assert code == 0
    assert printed.strip() == str(out)
    assert "defeated(X) :- in(Y), att(Y,X)." in out.read_text()


# ------------------------------------------------------------------ bench


def test_bench_run_and_summarize(tmp_path, capsys):
    csv_path = tmp_path / "runs.csv"
    code, printed, _ = run_cli(
        capsys, "bench", "run", "--kinds", "arbitrary,grid", "--sizes", "6",
        "--p", "0.2", "--semantics", "grd", "--trials", "2",
        "--timeout", "30", "--output", str(csv_path),
    )
    assert code == 0
    assert printed.strip() == str(csv_path)
    records = read_csv(str(csv_path))
    assert len(records) == 4
    assert all(r.status == "ok" for r in records)

    code, out, _ = run_cli(capsys, "bench", "summarize",
                           "--input", str(csv_path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("kind\tsemantics")
    assert len(lines) == 3  # header + one row per kind


def test_bench_usage_error_for_unknown_engine(capsys):
    code, _, err = run_cli(capsys, "bench", "run", "--sizes", "5",
                           "--semantics", "grd", "--engines", "warp")
    assert code == 2
    assert "engine" in err


def test_bench_run_refuses_an_unknown_kind(tmp_path, capsys):
    csv_path = tmp_path / "runs.csv"
    code, out, err = run_cli(capsys, "bench", "run", "--kinds", "grdi", "--sizes", "4",
                             "--semantics", "grd", "--output", str(csv_path))
    assert (code, out) == (2, "")
    assert "unknown generator kind 'grdi'" in err
    assert not csv_path.exists()


@pytest.mark.parametrize("timeout", ["inf", "1e400", "nan"])
def test_bench_run_refuses_a_timeout_that_is_not_finite(timeout, tmp_path, capsys):
    csv_path = tmp_path / "runs.csv"
    code, out, err = run_cli(capsys, "bench", "run", "--sizes", "4", "--semantics", "grd",
                             "--timeout", timeout, "--output", str(csv_path))
    assert (code, out) == (2, "")
    assert "timeout must be positive and finite" in err
    assert not csv_path.exists()


BAD_SOLVER_ENV = {
    "metasp": ("AFKIT_SOLVER_METASP", "maybe", "AFKIT_SOLVER_METASP='maybe'"),
    "blank": ("AFKIT_SOLVER_CMD", "   ", "solver command is empty"),
    "unparsable": ("AFKIT_SOLVER_CMD", 'clingo "x', "cannot parse solver command"),
}


@pytest.mark.parametrize("setting", BAD_SOLVER_ENV.values(), ids=BAD_SOLVER_ENV)
def test_native_bench_run_ignores_the_solver_environment(setting, tmp_path,
                                                         capsys, monkeypatch):
    var, value, _ = setting
    monkeypatch.setenv(var, value)
    csv_path = tmp_path / "runs.csv"
    code, _, err = run_cli(capsys, "bench", "run", "--sizes", "4",
                           "--semantics", "grd", "--output", str(csv_path))
    assert (code, err) == (0, "")
    assert [r.status for r in read_csv(str(csv_path))] == ["ok"]


@pytest.mark.parametrize("setting", BAD_SOLVER_ENV.values(), ids=BAD_SOLVER_ENV)
def test_external_bench_run_with_a_bad_solver_config_is_usage_error(
        setting, tmp_path, capsys, monkeypatch):
    var, value, message = setting
    monkeypatch.setenv(var, value)
    code, out, err = run_cli(capsys, "bench", "run", "--sizes", "4",
                             "--semantics", "grd", "--engines", "external:cf",
                             "--output", str(tmp_path / "runs.csv"))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "runs.csv").exists()


UNRUNNABLE_ENGINE = {
    "metasp": ({"AFKIT_SOLVER_CMD": "clingo {input}"}, "external:prf_metasp",
               "prf_metasp needs a metasp-capable solver"),
    "none": ({}, "external:cf", "no solver configured"),
}


@pytest.mark.parametrize("setting", UNRUNNABLE_ENGINE.values(), ids=UNRUNNABLE_ENGINE)
def test_bench_run_refuses_an_engine_the_solver_cannot_run(setting, tmp_path,
                                                           capsys, monkeypatch):
    env, engine, message = setting
    for var in ("AFKIT_SOLVER_CMD", "AFKIT_SOLVER_METASP"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    code, out, err = run_cli(capsys, "bench", "run", "--sizes", "4",
                             "--semantics", "prf", "--engines", engine,
                             "--output", str(tmp_path / "runs.csv"))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "runs.csv").exists()


def test_bench_summarize_missing_file(capsys):
    code, _, _ = run_cli(capsys, "bench", "summarize",
                         "--input", "/nonexistent.csv")
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "arbitrary", "--n", "4"],
    ["emit", "--encoding", "cf", "--program-only"],
    ["bench", "run", "--sizes", "4", "--semantics", "grd"],
], ids=["gen", "emit", "bench-run"])
def test_unwritable_output_is_input_error(argv, tmp_path, capsys):
    # bench run finds out only when it writes its CSV, after the plan has run
    path = tmp_path / "missing" / "out"
    code, out, err = run_cli(capsys, *argv, "--output", str(path))
    assert (code, out) == (3, "")
    assert err.startswith(f"error: cannot write {path}: ")


# ---------------------------------------------------------------- plumbing


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"],
                                  ["solve", "--task", "XX"]],
                         ids=["help", "solve-help", "usage-error"])
def test_shared_parser_prints_what_a_fresh_one_prints(argv, af6_file, capsys):
    # main builds its parser once; after other calls have used it, help and
    # usage errors must read byte for byte as from a newly built parser
    assert build_parser() is build_parser()
    run_cli(capsys, "solve", "--input", af6_file, "--semantics", "grd",
            "--task", "CA", "--arg", "a")
    shared = run_cli(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        build_parser.__wrapped__().parse_args(argv)
    captured = capsys.readouterr()
    assert shared == (exc.value.code, captured.out, captured.err)
    assert shared[1 if argv[-1] == "--help" else 2].startswith("usage: afkit")


def test_consecutive_calls_share_no_state(af6_file, capsys):
    solve = ("solve", "--input", af6_file, "--semantics", "stb")
    assert run_cli(capsys, *solve, "--task", "EE", "--format", "count")[:2] == (0, "2\n")
    assert run_cli(capsys, *solve, "--task", "EE")[:2] == (0, "a,c,f\na,d,f\n")
    assert run_cli(capsys, *solve, "--task", "CA", "--arg", "a")[:2] == (0, "YES\n")
    code, _, err = run_cli(capsys, *solve, "--task", "CA")
    assert code == 2 and "--arg" in err
    assert run_cli(capsys, "gen", "--kind", "grid", "--n", "1", "--m", "2",
                   "--p", "0")[:2] == (
        0, "arg(a1_1).\narg(a1_2).\ndefeat(a1_1,a1_2).\n")


def _child_env() -> dict:
    """The environment for a child Python, which does not inherit pytest's
    pythonpath setting: this checkout's src/ first on PYTHONPATH."""
    src_dir = Path(afkit.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src_dir), env.get("PYTHONPATH")) if p)
    return env


def test_module_entrypoint_help():
    proc = subprocess.run(
        [sys.executable, "-m", "afkit.cli", "--help"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0
    assert "solve" in proc.stdout


def test_import_loads_no_heavy_modules():
    # numpy (the generators' PCG64) and multiprocessing (the bench's child
    # processes) load only when used, and concurrent.futures not at all, so
    # a cold `afkit solve` does not pay for them
    heavy = ("numpy", "multiprocessing", "concurrent.futures")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, afkit, afkit.cli\n"
         f"print(*[m for m in {heavy!r} if m in sys.modules])"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_public_names_resolve():
    # every exported name is one that afkit/__init__.py imports, and no more
    tree = ast.parse(Path(afkit.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert len(set(afkit.__all__)) == len(afkit.__all__)
    for name in afkit.__all__:
        assert hasattr(afkit, name), name
        assert name in imported, name


def _declared_scripts():
    """The ``[project.scripts]`` table of the repository's pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def test_console_script_installed(tmp_path):
    # Checks the declared entry point without installing the package: the
    # wrapper below is what pip writes for a console script, minus its
    # argv[0] clean-up.
    target = _declared_scripts().get("afkit")
    assert target == "afkit.cli:main"
    module_name, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module_name), attr, None)
    assert callable(entry), f"{target} is not a callable"

    script = tmp_path / "afkit"
    script.write_text(
        "import sys\n"
        f"from {module_name} import {attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n"
    )
    proc = subprocess.run([sys.executable, str(script), "--help"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: afkit")


@pytest.mark.skipif(shutil.which("afkit") is None,
                    reason="afkit console script not installed")
def test_installed_console_script_runs():
    proc = subprocess.run([shutil.which("afkit"), "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: afkit")
