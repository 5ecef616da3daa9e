"""Bridge tests against a scripted stand-in solver (no real ASP system)."""
import pathlib
import shlex
import sys

import pytest

from afkit.encodings import emit_job
from afkit.solver import (
    SolverConfig,
    SolverConfigError,
    SolverOutputError,
    SolverRunError,
    parse_answer_sets,
    run_job,
    run_program,
)

from conftest import make_af6

STUB = pathlib.Path(__file__).parent / "stub_solver.py"


def stub_config(mode: str, use_file: bool = False, metasp: bool = False) -> SolverConfig:
    command = f"{shlex.quote(sys.executable)} {shlex.quote(str(STUB))} {mode}"
    if use_file:
        command += " {input}"
    return SolverConfig(command=command, metasp_capable=metasp)


# ---------------------------------------------------------------- parsing


def test_parse_two_answers_extracts_only_in_atoms():
    output = (
        "clasp version x\n"
        "Answer: 1\n"
        "in(c) in(a) arg(b) out(d)\n"
        "Answer: 2\n"
        "in(b)\n"
        "SATISFIABLE\n"
    )
    assert parse_answer_sets(output) == [
        frozenset({"a", "c"}),
        frozenset({"b"}),
    ]


def test_parse_unsat_is_empty_list():
    assert parse_answer_sets("Solving...\nUNSATISFIABLE\n") == []


def test_parse_empty_model_line():
    assert parse_answer_sets("Answer: 1\n\nSATISFIABLE\n") == [frozenset()]


def test_parse_optimum_found_status():
    out = "Answer: 1\nin(a)\nOPTIMUM FOUND\n"
    assert parse_answer_sets(out) == [frozenset({"a"})]


def test_parse_garbage_raises():
    with pytest.raises(SolverOutputError):
        parse_answer_sets("hello world\n")


def test_parse_trailing_marker_raises():
    with pytest.raises(SolverOutputError):
        parse_answer_sets("Answer: 1")


# ---------------------------------------------------------------- plumbing


def test_echo_roundtrip_via_stdin():
    af = make_af6()
    job = emit_job(af, "cf")
    result = run_job(job, stub_config("echo"))
    # the echo stub accepts every declared argument
    assert len(result) == 1
    assert result.names() == [("a", "b", "c", "d", "e", "f")]


def test_echo_roundtrip_via_input_file():
    af = make_af6()
    job = emit_job(af, "adm")
    result = run_job(job, stub_config("echo", use_file=True))
    assert result.names() == [("a", "b", "c", "d", "e", "f")]


def test_models_come_back_in_canonical_order():
    af = make_af6()
    job = emit_job(af, "cf")
    result = run_job(job, stub_config("two"))
    # stub answers {a,c} before {b}, but {b} has the smaller bitmask
    assert result.names() == [("b",), ("a", "c")]


def test_duplicate_models_are_collapsed():
    result = run_job(emit_job(make_af6(), "cf"), stub_config("dup"))
    assert result.names() == [("a",)]


def test_unsat_means_no_extensions():
    result = run_job(emit_job(make_af6(), "cf"), stub_config("unsat"))
    assert len(result) == 0


def test_empty_model_is_the_empty_extension():
    result = run_job(emit_job(make_af6(), "cf"), stub_config("empty"))
    assert result.names() == [()]


def test_garbage_output_raises():
    with pytest.raises(SolverOutputError):
        run_job(emit_job(make_af6(), "cf"), stub_config("garbage"))


def test_model_with_unknown_argument_raises():
    with pytest.raises(SolverOutputError):
        run_job(emit_job(make_af6(), "cf"), stub_config("alien"))


def test_nonzero_exit_code_raises():
    with pytest.raises(SolverRunError) as excinfo:
        run_job(emit_job(make_af6(), "cf"), stub_config("fail"))
    assert "stub exploded" in str(excinfo.value)


def test_missing_binary_raises_config_error():
    config = SolverConfig(command="afkit_no_such_solver_binary_xyz")
    with pytest.raises(SolverConfigError):
        run_program("arg(a).", config)


def test_empty_command_rejected():
    for blank in ("", "   "):
        with pytest.raises(SolverConfigError, match="solver command is empty"):
            SolverConfig(command=blank)


def test_unparsable_command_rejected():
    with pytest.raises(SolverConfigError, match="cannot parse solver command"):
        SolverConfig(command='clingo "x')


def test_timeout_raises_run_error():
    with pytest.raises(SolverRunError):
        run_program("arg(a).", stub_config("sleep"), timeout=0.5)


# ------------------------------------------------------------ metasp gate


def test_optimization_job_requires_metasp_capability():
    job = emit_job(make_af6(), "prf_metasp")
    with pytest.raises(SolverConfigError):
        run_job(job, stub_config("echo", metasp=False))
    # same command declared capable goes through
    result = run_job(job, stub_config("echo", metasp=True))
    assert len(result) == 1


def test_plain_job_runs_without_metasp_capability():
    result = run_job(emit_job(make_af6(), "adm"), stub_config("echo"))
    assert len(result) == 1


# ------------------------------------------------------------ environment


def test_from_env_empty_is_none():
    assert SolverConfig.from_env({}) is None


def test_from_env_command_only():
    config = SolverConfig.from_env({"AFKIT_SOLVER_CMD": "clingo {input}"})
    assert config == SolverConfig(command="clingo {input}", metasp_capable=False)


def test_from_env_metasp_flag_parsing():
    env = {"AFKIT_SOLVER_CMD": "x", "AFKIT_SOLVER_METASP": "1"}
    assert SolverConfig.from_env(env).metasp_capable is True
    for on in ("true", "True", "YES", "on"):
        env["AFKIT_SOLVER_METASP"] = on
        assert SolverConfig.from_env(env).metasp_capable is True
    for off in ("0", "", "false", "no", "False", "off", "OFF"):
        env["AFKIT_SOLVER_METASP"] = off
        assert SolverConfig.from_env(env).metasp_capable is False
    for bad in ("2", "maybe", "enabled"):
        env["AFKIT_SOLVER_METASP"] = bad
        with pytest.raises(SolverConfigError):
            SolverConfig.from_env(env)


def test_run_job_without_any_config_raises(monkeypatch):
    for var in ("AFKIT_SOLVER_CMD", "AFKIT_SOLVER_METASP"):
        monkeypatch.delenv(var, raising=False)
    with pytest.raises(SolverConfigError):
        run_job(emit_job(make_af6(), "cf"))
