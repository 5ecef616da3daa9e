"""Emitter tests: frozen golden files, rule presence, job metadata."""
import pathlib

import pytest

from afkit.core import serialize_apx
from afkit.encodings import (
    AspJob,
    EncodingId,
    emit_encoding,
    emit_job,
    is_optimization_encoding,
    semantics_of,
)
from afkit.semantics import Semantics

from conftest import make_af6
from encoding_rules import REQUIRED_RULES

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

ALL_IDS = [e.value for e in EncodingId]

OPTIMIZATION_IDS = {
    "prf_metasp",
    "sem_metasp",
    "stg_metasp",
    "rground_metasp",
    "rground_metasp_prime",
}


def test_every_encoding_has_a_golden_file_and_vice_versa():
    on_disk = {p.stem for p in GOLDEN_DIR.glob("*.lp")}
    assert on_disk == set(ALL_IDS)


@pytest.mark.parametrize("encoding", ALL_IDS)
def test_emitted_text_matches_golden_file(encoding):
    expected = (GOLDEN_DIR / f"{encoding}.lp").read_text(encoding="utf-8")
    assert emit_encoding(encoding) == expected


@pytest.mark.parametrize("encoding", ALL_IDS)
def test_emission_is_deterministic(encoding):
    assert emit_encoding(encoding) == emit_encoding(EncodingId(encoding))


@pytest.mark.parametrize("encoding", ALL_IDS)
def test_required_rules_present(encoding):
    text = emit_encoding(encoding)
    for rule in REQUIRED_RULES[encoding]:
        assert rule in text, f"{encoding} is missing rule: {rule}"


@pytest.mark.parametrize("encoding", ALL_IDS)
def test_program_text_shape(encoding):
    text = emit_encoding(encoding)
    assert text.isascii()
    assert "\t" not in text
    assert text.endswith("\n")
    assert not text.startswith("\n")
    # every non-blank line is either a comment or a rule/fact ending in "."
    for line in text.splitlines():
        if not line:
            continue
        assert line.startswith("%") or line.rstrip().endswith(".")


@pytest.mark.parametrize("encoding", ALL_IDS)
def test_optimization_flag(encoding):
    flagged = is_optimization_encoding(encoding)
    assert flagged == (encoding in OPTIMIZATION_IDS)
    # flag and directive must travel together
    assert ("#minimize[" in emit_encoding(encoding)) == flagged
    assert ("optimize(1,1,incl)." in emit_encoding(encoding)) == flagged


def test_semantics_mapping():
    assert semantics_of("cf") is Semantics.CF
    assert semantics_of("adm") is Semantics.ADM
    assert semantics_of("stg_saturation") is Semantics.STG
    assert semantics_of("prf_metasp") is Semantics.PRF
    assert semantics_of("sem_metasp") is Semantics.SEM
    assert semantics_of("stg_metasp") is Semantics.STG
    assert semantics_of("rground_metasp") is Semantics.GRD_STAR
    assert semantics_of("rground_metasp_prime") is Semantics.GRD_STAR
    assert semantics_of("grd_star_handcraft") is Semantics.GRD_STAR


def test_instance_is_the_serialized_framework():
    af = make_af6()
    instance = emit_job(af, "cf").instance
    assert instance == serialize_apx(af)
    assert "arg(a).\n" in instance
    assert "defeat(a,b).\n" in instance


def test_emit_job_bundles_everything():
    af = make_af6()
    job = emit_job(af, "sem_metasp")
    assert isinstance(job, AspJob)
    assert job.encoding is EncodingId.SEM_METASP
    assert semantics_of(job.encoding) is Semantics.SEM
    assert is_optimization_encoding(job.encoding)
    assert job.instance == serialize_apx(af)
    assert job.program == emit_encoding("sem_metasp")
    assert job.full_text() == job.instance + "\n" + job.program


def test_unknown_encoding_rejected():
    with pytest.raises(ValueError):
        emit_encoding("prf")
    with pytest.raises(ValueError):
        emit_job(make_af6(), "no_such_encoding")


def test_saturation_counter_guess_is_disjunctive():
    text = emit_encoding("stg_saturation")
    assert "inN(X) | outN(X) :- arg(X).\n" in text
    # saturation encodings must not carry an optimization directive
    assert "#minimize" not in text


def test_handcrafted_iteration_references_no_attack_bridge():
    # the iterative encoding works on defeatN copies, never on att/2
    text = emit_encoding("grd_star_handcraft")
    assert "att(" not in text
    assert "att_minus_beta" not in text
