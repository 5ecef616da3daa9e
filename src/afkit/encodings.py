"""ASP encodings (gringo/clasp dialect) for argumentation semantics.

Each encoding is a fixed program; the framework itself travels separately as
an instance database of arg/1 and defeat/2 facts, so emit_job pairs the two.
Modules marked ``% reconstructed`` are standard helper programs (argument
order, grounded-fixpoint loops, predicate bridges) that the guess-and-check
parts rely on.

The five *_metasp encodings end in a subset-minimization directive written in
the schematic ``#minimize[pred]`` form together with an optimize(1,1,incl)
fact; they only run on a pipeline that interprets that optimization mode,
which is why is_optimization_encoding flags them and the solver bridge
refuses their jobs unless the configured solver is declared capable.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import AF, serialize_apx
from .semantics import Semantics


class EncodingId(str, Enum):
    CF = "cf"
    ADM = "adm"
    STG_SATURATION = "stg_saturation"
    PRF_METASP = "prf_metasp"
    SEM_METASP = "sem_metasp"
    STG_METASP = "stg_metasp"
    RGROUND_METASP = "rground_metasp"
    RGROUND_METASP_PRIME = "rground_metasp_prime"
    GRD_STAR_HANDCRAFT = "grd_star_handcraft"


_CF_GUESS = """\
% guess a set of arguments and keep it conflict-free
in(X) :- not out(X), arg(X).
out(X) :- not in(X), arg(X).
:- in(X), in(Y), defeat(X,Y).
"""

_ATT_IS_DEFEAT = """\
% reconstructed: att/2 names the defeat relation
att(X,Y) :- defeat(X,Y).
"""

_ATT_IS_RESTRICTED = """\
% reconstructed: att/2 names the resolution-restricted relation here
att(X,Y) :- att_minus_beta(X,Y).
"""

_ADM_CHECK = """\
% admissibility: every attacker of the set is defeated by it
defeated(X) :- in(Y), att(Y,X).
:- in(X), att(Y,X), not defeated(Y).
"""

_ORDER = """\
% reconstructed: infimum, successor and supremum of the argument order
lt(X,Y) :- arg(X), arg(Y), X < Y.
nsucc(X,Z) :- lt(X,Y), lt(Y,Z).
succ(X,Y) :- lt(X,Y), not nsucc(X,Y).
ninf(Y) :- lt(X,Y).
inf(X) :- arg(X), not ninf(X).
nsup(X) :- lt(X,Y).
sup(X) :- arg(X), not nsup(X).
"""

_RANGE = """\
% range of the guessed set: members plus everything they defeat
in_range(X) :- in(X).
in_range(X) :- in(Y), defeat(Y,X).
not_in_range(X) :- arg(X), not in_range(X).
"""

_RANGE_SECOND = """\
% range of the saturation guess, computed by a loop along the order
undefeated_upto(X,Y) :- inf(Y), outN(X), outN(Y).
undefeated_upto(X,Y) :- inf(Y), outN(X), not att(Y,X).
undefeated_upto(X,Y) :- succ(Z,Y), undefeated_upto(X,Z), outN(Y).
undefeated_upto(X,Y) :- succ(Z,Y), undefeated_upto(X,Z), not att(Y,X).
not_in_rangeN(X) :- sup(Y), outN(X), undefeated_upto(X,Y).
in_rangeN(X) :- inN(X).
in_rangeN(X) :- outN(X), inN(Y), att(Y,X).
"""

_RANGE_EQUAL = """\
% saturation guard: both ranges coincide
eqp_upto(X) :- inf(X), in_range(X), in_rangeN(X).
eqp_upto(X) :- inf(X), not_in_range(X), not_in_rangeN(X).
eqp_upto(X) :- succ(Z,X), in_range(X), in_rangeN(X), eqp_upto(Z).
eqp_upto(X) :- succ(Y,X), not_in_range(X), not_in_rangeN(X), eqp_upto(Y).
eqplus :- sup(X), eqp_upto(X).
"""

_SATURATE = """\
% saturation: every counter-guess with a larger range must fail
inN(X) | outN(X) :- arg(X).
fail :- inN(X), inN(Y), defeat(X,Y).
fail :- eqplus.
fail :- in_range(X), not_in_rangeN(X).
inN(X) :- fail, arg(X).
outN(X) :- fail, arg(X).
:- not fail.
"""

_RES_GUESS = """\
% resolution guess: drop one direction of every mutual attack
att_minus_beta(X,Y) :- defeat(X,Y), not att_minus_beta(Y,X), X != Y.
att_minus_beta(X,Y) :- defeat(X,Y), not defeat(Y,X).
att_minus_beta(X,X) :- defeat(X,X).
"""

_GROUNDED_LOOP = """\
% reconstructed: grounded extension of the restricted relation by a
% defense loop along the order
defended_upto(X,Y) :- inf(Y), arg(X), not att_minus_beta(Y,X).
defended_upto(X,Y) :- inf(Y), in(Z), att_minus_beta(Z,Y), att_minus_beta(Y,X).
defended_upto(X,Y) :- succ(Z,Y), defended_upto(X,Z), not att_minus_beta(Y,X).
defended_upto(X,Y) :- succ(Z,Y), defended_upto(X,Z), in(V), att_minus_beta(V,Y), att_minus_beta(Y,X).
defended(X) :- sup(Y), defended_upto(X,Y).
in(X) :- defended(X).
"""

_COM_CHECK = """\
% complete: arguments left out must be undefended
undefended(X) :- att_minus_beta(Y,X), not defeated(Y).
:- out(X), not undefended(X).
"""

_ITER_COPY = """\
% iteration 0 copies the arguments, attacks and the guess
arg_set(N,X) :- arg(X), inf(N).
inU(N,X) :- in(X), inf(N).
defeatN(N,Y,X) :- arg_set(N,X), arg_set(N,Y), defeat(Y,X).
"""

_ITER_DEFENSE = """\
% reconstructed: per-iteration grounded extension by a defense loop
defendedN_upto(N,X,Y) :- inf(Y), arg_set(N,X), not defeatN(N,Y,X).
defendedN_upto(N,X,Y) :- inf(Y), inS(N,Z), defeatN(N,Z,Y), defeatN(N,Y,X).
defendedN_upto(N,X,Y) :- succ(Z,Y), defendedN_upto(N,X,Z), not defeatN(N,Y,X).
defendedN_upto(N,X,Y) :- succ(Z,Y), defendedN_upto(N,X,Z), inS(N,V), defeatN(N,V,Y), defeatN(N,Y,X).
defendedN(N,X) :- sup(Y), defendedN_upto(N,X,Y).
inS(N,X) :- defendedN(N,X).
"""

_ITER_CUT = """\
% the guess must meet the iteration's grounded part exactly; cut/2 is
% what survives removing that part's range
in_SplusN(N,X) :- inS(N,X).
in_SplusN(N,X) :- inS(N,Y), defeatN(N,Y,X).
u_cap_Splus(N,X) :- inU(N,X), in_SplusN(N,X).
:- u_cap_Splus(N,X), not inS(N,X).
:- not u_cap_Splus(N,X), inS(N,X).
cut(N,X) :- arg_set(N,X), not in_SplusN(N,X).
"""

_ITER_MR = """\
% predecessor-free components whose attacks form a symmetric
% self-attack-free tree
reach(N,X,Y) :- cut(N,X), cut(N,Y), defeatN(N,X,Y).
reach(N,X,Y) :- cut(N,X), defeatN(N,X,Z), reach(N,Z,Y), X != Y.
self_defeat(N,X) :- cut(N,X), defeatN(N,X,X).
nsym(N,X) :- cut(N,X), cut(N,Y), defeatN(N,X,Y), not defeatN(N,Y,X), reach(N,X,Y), reach(N,Y,X), X != Y.
nsym(N,Y) :- cut(N,X), cut(N,Y), defeatN(N,X,Y), not defeatN(N,Y,X), reach(N,X,Y), reach(N,Y,X), X != Y.
reachnotvia(N,X,V,Y) :- defeatN(N,X,Y), cut(N,V), reach(N,X,Y), reach(N,Y,X), X != V, Y != V.
reachnotvia(N,X,V,Y) :- reachnotvia(N,X,V,Z), reach(N,X,Y), reachnotvia(N,Z,V,Y), reach(N,Y,X), Z != V, X != V, Y != V.
cyc(N,X,Y,Z) :- defeatN(N,X,Y), defeatN(N,Y,X), defeatN(N,Y,Z), defeatN(N,Z,Y), reachnotvia(N,X,Y,Z), X != Y, Y != Z, X != Z.
bad(N,Y) :- cyc(N,X,U,V), reach(N,X,Y), reach(N,Y,X).
bad(N,Y) :- self_defeat(N,X), reach(N,X,Y), reach(N,Y,X).
pos_mr(N,X) :- cut(N,X), not bad(N,X), not self_defeat(N,X), not nsym(N,X).
notminimal(N,Z) :- reach(N,X,Y), reach(N,Y,X), reach(N,X,Z), not reach(N,Z,X).
mr(N,X) :- pos_mr(N,X), not notminimal(N,X).
"""

_ITER_STABLE = """\
% accept when nothing is left over; otherwise the leftover must be
% stable inside the selected components
t(N,X) :- inU(N,X), not inS(N,X).
nemptyT(N) :- t(N,X).
emptyT(N) :- not nemptyT(N), arg_set(N,X).
existsMR(N) :- mr(N,X), cut(N,X).
not_exists_mr(N) :- not existsMR(N), cut(N,X).
true(N) :- emptyT(N), not existsMR(N).
:- not_exists_mr(N), nemptyT(N).
defeated(N,X) :- mr(N,X), mr(N,Y), t(N,Y), defeatN(N,Y,X).
:- not t(N,X), not defeated(N,X), mr(N,X).
"""

_ITER_NEXT = """\
% next iteration: drop the components and everything the leftover defeats
t_mrOplus(N,Y) :- t(N,X), mr(N,X), defeatN(N,X,Y).
arg_set(M,X) :- cut(N,X), not mr(N,X), not t_mrOplus(N,X), succ(N,M), not true(N).
inU(M,X) :- t(N,X), not mr(N,X), succ(N,M), not true(N).
"""


_OPTIMIZE = "optimize(1,1,incl).\n"


def _minimize(predicate: str) -> str:
    return (
        "% subset-minimization directive; needs a metasp-capable pipeline\n"
        + _OPTIMIZE
        + f"#minimize[{predicate}].\n"
    )


# per encoding: the semantics its answer sets realize, and its program parts
_PROGRAMS: dict[EncodingId, tuple[Semantics, tuple[str, ...]]] = {
    EncodingId.CF: (Semantics.CF, (_CF_GUESS,)),
    EncodingId.ADM: (Semantics.ADM, (_CF_GUESS, _ATT_IS_DEFEAT, _ADM_CHECK)),
    EncodingId.STG_SATURATION: (Semantics.STG, (
        _CF_GUESS,
        _ORDER,
        _ATT_IS_DEFEAT,
        _RANGE,
        _RANGE_SECOND,
        _RANGE_EQUAL,
        _SATURATE,
    )),
    EncodingId.PRF_METASP: (Semantics.PRF, (
        _CF_GUESS,
        _ATT_IS_DEFEAT,
        _ADM_CHECK,
        _minimize("out"),
    )),
    EncodingId.SEM_METASP: (Semantics.SEM, (
        _CF_GUESS,
        _ATT_IS_DEFEAT,
        _ADM_CHECK,
        _RANGE,
        _minimize("not_in_range"),
    )),
    EncodingId.STG_METASP: (Semantics.STG, (_CF_GUESS, _RANGE, _minimize("not_in_range"))),
    EncodingId.RGROUND_METASP: (Semantics.GRD_STAR, (
        _RES_GUESS,
        _ORDER,
        _GROUNDED_LOOP,
        _minimize("in"),
    )),
    EncodingId.RGROUND_METASP_PRIME: (Semantics.GRD_STAR, (
        _RES_GUESS,
        _ATT_IS_RESTRICTED,
        _CF_GUESS,
        _ADM_CHECK,
        _COM_CHECK,
        _minimize("in"),
    )),
    EncodingId.GRD_STAR_HANDCRAFT: (Semantics.GRD_STAR, (
        _CF_GUESS,
        _ORDER,
        _ITER_COPY,
        _ITER_DEFENSE,
        _ITER_CUT,
        _ITER_MR,
        _ITER_STABLE,
        _ITER_NEXT,
    )),
}


@dataclass(frozen=True)
class AspJob:
    """A ready-to-solve pairing of instance facts and a fixed program."""

    encoding: EncodingId
    instance: str
    program: str

    def full_text(self) -> str:
        return self.instance + "\n" + self.program


def emit_encoding(encoding: EncodingId | str) -> str:
    """The fixed program text for one encoding (no instance facts)."""
    return "\n".join(_PROGRAMS[EncodingId(encoding)][1])


def is_optimization_encoding(encoding: EncodingId | str) -> bool:
    """Whether the program carries a _minimize directive."""
    return any(_OPTIMIZE in part for part in _PROGRAMS[EncodingId(encoding)][1])


def semantics_of(encoding: EncodingId | str) -> Semantics:
    """Which semantics an encoding's answer sets realize."""
    return _PROGRAMS[EncodingId(encoding)][0]


def emit_job(af: AF, encoding: EncodingId | str) -> AspJob:
    """The instance's arg/1 and defeat/2 facts (APX text, in the serializer's
    deterministic order) paired with the encoding's program."""
    eid = EncodingId(encoding)
    return AspJob(encoding=eid, instance=serialize_apx(af), program=emit_encoding(eid))
