from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from afkit.core import AF, ApxError, parse_apx, serialize_apx

from conftest import make_af6

AF6_TEXT = """\
% six arguments, one mutual attack
arg(a). arg(b). arg(c).
arg(d).
arg(e). arg(f).

defeat(a,b).
defeat(b,d). defeat(c,b).
defeat(c,d).
defeat(c,e).
defeat(d,c). defeat(d,e).
defeat(e,f).   % trailing comment
"""


def test_parse_demo_text():
    af = parse_apx(AF6_TEXT)
    assert af == make_af6()


def test_serialize_round_trip():
    af = make_af6()
    assert parse_apx(serialize_apx(af)) == af


def test_serialize_is_sorted():
    af = AF(["b_1", "a"], [("b_1", "a"), ("a", "b_1"), ("a", "a")])
    assert serialize_apx(af) == (
        "arg(b_1).\narg(a).\ndefeat(b_1,a).\ndefeat(a,b_1).\ndefeat(a,a).\n"
    )


def test_att_predicate_accepted():
    af = parse_apx("arg(x). arg(y). att(x,y).")
    assert (af.arg_id("x"), af.arg_id("y")) in af.attacks


def test_attack_before_declaration_is_fine():
    af = parse_apx("defeat(x,y). arg(x). arg(y).")
    assert (af.arg_id("x"), af.arg_id("y")) in af.attacks


def test_empty_input():
    af = parse_apx("")
    assert af.n == 0 and af.attacks == ()
    assert serialize_apx(af) == ""


def test_duplicate_attacks_collapse():
    af = parse_apx("arg(x). arg(y). defeat(x,y). defeat(x,y).")
    assert af.attacks == ((0, 1),)


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("arg(a)\narg(b).", 1, "malformed"),
        ("arg(a). arg(a).", 1, "duplicate"),
        ("arg(a).\ndefeat(a,zz).", 2, "not declared"),
        ("arg(a).\narg(b).\ndefeat(a).", 3, "defeat/2"),
        ("arg(a,b).", 1, "arg/1"),
        ("foo(a).", 1, "unexpected predicate"),
        ("arg(A).", 1, "malformed"),
        ("arg(a). junk", 1, "malformed"),
    ],
)
def test_parse_errors(text, line, fragment):
    with pytest.raises(ApxError) as exc:
        parse_apx(text)
    assert exc.value.line == line
    assert fragment in str(exc.value)


def test_error_message_carries_line_number():
    with pytest.raises(ApxError, match="line 2"):
        parse_apx("arg(a).\n???")


# Every boundary str.splitlines knows, "\r\n" counted once.
SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# Whitespace that is not a line break, so it may stand inside a fact.
INTRA_LINE_WS = [" ", "\t", "\x1f", "\xa0", "\u2003", "\u3000"]


def _raises(text: str) -> tuple[int | None, str]:
    with pytest.raises(ApxError) as exc:
        parse_apx(text)
    return exc.value.line, str(exc.value)


@pytest.mark.parametrize("sep", SEPARATORS, ids=repr)
def test_each_separator_breaks_lines(sep):
    af = parse_apx(f"arg(a).{sep}arg(b).{sep}defeat(a,b).{sep}")
    assert af == AF(["a", "b"], [("a", "b")])
    assert _raises(f"arg(a).{sep}arg(b).{sep}arg(a).") == (
        3, "line 3: duplicate arg fact for 'a'"
    )


@pytest.mark.parametrize("sep", SEPARATORS, ids=repr)
def test_no_fact_spans_a_separator(sep):
    assert _raises(f"arg(a).{sep}arg({sep}b).") == (2, "line 2: malformed token near 'arg('")
    assert _raises(f"arg(a).{sep}defeat(a,{sep}a).") == (
        2, "line 2: malformed token near 'defeat(a,'"
    )
    assert _raises(f"arg(a){sep}.") == (1, "line 1: malformed token near 'arg(a)'")


@pytest.mark.parametrize("ws", INTRA_LINE_WS, ids=repr)
def test_whitespace_inside_a_fact(ws):
    text = f"arg{ws}({ws}a{ws}){ws}.{ws}arg(b).\natt({ws}b{ws},{ws}a{ws}){ws}.{ws}"
    assert parse_apx(text) == AF(["a", "b"], [("b", "a")])


@pytest.mark.parametrize(
    "text,line,message",
    [
        # whitespace inside facts, the error on a later line
        ("arg ( a ) .\natt( b , a ).", 2, "attack endpoint 'b' not declared"),
        ("arg ( a ) .\narg( b ).\natt( b , a ).\nfoo(a).", 4, "unexpected predicate 'foo'"),
        # several facts on one line
        ("arg(a). arg(b).\narg(c). arg(b).", 2, "duplicate arg fact for 'b'"),
        ("arg(a).\narg(b).\ndefeat(a,b) defeat(b,a).", 3,
         "malformed token near 'defeat(a,b) defeat(b,a).'"),
        # % cuts a fact
        ("arg(a%).", 1, "malformed token near 'arg(a'"),
        ("arg(a). arg(b%).", 1, "malformed token near 'arg(b'"),
        ("arg(a).\t%x\x0barg(a).", 2, "duplicate arg fact for 'a'"),
        # arity
        ("arg().", 1, "arg/1 takes exactly one argument"),
        ("att(a,b,c).", 1, "att/2 takes exactly two arguments"),
        ("arg(a).\ndefeat(a\xa0,\u3000a).\narg(b,).", 3, "malformed token in arg fact"),
        ("arg(a).\narg(b)..", 2, "malformed token near '.'"),
        # a duplicate arg is reported at its second line
        ("arg(a).\narg(b).\n\narg(a).", 4, "duplicate arg fact for 'a'"),
        ("arg(a).\ndefeat(a,zz).\narg(a).", 3, "duplicate arg fact for 'a'"),
        # ... ahead of any undeclared endpoint
        ("arg(a).\narg(a).\ndefeat(a,zz).", 2, "duplicate arg fact for 'a'"),
        # an undeclared endpoint at the first attack that names it
        ("arg(a).\narg(b).\ndefeat(a,b).\ndefeat(b,zz).\ndefeat(zz,a).", 4,
         "attack endpoint 'zz' not declared"),
        ("defeat(a,zz).\narg(a).\ndefeat(zz,a).", 1, "attack endpoint 'zz' not declared"),
        ("arg(a).\ndefeat(yy,zz).", 2, "attack endpoint 'yy' not declared"),
    ],
)
def test_error_line_and_message(text, line, message):
    assert _raises(text) == (line, f"line {line}: {message}")


@st.composite
def rendered_afs(draw):
    """A random AF and APX text for it, with random intra-line whitespace
    inside and between facts, comments, facts per line and line separators."""
    names = draw(names_st)
    attacks = draw(
        st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=15)
        if names else st.just([])
    )
    ws = st.text(st.sampled_from(INTRA_LINE_WS), max_size=2)
    facts = [("arg", (x,)) for x in names]
    for src, dst in attacks:  # an attack may come before its endpoints' arg facts
        facts.insert(draw(st.integers(0, len(facts))), (draw(st.sampled_from(["defeat", "att"])), (src, dst)))
    text = draw(ws)
    for pred, terms in facts:
        inner = ",".join(f"{draw(ws)}{t}{draw(ws)}" for t in terms)
        text += f"{pred}{draw(ws)}({inner}){draw(ws)}."
        if draw(st.booleans()):  # end the line, perhaps after a comment
            if draw(st.booleans()):
                text += "% " + draw(st.sampled_from(["", "arg(zz).", "junk (", "%"]))
            text += draw(st.sampled_from(SEPARATORS))
        text += draw(ws)
    return AF(names, attacks), text


@given(rendered_afs())
def test_parse_rendered_af(case):
    af, text = case
    assert parse_apx(text) == af


names_st = st.lists(
    st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True),
    min_size=0,
    max_size=8,
    unique=True,
)


@given(names=names_st, data=st.data())
def test_round_trip_random(names, data):
    if names:
        attacks = data.draw(
            st.lists(
                st.tuples(st.sampled_from(names), st.sampled_from(names)),
                max_size=20,
            )
        )
    else:
        attacks = []
    af = AF(names, attacks)
    assert parse_apx(serialize_apx(af)) == af
