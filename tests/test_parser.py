"""Surface syntax round trips."""

import pytest
from hypothesis import given, settings, strategies as st

from extreal.bracket import Lam, compile_term
from extreal.machine import eval_term
from extreal.parser import MAX_NESTING, ParseError, parse, print_term
from extreal.terms import App, Const, ConstKind, Defined, Num, Var


def test_keywords_and_numerals():
    assert parse("K") == Const(ConstKind.K)
    assert parse("#12") == Num(12)
    assert parse("SUCC #0") == App(Const(ConstKind.SUCC), Num(0))


def test_application_is_left_associative():
    t = parse("K a b")
    assert t == App(App(Const(ConstKind.K), Var("a")), Var("b"))


def test_parens_override():
    t = parse("K (a b)")
    assert t == App(Const(ConstKind.K), App(Var("a"), Var("b")))


def test_lambda_sugar():
    t = parse(r"\x y. x")
    assert t == Lam("x", Lam("y", Var("x")))


def test_lambda_body_extends_right():
    t = parse(r"\x. x x")
    assert t == Lam("x", App(Var("x"), Var("x")))


def test_comments():
    t = parse("K -- the constant combinator\n  #3")
    assert t == App(Const(ConstKind.K), Num(3))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("K )")
    assert "line 1" in str(err.value)
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse(r"\K. K")
    deep = "(" * 500 + "K" + ")" * 500
    with pytest.raises(ParseError, match="nesting deeper"):
        parse(deep)
    binders = "\\" + " ".join(f"x{i}" for i in range(500)) + ". x0"
    with pytest.raises(ParseError, match="nesting deeper"):
        parse(binders)


def test_nesting_up_to_the_limit_parses_and_compiles():
    n = MAX_NESTING
    assert parse("(" * n + "K" + ")" * n) == Const(ConstKind.K)
    nested = parse("K (" * n + "#1" + ")" * n)
    binders = parse("".join(f"\\x{i}. " for i in range(n - 1)) + "K (" + "x0" + ")")
    for t in (nested, binders):
        assert isinstance(eval_term(compile_term(t)), Defined)


_atoms = st.one_of(
    st.sampled_from([Const(k) for k in ConstKind]),
    st.integers(0, 20).map(Num),
    st.sampled_from(["x", "y", "zed", "f'"]).map(Var),
)


def _terms(depth: int):
    if depth == 0:
        return _atoms
    sub = _terms(depth - 1)
    return st.one_of(
        _atoms,
        st.tuples(sub, sub).map(lambda p: App(*p)),
        st.tuples(st.sampled_from(["a", "b", "w"]), sub).map(lambda p: Lam(*p)),
    )


@settings(max_examples=300, deadline=None)
@given(_terms(4))
def test_print_parse_round_trip(t):
    assert parse(print_term(t)) == t
