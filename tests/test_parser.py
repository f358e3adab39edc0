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


def test_a_lambda_argument_ends_the_spine():
    k1 = App(Const(ConstKind.K), Num(1))
    assert parse(r"K #1 \x. x") == App(k1, Lam("x", Var("x")))
    assert parse(r"K #1 \x. x #2") == App(k1, Lam("x", App(Var("x"), Num(2))))


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
    for src, msg, col in (
        (r"\. x", "binder name expected", 2),
        ("K # 1", "numeral expected after '#'", 3),
        ("#", "numeral expected after '#'", 1),
    ):
        with pytest.raises(ParseError) as err:
            parse(src)
        assert (err.value.msg, err.value.line, err.value.col) == (msg, 1, col)
    deep = "(" * 500 + "K" + ")" * 500
    with pytest.raises(ParseError, match="nesting deeper"):
        parse(deep)
    binders = "\\" + " ".join(f"x{i}" for i in range(500)) + ". x0"
    with pytest.raises(ParseError, match="nesting deeper"):
        parse(binders)
    # A left spine is as deep as it is long, parenthesised parts included.
    for spine in (
        " ".join(["K"] * 1200),
        "\\x. " + " ".join(["x"] * 500),
        "(" + " ".join(["K"] * 150) + ")" + " K" * 100,
    ):
        with pytest.raises(ParseError, match="nesting deeper"):
            parse(spine)


def test_nesting_up_to_the_limit_parses_and_compiles():
    n = MAX_NESTING
    assert parse("(" * n + "K" + ")" * n) == Const(ConstKind.K)
    nested = parse("K (" * n + "#1" + ")" * n)
    binders = parse("".join(f"\\x{i}. " for i in range(n - 1)) + "K (" + "x0" + ")")
    spine = parse(" ".join(["K"] * (n + 1)))
    for t in (nested, binders, spine):
        assert isinstance(eval_term(compile_term(t)), Defined)
    with pytest.raises(ParseError, match="nesting deeper"):
        parse(" ".join(["K"] * (n + 2)))
    # One binder and a spine of n - 1 applications: n levels.
    self_spine = compile_term(parse("\\x. " + " ".join(["x"] * n)))
    assert isinstance(eval_term(App(self_spine, Const(ConstKind.K))), Defined)


def test_compiled_terms_deeper_than_the_recursion_limit():
    # Abstraction deepens terms: six binders over a spine of 190 compile to
    # a term about 1,300 levels deep, which compiles, evaluates and prints.
    names = [f"v{i}" for i in range(6)]
    src = "\\" + " ".join(names) + ". " + " ".join(names[i % 6] for i in range(190))
    t = compile_term(parse(src))
    depth, todo = 0, [(t, 1)]
    while todo:
        u, d = todo.pop()
        depth = max(depth, d)
        if isinstance(u, App):
            todo += ((u.fun, d + 1), (u.arg, d + 1))
    assert depth > 1000
    out = eval_term(t)
    assert isinstance(out, Defined)
    assert print_term(out.value).startswith("S ")


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
