"""Bracket abstraction and the fixed-point constructions."""

import random
import signal
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

import reference_impl
from extreal.bracket import EXPANSIONS, SKK, Lam, abstract, always_defined, compile_term, free_vars, lam
from extreal.kernel import apply_value, apply_values, eval_term, kleene_agree
from extreal.parser import parse
from extreal.realizers import double_fixpoint, fixpoint, primrec
from extreal.suites import (
    random_open_term,
    random_printable_value,
    subst_oracle,
    term_size,
)
from extreal.terms import (
    App,
    Const,
    ConstKind,
    Defined,
    Run,
    K,
    Num,
    Opaque,
    P,
    S,
    SUCC,
    Value,
    Var,
    app,
    num,
    num_value,
    opaque_value,
)


def test_identity_abstraction():
    assert abstract("x", Var("x")) == SKK
    assert kleene_agree(App(SKK, num(7)), num(7)) is True


def test_constant_abstraction_binds():
    s = abstract("x", Var("y"))
    out = eval_term(App(s, num(1)), {"y": num_value(9)})
    assert isinstance(out, Defined) and out.value == num_value(9)


def test_no_capture():
    for body in (Var("x"), App(Var("x"), Var("y")), App(K, Var("x"))):
        assert "x" not in free_vars(abstract("x", body))


def test_abstractions_are_always_defined():
    rng = random.Random(5)
    for _ in range(100):
        body = random_open_term(rng, 10, "x")
        s = abstract("x", body)
        assert always_defined(s)
        # Closing substitution denotes a value even when the body would crash.
        out = eval_term(s)
        assert isinstance(out, Defined)


def test_substitution_law_against_oracle():
    rng = random.Random(6)
    mismatches = 0
    for _ in range(100):
        body = random_open_term(rng, 12, "x")
        s = abstract("x", body)
        ta, _ = random_printable_value(rng, Run())
        if kleene_agree(App(s, ta), subst_oracle(body, "x", ta)) is False:
            mismatches += 1
    assert mismatches == 0


_NAMES = ("x", "y", "z")
_ATOMS = st.one_of(
    st.sampled_from(_NAMES).map(Var),
    st.integers(0, 3).map(Num),
    st.sampled_from(list(ConstKind)).map(Const),
    st.builds(
        Opaque,
        st.sampled_from(("a", "b")),
        st.sampled_from((None, num_value(2), opaque_value("q"))),
    ),
)


def _terms(binders: bool):
    """Random terms; spines of up to six arguments over-saturate every constant."""

    def extend(children):
        parts = [
            st.builds(App, children, children),
            st.builds(lambda head, args: reduce(App, args, head), _ATOMS, st.lists(children, min_size=1, max_size=6)),
        ]
        if binders:
            parts.append(st.builds(Lam, st.sampled_from(_NAMES), children))
        return st.one_of(*parts)

    return st.recursive(_ATOMS, extend, max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_NAMES), _terms(binders=False))
def test_abstract_matches_quadratic_oracle(x, t):
    out = abstract(x, t)
    assert out == reference_impl.abstract(x, t)
    assert always_defined(out)
    assert always_defined(t) == reference_impl.always_defined(t)


@settings(max_examples=200, deadline=None)
@given(_terms(binders=True))
def test_compile_term_matches_quadratic_oracle(t):
    out = compile_term(t)
    assert out == reference_impl.compile_term(t)
    assert always_defined(out) == reference_impl.always_defined(out)


@st.composite
def _shared_terms(draw):
    """Terms that reuse drawn subterm objects at several positions: under
    binders that capture their free variables and outside them."""
    pool = draw(st.lists(_terms(binders=True), min_size=1, max_size=3))
    leaves = st.one_of(_ATOMS, st.sampled_from(pool))
    t = draw(st.recursive(
        leaves,
        lambda c: st.one_of(st.builds(App, c, c), st.builds(Lam, st.sampled_from(_NAMES), c)),
        max_leaves=12,
    ))
    x = draw(st.sampled_from(_NAMES))
    return App(Lam(x, App(t, pool[0])), App(pool[0], Lam(x, pool[-1])))


@settings(max_examples=200, deadline=None)
@given(_shared_terms())
def test_compile_term_on_shared_subterms_matches_quadratic_oracle(t):
    out = compile_term(t)
    assert out == reference_impl.compile_term(t)
    assert always_defined(out) == reference_impl.always_defined(out)


def _tower(k):
    """t0 = K, t(k+1) = S tk tk: closed and always defined, with 2k + 2
    distinct nodes but 2^(k+2) - 3 as a tree."""
    t = K
    for _ in range(k):
        t = app(S, t, t)
    return t


def _holds(t, node):
    """Whether node itself occurs in t, visiting each shared node once."""
    seen, todo = set(), [t]
    while todo:
        t = todo.pop()
        if t is node:
            return True
        if type(t) is App and id(t) not in seen:
            seen.add(id(t))
            todo += (t.fun, t.arg)
    return False


def _timed_out(signum, frame):
    raise TimeoutError("compile_term walked a shared subterm as a tree")


def test_compile_term_walks_each_shared_node_once():
    t40 = _tower(40)
    source = lam("x", "y", app(Var("y"), t40, Var("x")))
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(5)
    try:
        out = compile_term(source)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert _holds(out, t40)
    small = lam("x", "y", app(Var("y"), _tower(5), Var("x")))
    assert compile_term(small) == reference_impl.compile_term(small)


def test_compile_term_returns_lambda_free_subterms_as_themselves():
    t = app(S, Var("y"), app(K, num(3)))
    assert compile_term(t) is t
    mixed = App(t, lam("x", Var("x")))
    out = compile_term(mixed)
    assert out.fun is t and out.arg == SKK


def test_free_vars_and_always_defined_past_the_recursion_limit():
    t = Var("x")
    for _ in range(3_000):
        t = App(K, t)
    assert always_defined(t)
    assert free_vars(t) == {"x"}
    assert free_vars(Lam("x", t)) == frozenset()
    assert not always_defined(App(t, num(1)))


def test_compile_size_bound():
    rng = random.Random(7)
    for _ in range(100):
        body = random_open_term(rng, 12, "x")
        t = lam("x", body)
        compiled = compile_term(t)
        assert term_size(compiled) <= 10 * (term_size(body) + 1) ** 2


def test_compiled_k_s_kbar_behave():
    rng = random.Random(8)
    k_like = compile_term(parse(r"\x y. x"))
    s_like = compile_term(parse(r"\x y z. x z (y z)"))
    kbar_like = compile_term(parse(r"\x y. y"))
    from extreal.terms import KBAR, S

    for _ in range(50):
        ta, _ = random_printable_value(rng, Run())
        tb, _ = random_printable_value(rng, Run())
        tc, _ = random_printable_value(rng, Run())
        assert kleene_agree(app(k_like, ta, tb), ta) is True
        assert kleene_agree(app(kbar_like, ta, tb), tb) is True
        assert kleene_agree(app(s_like, ta, tb, tc), app(S, ta, tb, tc)) is not False


def test_kleene_agree_counts_only_crashes_as_undefined():
    # Two crashes agree and a crash differs from a value; running out of fuel
    # or outgrowing the value size cap on either side decides nothing.
    from test_checker import _GROW

    stuck = App(Const(ConstKind.PRED), num(0))
    assert kleene_agree(stuck, App(num(1), K)) is True
    assert kleene_agree(stuck, K) is False
    omega = app(S, SKK, SKK, app(S, SKK, SKK))
    assert kleene_agree(omega, stuck, Run(max_steps=50)) is None
    assert kleene_agree(compile_term(parse(_GROW)), stuck) is None


def test_defined_constant_expansions_match_their_sources():
    # P, P0, P1 are aliases for the compilations of the pairing terms.
    assert EXPANSIONS[ConstKind.P] == compile_term(parse(r"\x y z. z x y"))
    assert EXPANSIONS[ConstKind.P0] == compile_term(parse(r"\x. x K"))
    assert EXPANSIONS[ConstKind.P1] == compile_term(parse(r"\x. x KBAR"))
    # and the machine evaluates the constant to the same value
    assert eval_term(P).value == eval_term(EXPANSIONS[ConstKind.P]).value


def test_fixpoint_defined_and_law():
    f = fixpoint()
    rng = random.Random(9)
    for _ in range(20):
        ta, _ = random_printable_value(rng, Run())
        assert isinstance(eval_term(App(f, ta)), Defined)
    for _ in range(50):
        ta, _ = random_printable_value(rng, Run())
        tb, _ = random_printable_value(rng, Run())
        assert kleene_agree(app(f, ta, tb), app(ta, App(f, ta), tb)) is not False


def test_fixpoint_hand_unfolding():
    f = fixpoint()
    rng = random.Random(10)
    for _ in range(10):
        tb, _ = random_printable_value(rng, Run())
        assert kleene_agree(app(f, K, tb), App(f, K)) is True


def test_double_fixpoint_laws():
    g, h = double_fixpoint()
    rng = random.Random(11)
    for _ in range(50):
        ta, _ = random_printable_value(rng, Run())
        tb, _ = random_printable_value(rng, Run())
        tc, _ = random_printable_value(rng, Run())
        assert isinstance(eval_term(app(g, ta, tb)), Defined)
        assert isinstance(eval_term(app(h, ta, tb)), Defined)
        assert kleene_agree(app(g, ta, tb, tc), app(ta, app(h, ta, tb), tc)) is not False
        assert kleene_agree(app(h, ta, tb, tc), app(tb, app(g, ta, tb), tc)) is not False


def test_double_fixpoint_structural_on_k():
    # a := K returns its first argument, so the laws are only satisfiable if
    # the element h a b coincides with what g's unfolding feeds to a.
    g, h = double_fixpoint()
    b, c = opaque_value("b"), opaque_value("c")
    gv = apply_values(eval_term(g).value, [Value(K), b]).value
    hv = apply_values(eval_term(h).value, [Value(K), b]).value
    assert apply_value(gv, c).value == hv


def test_primrec_equations():
    r = primrec()
    a, b = opaque_value("a"), opaque_value("b")
    rv = eval_term(r).value
    assert apply_values(rv, [a, b, num_value(0)]).value == a
    lhs = apply_values(rv, [a, b, num_value(3)])
    inner = apply_values(rv, [a, b, num_value(2)]).value
    rhs = apply_values(b, [inner, num_value(2)])
    assert lhs.value == rhs.value


def test_primrec_adder():
    r = primrec()
    add = compile_term(
        lam("m", "n", app(r, Var("m"), lam("u", "v", App(SUCC, Var("u"))), Var("n")))
    )
    big = Run(max_steps=500_000)
    assert kleene_agree(app(add, num(2), num(3)), num(5), big) is True
    assert kleene_agree(app(add, num(7), num(6)), num(13), big) is True


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6))
def test_primrec_recursion_equation_hypothesis(n, extra):
    r = primrec()
    rv = eval_term(r).value
    a, b = opaque_value("a"), opaque_value("b")
    lhs = apply_values(rv, [a, b, num_value(n + 1)], Run(max_steps=400_000))
    rhs_inner = apply_values(rv, [a, b, num_value(n)], Run(max_steps=400_000))
    rhs = apply_values(b, [rhs_inner.value, num_value(n)])
    assert lhs.value == rhs.value
