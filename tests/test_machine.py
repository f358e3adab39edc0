"""Reduction machine: delta rules, partiality, fuel, determinism."""

import pytest
from hypothesis import given, settings, strategies as st

from extreal import machine, terms
from extreal.compiler import compile_term, lam
from extreal.kernel import apply_value, apply_values, eval_term, kleene_eq
from extreal.terms import (
    App,
    Const,
    ConstKind,
    D,
    DEFAULT_FUEL,
    DELTA_ARITY,
    Defined,
    FuelConfig,
    FuelExhausted,
    IllTypedApplication,
    K,
    KBAR,
    Num,
    Opaque,
    P,
    P0,
    P1,
    PRED,
    S,
    StuckApplication,
    SUCC,
    Tri,
    UnboundVariable,
    Value,
    ValueSizeExceeded,
    Var,
    app,
    intern_value,
    num,
    num_value,
    opaque_value,
)

o = opaque_value


def val(t):
    out = eval_term(t)
    assert isinstance(out, Defined), out
    return out.value


def test_constants_are_canonical():
    assert val(K) == Value(K)
    assert val(num(3)) == num_value(3)


def test_k_law_on_opaques():
    a, b = o("a"), o("b")
    out = apply_values(Value(K), [a, b])
    assert isinstance(out, Defined) and out.value == a


def test_kbar_law():
    a, b = o("a"), o("b")
    out = apply_values(Value(KBAR), [a, b])
    assert out.value == b


def test_succ_pred():
    assert kleene_eq(App(SUCC, num(2)), num(3)) is Tri.TRUE
    assert kleene_eq(App(PRED, num(3)), num(2)) is Tri.TRUE
    with pytest.raises(StuckApplication):
        eval_term(App(PRED, num(0)))
    with pytest.raises(StuckApplication):
        eval_term(App(SUCC, K))


def test_d_selects():
    a, b = o("a"), o("b")
    assert apply_values(Value(D), [num_value(3), num_value(3), a, b]).value == a
    assert apply_values(Value(D), [num_value(3), num_value(4), a, b]).value == b
    with pytest.raises(StuckApplication):
        apply_values(Value(D), [o("x"), num_value(0), a, b])


def test_numeral_application_is_ill_typed():
    with pytest.raises(IllTypedApplication):
        eval_term(App(num(3), num(1)))


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        eval_term(Var("x"))
    assert eval_term(Var("x"), {"x": num_value(1)}).value == num_value(1)


def test_opaque_heads_accumulate():
    out = apply_values(o("f"), [num_value(1), num_value(2)])
    assert isinstance(out, Defined)
    assert isinstance(out.value.head, Opaque) and len(out.value.args) == 2


def test_opaque_attached_value_unwraps():
    v = num_value(9)
    assert val(Opaque("boxed", v)) == v


def test_pairing_projection_laws():
    import random

    rng = random.Random(1)
    from extreal.suites import random_printable_value

    for _ in range(100):
        ta, a = random_printable_value(rng)
        tb, b = random_printable_value(rng)
        assert kleene_eq(App(P0, app(P, ta, tb)), ta) is Tri.TRUE
        assert kleene_eq(App(P1, app(P, ta, tb)), tb) is Tri.TRUE


def test_divergence_exhausts_fuel():
    delta = compile_term(lam("x", App(Var("x"), Var("x"))))
    loop = App(delta, delta)
    assert kleene_eq(loop, loop, FuelConfig(max_steps=2_000)) is Tri.UNKNOWN
    out = eval_term(loop, None, FuelConfig(max_steps=2_000))
    assert isinstance(out, FuelExhausted)
    assert "fuel exhausted" in out.note


def test_determinism_and_fuel_monotonicity():
    import random

    rng = random.Random(2)
    from extreal.suites import random_closed_term
    from extreal.terms import MachineError

    for _ in range(300):
        t = random_closed_term(rng, 8)
        try:
            o1 = eval_term(t, None, FuelConfig(max_steps=500))
        except MachineError:
            continue
        if isinstance(o1, Defined):
            o2 = eval_term(t, None, FuelConfig(max_steps=50_000))
            assert isinstance(o2, Defined)
            assert o1.value == o2.value and o1.steps == o2.steps


def test_value_size_cap_raises():
    # Repeated self-application of an accumulating opaque head doubles size.
    head = o("h")
    grower = compile_term(lam("x", app(Var("x"), Var("x"))))
    gv = val(grower)
    v = head
    with pytest.raises(ValueSizeExceeded):
        for _ in range(64):
            out = apply_value(gv, v, FuelConfig(max_steps=10_000, max_value_size=5_000))
            assert isinstance(out, Defined)
            v = out.value


def test_steps_reported():
    out = eval_term(app(K, num(1), num(2)))
    assert isinstance(out, Defined) and out.steps > 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 64), st.integers(0, 64))
def test_d_law_all_small_numerals(n, m):
    a, b = o("a"), o("b")
    want = a if n == m else b
    got = apply_values(Value(D), [num_value(n), num_value(m), a, b])
    assert got.value == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 30), st.integers(0, 30))
def test_numeral_injectivity(n, m):
    assert kleene_eq(num(n), num(m)) is Tri.of(n == m)


def test_fuel_config_validation():
    with pytest.raises(ValueError):
        FuelConfig(max_steps=0)
    with pytest.raises(ValueError):
        FuelConfig(max_value_size=0)


_heads = st.one_of(
    st.sampled_from([Const(k) for k in ConstKind]),
    st.integers(0, 9).map(Num),
    st.sampled_from(["a", "b"]).map(Opaque),
)
_values = st.recursive(
    _heads.map(Value),
    lambda inner: st.builds(lambda h, args: Value(h, tuple(args)), _heads, st.lists(inner, max_size=3)),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(_values, _values)
def test_extend_matches_the_constructor(v, a):
    built = Value(v.head, v.args + (a,))
    extended = v.extend(a)
    assert extended == built
    assert hash(extended) == hash(built) and extended.size == built.size
    assert intern_value(extended) is intern_value(built)


def test_const_kind_hashes_by_identity():
    # Value hashes and the machine's arity lookups hash ConstKind members;
    # Enum.__hash__ would be a Python-level call on each.
    assert ConstKind.__hash__ is object.__hash__


# The partial-application memo of the reference machine.

# Values whose head takes one more argument without firing: an opaque head
# with any arguments, or a delta constant at least two below its arity.
_partial = st.one_of(
    st.builds(
        lambda i, args: Value(Opaque(i), tuple(args)),
        st.sampled_from(["a", "b"]),
        st.lists(_values, max_size=3),
    ),
    st.sampled_from([k for k, n in DELTA_ARITY.items() if n > 1]).flatmap(
        lambda k: st.lists(_values, max_size=DELTA_ARITY[k] - 2).map(
            lambda args: Value(Const(k), tuple(args))
        )
    ),
)


def _memoised(f, a):
    return id(a) in terms._APPLY_MEMO.get(id(f), {})


@settings(max_examples=300, deadline=None)
@given(_partial, _values, st.booleans(), st.booleans())
def test_memo_returns_the_interned_application(f, a, interned, machine_first):
    if interned:
        f, a = intern_value(f), intern_value(a)
    calls = [
        lambda: machine._accumulate(f, a, DEFAULT_FUEL.max_value_size),
        lambda: machine.apply_value(f, a).value,
    ]
    if machine_first:
        calls.reverse()
    want = None
    for _ in range(2):  # first application, then repeated (a memo hit if admitted)
        for call in calls:
            got = call()
            if want is None:
                want = intern_value(f.extend(a))
            assert got is want
    assert machine.apply_value(f, a).steps == 1
    # Admitted exactly when _INTERN keeps f, a and the result alive.
    assert _memoised(f, a) == (terms._INTERN.get(f) is f and want.args[-1] is a)


def test_fresh_operands_never_enter_the_memo():
    fresh = Value(Opaque("u"))
    one = intern_value(num_value(1))
    for _ in range(2):
        out = machine.apply_value(fresh, one)
        assert out.value == Value(Opaque("u"), (one,))
        assert out.value is intern_value(Value(Opaque("u"), (one,)))
    assert id(fresh) not in terms._APPLY_MEMO
    # Values bound in an environment are not interned either.
    env = {"f": Value(Opaque("envf")), "x": Value(Num(4))}
    for _ in range(2):
        got = machine.eval_term(App(Var("f"), Var("x")), env).value
        assert got == Value(Opaque("envf"), (num_value(4),))
    assert id(env["f"]) not in terms._APPLY_MEMO
    # A fresh argument whose application is already interned under an equal
    # argument object is not admitted (the table does not keep it alive).
    g = intern_value(Value(Opaque("g")))
    machine.apply_value(g, intern_value(num_value(5)))
    fresh_arg = Value(Num(5))
    assert machine.apply_value(g, fresh_arg).value.args[-1] is not fresh_arg
    assert not _memoised(g, fresh_arg)


def test_memo_hit_still_checks_the_size_cap():
    one = intern_value(num_value(1))
    f = intern_value(Value(Opaque("cap"), (one, one, one)))
    a = intern_value(Value(Opaque("big"), (one,) * 5))
    first = machine.apply_value(f, a)
    assert machine.apply_value(f, a).value is first.value and _memoised(f, a)
    with pytest.raises(ValueSizeExceeded):
        machine.apply_value(f, a, FuelConfig(max_value_size=first.value.size - 1))


def test_intern_overflow_empties_the_memo(monkeypatch):
    saved = dict(terms._INTERN)
    saved_memo = {k: dict(row) for k, row in terms._APPLY_MEMO.items()}
    try:
        f = intern_value(Value(Opaque("ovf")))
        a = intern_value(num_value(3))
        r = machine.apply_value(f, a).value
        assert _memoised(f, a)
        monkeypatch.setattr(terms, "INTERN_LIMIT", len(terms._INTERN) - 1)
        assert intern_value(Value(Opaque("one-more"))) is not None
        assert not terms._APPLY_MEMO and len(terms._INTERN) == 1
        # f is no longer interned: the machine's result is the table's, and
        # the entry is not re-admitted.
        again = machine.apply_value(f, a).value
        assert again == r and again is terms._INTERN[again]
        assert not _memoised(f, a)
    finally:
        terms._INTERN.clear()
        terms._INTERN.update(saved)
        terms._APPLY_MEMO.clear()
        terms._APPLY_MEMO.update(saved_memo)
