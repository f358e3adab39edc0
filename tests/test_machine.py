"""Reduction machine: delta rules, partiality, fuel, determinism."""

import contextlib
import dataclasses
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

import reference_impl
from extreal import kernel, machine, terms
from extreal.bracket import compile_term, lam
from extreal.kernel import apply_value, apply_values, eval_term, kleene_agree
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
    MachineError,
    Num,
    Opaque,
    P,
    P0,
    P1,
    PRED,
    S,
    StuckApplication,
    SUCC,
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
    assert kleene_agree(App(SUCC, num(2)), num(3)) is True
    assert kleene_agree(App(PRED, num(3)), num(2)) is True
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
        assert kleene_agree(App(P0, app(P, ta, tb)), ta) is True
        assert kleene_agree(App(P1, app(P, ta, tb)), tb) is True


def test_divergence_exhausts_fuel():
    delta = compile_term(lam("x", App(Var("x"), Var("x"))))
    loop = App(delta, delta)
    assert kleene_agree(loop, loop, FuelConfig(max_steps=2_000)) is None
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
            out = apply_value(gv, v)
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
    assert kleene_agree(num(n), num(m)) is (n == m)


def test_fuel_config_validation():
    with pytest.raises(ValueError):
        FuelConfig(max_steps=0)
    # The value size cap is fixed: a class constant, not a field.
    assert [f.name for f in dataclasses.fields(FuelConfig)] == ["max_steps"]
    assert FuelConfig(7).max_value_size == DEFAULT_FUEL.max_value_size == 10**6


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


# The application memo of the reference machine.


@pytest.fixture
def record_at_once(monkeypatch):
    """Every S-redex is recorded at its first firing (the seen filter is full)."""
    monkeypatch.setattr(machine, "_SEEN", bytearray(b"\x02" * machine._SEEN_SLOTS))


def _entry(f, a):
    """The memo entry of the S-redex ``f a``, if any."""
    return terms._APPLY_MEMO.get(id(f) << 64 | id(a))


def _interned(v):
    return terms._INTERN.get(v) is v


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


@settings(max_examples=300, deadline=None)
@given(_partial, _values, st.booleans(), st.booleans())
def test_memo_returns_the_interned_application(f, a, interned, machine_first):
    if interned:
        f, a = intern_value(f), intern_value(a)
    calls = [
        lambda: machine._accumulate(f, a),
        lambda: machine.apply_value(f, a).value,
    ]
    if machine_first:
        calls.reverse()
    entries = len(terms._APPLY_MEMO)
    want = None
    for _ in range(2):  # first application, then repeated
        for call in calls:
            got = call()
            if want is None:
                want = intern_value(f.extend(a))
            assert got is want
    assert machine.apply_value(f, a).steps == 1
    # Interning answers a repeat; a partial application adds no memo entry.
    assert _entry(f, a) is None and len(terms._APPLY_MEMO) == entries


# Combinators for whole S-redexes: I = S K K, and T z = S (K z) I, so that
# T z x = z x fires S twice and takes 7 steps.
_I = app(S, K, K)


def _two_step(z):
    return app(S, App(K, z), _I)


# S-heavy closed terms: a combinator over S, K and I applied to a few
# arguments, so that redexes nest and repeat; inert opaque arguments take
# arguments of their own without failing, and the rest may get stuck.
_combinators = st.recursive(
    st.sampled_from([S, S, S, K, K, _I, KBAR]),
    lambda inner: st.builds(App, inner, inner),
    max_leaves=10,
)
_s_atoms = st.sampled_from([Opaque("a"), Opaque("b"), _I, K, S, SUCC, num(1)])


def _copy(v):
    """A fresh object equal to v, none of its nodes shared with v."""
    return Value(v.head, tuple(map(_copy, v.args)))


# Fresh values equal to ones the machine builds, spliced into a term as a
# Value or as the value an Opaque carries.
_fresh_atoms = st.builds(
    lambda v, boxed: Opaque("v", _copy(v)) if boxed else _copy(v),
    st.sampled_from([
        Value(K), Value(S), Value(Num(1)), Value(Opaque("a")), Value(K, (Value(Num(1)),)),
        Value(Const(ConstKind.S), (Value(K), Value(K))),
    ]),
    st.booleans(),
)


@st.composite
def _sharing_terms(draw, atoms=_s_atoms):
    """A closed term ``sub``, then a few terms that splice the one object
    ``sub`` as head or argument, so that a recorded ``sub`` replays inside
    them."""
    s_terms = st.builds(lambda c, args: app(c, *args), _combinators, st.lists(atoms, min_size=1, max_size=4))
    sub = draw(s_terms)
    over = st.builds(
        lambda c, args: app(c, *args),
        st.one_of(_combinators, st.just(sub)),
        st.lists(st.one_of(atoms, st.just(sub)), min_size=1, max_size=4),
    )
    return [sub] + draw(st.lists(over, min_size=1, max_size=3))


def _term_entry(t):
    e = terms._APPLY_MEMO.get(id(t))
    assert e is None or e[2] is t  # an entry holds its own term
    return e


@contextlib.contextmanager
def _saved_tables():
    """Run the body, then put _INTERN and the memo back as they were."""
    saved = dict(terms._INTERN)
    saved_memo = dict(terms._APPLY_MEMO)
    try:
        yield
    finally:
        terms._INTERN.clear()
        terms._INTERN.update(saved)
        terms._APPLY_MEMO.clear()
        terms._APPLY_MEMO.update(saved_memo)


def _outcome(evaluate, t, cfg):
    try:
        return evaluate(t, None, cfg)
    except MachineError as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(_sharing_terms())
def test_memo_replays_match_the_memo_free_oracle(ts):
    """With a warm memo, at every fuel cap up to the term's total steps + 1,
    the machine reports the oracle's outcome: the same type, steps, note,
    value and error.  The shared subterm is evaluated first, so it is
    recorded whole and replays (or, where it does not fit, is reduced)
    inside the terms that splice it."""
    ceiling = 120
    sub = ts[0]
    assume(isinstance(_outcome(reference_impl.oracle_eval_term, sub, FuelConfig(ceiling)), Defined))
    with pytest.MonkeyPatch.context() as mp, _saved_tables():
        mp.setattr(machine, "_SEEN", bytearray(b"\x02" * machine._SEEN_SLOTS))
        for t in ts:
            for _ in range(2):
                _outcome(machine.eval_term, t, FuelConfig(ceiling))
        assert _term_entry(sub) is not None
        for t in ts:
            for fuel in range(1, ceiling + 2):
                cfg = FuelConfig(fuel)
                want = _outcome(reference_impl.oracle_eval_term, t, cfg)
                assert _outcome(machine.eval_term, t, cfg) == want, (t, cfg)
                if not isinstance(want, FuelExhausted):
                    # The total is reached; check total + 1 and stop.
                    cfg = FuelConfig(fuel + 1)
                    assert _outcome(machine.eval_term, t, cfg) == want, (t, cfg)
                    break


def _all_interned(v):
    """Whether v and every value below it is the object _INTERN holds."""
    seen, stack = set(), [v]
    while stack:
        x = stack.pop()
        if id(x) not in seen:
            seen.add(id(x))
            if terms._INTERN.get(x) is not x:
                return False
            stack.extend(x.args)
    return True


@settings(max_examples=100, deadline=None)
@given(_sharing_terms(st.one_of(_s_atoms, _fresh_atoms)), _fresh_atoms, _fresh_atoms)
def test_machine_values_are_shared(ts, f, a):
    """Fresh values spliced into terms, or applied, are shared on entry: each
    result, and every value below it, is the _INTERN object, and every memo
    entry holds the objects its key is the identity of."""
    f, a = (x.value if isinstance(x, Opaque) else x for x in (f, a))
    with pytest.MonkeyPatch.context() as mp, _saved_tables():
        mp.setattr(machine, "_SEEN", bytearray(b"\x02" * machine._SEEN_SLOTS))
        # Start from empty tables, as after an overflow: earlier tests intern
        # values built by hand around uninterned arguments.
        terms._INTERN.clear()
        terms._APPLY_MEMO.clear()
        mp.setattr(machine, "_const_cache", {})
        runs = [(machine.eval_term, t, None) for t in ts for _ in range(2)]
        runs += [(machine.apply_value, f, a)] * 2
        for op, x, y in runs:
            try:
                out = op(x, y, FuelConfig(120))
            except MachineError:
                continue
            assert not isinstance(out, Defined) or _all_interned(out.value), (x, y)
        for key, e in terms._APPLY_MEMO.items():
            assert key == (id(e[2]) << 64 | id(e[3]) if len(e) == 4 else id(e[2]))


def _doubled(ident, n):
    """A value of 2**(n + 1) - 1 nodes from n + 1 objects: each a pair of
    the one below."""
    v = Value(Opaque(ident))
    for _ in range(n):
        v = Value(Opaque(ident), (v, v))
    return v


def test_share_walks_each_object_of_a_large_value_once():
    # A fresh value of 2**21 - 1 nodes from 21 objects, spliced into terms:
    # sharing it visits 21 objects, so both runs end at once, with the
    # size cap or a value, and no recursion.
    big = _doubled("share-big", 20)
    assert big.size > 10**6
    start = time.perf_counter()
    with _saved_tables():
        capped = kernel.attempt(eval_term, App(K, Opaque("big", big)), None, DEFAULT_FUEL)
        dropped = kernel.attempt(eval_term, app(K, num(0), Opaque("big", big)), None, DEFAULT_FUEL)
        assert _all_interned(big)
    assert time.perf_counter() - start < 1.0
    assert isinstance(capped, kernel.Open) and isinstance(capped.error, ValueSizeExceeded)
    assert dropped == num_value(0)


def test_equal_operands_share_one_memo_entry(monkeypatch):
    # T z #6, built twice from fresh objects: the second run is one memo
    # entry replayed, with the oracle's steps and value.
    def fresh():
        i_val = Value(Const(ConstKind.S), (Value(K), Value(K)))
        t_z = Value(Const(ConstKind.S), (Value(K, (Value(Opaque("z-equal")),)), i_val))
        return App(t_z, Value(Num(6)))

    with _saved_tables():
        monkeypatch.setattr(machine, "_SEEN", bytearray(b"\x02" * machine._SEEN_SLOTS))
        first = fresh()
        want = reference_impl.oracle_eval_term(first)
        assert machine.eval_term(first) == want and want.steps == 7
        f, a = terms._INTERN[first.fun], terms._INTERN[first.arg]
        e = _entry(f, a)
        assert e[:2] == (want.value, 6) and e[2] is f and e[3] is a
        entries = len(terms._APPLY_MEMO)
        # An emptied seen filter counts the new App node only: the redex
        # is not reduced again.
        monkeypatch.setattr(machine, "_SEEN", bytearray(machine._SEEN_SLOTS))
        second = fresh()
        assert second.fun is not first.fun and second.arg is not first.arg
        assert machine.eval_term(second) == want
        assert sum(machine._SEEN) == 1 and len(terms._APPLY_MEMO) == entries


def test_term_replays_exactly_when_its_cost_fits_the_fuel(record_at_once, monkeypatch):
    t = app(_two_step(Opaque("zfit")), num(6))
    cost = machine.eval_term(t).steps
    value = intern_value(Value(Opaque("zfit"), (num_value(6),)))
    assert _term_entry(t)[:2] == (value, cost)
    # u = K #0 t fires K #0 (one step), then enters t; its own record
    # never completes below.  A replay visits no node of t, so the seen
    # filter, emptied, counts only u and K #0.
    u = App(App(K, num(0)), t)
    for root, entered in ((t, 0), (u, 1)):
        for fuel, replays in ((entered + cost, True), (entered + cost - 1, False)):
            monkeypatch.setattr(machine, "_SEEN", bytearray(machine._SEEN_SLOTS))
            cfg = FuelConfig(fuel)
            got = _outcome(machine.eval_term, root, cfg)
            assert got == _outcome(reference_impl.oracle_eval_term, root, cfg)
            assert isinstance(got, Defined if root is t and replays else FuelExhausted)
            assert (sum(machine._SEEN) == 2 * entered) is replays, (root, fuel)


def test_only_the_outermost_term_is_recorded(record_at_once):
    inner = App(_I, Opaque("inner-term"))
    outer = app(K, inner, num(0))
    for _ in range(2):
        assert machine.eval_term(outer).value == Value(Opaque("inner-term"))
    assert _term_entry(outer) is not None
    assert _term_entry(outer.fun) is None and _term_entry(inner) is None


def test_a_raising_closed_term_is_never_recorded(monkeypatch):
    monkeypatch.setattr(machine, "_SEEN", bytearray(machine._SEEN_SLOTS))
    bad = App(num(1), K)
    u = app(K, _I, bad)
    errors = [_outcome(machine.eval_term, u, DEFAULT_FUEL) for _ in range(4)]
    assert errors == [(IllTypedApplication, "numeral #1 applied as a function")] * 4
    assert _term_entry(u) is None and _term_entry(bad) is None


def test_evaluation_under_an_environment_records_no_term(record_at_once):
    closed = App(_I, num(2))
    t = App(App(K, Var("x")), closed)
    env = {"x": intern_value(Value(Opaque("env-x")))}
    for _ in range(3):
        assert machine.eval_term(t, env).value is env["x"]
    assert _term_entry(t) is None and _term_entry(closed) is None


def test_memo_hit_still_checks_the_size_cap():
    # An extension past the cap that is interned already (by hand here)
    # does not let the application through: the cap is checked first.
    with _saved_tables():
        f = machine._share(Value(Opaque("cap"), (num_value(1),)))
        a = machine._share(_doubled("cap-big", 19))
        assert f.size + a.size > DEFAULT_FUEL.max_value_size
        intern_value(f.extend(a))
        for _ in range(2):
            with pytest.raises(ValueSizeExceeded):
                machine.apply_value(f, a)


def test_intern_overflow_empties_the_memo(monkeypatch, record_at_once):
    with _saved_tables():
        f = val(_two_step(intern_value(Value(Opaque("ovf")))))
        a = intern_value(num_value(3))
        r = machine.apply_value(f, a).value
        assert _entry(f, a)[0] is r
        closed = App(_I, Opaque("ovf-term"))
        machine.eval_term(closed)
        assert _term_entry(closed) is not None
        monkeypatch.setattr(terms, "INTERN_LIMIT", len(terms._INTERN) - 1)
        assert intern_value(Value(Opaque("one-more"))) is not None
        assert not terms._APPLY_MEMO and len(terms._INTERN) == 1
        # f and a are no longer interned: they are shared again on entry,
        # and the redex enters the memo again.
        again = machine.apply_value(f, a).value
        assert again == r and again is terms._INTERN[again]
        assert _interned(f) and _interned(a) and _entry(f, a)[0] is again
        # Whole-redex entries add no interned values, so the memo also
        # empties itself once it passes the limit.
        monkeypatch.setattr(terms, "INTERN_LIMIT", 10**6)
        z = intern_value(Value(Opaque("zovf")))
        t_z = machine.eval_term(_two_step(z)).value
        i_val = machine.eval_term(_I).value
        xs = [intern_value(num_value(n)) for n in range(40, 70)]
        for x in xs:  # intern z x and K x, so that T z x interns nothing new
            machine.apply_value(z, x)
            machine.apply_value(i_val, x)
        # More interned values keep the limit below the table's size.
        for n in range(100, 120):
            intern_value(num_value(n))
        interned = len(terms._INTERN)
        limit = len(terms._APPLY_MEMO) + 10
        assert limit < interned  # a new interned value would empty both
        monkeypatch.setattr(terms, "INTERN_LIMIT", limit)
        sizes = []
        for x in xs:
            assert machine.apply_value(t_z, x).steps == 7
            sizes.append(len(terms._APPLY_MEMO))
        assert len(terms._INTERN) == interned
        # It grows to one past the limit, then the next admission empties it.
        top = sizes.index(limit + 1)
        assert max(sizes) == limit + 1 and sizes[top + 1] == 1
        assert _entry(t_z, xs[top + 1]) is not None and _entry(t_z, xs[0]) is None


def test_intern_overflow_keeps_the_constants(monkeypatch):
    # A clear drops the constants from _INTERN; each is shared again when it
    # next enters the machine, so a redex that hands S back enters the memo
    # again, and the suites answer as at the default limit.
    from extreal.suites import run_suite

    def cases(ids):
        return [[(c.name, c.ok, c.detail, c.snippet) for c in run_suite(i, 0).cases] for i in ids]

    ids = ("pca-laws", "fixpoints")
    want = cases(ids)
    with _saved_tables():
        s_val = machine._const_value(ConstKind.S)
        monkeypatch.setattr(terms, "INTERN_LIMIT", len(terms._INTERN) - 1)
        intern_value(Value(Opaque("clear")))
        assert not terms._APPLY_MEMO and not _interned(s_val)
        i_val = machine.eval_term(_I).value
        for _ in range(3):  # the seen filter records the redex by its third firing
            assert machine.apply_value(i_val, s_val).value is s_val
        assert _interned(s_val) and _entry(i_val, s_val) == (s_val, 3, i_val, s_val)
        # A limit low enough that the suites clear the table again and again.
        monkeypatch.setattr(terms, "INTERN_LIMIT", 2_000)
        assert cases(ids) == want
        assert len(terms._INTERN) <= 2_001
