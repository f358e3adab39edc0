"""Reduction machine: delta rules, partiality, fuel, determinism."""

import contextlib

import pytest
from hypothesis import assume, given, settings, strategies as st

import reference_impl
from extreal import machine, terms
from extreal.bracket import compile_term, lam
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
        lambda: machine._accumulate(f, a, DEFAULT_FUEL.max_value_size),
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
_s_atoms = [Opaque("a"), Opaque("b"), _I, K, S, SUCC, num(1)]
_s_terms = st.builds(
    lambda c, args: app(c, *args),
    _combinators,
    st.lists(st.sampled_from(_s_atoms), min_size=1, max_size=4),
)


@st.composite
def _sharing_terms(draw):
    """A closed term ``sub``, then a few terms that splice the one object
    ``sub`` as head or argument, so that a recorded ``sub`` replays inside
    them."""
    sub = draw(_s_terms)
    over = st.builds(
        lambda c, args: app(c, *args),
        st.one_of(_combinators, st.just(sub)),
        st.lists(st.sampled_from(_s_atoms + [sub, sub]), min_size=1, max_size=4),
    )
    return [sub] + draw(st.lists(over, min_size=1, max_size=3))


def _term_entry(t):
    e = terms._APPLY_MEMO.get(id(t))
    assert e is None or e[3] is t  # an entry holds its own term
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
    """With a warm memo, at every fuel cap up to the term's total steps + 1
    and two value-size caps, the machine reports the oracle's outcome: the
    same type, steps, note, value and error.  The shared subterm is
    evaluated first, so it is recorded whole and replays (or, where it does
    not fit, is reduced) inside the terms that splice it."""
    ceiling = 120
    sizes = (DEFAULT_FUEL.max_value_size, 12)
    sub = ts[0]
    assume(isinstance(_outcome(reference_impl.oracle_eval_term, sub, FuelConfig(ceiling)), Defined))
    with pytest.MonkeyPatch.context() as mp, _saved_tables():
        mp.setattr(machine, "_SEEN", bytearray(b"\x02" * machine._SEEN_SLOTS))
        # Empty the tables as an overflow does, so that every value the
        # terms reach is interned: a value interned earlier from an
        # uninterned argument (K x, say) would hand that argument back.
        terms._INTERN.clear()
        terms._INTERN.update(terms._PINNED)
        terms._APPLY_MEMO.clear()
        for t in ts:
            for size in sizes:
                for _ in range(2):
                    _outcome(machine.eval_term, t, FuelConfig(ceiling, size))
        assert _term_entry(sub) is not None
        for t in ts:
            for size in sizes:
                for fuel in range(1, ceiling + 2):
                    cfg = FuelConfig(fuel, size)
                    want = _outcome(reference_impl.oracle_eval_term, t, cfg)
                    assert _outcome(machine.eval_term, t, cfg) == want, (t, cfg)
                    if not isinstance(want, FuelExhausted):
                        # The total is reached; check total + 1 and stop.
                        cfg = FuelConfig(fuel + 1, size)
                        assert _outcome(machine.eval_term, t, cfg) == want, (t, cfg)
                        break


def test_term_replays_exactly_when_its_cost_fits_the_fuel(record_at_once, monkeypatch):
    t = app(_two_step(Opaque("zfit")), num(6))
    cost = machine.eval_term(t).steps
    value = intern_value(Value(Opaque("zfit"), (num_value(6),)))
    assert _term_entry(t)[:3] == (value, cost, DEFAULT_FUEL.max_value_size)
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


def test_fresh_operands_never_enter_the_memo(record_at_once):
    fresh = Value(Opaque("u"))
    one = intern_value(num_value(1))
    for _ in range(2):
        out = machine.apply_value(fresh, one)
        assert out.value == Value(Opaque("u"), (one,))
        assert out.value is intern_value(Value(Opaque("u"), (one,)))
    assert _entry(fresh, one) is None
    # Values bound in an environment are not interned either.
    env = {"f": Value(Opaque("envf")), "x": Value(Num(4))}
    for _ in range(2):
        got = machine.eval_term(App(Var("f"), Var("x")), env).value
        assert got == Value(Opaque("envf"), (num_value(4),))
    assert _entry(env["f"], env["x"]) is None
    # A fresh argument whose application is already interned under an equal
    # argument object is not admitted (the table does not hold it).
    g = intern_value(Value(Opaque("g")))
    machine.apply_value(g, intern_value(num_value(5)))
    fresh_arg = Value(Num(5))
    assert machine.apply_value(g, fresh_arg).value.args[-1] is not fresh_arg
    assert _entry(g, fresh_arg) is None
    # Whole redexes: an interned operator S x y applied to an interned
    # argument is recorded with its cost after the firing ...
    i_val = val(_I)
    z = intern_value(Value(Opaque("z")))
    t_z = val(_two_step(z))
    arg = intern_value(num_value(6))
    out = machine.apply_value(t_z, arg)
    assert out.value == Value(Opaque("z"), (arg,)) and out.steps == 7
    assert _entry(t_z, arg) == (out.value, 6, DEFAULT_FUEL.max_value_size)
    # ... but not with a fresh operator, a fresh argument, or in an
    # environment.
    fresh_t = Value(t_z.head, t_z.args)
    for f, a in ((fresh_t, arg), (t_z, Value(Num(7))), (i_val, Value(Num(7)))):
        for _ in range(2):
            assert machine.apply_value(f, a).value == reference_impl.oracle_apply_value(f, a).value
        assert _entry(f, a) is None
    env = {"t": Value(t_z.head, t_z.args), "x": Value(Num(8))}
    for _ in range(2):
        machine.eval_term(App(Var("t"), Var("x")), env)
    assert _entry(env["t"], env["x"]) is None
    # Nor one whose result is not interned: K (K x) a = K x returns the
    # fresh x held inside the interned operator S (K (K x)) I.
    x = Value(Opaque("inner"))
    f = intern_value(Value(Const(ConstKind.S), (Value(K, (Value(K, (x,)),)), i_val)))
    for _ in range(2):
        assert machine.apply_value(f, arg).value is x
    assert not _interned(x) and _entry(f, arg) is None
    # Nor a closed term whose value is not interned: K x #1 returns the
    # fresh x spliced into it.
    t = app(K, x, num(1))
    for _ in range(2):
        assert machine.eval_term(t).value is x
    assert _term_entry(t) is None


def test_memo_hit_still_checks_the_size_cap(record_at_once):
    one = intern_value(num_value(1))
    f = intern_value(Value(Opaque("cap"), (one, one, one)))
    a = intern_value(Value(Opaque("big"), (one,) * 5))
    first = machine.apply_value(f, a)
    assert machine.apply_value(f, a).value is first.value and _entry(f, a) is None
    # The interned extension exists, and the cap still refuses it every time.
    for _ in range(2):
        with pytest.raises(ValueSizeExceeded):
            machine.apply_value(f, a, FuelConfig(max_value_size=first.value.size - 1))
    # A whole redex replays only under a cap at least the one it was
    # recorded under.  T z x builds z x (11 nodes here) on the way.
    z = intern_value(Value(Opaque("zcap"), (one,) * 4))
    t_z = val(_two_step(z))
    x = intern_value(Value(Opaque("xcap"), (one,) * 5))
    for cap in (11, 12, 10**6, 11):  # recorded under 11: replays under 12 and 10**6
        out = machine.apply_value(t_z, x, FuelConfig(max_value_size=cap))
        assert out.value.size == 11 and out.steps == 7
        assert _entry(t_z, x)[2] == 11
    with pytest.raises(ValueSizeExceeded):
        machine.apply_value(t_z, x, FuelConfig(max_value_size=10))
    assert _entry(t_z, x)[2] == 11
    # Recorded under a large cap, it is reduced again under a smaller one
    # (and then recorded under that).
    y = intern_value(Value(Opaque("ycap"), (one,) * 5))
    machine.apply_value(t_z, y)
    assert _entry(t_z, y)[2] == DEFAULT_FUEL.max_value_size
    with pytest.raises(ValueSizeExceeded):
        machine.apply_value(t_z, y, FuelConfig(max_value_size=10))
    assert machine.apply_value(t_z, y, FuelConfig(max_value_size=11)).steps == 7
    assert _entry(t_z, y)[2] == 11


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
        assert not terms._APPLY_MEMO and len(terms._INTERN) == len(terms._PINNED) + 1
        # f is no longer interned: the machine's result is the table's, and
        # the entry is not re-admitted.
        again = machine.apply_value(f, a).value
        assert again == r and again is terms._INTERN[again]
        assert _entry(f, a) is None
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
    # A clear refills _INTERN with the pinned constants, so a redex that
    # hands S back enters the memo again, and the suites answer as at the
    # default limit.
    from extreal.suites import run_suite

    def cases(ids):
        return [[(c.name, c.ok, c.detail, c.snippet) for c in run_suite(i, 0).cases] for i in ids]

    ids = ("pca-laws", "fixpoints")
    want = cases(ids)
    with _saved_tables():
        s_val = machine._const_value(ConstKind.S)
        assert terms._PINNED.get(s_val) is s_val
        monkeypatch.setattr(terms, "INTERN_LIMIT", len(terms._INTERN) - 1)
        intern_value(Value(Opaque("clear")))
        assert not terms._APPLY_MEMO and _interned(s_val)
        i_val = machine.eval_term(_I).value
        for _ in range(3):  # the seen filter records the redex by its third firing
            assert machine.apply_value(i_val, s_val).value is s_val
        assert _entry(i_val, s_val) == (s_val, 3, DEFAULT_FUEL.max_value_size)
        # A limit low enough that the suites clear the table again and again.
        monkeypatch.setattr(terms, "INTERN_LIMIT", 2_000)
        assert cases(ids) == want
        assert _interned(s_val) and len(terms._INTERN) <= 2_001
