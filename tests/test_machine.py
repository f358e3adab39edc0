"""Reduction machine: delta rules, partiality, fuel, determinism."""

import copy
import functools
import gc
import itertools
import re
import sys
import time
import weakref
from collections.abc import MutableMapping, MutableSequence, MutableSet
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import reference_impl
from test_compiler import _ATOMS, _terms
from extreal import kernel, machine, terms
from extreal.bracket import EXPANSIONS, compile_term, lam
from extreal.kernel import apply_value, apply_values, eval_term, kleene_agree
from extreal.terms import (
    App,
    Const,
    ConstKind,
    D,
    DELTA_ARITY,
    Defined,
    Run,
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
        ta, a = random_printable_value(rng, Run())
        tb, b = random_printable_value(rng, Run())
        assert kleene_agree(App(P0, app(P, ta, tb)), ta) is True
        assert kleene_agree(App(P1, app(P, ta, tb)), tb) is True


def test_determinism_and_fuel_monotonicity():
    import random

    rng = random.Random(2)
    from extreal.suites import random_closed_term
    from extreal.terms import MachineError

    for _ in range(300):
        t = random_closed_term(rng, 8)
        try:
            o1 = eval_term(t, None, Run(max_steps=500))
        except MachineError:
            continue
        if isinstance(o1, Defined):
            o2 = eval_term(t, None, Run(max_steps=50_000))
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
        Run(max_steps=0)
    with pytest.raises(ValueError):
        Run().replace(max_steps=0)
    # The value size cap is fixed: a class constant, not a field.  The
    # operation table and its seen filter are fields, but no limits: they
    # take no part in a run's equality, hash or repr.
    limits = ("max_steps", "max_index", "generators_per_type", "seed")
    assert Run.__slots__ == (*limits, "ops", "seen") and Run.__match_args__ == limits
    a, b = Run(7, 5, 4, 3), Run(7, 5, 4, 3, {1: 2}, bytearray(3))
    assert a.ops is not b.ops and a.seen != b.seen
    assert a == b and hash(a) == hash(b) == hash((7, 5, 4, 3))
    assert repr(a) == repr(b) == "Run(max_steps=7, max_index=5, generators_per_type=4, seed=3)"
    assert "max_value_size" not in Run.__slots__ and "max_value_size" in vars(Run)
    assert Run(7).max_value_size == Run().max_value_size == 10**6
    # A derived run shares its parent's table and filter, unless it names them.
    child = b.replace(max_steps=9)
    assert child == Run(9, 5, 4, 3) and child.ops is b.ops and child.seen is b.seen
    fresh = b.replace(ops={})
    assert fresh == b and fresh.ops == {} and fresh.ops is not b.ops and fresh.seen is b.seen
    with pytest.raises(TypeError):
        b.replace(max_value_size=5)


def test_only_entry_points_default_the_run():
    # Inner functions take the run from their caller, so no part of a
    # verdict runs under a default in place of the caller's limits.  An
    # entry point given no run builds a fresh one per call (its default is
    # None), so no table is carried from one call to the next.
    import inspect

    from extreal import checker, names, realizers, scenarios, suites

    def defaults_a_run(fn):
        return any(p.default is not p.empty and "Run" in str(p.annotation)
                   for p in inspect.signature(fn).parameters.values())

    entry_points = (
        suites.run_suite, scenarios.run_scenario, checker.check, checker.check_imp_on_witnesses,
        kernel.apply, kernel.evaluate, kernel.project, kernel.pair_value, kernel.value_of,
        kernel.kleene_agree, machine.eval_term, machine.apply_value, machine.apply_values,
        machine.kleene_eq)
    assert all(inspect.signature(fn).parameters["run"].default is None for fn in entry_points)
    found = [
        f"{mod.__name__}.{name}"
        for mod in (names, realizers, suites, checker, scenarios, kernel, machine)
        for name, fn in vars(mod).items()
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and defaults_a_run(fn)
        and fn not in entry_points
    ]
    assert found == []


def test_no_module_keeps_a_library_value():
    # A library value is built under the run that asks for it and kept in
    # its table; the functools caches of the package hold terms only.
    import importlib
    import pkgutil

    import extreal

    cached = {
        f"{info.name}.{name}": fn.__wrapped__.__annotations__.get("return")
        for info in pkgutil.iter_modules(extreal.__path__) if info.name != "_speedup"
        for name, fn in vars(importlib.import_module(f"extreal.{info.name}")).items()
        if hasattr(fn, "cache_info")
    }
    assert cached and [name for name, ret in cached.items() if ret is None or "Value" in ret] == []
    assert not hasattr(kernel, "_consts")


def test_two_calls_without_a_run_ask_the_machine_alike(monkeypatch):
    # Each call builds its own run, so the second finds no table left by the
    # first and asks the machine the same applications in the same order.
    from extreal.checker import RealizerPair, check
    from extreal.formulas import Eq
    from extreal.names import Nat, Sing
    from extreal.realizers import i_r_value

    pair, phi = RealizerPair.both(i_r_value(Run())), Eq(Sing(Nat(3)), Sing(Nat(3)))
    asked = []
    raw = kernel.apply_value

    def counted(f, x, run):
        asked.append((f, x))
        return raw(f, x, run)

    monkeypatch.setattr(kernel, "apply_value", counted)
    first = check(pair, phi)
    n = len(asked)
    second = check(pair, phi)
    assert n == 15 and asked[n:] == asked[:n]
    assert first.status is second.status


def test_only_the_kernel_asks_the_machine():
    # The layers above the kernel ask through kernel.apply, project and
    # evaluate, which end every operation in a value, Crash or Open: none
    # of them binds a raw machine operation or catches a machine error.
    import inspect
    import types

    from extreal import checker, names, realizers, scenarios, suites

    raw = {"eval_term", "apply_value", "apply_values", "MachineError", "IllTypedApplication",
           "StuckApplication", "UnboundVariable", "ValueSizeExceeded"}

    def used(code):
        yield from code.co_names
        for c in code.co_consts:
            if isinstance(c, types.CodeType):
                yield from used(c)

    found = sorted(
        f"{mod.__name__}.{name}"
        for mod in (checker, names, realizers, scenarios, suites)
        for name in raw & set(used(compile(inspect.getsource(mod), mod.__file__, "exec")))
    )
    assert found == []


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
    assert machine._accumulate(v, a) is built and built.size == v.size + a.size


def test_const_kind_hashes_by_identity():
    # Value hashes and the machine's arity lookups hash ConstKind members;
    # Enum.__hash__ would be a Python-level call on each.
    assert ConstKind.__hash__ is object.__hash__


# The application memo of the reference machine.


def _seen_at(run, count, **changes):
    """A run derived from ``run``, so sharing its table, with a seen filter
    of its own whose every slot counts ``count``: at 2 every S-redex is
    recorded at its first firing, at 0 the filter is empty."""
    return run.replace(seen=bytearray([count]) * len(run.seen), **changes)


def _entry(run, f, a):
    """The run's memo entry of the S-redex ``f a``, if any, under the pair
    of its operands."""
    return run.ops.get((f, a))


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
@given(_partial, _values, st.booleans())
def test_memo_returns_the_interned_application(f, a, machine_first):
    run = Run()
    calls = [
        lambda: machine._accumulate(f, a),
        lambda: machine.apply_value(f, a, run).value,
    ]
    if machine_first:
        calls.reverse()
    want = None
    for _ in range(2):  # first application, then repeated
        for call in calls:
            got = call()
            if want is None:
                want = Value(f.head, f.args + (a,))
            assert got is want
    assert machine.apply_value(f, a, run).steps == 1
    # The constructor answers a repeat; a partial application adds no memo
    # entry.
    assert run.ops == {}


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


# Values equal to ones the machine builds, spliced into a term as a Value or
# as the value an Opaque carries.
_value_atoms = st.builds(
    lambda v, boxed: Opaque("v", v) if boxed else v,
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


def _term_entry(run, t):
    """The run's memo entry of the closed term ``t``, if any, under the term
    itself."""
    e = run.ops.get(t)
    assert e is None or len(e) == 2  # (value, cost)
    return e


def _outcome(evaluate, t, cfg, env=None):
    try:
        return evaluate(t, env, cfg)
    except MachineError as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(_sharing_terms())
def test_memo_replays_match_the_memo_free_oracle(ts):
    """With a warm memo, at every fuel cap up to the term's total steps + 1,
    the machine reports the oracle's outcome: the same type, steps, note,
    value and error.  The shared subterm is evaluated first, so it is
    recorded whole and replays (or, where it does not fit, is reduced)
    inside the terms that splice it.  Every fuel runs in a run derived from
    the warm one, so all share its memo."""
    ceiling = 120
    sub = ts[0]
    assume(isinstance(_outcome(reference_impl.oracle_eval_term, sub, Run(ceiling)), Defined))
    warm = _seen_at(Run(ceiling), 2)
    for t in ts:
        for _ in range(2):
            _outcome(machine.eval_term, t, warm)
    assert _term_entry(warm, sub) is not None
    for t in ts:
        for fuel in range(1, ceiling + 2):
            cfg = warm.replace(max_steps=fuel)
            want = _outcome(reference_impl.oracle_eval_term, t, cfg)
            assert _outcome(machine.eval_term, t, cfg) == want, (t, cfg)
            if not isinstance(want, FuelExhausted):
                # The total is reached; check total + 1 and stop.
                cfg = warm.replace(max_steps=fuel + 1)
                assert _outcome(machine.eval_term, t, cfg) == want, (t, cfg)
                break


def _all_canonical(v):
    """Whether v and every value below it is the object the constructor
    returns for its head and arguments."""
    seen, stack = set(), [v]
    while stack:
        x = stack.pop()
        if id(x) not in seen:
            seen.add(id(x))
            if Value(x.head, x.args) is not x:
                return False
            stack.extend(x.args)
    return True


@settings(max_examples=100, deadline=None)
@given(_sharing_terms(st.one_of(_s_atoms, _value_atoms)), _value_atoms, _value_atoms)
def test_machine_values_are_shared(ts, f, a):
    """Values spliced into terms, or applied: each result, and every value
    below it, is the object the constructor returns, and every memo entry
    is keyed by the canonical objects themselves, a term or the operand
    pair of a redex, and holds a canonical value and its cost."""
    f, a = (x.value if isinstance(x, Opaque) else x for x in (f, a))
    run = _seen_at(Run(120), 2)
    runs = [(machine.eval_term, t, None) for t in ts for _ in range(2)]
    runs += [(machine.apply_value, f, a)] * 2
    for op, x, y in runs:
        try:
            out = op(x, y, run)
        except MachineError:
            continue
        assert not isinstance(out, Defined) or _all_canonical(out.value), (x, y)
    for key, e in run.ops.items():
        if type(key) is App:
            assert App(key.fun, key.arg) is key
        else:
            assert [type(x) for x in key] == [Value, Value] and all(map(_all_canonical, key))
        assert len(e) == 2 and _all_canonical(e[0]) and type(e[1]) is int


def _doubled(ident, n):
    """A value of 2**(n + 1) - 1 nodes from n + 1 objects: each a pair of
    the one below."""
    v = Value(Opaque(ident))
    for _ in range(n):
        v = Value(Opaque(ident), (v, v))
    return v


def test_a_large_value_built_twice_is_one_object():
    # A value of 2**21 - 1 nodes from 21 objects, built twice, is one
    # object; spliced into terms, it ends at once, with the size cap or a
    # value, and no recursion.
    start = time.perf_counter()
    big = _doubled("share-big", 20)
    assert _doubled("share-big", 20) is big and big.size == 2**21 - 1
    capped = kernel.evaluate(App(K, Opaque("big", big)), Run())
    dropped = kernel.evaluate(app(K, num(0), Opaque("big", big)), Run())
    assert time.perf_counter() - start < 1.0
    assert isinstance(capped, kernel.Open) and isinstance(capped.error, ValueSizeExceeded)
    assert dropped == num_value(0)


def test_deep_values_built_apart_are_one_object():
    # Construction compares arguments by identity, so neither the depth nor
    # the tree size of a value costs a walk: two chains c (c (... #0)) of
    # 3,000 levels, built apart, apply without recursion, and two values of
    # 2**19 - 1 nodes are one object.
    def chain():
        v = num_value(0)
        for _ in range(3_000):
            v = Value(Opaque("c"), (v,))
        return v

    f, a = chain(), chain()
    out = machine.apply_value(f, a)
    assert isinstance(out, Defined) and out.value.args == (*f.args, a)
    assert f is a and _doubled("deep", 18) is _doubled("deep", 18)


def test_the_value_table_is_weak(monkeypatch):
    # A value that nothing holds leaves _INTERN.  One that the memo or the
    # machine's constant table holds stays, and a memo overflow leaves the
    # table's constants what the constructor and the machine return.
    from extreal.formulas import Mem
    from extreal.names import Nat, Sing

    key = (Opaque("weak"), (num_value(1),))
    Value(*key)
    assert key not in terms._INTERN
    # So does a name or a formula, under its class and fields.
    for key in ((Sing, Nat(41)), (Mem, Nat(0), "weak")):
        key[0](*key[1:])
        assert key not in terms._INTERN
    run = _seen_at(Run(), 2)
    s_val, p_val = machine.CONST_VALUES[ConstKind.S], machine.CONST_VALUES[ConstKind.P]
    t_z = machine.eval_term(_two_step(Value(Opaque("weak-z"))), None, run).value
    x = num_value(7)
    held = weakref.ref(machine.apply_value(t_z, x, run).value)
    assert held() is _entry(run, t_z, x)[0] is not None
    monkeypatch.setattr(terms, "MEMO_LIMIT", len(run.ops) - 1)
    machine.apply_value(t_z, num_value(8), run)  # its first record empties the memo
    assert _entry(run, t_z, x) is None and held() is None
    assert Value(Const(ConstKind.S)) is s_val is machine.eval_term(S, None, run).value
    assert machine.eval_term(EXPANSIONS[ConstKind.P], None, run).value is p_val


def test_a_late_callback_keeps_the_rebuilt_value():
    # A record's death drops its entry from _INTERN only while that entry is
    # its own dead reference: a record built again under the same key keeps
    # its entry when the old reference's callback runs late.  A value's key
    # is its head and arguments, a name's or a formula's its class and fields.
    from extreal.formulas import Mem
    from extreal.names import Nat, Sing

    for cls, fields in ((Value, (Opaque("lifetime"), (num_value(3),))), (Sing, (Nat(43),)),
                        (Mem, (Nat(0), "lifetime"))):
        key = fields if cls is Value else (cls, *fields)
        v = cls(*fields)
        old = terms._INTERN[key]
        callback = old.__callback__
        del v
        assert old() is None and key not in terms._INTERN
        again = cls(*fields)
        entry = terms._INTERN[key]
        callback(old)
        assert terms._INTERN[key] is entry and entry() is again
        assert cls(*fields) is again


def test_runs_leave_no_entry_in_the_value_table():
    # Every suite under one run, the run dropped: every entry of _INTERN
    # is a live value, and there are as many as before.
    from extreal import suites

    gc.collect()
    start = len(terms._INTERN)
    run = Run()
    for name in suites.SUITES:
        suites.run_suite(name, run)
    del run
    gc.collect()
    assert all(r() is not None for r in terms._INTERN.values())
    assert len(terms._INTERN) == start


def test_equal_operands_share_one_memo_entry():
    # T z #6, built twice, is one App node over the same operands, and its
    # second run is one memo entry replayed, with the oracle's steps and
    # value.
    def fresh():
        i_val = Value(Const(ConstKind.S), (Value(K), Value(K)))
        t_z = Value(Const(ConstKind.S), (Value(K, (Value(Opaque("z-equal")),)), i_val))
        return App(t_z, Value(Num(6)))

    run = _seen_at(Run(), 2)
    first = fresh()
    want = reference_impl.oracle_eval_term(first)
    assert machine.eval_term(first, None, run) == want and want.steps == 7
    f, a = first.fun, first.arg
    assert _entry(run, f, a) == (want.value, 6)
    assert _term_entry(run, first) == (want.value, want.steps)
    entries = len(run.ops)
    # An emptied seen filter counts no node: the term is not reduced again.
    again = _seen_at(run, 0)
    second = fresh()
    assert second is first
    assert machine.eval_term(second, None, again) == want
    assert sum(again.seen) == 0 and len(run.ops) == entries


def test_term_replays_exactly_when_its_cost_fits_the_fuel():
    run = _seen_at(Run(), 2)
    t = app(_two_step(Opaque("zfit")), num(6))
    cost = machine.eval_term(t, None, run).steps
    value = Value(Opaque("zfit"), (num_value(6),))
    assert _term_entry(run, t) == (value, cost)
    # u = K #0 t fires K #0 (one step), then enters t; its own record
    # never completes below.  A replay visits no node of t, so the seen
    # filter, emptied, counts only u and K #0.
    u = App(App(K, num(0)), t)
    for root, entered in ((t, 0), (u, 1)):
        for fuel, replays in ((entered + cost, True), (entered + cost - 1, False)):
            cfg = _seen_at(run, 0, max_steps=fuel)
            got = _outcome(machine.eval_term, root, cfg)
            assert got == _outcome(reference_impl.oracle_eval_term, root, cfg)
            assert isinstance(got, Defined if root is t and replays else FuelExhausted)
            assert (sum(cfg.seen) == 2 * entered) is replays, (root, fuel)


def test_only_the_outermost_term_is_recorded():
    run = _seen_at(Run(), 2)
    inner = App(_I, Opaque("inner-term"))
    outer = app(K, inner, num(0))
    for _ in range(2):
        assert machine.eval_term(outer, None, run).value == Value(Opaque("inner-term"))
    assert _term_entry(run, outer) is not None
    assert _term_entry(run, outer.fun) is None and _term_entry(run, inner) is None


def test_a_raising_closed_term_is_never_recorded():
    run = Run()
    bad = App(num(1), K)
    u = app(K, _I, bad)
    errors = [_outcome(machine.eval_term, u, run) for _ in range(4)]
    assert errors == [(IllTypedApplication, "numeral #1 applied as a function")] * 4
    assert _term_entry(run, u) is None and _term_entry(run, bad) is None


def test_evaluation_under_an_environment_records_the_bound_term():
    # The environment is bound before the run, so the machine evaluates, and
    # records whole, the closed term; the term with the variable has no
    # entry, and neither has the inner node of the one recorded.
    closed = App(_I, num(2))
    t = App(App(K, Var("x")), closed)
    env = {"x": Value(Opaque("env-x"))}
    run = _seen_at(Run(), 2)
    for _ in range(3):
        assert machine.eval_term(t, env, run).value is env["x"]
    assert _term_entry(run, App(App(K, env["x"]), closed)) is not None
    assert _term_entry(run, t) is None and _term_entry(run, closed) is None


# Elements an environment binds: numerals, constants, the values of
# combinators, partial applications and inert heads with arguments.
_env_values = st.recursive(
    st.sampled_from([
        num_value(0), num_value(2), Value(K), Value(S), Value(SUCC), Value(PRED), Value(D),
        Value(KBAR), val(_I), val(P), val(P0), Value(K, (num_value(1),)), Value(Opaque("e")),
    ]),
    lambda inner: st.builds(lambda i, args: Value(Opaque(i), tuple(args)), st.sampled_from("ab"),
                            st.lists(inner, min_size=1, max_size=2)),
    max_leaves=4,
)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_terms(binders=True), st.lists(_ATOMS, max_size=3),
       st.dictionaries(st.sampled_from(("x", "y", "z")), _env_values))
def test_environment_binding_matches_the_memo_free_oracle(body, args, env):
    """A compiled term with free variables, applied to a few atoms, under an
    environment that binds some of them: at every fuel cap up to the
    total steps + 1, the machine reports the oracle's outcome, the same
    type, steps, note, value and error, an unbound variable included.  The
    fuels run in runs derived from one that records every redex and has
    run the term at the largest fuel, so each replays what was recorded,
    where that fits, and reduces it again where it does not."""
    t = app(compile_term(body), *args)
    ceiling = 120
    root = _seen_at(Run(ceiling), 2)
    for _ in range(2):
        _outcome(machine.eval_term, t, root, env)
    for fuel in range(1, ceiling + 2):
        cfg = root.replace(max_steps=fuel)
        want = _outcome(reference_impl.oracle_eval_term, t, cfg, env)
        assert _outcome(machine.eval_term, t, cfg, env) == want, (t, env, fuel)
        if not isinstance(want, FuelExhausted):
            cfg = root.replace(max_steps=fuel + 1)
            assert _outcome(machine.eval_term, t, cfg, env) == want, (t, env, fuel)
            break


def test_memo_hit_still_checks_the_size_cap():
    # An extension past the cap that exists already (built by hand here)
    # does not let the application through: the cap is checked first.
    run = Run()
    f = Value(Opaque("cap"), (num_value(1),))
    a = _doubled("cap-big", 19)
    over = Value(f.head, f.args + (a,))
    assert over.size > run.max_value_size
    for _ in range(2):
        with pytest.raises(ValueSizeExceeded):
            machine.apply_value(f, a, run)


def test_memo_overflow_empties_the_memo(monkeypatch):
    # Past MEMO_LIMIT entries the next admission empties the memo, closed
    # terms and redexes alike; the values the test holds stay what the
    # machine returns, and a redex enters the memo again.
    run = _seen_at(Run(), 2)
    z = Value(Opaque("zovf"))
    t_z = machine.eval_term(_two_step(z), None, run).value
    i_val = machine.eval_term(_I, None, run).value
    closed = App(_I, Opaque("ovf-term"))
    machine.eval_term(closed, None, run)
    assert _term_entry(run, closed) is not None
    xs = [num_value(n) for n in range(40, 70)]
    for x in xs:  # record I x, so that T z x adds one entry
        machine.apply_value(i_val, x, run)
    limit = len(run.ops) + 10
    monkeypatch.setattr(terms, "MEMO_LIMIT", limit)
    sizes = []
    for x in xs:
        assert machine.apply_value(t_z, x, run).steps == 7
        sizes.append(len(run.ops))
    # It grows to one past the limit, then the next admission empties it.
    top = sizes.index(limit + 1)
    assert max(sizes) == limit + 1 and sizes[top + 1] == 1
    assert _entry(run, t_z, xs[top + 1]) is not None and _entry(run, t_z, xs[0]) is None
    assert _term_entry(run, closed) is None
    assert machine.eval_term(_two_step(z), None, run).value is t_z
    assert machine.eval_term(_I, None, run).value is i_val
    r = machine.apply_value(t_z, xs[0], run).value
    assert _all_canonical(r) and _entry(run, t_z, xs[0])[0] is r


def test_memo_overflow_keeps_the_constants(monkeypatch):
    # A memo clear leaves the machine's constants canonical: a redex that
    # hands S back returns the one S object and enters the memo again, and
    # every suite answers as at the default limit.
    from extreal.suites import SUITES, run_suite

    def cases(run):
        return [[(c.name, c.ok, c.detail, c.snippet) for c in run_suite(i, run).cases] for i in SUITES]

    want = cases(Run())
    run = Run()
    s_val = machine.CONST_VALUES[ConstKind.S]
    monkeypatch.setattr(terms, "MEMO_LIMIT", -1)
    i_val = machine.eval_term(_I, None, run).value
    for _ in range(3):  # the seen filter records the redex by its third firing
        assert machine.apply_value(i_val, s_val, run).value is s_val
    assert _entry(run, i_val, s_val) == (s_val, 3) and len(run.ops) == 1
    assert Value(Const(ConstKind.S)) is s_val
    # A limit low enough that the suites empty the table again and again.
    monkeypatch.setattr(terms, "MEMO_LIMIT", 2_000)
    run = Run()
    assert cases(run) == want
    assert len(run.ops) <= 2_001


# The run's table: ``kernel.apply`` answers an application that the run, or
# a run derived from it, asked before at the same fuel, and projection and
# pairing are applications of the values of P0, P1 and P.  The operands end
# in a value, a crash or an open run, depending on the fuel; _TEN is
# λx. SUCC^10 x and _SELF is δ, so δ δ diverges.

_TEN = val(compile_term(lam("x", functools.reduce(lambda t, _: App(SUCC, t), range(10), Var("x")))))
_SELF = val(compile_term(lam("x", App(Var("x"), Var("x")))))
_PAIR, _PROJ = val(P), (val(P0), val(P1))
_TABLE_VALUES = [
    num_value(0), num_value(3), Value(K), Value(PRED), _TEN, _SELF,
    val(app(P, num(1), Opaque("ten", _TEN))),
]
_TABLE_OPS = st.one_of(
    st.tuples(st.just(kernel.apply), st.sampled_from(_TABLE_VALUES), st.sampled_from(_TABLE_VALUES)),
    st.tuples(st.just(kernel.project), st.sampled_from(_TABLE_VALUES), st.sampled_from((0, 1))),
    st.tuples(st.just(kernel.pair_value), st.sampled_from(_TABLE_VALUES), st.sampled_from(_TABLE_VALUES)),
)


def _asked(op, f, x, run):
    """``op(f, x, run)``'s outcome; pairing's ``NoValue`` carries it."""
    try:
        return op(f, x, run)
    except kernel.NoValue as exc:
        return exc.outcome


def _ended(out):
    """An outcome as the oracle reports it: the value, the error's type and
    message, or None for a run out of fuel."""
    if isinstance(out, Value):
        return out
    return None if out.error is None else (type(out.error), str(out.error))


def _oracle_ended(op, f, x, fuel):
    """How the memo-free oracle ends ``op(f, x)``: a projection applies P0
    or P1 to f, a pairing applies P to f and then to x, each application
    under the whole fuel."""
    if op is kernel.project:
        fn, args = _PROJ[x], [f]
    elif op is kernel.pair_value:
        fn, args = _PAIR, [f, x]
    else:
        fn, args = f, [x]
    try:
        for a in args:
            out = reference_impl.oracle_apply_value(fn, a, Run(fuel))
            if not isinstance(out, Defined):
                return None
            fn = out.value
    except MachineError as exc:
        return type(exc), str(exc)
    return fn


def _no_machine_run(*args):
    raise AssertionError("the table should have answered without the machine")


def _outcome_keys(run):
    """The keys of the run's table that hold ``kernel.apply`` outcomes,
    ``(f, x, fuel)``, and library values, ``(t, fuel)``: the tuples that end
    in the int fuel, unlike the machine's redex keys ``(f, a)``."""
    return {k for k in run.ops if type(k) is tuple and type(k[-1]) is int}


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.lists(_TABLE_OPS, min_size=1, max_size=3), st.data())
def test_a_shared_table_answers_each_fuel_as_a_fresh_run(ops, data):
    """Runs derived with ``replace`` share one table.  Asked in any order
    and at any fuel, an application, projection or pairing ends as under a
    fresh run of that fuel, and as the memo-free oracle ends it, error
    messages included; asked again at a fuel, it runs no machine step.  A
    projection is the application of P0 or P1, one entry of the table; the
    values of P0, P1 and P are the machine's and take no entry."""
    fuels = st.sampled_from((1, 2, 4, 8, 16, 32, 64, 1_000))
    asks = data.draw(st.lists(st.tuples(st.sampled_from(ops), fuels), min_size=1, max_size=12))
    root, asked, want = Run(max_steps=1), set(), set()
    for (op, f, x), fuel in asks:
        run = root.replace(max_steps=fuel)
        assert run.ops is root.ops
        with pytest.MonkeyPatch.context() as mp:
            if ((op, f, x), fuel) in asked:
                mp.setattr(machine, "_run", _no_machine_run)
            got = _asked(op, f, x, run)
        asked.add(((op, f, x), fuel))
        assert _ended(got) == _ended(_asked(op, f, x, Run(max_steps=fuel))), (op, f, x, fuel)
        assert _ended(got) == _oracle_ended(op, f, x, fuel), (op, f, x, fuel)
        if op is kernel.project:
            assert got is kernel.apply(_PROJ[x], f, run)
            want.add((_PROJ[x], f, fuel))
        elif op is kernel.pair_value:
            want.add((_PAIR, f, fuel))
            if isinstance(pf := root.ops[_PAIR, f, fuel], Value):
                want.add((pf, x, fuel))
        else:
            want.add((f, x, fuel))
    assert _outcome_keys(root) == want


def test_a_repeated_pairing_runs_no_machine_step(monkeypatch):
    run = Run()
    first = kernel.pair_value(num_value(1), _TEN, run)
    monkeypatch.setattr(machine, "_run", _no_machine_run)
    assert kernel.pair_value(num_value(1), _TEN, run) is first


def test_an_operation_open_at_a_small_fuel_is_decided_at_a_larger_one():
    small = Run(max_steps=5)
    large = small.replace(max_steps=1_000)
    assert isinstance(kernel.apply(_TEN, num_value(0), small), kernel.Open)
    assert kernel.apply(_TEN, num_value(0), large) is num_value(10)
    assert isinstance(kernel.apply(_TEN, num_value(0), small), kernel.Open)
    assert large.ops is small.ops and len(_outcome_keys(small)) == 2


def test_the_machine_memo_lives_with_its_run():
    # A fresh run starts with an empty memo and filter, and a run derived
    # with replace shares its parent's: there t replays whole, so an emptied
    # seen filter counts none of its nodes, while a fresh run reduces it
    # again.
    t = app(_two_step(Opaque("own-memo")), num(6))
    parent, other = _seen_at(Run(), 2), Run()
    want = machine.eval_term(t, None, parent)
    assert _term_entry(parent, t) is not None and _term_entry(other, t) is None
    child = parent.replace(max_steps=want.steps)
    assert child.ops is parent.ops and other.ops is not parent.ops
    assert child.seen is parent.seen and other.seen is not parent.seen
    assert sum(other.seen) == 0
    for run, replays in ((child, True), (other, False)):
        run = _seen_at(run, 0)
        assert machine.eval_term(t, None, run) == want
        assert (sum(run.seen) == 0) is replays


def test_one_clear_empties_both_kinds_of_entry(monkeypatch):
    # The machine's memo entries and kernel.apply's outcomes share the run's
    # table and its bound: past MEMO_LIMIT entries, the next admission of
    # either kind empties both.
    run, pred = _seen_at(Run(), 2), Value(PRED)
    machine.eval_term(app(_two_step(Opaque("both-kinds")), num(6)), None, run)
    assert kernel.apply(pred, num_value(3), run) is num_value(2)
    kinds = {"term" if type(k) is App else "redex" if len(k) == 2 else "apply" for k in run.ops}
    assert kinds == {"term", "redex", "apply"}
    monkeypatch.setattr(terms, "MEMO_LIMIT", len(run.ops) - 1)
    assert kernel.apply(pred, num_value(4), run) is num_value(3)
    assert list(run.ops) == [(pred, num_value(4), run.max_steps)]


def test_the_run_table_is_emptied_past_the_memo_limit(monkeypatch):
    # A run's table is bounded as the machine memo is: past MEMO_LIMIT
    # entries, the next operation to enter empties it first.
    from extreal.checker import RealizerPair, check
    from extreal.formulas import Eq
    from extreal.names import Nat, Sing
    from extreal.realizers import i_r_value

    monkeypatch.setattr(terms, "MEMO_LIMIT", 2)
    run, pred, sizes = Run(), Value(PRED), []
    for n in range(1, 6):
        assert kernel.apply(pred, num_value(n), run) is num_value(n - 1)
        sizes.append(len(run.ops))
    assert sizes == [1, 2, 3, 1, 2]
    # An answer from the table admits nothing; an operation emptied out runs
    # again, to the same end.
    assert kernel.apply(pred, num_value(5), run) is num_value(4)
    assert len(run.ops) == 2
    assert kernel.apply(pred, num_value(1), run) is num_value(0)
    assert len(run.ops) == 3
    # The same bound holds for the run of a check, which changes no answer.
    ir = i_r_value(Run())
    checked = Run()
    assert check(RealizerPair(ir, ir), Eq(Sing(Nat(3)), Sing(Nat(3))), checked)
    assert 0 < len(checked.ops) <= 3


# Divergence: a redex that fires inside its own reduction is skipped a whole
# number of periods at a time; what the fuel note reports is unchanged.

_X, _Y = Var("x"), Var("y")


def _self_applied(body):
    """g g for g = λx. body."""
    g = compile_term(lam("x", body))
    return App(g, g)


_DELTA = compile_term(lam("x", App(_X, _X)))
_DELTA_DELTA = App(_DELTA, _DELTA)


@functools.cache
def _fixpoint_loops():
    """The closed terms that suite_fixpoints (seed 0) compares with
    ``kleene_agree`` and that exhaust the fuel of that comparison, both
    sides of each law (``kleene_agree`` leaves the second side unrun once
    the first is open)."""
    from extreal import suites

    loops, agree = [], suites.kleene_agree

    def spy(t1, t2, cfg):
        for t in (t1, t2):
            if isinstance(_outcome(machine.eval_term, t, cfg), FuelExhausted):
                loops.append(t)
        return agree(t1, t2, cfg)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(suites, "kleene_agree", spy)
        suites.suite_fixpoints(Run())
    assert len(loops) == 14
    return loops


# Closed values that an x x under them, or after it, leaves on the stacks:
# a wrapper W in W (x x) leaves a value and an application, an argument b
# in x x b an evaluation and an application.
_wrappers = st.lists(st.sampled_from([K, SUCC, App(K, num(1)), App(P, num(0)), _I]), max_size=3)
_tail_args = st.lists(st.sampled_from([K, num(1), App(K, _X)]), max_size=2)


def _wrap(ws, t):
    for w in ws:
        t = App(w, t)
    return t


_divergent = st.one_of(
    # g g: tail loops, and loops whose stacks grow by a period's wrappers
    # and arguments.
    st.builds(lambda ws, bs: _self_applied(_wrap(ws, app(_X, _X, *bs))), _wrappers, _tail_args),
    # g g #0 for g = λxy. W (x x (K y)): the argument grows each round, so
    # no redex fires inside its own reduction and nothing is skipped.
    st.builds(
        lambda ws: App(_self_applied(lam("y", _wrap(ws, app(_X, _X, App(K, _Y))))), num(0)),
        _wrappers,
    ),
    # h g for h = λy. V (y y): a loop under the pending redex h g, with
    # the redexes of its period pending across a skip.
    st.builds(
        lambda vs, ws: App(
            compile_term(lam("y", _wrap(vs, App(_Y, _Y)))),
            compile_term(lam("x", _wrap(ws, App(_X, _X)))),
        ),
        _wrappers,
        _wrappers,
    ),
    st.deferred(lambda: st.sampled_from(_fixpoint_loops())),
)


@settings(max_examples=30, deadline=None)
@given(_divergent)
@example(_DELTA_DELTA)
def test_divergence_matches_the_memo_free_oracle(t):
    """At every fuel cap up to 240 and at a few larger ones, with every
    redex recorded at its first firing and with a fresh seen filter, the
    machine reports the oracle's outcome: the type, steps and note.  The
    fuels run in runs derived from one, so each replays what the ones
    before it recorded, where that fits."""
    fuels = [*range(1, 241), 1_009, 5_003]
    want = [_outcome(reference_impl.oracle_eval_term, t, Run(n)) for n in fuels]
    assert all(isinstance(w, FuelExhausted) for w in want)
    for root in (_seen_at(Run(), 2), Run()):
        got = [_outcome(machine.eval_term, t, root.replace(max_steps=n)) for n in fuels]
        assert got == want
    assert kleene_agree(t, t, Run(fuels[-1])) is None


def test_kleene_agree_runs_the_second_side_only_after_an_end(monkeypatch):
    # Once the first side is open the answer is None, whatever the second
    # side does; two crashes agree, so a crashing first side runs both.
    evaluated, evaluate = [], kernel.eval_term

    def counted(t, env, cfg):
        evaluated.append(t)
        return evaluate(t, env, cfg)

    monkeypatch.setattr(kernel, "eval_term", counted)
    crash, one = App(PRED, num(0)), num(1)
    assert kleene_agree(_DELTA_DELTA, one) is None and evaluated == [_DELTA_DELTA]
    evaluated.clear()
    assert kleene_agree(crash, crash) is True and evaluated == [crash, crash]
    evaluated.clear()
    assert kleene_agree(one, _DELTA_DELTA) is None and evaluated == [one, _DELTA_DELTA]


def _note_counts(out):
    """The pending operations and stacked values of a fuel note."""
    assert isinstance(out, FuelExhausted)
    return tuple(int(n) for n in re.findall(r"\d+", out.note))


# g g for g = S K δ: each period extends K by g, an application that no
# memo entry answers.  δδ extends nothing once I δ replays from the memo.
_K_DELTA = app(S, K, _DELTA)


@pytest.mark.parametrize("t", [_DELTA_DELTA, App(_K_DELTA, _K_DELTA)], ids=["delta-delta", "S-K-delta"])
def test_divergence_skips_its_periods(monkeypatch, t):
    # Run period by period, S K δ at a fuel of 10^6 would call _accumulate
    # about 10^5 times.
    calls = 0

    def counted(f, a):
        nonlocal calls
        calls += 1
        assert calls < 1_000, "the periods were run, not skipped"
        return accumulate(f, a)

    accumulate = machine._accumulate
    monkeypatch.setattr(machine, "_accumulate", counted)
    fuel = 10**6
    got = machine.eval_term(t, None, Run(fuel))
    assert got.steps == fuel
    # Past its first rounds the oracle's note moves by the same counts in
    # every period: it is periodic in the fuel, up to that growth.
    counts = {n: _note_counts(reference_impl.oracle_eval_term(t, None, Run(n))) for n in range(40, 160)}

    def growth(p, n):
        return tuple(b - a for a, b in zip(counts[n], counts[n + p]))

    period = next(p for p in range(1, 40) if len({growth(p, n) for n in range(40, 80)}) == 1)
    small = 40 + (fuel - 40) % period
    rounds = (fuel - small) // period
    want = tuple(c + rounds * d for c, d in zip(counts[small], growth(period, small)))
    assert _note_counts(got) == want


# The counted machine work of a run, read as perfbench reads suite-all: the
# steps of each machine operation the kernel asks for, and the operations
# that exhaust their fuel.  Each of two passes runs ``work`` under a fresh
# run, and no value outlives its run, so both count the same.
def _counted_work(monkeypatch, work) -> list[tuple[int, int]]:
    counts = [0, 0]

    def counted(op):
        def run(*args):
            out = op(*args)
            counts[0] += out.steps
            counts[1] += isinstance(out, FuelExhausted)
            return out
        return run

    for name in ("eval_term", "apply_value"):
        monkeypatch.setattr(kernel, name, counted(getattr(kernel, name)))
    seen = []
    for _ in range(2):
        counts[:] = [0, 0]
        work(Run())
        seen.append(tuple(counts))
    return seen


def test_suite_work_is_pinned(monkeypatch):
    # A change that moves the machine work of the suites (every suite at
    # seed 0, under one run) moves these numbers, and shows the move in its
    # own diff.
    from extreal import suites

    def work(run):
        for name in suites.SUITES:
            suites.run_suite(name, run)

    assert _counted_work(monkeypatch, work) == [(1_037_112, 7)] * 2


def test_demo_work_is_pinned(monkeypatch):
    # The same for run scenarios/demo.scn, whose work is mostly the checker's.
    from extreal import scenarios

    text = (Path(__file__).parents[1] / "scenarios" / "demo.scn").read_text()
    assert _counted_work(monkeypatch, lambda run: scenarios.run_scenario(text, run)) == [(29_555, 0)] * 2


def _module_state():
    """A copy of every module-level mutable collection and counter of the
    loaded extreal modules, by module and name, but for the hash-consing
    table ``terms._INTERN``, which is weak by design."""
    state = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.partition(".")[0] != "extreal":
            continue
        for name, x in vars(mod).items():
            if name.startswith("__") or (mod_name, name) == ("extreal.terms", "_INTERN"):
                continue
            if isinstance(x, (MutableMapping, MutableSequence, MutableSet)):
                state[mod_name, name] = copy.copy(x)
            elif isinstance(x, itertools.count):
                state[mod_name, name] = repr(x)
    return state


def test_runs_leave_no_module_state():
    # All the machine and the library remember lives in the run: a suite
    # and a scenario, each under a fresh run, change no module-level
    # collection or counter.
    from extreal import cli, scenarios, suites  # noqa: F401  (every module loaded)

    text = (Path(__file__).parents[1] / "scenarios" / "demo.scn").read_text()
    before = _module_state()
    suites.run_suite("pca-laws", Run())
    scenarios.run_scenario(text, Run())
    after = _module_state()
    assert before.keys() == after.keys()
    assert [key for key in before if before[key] != after[key]] == []


def test_what_a_run_records_does_not_drift():
    # Passes of one suite, each under a fresh run, record as many entries
    # as the first: nothing carries from one run to the next.  The seen
    # filter is keyed by object addresses, so one pass differs from the
    # next by a few percent.  The last two passes, set against the first
    # two, moved by -2.8% to +5.4% over 80 processes (mean +0.9%, sd 1.4%);
    # a process-wide filter grew them by 24-34%.
    from extreal import suites

    sizes = []
    for _ in range(5):
        run = Run()
        suites.run_suite("pca-laws", run)
        sizes.append(len(run.ops))
    assert abs(sum(sizes[3:]) - sum(sizes[:2])) <= 0.10 * sum(sizes[:2]), sizes


def test_the_names_perfbench_probes_resolve():
    # perfbench/probe.py wraps each (module, function) of its LAYERS and
    # imports a few more names from extreal; one gone missing crashes the
    # probe, and with it every benchmark run.
    import ast
    import importlib
    import importlib.util

    path = Path(__file__).parents[1] / "perfbench" / "probe.py"
    spec = importlib.util.spec_from_file_location("perfbench_probe", path)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    wanted = {(mod, name) for targets in probe.LAYERS.values() for mod, name in targets}
    wanted |= {
        (node.module.removeprefix("extreal."), alias.name)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("extreal.")
        for alias in node.names
    }
    assert {("realizers", "value_of"), ("kernel", "kleene_eq"), ("kernel", "apply_values"),
            ("checker", "Verdict"), ("terms", "_INTERN"), ("kernel", "BACKEND")} <= wanted
    missing = sorted(f"{mod}.{name}" for mod, name in wanted
                     if not hasattr(importlib.import_module(f"extreal.{mod}"), name))
    assert missing == []
