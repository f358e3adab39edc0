"""The three-valued checker: clause behaviour, verdict audit, truth oracle."""

import functools
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import reference_impl
from extreal import checker, kernel, machine
from extreal.checker import (
    FragmentError,
    RealizerPair,
    Status,
    Trace,
    Verdict,
    check,
    check_imp_on_witnesses,
    decide_nat_eq,
    in_fragment,
    truth_eval,
)
from extreal.formulas import (
    All,
    AllIn,
    And,
    Eq,
    Ex,
    ExIn,
    Imp,
    Mem,
    Not,
    Or,
    fmt,
    is_closed,
    substitute,
)
from extreal.kernel import NoValue, apply_value, pair_value, project, value_of
from extreal.names import Explicit, Nat, OMEGA, OPair, Sing, UPair
from extreal.realizers import eq_realizers, i_r_value, synthesize, term_mutants
from extreal.suites import random_finite_name, random_fragment_formula
from extreal.terms import K, Run, Value, num_value, opaque_value

IR = i_r_value()


def both(v):
    return RealizerPair.both(v)


def test_check_requires_closed_formula():
    with pytest.raises(ValueError):
        check(both(IR), Eq("x", Nat(1)))


def test_mem_realized_via_lookup():
    p0 = pair_value(num_value(0), IR)
    assert check(both(p0), Mem(Nat(0), OMEGA)).status is Status.REALIZED
    assert check(both(p0), Mem(Nat(0), Nat(3))).status is Status.REALIZED


def test_mem_refuted_on_empty_exhaustive_lookup():
    p9 = pair_value(num_value(9), IR)
    ver = check(both(p9), Mem(Nat(9), Nat(3)))
    assert ver.status is Status.REFUTED


def test_mem_stuck_projection_refutes():
    ver = check(both(num_value(3)), Mem(Nat(0), OMEGA))
    assert ver.status is Status.REFUTED
    assert "crashed" in ver.trace.note


def test_eq_distinct_numerals_refuted_outright():
    ver = check(both(IR), Eq(Nat(2), Nat(3)))
    assert ver.status is Status.REFUTED
    assert "no realizer exists" in ver.trace.note


def test_decide_nat_eq():
    assert decide_nat_eq(3, 3)
    assert not decide_nat_eq(2, 3)


def test_or_tags():
    payload = synthesize(Eq(Nat(1), Nat(1)), Run()).a
    left = pair_value(num_value(0), payload)
    right = pair_value(num_value(1), payload)
    phi = Or(Eq(Nat(1), Nat(1)), Eq(Nat(1), Nat(2)))
    assert check(both(left), phi).status is Status.REALIZED
    assert check(both(right), phi).status is Status.REFUTED  # wrong side fails
    bad_tag = pair_value(num_value(2), payload)
    ver = check(both(bad_tag), phi)
    assert ver.status is Status.REFUTED and "tags" in ver.trace.note
    mismatched = RealizerPair(left, right)
    assert check(mismatched, phi).status is Status.REFUTED


def test_and_projects():
    wit = synthesize(And(Eq(Nat(1), Nat(1)), Mem(Nat(0), Nat(2))), Run())
    assert check(wit, And(Eq(Nat(1), Nat(1)), Mem(Nat(0), Nat(2)))).status is Status.REALIZED
    assert check(wit, And(Eq(Nat(1), Nat(1)), Mem(Nat(3), Nat(2)))).status is Status.REFUTED


def test_allin_exhaustive_and_truncated():
    wit = synthesize(AllIn("x", Nat(3), Mem("x", OMEGA)), Run())
    assert check(wit, AllIn("x", Nat(3), Mem("x", OMEGA))).status is Status.REALIZED
    # A realizer valid on every natural: over omega the enumeration still
    # truncates, so the verdict never reaches Realized.
    from extreal.bracket import compile_term, lam
    from extreal.realizers import p_, value_of
    from extreal.terms import Opaque, Var

    uniform = value_of(compile_term(lam("c", p_(Var("c"), Opaque("ir", IR)))))
    ver = check(both(uniform), AllIn("x", OMEGA, Mem("x", OMEGA)))
    assert ver.status is Status.UNKNOWN
    assert "truncated" in ver.trace.note


def test_exin_least_witness():
    wit = synthesize(ExIn("y", Nat(5), Eq(Nat(2), "y")), Run())
    assert wit is not None
    key = apply_value(
        __import__("extreal.kernel", fromlist=["project"]).project(wit.a, 0), num_value(0)
    ) if False else None
    from extreal.kernel import project

    assert project(wit.a, 0).numeral == 2
    assert check(wit, ExIn("y", Nat(5), Eq(Nat(2), "y"))).status is Status.REALIZED


def test_unbounded_quantifiers_unknown():
    assert check(both(IR), All("x", Eq(Nat(0), Nat(0)))).status is Status.UNKNOWN
    assert check(both(IR), Ex("x", Eq(Nat(0), Nat(0)))).status is Status.UNKNOWN


def test_not_on_fragment():
    assert check(both(Value(K)), Not(Eq(Nat(1), Nat(2)))).status is Status.REALIZED
    assert check(both(Value(K)), Not(Eq(Nat(1), Nat(1)))).status is Status.REFUTED
    # outside the fragment: unknown
    assert check(both(Value(K)), Not(Eq(Sing(Nat(0)), Sing(Nat(0))))).status is Status.UNKNOWN


def test_imp_vacuous_and_constant():
    phi = Imp(Eq(Nat(1), Nat(2)), Eq(Nat(0), Nat(0)))
    assert check(both(Value(K)), phi).status is Status.REALIZED
    wit = synthesize(Imp(Eq(Nat(1), Nat(1)), Mem(Nat(0), Nat(2))), Run())
    assert check(wit, Imp(Eq(Nat(1), Nat(1)), Mem(Nat(0), Nat(2)))).status is Status.REALIZED
    # constant realizer with a refutable conclusion on a realizable hypothesis
    bad = apply_value(Value(K), num_value(7)).value
    ver = check(both(bad), Imp(Eq(Nat(1), Nat(1)), Mem(Nat(5), Nat(2))))
    assert ver.status is Status.REFUTED


def test_imp_witness_counterexample_refutes():
    # a sends every hypothesis realizer to a numeral, which crashes projections
    bad = apply_value(Value(K), num_value(7)).value
    ver = check(both(bad), Imp(Eq(Nat(1), Nat(1)), Mem(Nat(0), Nat(2))))
    assert ver.status is Status.REFUTED


def test_check_imp_on_witnesses_modus_ponens():
    from extreal.bracket import SKK
    from extreal.realizers import value_of

    idv = value_of(SKK)
    phi = Mem(Nat(1), Nat(3))
    wit = synthesize(phi, Run())
    ver = check_imp_on_witnesses(both(idv), phi, phi, [wit])
    assert ver.status is Status.REALIZED
    assert ver.trace.witness_directed


def test_check_imp_on_witnesses_skips_non_realizers():
    from extreal.bracket import SKK
    from extreal.realizers import value_of

    idv = value_of(SKK)
    phi = Mem(Nat(1), Nat(3))
    junk = both(num_value(0))
    ver = check_imp_on_witnesses(both(idv), phi, phi, [junk])
    assert ver.status is Status.UNKNOWN
    assert "no usable witnesses" in ver.trace.note


def test_witness_labels_leave_the_memoised_trace_alone():
    """Equal witnesses share one memoised conclusion trace; each child gets
    its own label and the shared trace keeps its note."""
    from extreal.bracket import SKK
    from extreal.realizers import value_of

    idv = value_of(SKK)
    phi = Eq(Nat(2), Nat(2))
    ver = check_imp_on_witnesses(both(idv), phi, phi, [both(IR), both(IR)])
    assert ver.status is Status.REALIZED
    assert [c.note for c in ver.trace.children] == ["witness 0", "witness 1"]
    assert check(both(IR), phi).trace.note == ""


def test_realized_traces_bottom_out_exhaustively():
    def audit(tr) -> bool:
        if not tr.children:
            return tr.exhaustive or tr.witness_directed or tr.status is not Status.REALIZED
        ok = all(audit(c) for c in tr.children)
        return ok

    rng = random.Random(13)
    for _ in range(40):
        x = random_finite_name(rng, rng.randint(0, 2))
        ver = check(both(IR), Eq(x, x))
        if ver.status is Status.REALIZED:
            assert audit(ver.trace), ver.trace.render()


def test_refuted_stable_under_more_fuel():
    base = Run(max_steps=100_000)
    big = Run(max_steps=1_000_000)
    rng = random.Random(14)
    checked = 0
    for _ in range(60):
        x = random_finite_name(rng, rng.randint(0, 2))
        y = random_finite_name(rng, rng.randint(0, 2))
        ver = check(both(IR), Eq(x, y), base)
        if ver.status is Status.REFUTED:
            assert check(both(IR), Eq(x, y), big).status is Status.REFUTED
            checked += 1
    assert checked > 5


def test_symmetry_on_numeral_fragment():
    rng = random.Random(15)
    for _ in range(30):
        phi = random_fragment_formula(rng, 1)
        wit = synthesize(phi, Run())
        if wit is None:
            continue
        fwd = check(wit, phi).status
        rev = check(RealizerPair(wit.b, wit.a), phi).status
        assert fwd == rev


def test_fragment_generator_terminates_on_every_seed():
    # The truth-oracle suite draws 50 sentences at quantifier depth 2.
    for seed in range(40):
        rng = random.Random(seed)
        for _ in range(50):
            random_fragment_formula(rng, 2)


def test_verdict_samples_counted():
    ver = check(both(IR), Eq(Nat(4), Nat(4)))
    assert ver.samples_checked > 1
    assert bool(ver)


def test_trace_render_and_json():
    ver = check(both(IR), Eq(Nat(2), Nat(2)))
    text = ver.trace.render(depth=2)
    assert "eq" in text
    d = ver.trace.to_dict(depth=1)
    assert d["status"] == "realized"


# --- truth oracle ------------------------------------------------------------


def test_truth_eval_atoms():
    assert truth_eval(Eq(Nat(2), Nat(2)))
    assert not truth_eval(Eq(Nat(2), Nat(3)))
    assert truth_eval(Mem(Nat(2), Nat(5)))
    assert not truth_eval(Mem(Nat(5), Nat(2)))
    assert truth_eval(Mem(Nat(9), OMEGA))


def test_truth_eval_finite_model_check():
    phi = AllIn("x", Nat(4), ExIn("y", Nat(5), Mem("x", "y")))
    # independent finite-model oracle
    want = all(any(x < y for y in range(5)) for x in range(4))
    assert truth_eval(phi) is want is True


def test_truth_eval_omega_existential_saturates():
    assert truth_eval(ExIn("y", OMEGA, Mem(Nat(5), "y")))
    assert not truth_eval(ExIn("y", OMEGA, And(Mem("y", Nat(3)), Eq("y", Nat(4)))))


def test_truth_eval_rejects_non_fragment():
    with pytest.raises(FragmentError):
        truth_eval(Eq(Sing(Nat(0)), Sing(Nat(0))))
    with pytest.raises(FragmentError):
        truth_eval(AllIn("x", OMEGA, Eq("x", "x")))
    assert not in_fragment(All("x", Eq("x", "x")))


def test_synthesize_false_returns_none():
    assert synthesize(Eq(Nat(1), Nat(2)), Run()) is None
    assert synthesize(Mem(Nat(5), Nat(2)), Run()) is None


def test_synthesize_rejects_non_fragment():
    with pytest.raises(FragmentError):
        synthesize(Eq(Sing(Nat(0)), Sing(Nat(0))), Run())


def test_round_trip_structured_cases():
    cases = [
        Eq(Nat(3), Nat(3)),
        Mem(Nat(2), Nat(5)),
        And(Eq(Nat(1), Nat(1)), Mem(Nat(0), Nat(2))),
        Or(Eq(Nat(1), Nat(2)), Mem(Nat(1), Nat(3))),
        Not(Eq(Nat(1), Nat(2))),
        Imp(Eq(Nat(1), Nat(2)), Eq(Nat(0), Nat(5))),
        Imp(Eq(Nat(1), Nat(1)), Mem(Nat(2), Nat(4))),
        AllIn("x", Nat(4), ExIn("y", Nat(5), Mem("x", "y"))),
        ExIn("y", OMEGA, Eq(Nat(2), "y")),
        AllIn("x", Nat(3), Or(Eq("x", Nat(1)), Not(Eq("x", Nat(1))))),
        AllIn("x", Nat(0), Eq(Nat(9), Nat(8))),  # vacuous universal
    ]
    for phi in cases:
        want = truth_eval(phi)
        wit = synthesize(phi, Run())
        got = wit is not None and check(wit, phi).status is Status.REALIZED
        assert want == got, fmt(phi)


# ---------------------------------------------------------------------------
# Failure sites: every projection and application a clause makes of a
# realizer either crashes (Refuted, exhaustive), runs out of fuel or outgrows
# the value size cap (both Unknown).

_CRASH = "#3 #3"  # applying a numeral is a machine error
_LOOP = "(\\y. y y) (\\y. y y)"  # diverges under any fuel
# Doubles K nineteen times, to a pair tree of 1,048,569 nodes: past the
# value size cap of 10**6.  Interning shares each level, so it takes a few
# milliseconds.
_GROW = "(\\f. " + "f (" * 18 + "f K" + ")" * 18 + ") (\\x. P x x)"


def _term_value(src: str) -> Value:
    from extreal.bracket import compile_term
    from extreal.parser import parse
    from extreal.realizers import value_of

    return value_of(compile_term(parse(src)))


def _sel(t0: str, t1: str) -> str:
    """A realizer whose projections 0 and 1 run t0 and t1."""
    return f"(\\s. s (\\u. {t0}) (\\u. {t1}) #0)"


def _fn(body: str) -> str:
    return f"(\\c. {body})"


_OK = _sel("#0", "#0")
# Realizers whose projection 0, respectively 1, runs the failing term {}.
_FAILS_AT = (_sel("{}", "#0"), _sel("#0", "{}"))
_ZERO_IN_ONE = Mem(Nat(0), Nat(1))
# (site, clause of the failing node, formula, a, b): {} in a or b marks where
# the failing term goes; formula None is the witness-directed check.
_FAILURE_SITES = [
    *(
        (what, clause, phi, a, b)
        for clause, phi in (
            ("mem", Mem(Nat(0), OMEGA)),
            ("ex-in", ExIn("z", Nat(1), Eq("z", "z"))),
            ("and", And(Eq(Nat(0), Nat(0)), Eq(Nat(0), Nat(0)))),
            ("or", Or(Eq(Nat(0), Nat(0)), Eq(Nat(0), Nat(0)))),
        )
        for what, a, b in (
            ("(a)_0", _FAILS_AT[0], _OK),
            ("(b)_0", _OK, _FAILS_AT[0]),
            ("(a)_1", _FAILS_AT[1], _OK),
            ("(b)_1", _OK, _FAILS_AT[1]),
        )
    ),
    *(
        (what, clause, phi, a, b)
        for clause, phi, pi in (
            ("eq/left", Eq(Nat(1), Explicit(())), 0),
            ("eq/right", Eq(Explicit(()), Nat(1)), 1),
        )
        for what, a, b in (
            ("a·c", _fn("{}"), _fn(_OK)),
            ("b·d", _fn(_OK), _fn("{}")),
            (f"(a·c)_{pi}", _fn(_FAILS_AT[pi]), _fn(_OK)),
            (f"(b·d)_{pi}", _fn(_OK), _fn(_FAILS_AT[pi])),
        )
    ),
    ("a·c", "all-in", AllIn("z", Nat(1), Eq("z", "z")), _fn("{}"), _fn(_OK)),
    ("b·d", "all-in", AllIn("z", Nat(1), Eq("z", "z")), _fn(_OK), _fn("{}")),
    ("a·witness", "imp", Imp(_ZERO_IN_ONE, Eq(Nat(0), Nat(0))), _fn("{}"), _fn(_OK)),
    ("b·witness", "imp", Imp(_ZERO_IN_ONE, Eq(Nat(0), Nat(0))), _fn(_OK), _fn("{}")),
    ("a·witness", "imp/witness", None, _fn("{}"), _fn(_OK)),
    ("b·witness", "imp/witness", None, _fn(_OK), _fn("{}")),
]


def _failure_node(trace):
    if " crashed (" in trace.note or trace.note.endswith(("ran out of fuel", "size cap")):
        return trace
    return next((n for n in map(_failure_node, trace.children) if n is not None), None)


@pytest.mark.parametrize(
    "what, clause, phi, a, b", _FAILURE_SITES, ids=[f"{c}:{w.replace('·', '.')}" for w, c, *_ in _FAILURE_SITES]
)
def test_failure_sites_crash_refutes_and_fuel_is_unknown(what, clause, phi, a, b):
    for failing, cfg, status, note in (
        (_CRASH, Run(), Status.REFUTED, "crashed (stuck: "),
        (_LOOP, Run(max_steps=400), Status.UNKNOWN, "ran out of fuel"),
        (_GROW, Run(), Status.UNKNOWN, "outgrew the value size cap"),
    ):
        pair = RealizerPair(*(_term_value(t.replace("{}", failing)) for t in (a, b)))
        if phi is None:
            hyp = Eq(Nat(0), Nat(0))
            ver = check_imp_on_witnesses(pair, hyp, hyp, [both(_term_value(_OK))], cfg)
        else:
            ver = check(pair, phi, cfg)
        node = _failure_node(ver.trace)
        assert ver.status is status and node is not None, (failing, ver.trace.render())
        refuted = status is Status.REFUTED
        assert (node.clause, node.status, node.exhaustive) == (clause, status, refuted)
        want = f"{what} {note}"
        assert node.note.startswith(want) if refuted else node.note == want, node.note


def test_check_deep_in_the_host_stack_decides_as_at_the_top():
    # The checker's goals live on a stack of its own, so a caller that has
    # used most of the host stack gets the verdict the top level gets.
    import sys

    x = Nat(1)
    for _ in range(40):
        x = Sing(x)
    pair, phi = RealizerPair.both(i_r_value()), Eq(x, x)

    def nested(n):
        return check(pair, phi) if n == 0 else nested(n - 1)

    frames, f = 0, sys._getframe()
    while f is not None:
        frames, f = frames + 1, f.f_back
    deep, top = nested(850 - frames).status, check(pair, phi).status
    assert deep is top is Status.REALIZED


def test_a_deep_verdict_renders_and_converts_in_process():
    # A 200-level sing chain gives a trace about 600 levels deep, more than
    # a walk that recursed once per level could take.
    import sys

    x = Nat(1)
    for _ in range(200):
        x = Sing(x)
    trace = check(RealizerPair.both(i_r_value()), Eq(x, x)).trace
    depth, d = 0, trace.to_dict()
    while d["children"]:
        depth, d = depth + 1, d["children"][0]
    assert depth > sys.getrecursionlimit() // 2
    lines = trace.render().split("\n")
    assert max(len(line) - len(line.lstrip(" ")) for line in lines) == 2 * depth
    # A depth limit keeps the levels above it, in the same order.
    shallow = [line for line in lines if len(line) - len(line.lstrip(" ")) <= 2 * 3]
    assert trace.render(3).split("\n") == shallow
    assert "children" not in repr(trace) and repr(trace).startswith("Trace(clause=")


def _untabled(op):
    """The kernel's ``op`` (``apply`` or ``project``) with the run's table
    bypassed: each call gets a fresh table, so every operation reaches the
    machine."""
    return lambda f, x, run: op(f, x, replace(run, ops={}))


def _machine_ops(thunk):
    """``thunk()`` and the applications that reach the machine on its way,
    counted per (operator, operand); a projection is the application of P0
    or P1."""
    calls, apply_value = Counter(), kernel.apply_value

    def counted(f, x, run):
        calls[f, x] += 1
        return apply_value(f, x, run)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "apply_value", counted)
        result = thunk()
    return result, calls


def _counted_check(pair, phi, tabled=True, run=None):
    """The verdict of ``check(pair, phi, run)``, under a fresh run unless
    one is given, and the operations that reach the machine."""
    run = Run() if run is None else run
    with pytest.MonkeyPatch.context() as mp:
        if not tabled:
            mp.setattr(checker, "apply", _untabled(kernel.apply))
            mp.setattr(checker, "project", _untabled(kernel.project))
        return _machine_ops(lambda: check(pair, phi, run))


def _verdict(ver):
    return ver.status, ver.samples_checked, ver.trace.to_dict()


@pytest.mark.parametrize("body, built_for, checked, status", [
    # all-in, then mem, then eq on the members
    ("mem", (2, 3), (2, 3), Status.REALIZED),
    ("eq", (3, 3), (3, 3), Status.REALIZED),
    # a refutation that no machine error decides: z = 1 is not in nat 1
    ("mem", (2, 3), (2, 1), Status.REFUTED),
], ids=["all-in-mem", "all-in-eq", "refuted"])
def test_a_diagonal_pair_runs_each_operation_once(body, built_for, checked, status):
    # Within one check, each projection and application reaches the machine
    # once: the run's table answers it when it is asked again, on the b side
    # of a diagonal pair or under another goal, and the verdict is the one
    # the untabled clauses give.
    def formula(n, m):
        return AllIn("z", n, Mem("z", m) if body == "mem" else Eq("z", "z"))

    v = synthesize(formula(*map(Nat, built_for)), Run()).a
    phi = formula(*map(reference_impl.nat_explicit, checked))
    ver, once = _counted_check(both(v), phi)
    want, untabled = _counted_check(both(v), phi, tabled=False)
    assert once and set(once.values()) == {1} and untabled.keys() == once.keys()
    # Untabled, a diagonal pair asks every operation on both sides.
    assert all(n % 2 == 0 for n in untabled.values())
    assert _verdict(ver) == _verdict(want)
    assert ver.status is status and reference_impl.realizes(v, v, phi) is (status is Status.REALIZED)
    # A pair of two values, whose sides share only some operations, runs
    # each once too.
    w = pair_value(num_value(0), IR)
    ver, one = _counted_check(RealizerPair(v, w), phi)
    want, untabled = _counted_check(RealizerPair(v, w), phi, tabled=False)
    assert any(w in key for key in one)
    assert set(one.values()) == {1} and untabled.keys() == one.keys()
    assert _verdict(ver) == _verdict(want)


@functools.cache
def _mutants() -> list[Value]:
    """The values of the equality realizers' ``term_mutants`` that evaluate.
    i_r has no #0/#1 literal and no projection, so it has no mutant; those
    of i_s, i_t, i_0 and i_1 stand in as realizers near it."""
    out = []
    for t in eq_realizers()[1:]:
        for _, m in term_mutants(t):
            try:
                out.append(value_of(m))
            except NoValue:
                pass
    return out


def _outer_steps(thunk):
    """``thunk()`` and the steps of its outermost ``machine._run`` calls."""
    count, depth, run = [0], [0], machine._run

    def counted(ops, vstack, cfg):
        depth[0] += 1
        try:
            out = run(ops, vstack, cfg)
        finally:
            depth[0] -= 1
        if depth[0] == 0:
            count[0] += out.steps
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(machine, "_run", counted)
        result = thunk()
    return result, count[0]


# An application of i_r takes about 190 steps: at the first fuel its
# operations stay open, at the second they are decided.  Each example
# builds its own runs, so no table carries over from one to the next.
_SMALL_FUELS = (150, 3_000)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from(_SMALL_FUELS), st.data())
def test_the_operation_table_changes_no_verdict_and_lives_with_its_run(seed, diagonal, fuel, data):
    def fresh():
        return Run(max_steps=fuel, max_index=3, generators_per_type=2)

    rng = random.Random(seed)
    x = random_finite_name(rng, rng.randint(0, 2))
    y = x if diagonal else random_finite_name(rng, rng.randint(0, 2))
    side = st.one_of(st.just(IR), st.sampled_from(_mutants()))
    pair = RealizerPair(data.draw(side), data.draw(side))
    phi = Eq(x, y)
    run = fresh()
    (ver, again), calls = _machine_ops(lambda: (check(pair, phi, run), check(pair, phi, run)))
    want, _ = _counted_check(pair, phi, tabled=False, run=fresh())
    # Across two checks under one run, each operation reaches the machine
    # once, and neither verdict is the table's doing.
    assert set(calls.values()) <= {1}
    assert _verdict(ver) == _verdict(again) == _verdict(want)
    # The table lives as long as its run: the same check again under the
    # run runs nothing, and under a fresh run it runs the first check's work.
    run = fresh()
    first, steps = _outer_steps(lambda: check(pair, phi, run))
    _, steps_again = _outer_steps(lambda: check(pair, phi, run))
    last, steps_fresh = _outer_steps(lambda: check(pair, phi, fresh()))
    assert steps_again == 0 and steps_fresh == steps
    assert _verdict(first) == _verdict(last) == _verdict(ver)
