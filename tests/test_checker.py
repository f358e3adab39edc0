"""The three-valued checker: clause behaviour, verdict audit, truth oracle."""

import random

import pytest

from extreal.checker import (
    FragmentError,
    RealizerPair,
    Status,
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
from extreal.kernel import apply_value, pair_value
from extreal.names import EnumBudget, Explicit, Nat, OMEGA, OPair, Sing, UPair
from extreal.realizers import i_r_value, synthesize
from extreal.suites import random_finite_name, random_fragment_formula
from extreal.terms import DEFAULT_FUEL, FuelConfig, K, Value, num_value, opaque_value

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
    payload = synthesize(Eq(Nat(1), Nat(1))).a
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
    wit = synthesize(And(Eq(Nat(1), Nat(1)), Mem(Nat(0), Nat(2))))
    assert check(wit, And(Eq(Nat(1), Nat(1)), Mem(Nat(0), Nat(2)))).status is Status.REALIZED
    assert check(wit, And(Eq(Nat(1), Nat(1)), Mem(Nat(3), Nat(2)))).status is Status.REFUTED


def test_allin_exhaustive_and_truncated():
    wit = synthesize(AllIn("x", Nat(3), Mem("x", OMEGA)))
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
    wit = synthesize(ExIn("y", Nat(5), Eq(Nat(2), "y")))
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
    wit = synthesize(Imp(Eq(Nat(1), Nat(1)), Mem(Nat(0), Nat(2))))
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
    wit = synthesize(phi)
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
    base = FuelConfig(max_steps=100_000)
    big = FuelConfig(max_steps=1_000_000)
    rng = random.Random(14)
    checked = 0
    for _ in range(60):
        x = random_finite_name(rng, rng.randint(0, 2))
        y = random_finite_name(rng, rng.randint(0, 2))
        ver = check(both(IR), Eq(x, y), cfg=base)
        if ver.status is Status.REFUTED:
            assert check(both(IR), Eq(x, y), cfg=big).status is Status.REFUTED
            checked += 1
    assert checked > 5


def test_symmetry_on_numeral_fragment():
    rng = random.Random(15)
    for _ in range(30):
        phi = random_fragment_formula(rng, 1)
        wit = synthesize(phi)
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
    assert synthesize(Eq(Nat(1), Nat(2))) is None
    assert synthesize(Mem(Nat(5), Nat(2))) is None


def test_synthesize_rejects_non_fragment():
    with pytest.raises(FragmentError):
        synthesize(Eq(Sing(Nat(0)), Sing(Nat(0))))


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
        wit = synthesize(phi)
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
        (_CRASH, DEFAULT_FUEL, Status.REFUTED, "crashed (stuck: "),
        (_LOOP, FuelConfig(max_steps=400), Status.UNKNOWN, "ran out of fuel"),
        (_GROW, DEFAULT_FUEL, Status.UNKNOWN, "outgrew the value size cap"),
    ):
        pair = RealizerPair(*(_term_value(t.replace("{}", failing)) for t in (a, b)))
        if phi is None:
            hyp = Eq(Nat(0), Nat(0))
            ver = check_imp_on_witnesses(pair, hyp, hyp, [both(_term_value(_OK))], cfg=cfg)
        else:
            ver = check(pair, phi, cfg=cfg)
        node = _failure_node(ver.trace)
        assert ver.status is status and node is not None, (failing, ver.trace.render())
        refuted = status is Status.REFUTED
        assert (node.clause, node.status, node.exhaustive) == (clause, status, refuted)
        want = f"{what} {note}"
        assert node.note.startswith(want) if refuted else node.note == want, node.note
