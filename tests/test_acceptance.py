"""Acceptance gate: one test per exit criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.  Randomized corpora are seeded and sized as stated; wall-clock
bounds are asserted where a criterion carries one.
"""

import random
import time

import pytest

from reference_impl import nat_explicit, realizes

from extreal.checker import RealizerPair, Status, check, truth_eval
from extreal.formulas import AllIn, And, Eq, ExIn, Mem, fmt
from extreal.kernel import apply_value, apply_values, eval_term, pair_value, project
from extreal.names import (
    Arrow,
    EnumBudget,
    Explicit,
    Graph,
    Internal,
    Nat,
    OMEGA,
    OPair,
    TYPE_O,
    enumerate_triples,
    eq_type,
    internalize,
)
from extreal.realizers import (
    eq_realizers,
    i_r_value,
    powerset_term,
    synthesize,
    value_of,
)
from extreal.suites import (
    run_suite,
    suite_abstraction,
    suite_choice_arrow,
    suite_czf_axioms,
    suite_equality,
    suite_fixpoints,
    suite_heo,
    suite_pairing_internal,
    suite_pca_laws,
    suite_truth_oracle,
)
from extreal.terms import (
    App,
    Const,
    ConstKind,
    Defined,
    FuelConfig,
    MachineError,
    Num,
    Term,
    Tri,
    Value,
    num_value,
)

BOTH = RealizerPair.both
SEED = 2024


def _announce(n: int, label: str, started: float):
    print(f"[acceptance] criterion {n:2d} ({label}): PASS in {time.perf_counter() - started:.2f}s")


def _assert_clean(report):
    assert report.ok, [
        (c.name, c.detail, c.snippet) for c in report.failures
    ]


def test_criterion_01_pca_laws():
    t0 = time.perf_counter()
    rep = suite_pca_laws(SEED, rounds=200)
    _assert_clean(rep)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"pca law corpus took {elapsed:.2f}s"
    _announce(1, "pca laws, 200 randomized instances each", t0)


def test_criterion_02_abstraction_lemma():
    t0 = time.perf_counter()
    rep = suite_abstraction(SEED, rounds=100)
    _assert_clean(rep)
    _announce(2, "abstraction law vs substitution oracle, 100 terms", t0)


def test_criterion_03_recursion_theorems():
    t0 = time.perf_counter()
    rep = suite_fixpoints(SEED, rounds=50)
    _assert_clean(rep)
    _announce(3, "fixed points, double recursion, recursor, 2+3=5", t0)


def test_criterion_04_equality_lemma():
    t0 = time.perf_counter()
    rep = suite_equality(SEED, rounds=30)
    _assert_clean(rep)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"equality suite took {elapsed:.2f}s"
    _announce(4, "equality realizers on 30 random names and numerals", t0)


def _all_terms(max_nodes: int) -> list[Term]:
    atoms: list[Term] = [Const(k) for k in ConstKind] + [Num(0), Num(1), Num(2)]
    by_nodes: dict[int, list[Term]] = {1: list(atoms)}
    for n in range(2, max_nodes + 1):
        out: list[Term] = []
        for left in range(1, n - 1 + 1):
            right = n - 1 - left
            if right < 1:
                continue
            for f in by_nodes.get(left, ()):
                for a in by_nodes.get(right, ()):
                    out.append(App(f, a))
        by_nodes[n] = out
    return [t for ts in by_nodes.values() for t in ts]


def test_criterion_05_absoluteness_and_brute_force():
    t0 = time.perf_counter()
    ir = i_r_value()
    for n in range(5):
        for m in range(5):
            if n != m:
                assert check(BOTH(ir), Eq(Nat(n), Nat(m))).status is Status.REFUTED

    # Emptiness search: every candidate value denoted by a term of at most 7
    # nodes fails to realize the equality of distinct numerals below 3.  The
    # search drives the independent reference oracle on spelled-out names, so
    # it does not inherit the checker's numeral shortcut.
    cfg = FuelConfig(max_steps=600)
    values: set[Value] = set()
    for t in _all_terms(7):
        try:
            out = eval_term(t, None, cfg)
        except MachineError:
            continue
        if isinstance(out, Defined):
            values.add(out.value)
    assert len(values) > 1000
    pairs = [(n, m) for n in range(3) for m in range(3) if n != m]
    names = {k: nat_explicit(k) for k in range(3)}
    oracle_cfg = FuelConfig(max_steps=2_000)
    for n, m in pairs:
        phi = Eq(names[n], names[m])
        found = None
        for v in values:
            try:
                if realizes(v, v, phi, oracle_cfg):
                    found = v
                    break
            except MachineError:
                continue
        assert found is None, (n, m, found)
    # Existence side: the library realizer witnesses every true equality.
    for k in range(3):
        assert realizes(ir, ir, Eq(names[k], names[k]), FuelConfig(max_steps=1_000_000))
    _announce(5, f"absoluteness; emptiness over {len(values)} candidate values", t0)


def test_criterion_06_czf_axiom_suite_with_mutations():
    t0 = time.perf_counter()
    rep = suite_czf_axioms(SEED)
    _assert_clean(rep)
    # Mutation sensitivity is covered in depth by
    # test_realizers.test_infinity_mutation_sensitivity; assert it here so the
    # acceptance gate fails if that guard is ever weakened.
    from test_realizers import test_infinity_mutation_sensitivity

    test_infinity_mutation_sensitivity()
    _announce(6, "set-axiom suite incl. both infinity directions and mutations", t0)


def test_criterion_07_internal_pairing():
    t0 = time.perf_counter()
    rep = suite_pairing_internal(SEED)
    _assert_clean(rep)
    _announce(7, "internal pairing lemma and round-trips", t0)


def test_criterion_08_heo_internalization():
    t0 = time.perf_counter()
    rep = suite_heo(SEED)
    _assert_clean(rep)
    _announce(8, "typed equivalence and internalization", t0)


def test_criterion_09_choice_arrow():
    t0 = time.perf_counter()
    rep = suite_choice_arrow(SEED, budget=EnumBudget(max_index=8))
    _assert_clean(rep)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"choice/arrow suite took {elapsed:.2f}s"
    _announce(9, "choice and arrow clauses at base type, budget 8", t0)


def test_criterion_10_truth_oracle_round_trip():
    t0 = time.perf_counter()
    rep = suite_truth_oracle(SEED, rounds=50)
    _assert_clean(rep)
    _announce(10, "50 bounded-arithmetic sentences round-trip", t0)


def test_criterion_11_two_implementation_crosscheck():
    t0 = time.perf_counter()
    from test_crosscheck import test_checker_agrees_with_reference_on_200_instances

    test_checker_agrees_with_reference_on_200_instances()
    _announce(11, "200-instance agreement with the reference clauses", t0)


def test_criterion_12_extraction_and_powerset():
    t0 = time.perf_counter()
    from test_proofs import (
        test_composition_extraction,
        test_projection_extraction,
        test_symmetry_extraction,
    )

    test_projection_extraction()
    test_symmetry_extraction()
    test_composition_extraction()
    from extreal.bracket import free_vars

    t = powerset_term()
    assert not free_vars(t)
    assert isinstance(eval_term(t), Defined)
    _announce(12, "three extraction examples; powerset term closed and defined", t0)
