"""Names: triple access, the typed equivalence, internalization."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from extreal.bracket import compile_term, lam
from extreal.kernel import apply_value, eval_term, value_of
from extreal.names import (
    Arrow,
    Explicit,
    Graph,
    Internal,
    Nat,
    OMEGA,
    OPair,
    Sing,
    TYPE_O,
    TypeName,
    UPair,
    enumerate_triples,
    eq_type,
    gen_elems,
    internalize,
    lookup_triples,
    type_name,
)
from extreal.realizers import i_r_value, p_
from extreal.scenarios import ScenarioError, _Env, _read, _Reader
from extreal.suites import random_finite_name
from extreal.terms import (
    App,
    D,
    Defined,
    K,
    Opaque,
    P,
    P0,
    PRED,
    Run,
    SUCC,
    Value,
    Var,
    app,
    num,
    num_value,
)

OO = Arrow(TYPE_O, TYPE_O)


def test_parse_type():
    # Types are read by the scenario reader, as in ``name n = F (o)o``.
    def parse_type(text):
        return _read(_Env(Run(), []), text, 1, _Reader.fintype)

    assert parse_type("o") == TYPE_O
    assert parse_type("(o)o") == OO
    assert parse_type("((o)o)o") == Arrow(OO, TYPE_O)
    assert parse_type("(o)(o)o") == Arrow(TYPE_O, OO)
    with pytest.raises(ScenarioError):
        parse_type("(o")


def test_type_name_at_base_is_omega():
    assert type_name(TYPE_O) == OMEGA
    assert type_name(OO) == TypeName(OO)


def test_lookup_omega_by_numeral():
    assert lookup_triples(OMEGA, num_value(3), num_value(3), Run()) == ([Nat(3)], True)
    assert lookup_triples(OMEGA, num_value(3), num_value(4), Run()) == ([], True)
    assert lookup_triples(OMEGA, Value(K), Value(K), Run()) == ([], True)


def test_lookup_sing_upair_opair():
    x, y = Nat(5), Nat(7)
    assert lookup_triples(Sing(x), num_value(0), num_value(0), Run()) == ([x], True)
    assert lookup_triples(UPair(x, y), num_value(1), num_value(1), Run()) == ([y], True)
    assert lookup_triples(OPair(x, y), num_value(0), num_value(0), Run()) == ([Sing(x)], True)
    assert lookup_triples(OPair(x, y), num_value(1), num_value(1), Run()) == ([UPair(x, y)], True)


def test_lookup_nat_bounds():
    assert lookup_triples(Nat(2), num_value(5), num_value(5), Run()) == ([], True)
    assert lookup_triples(Nat(2), num_value(1), num_value(1), Run()) == ([Nat(1)], True)


_KEYS = [num_value(n) for n in range(5)] + [Value(K), Value(SUCC)]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.sampled_from(_KEYS), st.sampled_from(_KEYS))
def test_finite_lookup_is_the_filtered_enumeration(seed, rank, a, b):
    x = random_finite_name(random.Random(seed), rank)
    triples, _ = enumerate_triples(x, Run())
    want = [z for ka, kb, z in triples if ka == a and kb == b]
    assert lookup_triples(x, a, b, Run()) == (want, True)


def test_explicit_lookup_matches_value_keys():
    k = apply_value(Value(K), num_value(3)).value
    x = Explicit(((k, k, Nat(1)), (num_value(0), num_value(0), Nat(2))))
    assert lookup_triples(x, k, k, Run()) == ([Nat(1)], True)


def test_enumerate_finite_vs_schematic():
    ts, done = enumerate_triples(Nat(3), Run())
    assert len(ts) == 3 and done
    ts, done = enumerate_triples(OMEGA, Run(max_index=5))
    assert len(ts) == 5 and not done


def test_enumerate_opair_shape():
    x, y = Nat(1), Nat(2)
    ts, done = enumerate_triples(OPair(x, y), Run())
    assert done
    assert ts == [
        (num_value(0), num_value(0), Sing(x)),
        (num_value(1), num_value(1), UPair(x, y)),
    ]


def test_upair_keeps_two_triples_when_equal():
    ts, _ = enumerate_triples(UPair(Nat(1), Nat(1)), Run())
    assert len(ts) == 2


def test_enumeration_is_deterministic():
    a = eval_term(compile_term(lam("c", p_(Var("c"), Opaque("ir", i_r_value(Run())))))).value
    name = Graph(a, TYPE_O, TYPE_O)
    assert enumerate_triples(name, Run()) == enumerate_triples(name, Run())
    succ = eval_term(SUCC).value
    internal = Internal(succ, OO)
    assert enumerate_triples(internal, Run()) == enumerate_triples(internal, Run())


def test_eq_type_base_decides():
    assert eq_type(num_value(3), num_value(3), TYPE_O, Run()).result is True
    assert eq_type(num_value(3), num_value(4), TYPE_O, Run()).result is False
    assert eq_type(Value(K), Value(K), TYPE_O, Run()).result is False


def test_eq_type_arrow_sampled():
    succ = eval_term(SUCC).value
    eta = eval_term(compile_term(lam("x", App(SUCC, Var("x"))))).value
    rep = eq_type(succ, eta, OO, Run(max_index=8))
    assert rep.result is None
    assert rep.samples_passed == rep.samples_total == 9


def test_eq_type_arrow_counterexample():
    succ = eval_term(SUCC).value
    pred = eval_term(PRED).value
    rep = eq_type(succ, pred, OO, Run())
    assert rep.result is False
    assert rep.counterexample == num_value(0)


def test_eq_type_counterexamples_are_machine_errors_only(monkeypatch):
    """Only a machine error on a generator refutes; any other exception is a
    fault of the program and must not turn into a counterexample."""
    from extreal import kernel
    from extreal.terms import StuckApplication

    succ = eval_term(SUCC).value

    def raising(exc):
        def apply(f, a, cfg=None):
            raise exc

        return apply

    monkeypatch.setattr(kernel, "apply_value", raising(StuckApplication("stuck")))
    rep = eq_type(succ, succ, OO, Run())
    assert rep.result is False and rep.counterexample == num_value(0)
    monkeypatch.setattr(kernel, "apply_value", raising(TypeError("a bug")))
    with pytest.raises(TypeError, match="a bug"):
        eq_type(succ, succ, OO, Run())


def test_eq_type_on_one_value_applies_it_once_per_generator(monkeypatch):
    # The run's table answers b·g when b is a, and a·g when a later eq_type
    # of the run asks it again; under a fresh run, two values each apply to
    # every generator.
    from extreal import kernel

    succ = eval_term(SUCC).value
    eta = eval_term(compile_term(lam("x", App(SUCC, Var("x"))))).value
    budget = Run(max_index=8)
    applied, apply_value = [], kernel.apply_value

    def counted(f, x, run):
        applied.append((f, x))
        return apply_value(f, x, run)

    monkeypatch.setattr(kernel, "apply_value", counted)
    gens = gen_elems(TYPE_O, budget)
    assert eq_type(succ, succ, OO, budget).samples_passed == len(gens)
    assert applied == [(succ, g) for g in gens]
    applied.clear()
    assert eq_type(succ, eta, OO, budget).samples_passed == len(gens)
    assert applied == [(eta, g) for g in gens]
    applied.clear()
    assert eq_type(succ, eta, OO, Run(max_index=8)).samples_passed == len(gens)
    assert applied == [p for g in gens for p in ((succ, g), (eta, g))]


def test_gen_elems_base():
    assert gen_elems(TYPE_O, Run(max_index=3)) == [num_value(i) for i in range(4)]


def test_gen_elems_arrow_contains_const_and_succ():
    gens = gen_elems(OO, Run())
    const5 = apply_value(Value(K), num_value(5)).value
    succ = eval_term(SUCC).value
    assert const5 in gens and succ in gens


def test_gen_elems_higher_apply_to_succ():
    succ = eval_term(SUCC).value
    for g in gen_elems(Arrow(OO, TYPE_O), Run()):
        assert isinstance(apply_value(g, succ), Defined)


def test_internalize_base():
    assert internalize(num_value(3), TYPE_O) == Nat(3)
    with pytest.raises(ValueError):
        internalize(Value(K), TYPE_O)


def test_direct_internal_at_base_matches_numeral():
    direct = Internal(num_value(3), TYPE_O)
    assert enumerate_triples(direct, Run()) == enumerate_triples(Nat(3), Run())
    assert lookup_triples(direct, num_value(2), num_value(2), Run()) == ([Nat(2)], True)


def test_internalize_arrow_first_triple():
    succ = eval_term(SUCC).value
    name = internalize(succ, OO)
    ts, done = enumerate_triples(name, Run())
    assert not done
    assert ts[0] == (num_value(0), num_value(0), OPair(Nat(0), Nat(1)))


def test_internalize_extensionally_equal_constants():
    const_k = apply_value(Value(K), num_value(2)).value
    const_d = eval_term(
        compile_term(lam("x", app(D, Var("x"), Var("x"), num(2), num(2))))
    ).value
    budget = Run(max_index=5)
    ts1, _ = enumerate_triples(internalize(const_k, OO), budget)
    ts2, _ = enumerate_triples(internalize(const_d, OO), budget)
    assert [z for _, _, z in ts1] == [z for _, _, z in ts2]


def test_a_type_name_lookup_samples_its_key_once(monkeypatch):
    # The lookup decides the key pair with one eq_type and builds the member
    # without sampling it again.
    import extreal.names as names_mod

    g, run = eval_term(SUCC).value, Run()
    calls, apply = [], names_mod.apply

    def counted(*args):
        calls.append(args)
        return apply(*args)

    monkeypatch.setattr(names_mod, "apply", counted)
    eq_type(g, g, OO, run)
    sampled = len(calls)
    calls.clear()
    assert lookup_triples(TypeName(OO), g, g, run) == ([Internal(g, OO)], False)
    assert len(calls) == sampled > 0


def test_gen_elems_runs_the_machine_under_the_callers_run(monkeypatch):
    # Every application, projection and library value that sampling asks
    # for is asked under the caller's run.
    import extreal.names as names_mod

    runs = []

    def recorded(name, op):
        def call(*args):
            runs.append((name, args[-1]))
            return op(*args)
        return call

    for name in ("apply", "project", "value_of"):
        monkeypatch.setattr(names_mod, name, recorded(name, getattr(names_mod, name)))
    run = Run(max_steps=7)
    gen_elems(OO, run)
    gen_elems(Arrow(OO, TYPE_O), run)
    assert {name for name, _ in runs} == {"apply", "value_of"}
    assert all(r is run for _, r in runs)


def test_gen_elems_leaves_out_a_generator_the_run_cannot_build():
    # Building the swap of #0 and #1 takes more than 3 steps: under a fuel
    # of 3 the sample leaves it out and keeps the rest, in order.
    import extreal.names as names_mod

    full, small = gen_elems(OO, Run()), gen_elems(OO, Run(max_steps=3))
    swap = value_of(names_mod._swap01(), Run())
    assert swap in full and small == [g for g in full if g is not swap]


def test_graph_lookup_and_enumeration():
    a = eval_term(compile_term(lam("c", p_(Var("c"), Opaque("ir", i_r_value(Run())))))).value
    g = Graph(a, TYPE_O, TYPE_O)
    matches, done = lookup_triples(g, num_value(2), num_value(2), Run())
    assert done and matches == [OPair(Nat(2), Nat(2))]
    matches, done = lookup_triples(g, num_value(2), num_value(3), Run())
    assert done and matches == []


def test_images_past_the_size_cap_leave_lookups_open():
    # Both functions build <c, y> on the way to their image c.  With y = i_r
    # the images are found.  With y the pair tree that doubles c nineteen
    # times (\x. P x x), which passes the value size cap of 10**6 nodes,
    # every image is undefined for now: the lookup is empty but not
    # exhaustive, as when fuel runs out.  At an arrow type the same overflow
    # is no counterexample: eq_type stays open and the type name's lookup is
    # not exhaustive.
    doubled = Var("c")
    for _ in range(19):
        doubled = App(Var("f"), doubled)
    grown = App(lam("f", doubled), lam("x", app(P, Var("x"), Var("x"))))
    for y, found in ((Opaque("ir", i_r_value(Run())), True), (grown, False)):
        pair = p_(Var("c"), y)
        f = eval_term(compile_term(lam("c", App(P0, pair)))).value
        for x in (Graph(eval_term(compile_term(lam("c", pair))).value, TYPE_O, TYPE_O), Internal(f, OO)):
            assert lookup_triples(x, num_value(2), num_value(2), Run()) == (
                ([OPair(Nat(2), Nat(2))], True) if found else ([], False)
            )
            if not found:
                assert enumerate_triples(x, Run()) == ([], False)
        assert eq_type(f, f, OO, Run()).result is None
        assert lookup_triples(TypeName(OO), f, f, Run()) == ([Internal(f, OO)], False)


def test_omega_nat_coherence():
    for n in range(33):
        assert lookup_triples(OMEGA, num_value(n), num_value(n), Run()) == ([Nat(n)], True)


def test_partial_equivalence_sampled():
    # If a ~ b and b ~ c pass sampling, then a ~ a, b ~ a, a ~ c never refute.
    budget = Run(max_index=3, generators_per_type=3)
    gens = gen_elems(OO, budget)
    for a in gens:
        for b in gens:
            if eq_type(a, b, OO, budget).result is False:
                continue
            for c in gens:
                if eq_type(b, c, OO, budget).result is False:
                    continue
                assert eq_type(a, a, OO, budget).result is not False
                assert eq_type(b, a, OO, budget).result is not False
                assert eq_type(a, c, OO, budget).result is not False


def test_budget_validation():
    with pytest.raises(ValueError):
        Run(max_index=0)
