"""The realizer library: equality laws, axioms, pairing, choice, arrow."""

import hashlib
import random

import pytest

from extreal.bracket import free_vars
from extreal.checker import RealizerPair, Status, check, check_imp_on_witnesses
from extreal.formulas import AllIn, And, Eq, ExIn, Imp, Mem, fmt, ordered_pair, theta, unordered_pair
from extreal.bracket import compile_term, lam
from extreal.kernel import apply_value, apply_values, eval_term, pair_value, project
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
    UPair,
    enumerate_triples,
)
from extreal.realizers import (
    LIBRARY,
    arrow_term,
    choice_term,
    collection_name,
    eq_realizers,
    extensionality_term,
    i_r_value,
    infinity_terms,
    p_,
    pairing_name,
    pairing_realizers,
    pairing_term,
    powerset_term,
    proj,
    realizer_term,
    separation_name,
    set_induction_term,
    strong_collection_term,
    subset_collection_term,
    synthesize,
    term_mutants,
    union_name,
    union_term,
    value_of,
)
from extreal.parser import print_term
from extreal.suites import (
    infinity_e0_cases,
    infinity_e1_cases,
    random_finite_name,
    random_fragment_formula,
)
from extreal.terms import Defined, K, Opaque, Run, Value, Var, app, num, num_value

IR = i_r_value(Run())
BOTH = RealizerPair.both


def test_all_library_terms_are_closed_and_defined():
    for ident in LIBRARY:
        t = realizer_term(ident)
        assert not free_vars(t), ident
        assert isinstance(eval_term(t), Defined), ident


def test_the_run_keeps_values_of_library_terms_only():
    # kernel.value_of keeps a term's value under the term's id, and the term
    # with it, for the rest of the run; that pays only for a term asked for
    # again, a library term.  A term built on the spot is evaluated instead,
    # and a constant's value is the machine's, kept by no run.
    from extreal import names, realizers
    from extreal.bracket import SKK
    from extreal.suites import run_suite

    run = Run()
    run_suite("czf-axioms", run)
    assert synthesize(AllIn("x", Nat(3), Mem("x", OMEGA)), run) is not None
    library = [SKK, names._swap01(), *map(names._apply_at, range(3))]
    library += [build() for build in LIBRARY.values()]
    for f in vars(realizers).values():  # the cached builders, tuples spread
        if hasattr(f, "cache_info") and f.__wrapped__.__code__.co_argcount == 0:
            out = f()
            library += out if isinstance(out, tuple) else [out]
    kept = [entry[0] for key, entry in run.ops.items() if isinstance(key, tuple) and len(key) == 2]
    assert kept and {id(t) for t in kept} <= {id(t) for t in library}


def test_no_run_asks_for_the_value_of_a_constant(monkeypatch):
    # Projection and pairing apply the machine's values of P0, P1 and P
    # (machine.CONST_VALUES), so over every suite under one run no
    # value_of call is for a constant and no key of the table is one's.
    from extreal import kernel, names, realizers, suites
    from extreal.terms import Const, P

    asked, kernel_value_of = [], kernel.value_of

    def counted(t, run=None):
        asked.append(t)
        return kernel_value_of(t, run)

    for mod in (kernel, names, realizers, suites):
        monkeypatch.setattr(mod, "value_of", counted)
    run = Run()
    assert kernel.pair_value(num_value(1), IR, run) is kernel.evaluate(app(P, num(1), Opaque("ir", IR)), run)
    assert kernel.project(kernel.pair_value(num_value(1), IR, run), 1, run) is IR
    assert asked == []
    for name in suites.SUITES:
        suites.run_suite(name, run)
    assert asked and not any(isinstance(t, Const) for t in asked)
    kept = [entry[0] for key, entry in run.ops.items() if isinstance(key, tuple) and len(key) == 2]
    assert kept and not any(isinstance(t, Const) for t in kept)


def test_reflexivity_on_random_names():
    rng = random.Random(20)
    for _ in range(30):
        x = random_finite_name(rng, rng.randint(0, 3))
        assert check(BOTH(IR), Eq(x, x)).status is Status.REALIZED


def test_symmetry_realizer():
    _, i_s, *_ = (value_of(t) for t in eq_realizers())
    wit = synthesize(Eq(Nat(3), Nat(3)), Run())
    out = apply_value(i_s, wit)
    assert check(BOTH(out.value), Eq(Nat(3), Nat(3))).status is Status.REALIZED


def test_transitivity_realizer():
    _, _, i_t, *_ = (value_of(t) for t in eq_realizers())
    wit = synthesize(Eq(Nat(2), Nat(2)), Run())
    out = apply_value(i_t, pair_value(wit, wit))
    assert check(BOTH(out.value), Eq(Nat(2), Nat(2))).status is Status.REALIZED


def test_membership_transport_realizers():
    _, _, _, i_0t, i_1t = eq_realizers()
    i_0, i_1 = value_of(i_0t), value_of(i_1t)
    eqw = synthesize(Eq(Nat(2), Nat(2)), Run())
    memw = synthesize(Mem(Nat(2), Nat(4)), Run())
    for r in (i_0, i_1):
        out = apply_value(r, pair_value(eqw, memw))
        assert check(BOTH(out.value), Mem(Nat(2), Nat(4))).status is Status.REALIZED


def test_pairing_axiom():
    e = value_of(pairing_term())
    z = pairing_name(Nat(1), Nat(2))
    assert len(z.triples) == 2
    phi = And(Mem(Nat(1), z), Mem(Nat(2), z))
    assert check(BOTH(e), phi).status is Status.REALIZED


def test_union_axiom():
    x = Explicit(((num_value(0), num_value(0), Sing(Nat(1))),))
    y = union_name(x, Run())
    assert y.triples == ((num_value(0), num_value(0), Nat(1)),)
    e = value_of(union_term())
    phi = AllIn("u", x, AllIn("v", "u", Mem("v", y)))
    assert check(BOTH(e), phi).status is Status.REALIZED


def test_union_builder_rejects_schematic_input():
    with pytest.raises(ValueError):
        union_name(OMEGA, Run())


@pytest.mark.parametrize("build", [
    lambda run: union_name(Explicit(((num_value(0), num_value(0), OMEGA),)), run),
    lambda run: separation_name(OMEGA, lambda u: Eq(u, u), run),
    lambda run: collection_name(OMEGA, lambda triple: triple[2], run),
], ids=["union-members", "separation", "collection"])
def test_witness_builders_refuse_non_finite_input(build):
    with pytest.raises(ValueError, match="finite"):
        build(Run())


def test_extensionality_witness_directed():
    from extreal.bracket import SKK

    x = Explicit(((num_value(0), num_value(0), Nat(1)),))
    y = Sing(Nat(1))
    idv = value_of(SKK)
    hyp = pair_value(idv, idv)
    e = value_of(extensionality_term())
    out = apply_value(e, hyp)
    assert check(BOTH(out.value), Eq(x, y)).status is Status.REALIZED


def test_infinity_e0_cases_and_branch_shape():
    e0t, _ = infinity_terms()
    e0 = value_of(e0t)
    for name, st in infinity_e0_cases(e0, 4, Run()):
        assert st is Status.REALIZED, name
    # branch inspection: n = 0 takes the zero tag, n = 3 the successor tag
    w0 = pair_value(num_value(0), IR)
    out0 = apply_value(e0, w0).value
    assert project(out0, 0).numeral == 0
    w3 = pair_value(num_value(3), IR)
    out3 = apply_value(e0, w3).value
    assert project(out3, 0).numeral == 1
    assert project(project(out3, 1), 0).numeral == 2


def test_infinity_e1_both_cases():

    _, e1t = infinity_terms()
    e1 = value_of(e1t)
    for name, st in infinity_e1_cases(e1, Run()):
        assert st is Status.REALIZED, name


def test_set_induction_defining_equation():
    from extreal.kernel import kleene_agree
    from extreal.terms import App

    ev = value_of(set_induction_term())
    a = Value(Opaque("a"))
    lhs = App(Opaque("e", ev), Opaque("a", a))
    rhs = App(Opaque("a", a), compile_term(lam("z", App(Opaque("e", ev), Opaque("a", a)))))
    assert kleene_agree(lhs, rhs) is True


def test_separation_builder_and_realizers():
    from extreal.realizers import bounded_separation_terms

    x4 = Explicit(tuple((num_value(k), num_value(k), Nat(k)) for k in range(4)))
    y = separation_name(x4, lambda u: Mem(u, Nat(2)), Run())
    assert len(y.triples) == 2  # members 0 and 1 satisfy u < 2
    e0, e1 = (value_of(t) for t in bounded_separation_terms())
    phi = AllIn("u", y, And(Mem("u", x4), Mem("u", Nat(2))))
    assert check(BOTH(e0), phi).status is Status.REALIZED
    for n in range(2):
        e1u = apply_value(e1, num_value(n)).value
        wit = synthesize(Mem(Nat(n), Nat(2)), Run())
        out = apply_value(e1u, wit).value
        assert check(BOTH(out), Mem(Nat(n), y)).status is Status.REALIZED


def test_strong_collection_instance():
    x = Explicit(((num_value(0), num_value(0), Nat(1)),))
    y = collection_name(x, lambda tr: tr[2], Run())
    a = value_of(compile_term(lam("c", Opaque("ir", IR))))
    e = value_of(strong_collection_term())
    out = apply_value(e, a).value
    phi = And(
        AllIn("u", x, ExIn("v", y, Eq("u", "v"))),
        AllIn("v", y, ExIn("u", x, Eq("u", "v"))),
    )
    assert check(BOTH(out), phi).status is Status.REALIZED


def test_subset_collection_equations():
    e = value_of(subset_collection_term())
    a = value_of(compile_term(lam("c", p_(Var("c"), Opaque("ir", IR)))))
    ea = apply_value(e, a).value
    assert project(ea, 0).numeral == 0
    part10 = project(project(ea, 1), 0)
    out = apply_value(part10, num_value(2)).value
    # (e a)_10 c = p (p a c) (a c)_1
    assert project(project(out, 0), 1) == num_value(2)
    assert project(out, 1) == IR


def test_powerset_term():
    t = powerset_term()
    assert not free_vars(t)
    e = value_of(t)
    # e a = p a i_r
    out = apply_value(e, num_value(5)).value
    assert project(out, 0) == num_value(5)
    assert project(out, 1) == IR


def test_internal_pairing_up_op():
    u0t, u1t, vt, _, _ = pairing_realizers()
    u0, u1, v = value_of(u0t), value_of(u1t), value_of(vt)
    rng = random.Random(21)
    for _ in range(6):
        x = random_finite_name(rng, rng.randint(0, 2))
        y = random_finite_name(rng, rng.randint(0, 2))
        assert check(BOTH(u0), unordered_pair(x, x, Sing(x))).status is Status.REALIZED
        assert check(BOTH(u1), unordered_pair(x, y, UPair(x, y))).status is Status.REALIZED
        assert check(BOTH(v), ordered_pair(x, y, OPair(x, y))).status is Status.REALIZED


def test_pairing_w_round_trip():
    *_, wt, _ = pairing_realizers()
    w = value_of(wt)
    out = apply_value(w, IR).value  # i_r realizes OPair(1,2) = OPair(1,2)
    phi = And(Eq(Nat(1), Nat(1)), Eq(Nat(2), Nat(2)))
    assert check(BOTH(out), phi).status is Status.REALIZED


def test_pairing_z_round_trip():
    _, _, vt, _, zt = pairing_realizers()
    v, z = value_of(vt), value_of(zt)
    out = apply_value(z, v).value
    phi = Eq(OPair(Nat(1), Nat(2)), OPair(Nat(1), Nat(2)))
    assert check(BOTH(out), phi).status is Status.REALIZED


def test_choice_graph_matches_direct_evaluation():
    a = value_of(compile_term(lam("c", p_(Var("c"), Opaque("ir", IR)))))
    f = Graph(a, TYPE_O, TYPE_O)
    ts, _ = enumerate_triples(f, Run(max_index=3))
    for c, d, z in ts:
        e = project(apply_value(a, c).value, 0)
        assert z == OPair(Nat(c.numeral), Nat(e.numeral))


def test_choice_clauses_at_oo():
    budget = Run(max_index=3)
    a = value_of(compile_term(lam("c", p_(Var("c"), Opaque("ir", IR)))))
    f = Graph(a, TYPE_O, TYPE_O)
    e = value_of(choice_term())
    ea = apply_value(e, a).value
    ea0 = project(ea, 0)
    ea10 = project(project(ea, 1), 0)
    ea11 = project(project(ea, 1), 1)

    ts, _ = enumerate_triples(f, budget)
    for c, d, z in ts:
        r = apply_value(ea0, c).value
        phi = ExIn("x", OMEGA, ExIn("y", OMEGA, ordered_pair("x", "y", z)))
        assert check(BOTH(r), phi, budget).status is Status.REALIZED

    for n in range(4):
        r = apply_value(ea10, num_value(n)).value
        phi = ExIn("y", OMEGA, ExIn("z", f, And(ordered_pair(Nat(n), "y", "z"), Eq("y", Nat(n)))))
        assert check(BOTH(r), phi, budget).status is Status.REALIZED

    _, _, vt, _, _ = pairing_realizers()
    vv = value_of(vt)
    g = pair_value(vv, vv)
    out = apply_values(ea11, [num_value(2), num_value(2), g])
    assert check(BOTH(out.value), Eq(Nat(2), Nat(2)), budget).status is Status.REALIZED


def test_arrow_clauses_at_oo():
    from extreal.realizers import _pairs_uniqueness_part
    from extreal.terms import SUCC

    budget = Run(max_index=3)
    arrow = value_of(arrow_term())
    e0, e1 = project(arrow, 0), project(arrow, 1)
    succ = value_of(SUCC)
    oo = Arrow(TYPE_O, TYPE_O)

    e0a = apply_value(e0, succ).value
    e00 = project(e0a, 0)
    r2 = apply_value(e00, num_value(2)).value
    assert project(r2, 0).numeral == 2
    assert project(project(r2, 1), 0).numeral == 3

    ts, _ = enumerate_triples(Internal(succ, oo), budget)
    for c, d, z in ts:
        r = apply_value(e00, c).value
        phi = ExIn("x", OMEGA, ExIn("y", OMEGA, ordered_pair("x", "y", z)))
        assert check(BOTH(r), phi, budget).status is Status.REALIZED

    a_small = value_of(compile_term(lam("c", p_(Var("c"), Opaque("ir", IR)))))
    f = Graph(a_small, TYPE_O, TYPE_O)
    _, _, vt, _, _ = pairing_realizers()
    vv = value_of(vt)
    part = value_of(compile_term(lam("c", p_(Var("c"), p_(Var("c"), Opaque("v", vv))))))
    uniq = value_of(_pairs_uniqueness_part())
    a_arrow = pair_value(part, pair_value(part, uniq))
    e1a = apply_value(e1, a_arrow).value
    e1a0, e1a1 = project(e1a, 0), project(e1a, 1)
    for n in (0, 1):
        assert apply_value(e1a0, num_value(n)).value.numeral == n

    gval = value_of(compile_term(lam("c", proj(
        __import__("extreal.terms", fromlist=["App"]).App(Opaque("a10", part), Var("c")), "0"))))
    gname = Internal(gval, oo)
    ts, _ = enumerate_triples(f, budget)
    for c, d, z in ts:
        rc = apply_value(e1a1, c).value
        assert check(BOTH(project(rc, 0)), Mem(z, gname), budget).status is Status.REALIZED
    ts, _ = enumerate_triples(gname, budget)
    for c, d, z in ts:
        rc = apply_value(e1a1, c).value
        assert check(BOTH(project(rc, 1)), Mem(z, f), budget).status is Status.REALIZED


def test_arrow_choice_at_second_order_not_refuted():
    """At (o, (o)o) membership in the arrow-type name is only samplable, so
    the clause checks stay short of Realized; they must not refute."""
    from extreal.names import type_name
    from extreal.terms import App

    budget = Run(max_index=2, generators_per_type=3)
    oo = Arrow(TYPE_O, TYPE_O)
    a2 = value_of(compile_term(lam("c", p_(App(K, Var("c")), Opaque("ir", IR)))))
    f2 = Graph(a2, TYPE_O, oo)
    e = value_of(choice_term())
    ea0 = project(apply_value(e, a2).value, 0)
    ts, exhausted = enumerate_triples(f2, budget)
    assert ts and not exhausted
    for c, d, z in ts:
        r = apply_value(ea0, c).value
        phi = ExIn("x", OMEGA, ExIn("y", type_name(oo), ordered_pair("x", "y", z)))
        ver = check(BOTH(r), phi, budget)
        assert ver.status is not Status.REFUTED

    # Arrow theorem, forward direction, with the constant-function former K
    # as the type-(o)((o)o) element: its triples enumerate with decidable
    # keys; the instance checks stay short of Realized and never refute.
    arrow = value_of(arrow_term())
    e0 = project(arrow, 0)
    kv = Value(K)
    name_k = Internal(kv, Arrow(TYPE_O, oo))
    e0a = apply_value(e0, kv).value
    e00 = project(e0a, 0)
    ts, exhausted = enumerate_triples(name_k, budget)
    assert ts and not exhausted
    for c, d, z in ts:
        r = apply_value(e00, c).value
        phi = ExIn("x", OMEGA, ExIn("y", type_name(oo), ordered_pair("x", "y", z)))
        ver = check(BOTH(r), phi, budget)
        assert ver.status is not Status.REFUTED
        # direct evaluation against the defining equations
        assert project(r, 0) == c
        assert project(project(r, 1), 0) == apply_value(kv, c).value


MUTATION_EXEMPT_NOTES = """Sites whose flip cannot change any verdict:
the zero-branch payload of the forward direction realizes an empty bounded
universal, where any value succeeds."""


def _infinity_suite_flips(term_value, run) -> bool:
    from extreal.suites import infinity_skewed_cases

    e0, e1 = term_value
    cases = infinity_e0_cases(e0, 3, run)
    cases += infinity_e1_cases(e1, run)
    cases += infinity_skewed_cases(e0, e1, run)
    return any(st is Status.REFUTED for _, st in cases)


def test_infinity_mutation_sensitivity():
    # One run for every mutant: what the mutants share is reduced once.
    e0t, e1t = infinity_terms()
    run, inert, flipped = Run(), [], 0
    for which, base in (("e0", e0t), ("e1", e1t)):
        for site, mutated in term_mutants(base):
            try:
                mv = value_of(mutated)
            except RuntimeError:
                flipped += 1  # the realizer itself no longer evaluates
                continue
            pair = (mv, value_of(e1t)) if which == "e0" else (value_of(e0t), mv)
            if _infinity_suite_flips(pair, run):
                flipped += 1
            else:
                inert.append(f"{which}:{site}")
    # Every tag and projection flip must refute something, except the
    # semantically inert zero-branch payload (see MUTATION_EXEMPT_NOTES).
    assert len(inert) <= 1, inert
    assert flipped >= 20


# sha256 of the "sentence<TAB>printed realizer" lines (``-`` for a false
# sentence) of synthesis over a fixed draw of fragment sentences.  Which
# disjunct and witness synthesis picks shows in every realizer it prints; a
# deliberate change of that choice updates the pin.
_SYNTHESIZED_PRINT_SHA256 = "da514c94aff433bdd8ac51a19645fd19840636f2a3d6339d7bbe7d86adb25951"


def test_synthesized_realizers_are_pinned():
    lines = []
    for seed in range(200):
        for qdepth in (1, 2):
            phi = random_fragment_formula(random.Random(seed), qdepth)
            wit = synthesize(phi, Run())
            lines.append(f"{fmt(phi)}\t{'-' if wit is None else print_term(wit)}\n")
    assert sum(not line.endswith("\t-\n") for line in lines) > 100
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == _SYNTHESIZED_PRINT_SHA256
