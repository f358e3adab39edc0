"""Proof validation and realizer extraction."""

import pytest

from extreal.bracket import free_vars
from extreal.checker import RealizerPair, Status, check
from extreal.formulas import All, AllIn, And, Eq, Ex, ExIn, Imp, Mem, Or
from extreal.kernel import apply_value, apply_values, project
from extreal.names import Nat
from extreal.proofs import (
    InvalidProof,
    NDProof,
    and_elim_left,
    and_elim_right,
    and_intro,
    assume,
    eq_sym,
    extract,
    imp_elim,
    imp_intro,
)
from extreal.realizers import synthesize, value_of
from extreal.terms import Defined, Run, num, num_value

BOTH = RealizerPair.both


def test_projection_extraction():
    phi, psi = Eq(Nat(1), Nat(1)), Mem(Nat(0), Nat(2))
    pr = imp_intro("h", And(phi, psi), and_elim_left(assume(And(phi, psi), "h")))
    t = extract(pr)
    assert not free_vars(t)
    v = value_of(t)
    wit = synthesize(And(phi, psi), Run())
    out = apply_value(v, wit)
    assert check(BOTH(out.value), phi).status is Status.REALIZED


def test_right_projection_extraction():
    phi, psi = Eq(Nat(1), Nat(1)), Mem(Nat(0), Nat(2))
    pr = imp_intro("h", And(phi, psi), and_elim_right(assume(And(phi, psi), "h")))
    t = extract(pr)
    assert not free_vars(t)
    out = apply_value(value_of(t), synthesize(And(phi, psi), Run()))
    assert check(BOTH(out.value), psi).status is Status.REALIZED
    # The left conjunct's realizer does not stand in for the right one.
    assert check(BOTH(out.value), phi).status is Status.REFUTED


def test_symmetry_extraction():
    e = Eq(Nat(2), Nat(2))
    pr = imp_intro("h", e, eq_sym(assume(e, "h")))
    v = value_of(extract(pr))
    wit = synthesize(e, Run())
    out = apply_value(v, wit)
    assert check(BOTH(out.value), e).status is Status.REALIZED


def test_composition_extraction():
    phi, psi, chi = Eq(Nat(1), Nat(1)), Mem(Nat(0), Nat(2)), Mem(Nat(1), Nat(3))
    inner = imp_elim(
        assume(Imp(psi, chi), "g"), imp_elim(assume(Imp(phi, psi), "f"), assume(phi, "x"))
    )
    pr = imp_intro(
        "f", Imp(phi, psi), imp_intro("g", Imp(psi, chi), imp_intro("x", phi, inner))
    )
    t = extract(pr)
    assert not free_vars(t)
    v = value_of(t)
    w1 = synthesize(Imp(phi, psi), Run())
    w2 = synthesize(Imp(psi, chi), Run())
    wx = synthesize(phi, Run())
    out = apply_values(v, [w1, w2, wx])
    assert isinstance(out, Defined)
    assert check(BOTH(out.value), chi).status is Status.REALIZED


def test_conjunction_round_trip():
    phi, psi = Eq(Nat(1), Nat(1)), Mem(Nat(0), Nat(2))
    pr = imp_intro(
        "a", phi, imp_intro("b", psi, and_intro(assume(phi, "a"), assume(psi, "b")))
    )
    v = value_of(extract(pr))
    out = apply_values(v, [synthesize(phi, Run()), synthesize(psi, Run())])
    assert check(BOTH(out.value), And(phi, psi)).status is Status.REALIZED


def test_disjunction_rules():
    phi, psi, chi = Eq(Nat(1), Nat(1)), Eq(Nat(1), Nat(2)), Mem(Nat(0), Nat(2))
    inj = NDProof("or-intro-left", Or(phi, psi), (assume(phi, "h"),))
    pr_inj = imp_intro("h", phi, inj)
    v = value_of(extract(pr_inj))
    wit_phi = synthesize(phi, Run())
    out = apply_value(v, wit_phi)
    assert check(BOTH(out.value), Or(phi, psi)).status is Status.REALIZED

    case_left = imp_intro("l", phi, assume(chi, "m"))
    case_right = imp_intro("r", psi, assume(chi, "m"))
    elim = NDProof("or-elim", chi, (inj, case_left, case_right))
    closed = imp_intro("m", chi, imp_intro("h", phi, elim))
    t = extract(closed)
    assert not free_vars(t)
    v2 = value_of(t)
    out2 = apply_values(v2, [synthesize(chi, Run()), wit_phi])
    assert check(BOTH(out2.value), chi).status is Status.REALIZED


def test_or_intro_right_tags_the_right_side():
    phi, psi = Eq(Nat(1), Nat(2)), Mem(Nat(0), Nat(2))
    pr = imp_intro("h", psi, NDProof("or-intro-right", Or(phi, psi), (assume(psi, "h"),)))
    out = apply_value(value_of(extract(pr)), synthesize(psi, Run())).value
    assert project(out, 0) is num_value(1)
    assert check(BOTH(out), Or(phi, psi)).status is Status.REALIZED
    with pytest.raises(InvalidProof, match="injects into the stated side"):
        NDProof("or-intro-right", Or(phi, psi), (assume(phi, "h"),))


def test_generic_quantifier_rules_pass_the_realizer_through():
    refl = NDProof("eq-refl", Eq("x", "x"))
    intro = NDProof("all-intro", All("x", Eq("x", "x")), (refl,))
    elim = NDProof("all-elim", Eq(Nat(2), Nat(2)), (intro,), aux=Nat(2))
    two = NDProof("eq-refl", Eq(Nat(2), Nat(2)))
    ex = NDProof("ex-intro", Ex("y", Eq("y", Nat(2))), (two,), aux=Nat(2))
    for pr in (intro, elim, ex):
        assert extract(pr) == extract(pr.premises[0])
    assert check(BOTH(value_of(extract(elim))), elim.conclusion).status is Status.REALIZED

    for rule, concl, prem, aux, msg in [
        ("all-intro", All("x", Eq("x", "x")), two, None, "generic body"),
        ("all-intro", Ex("x", Eq("x", "x")), refl, None, "one premise"),
        ("all-elim", Eq(Nat(2), Nat(2)), refl, Nat(2), "one universal premise"),
        ("all-elim", Eq(Nat(2), Nat(2)), intro, None, "carries the instance name"),
        ("all-elim", Eq(Nat(3), Nat(3)), intro, Nat(2), "instance must match"),
        ("ex-intro", Ex("y", Eq("y", Nat(2))), two, num(2), "carries the witness name"),
        ("ex-intro", Ex("y", Eq("y", Nat(3))), two, Nat(2), "premise is the instance"),
    ]:
        with pytest.raises(InvalidProof, match=msg):
            NDProof(rule, concl, (prem,), aux=aux)


def test_mem_replace_right_on_numerals():
    for n in (1, 3):
        for k in range(n):
            e, m = Eq(Nat(n), Nat(n)), Mem(Nat(k), Nat(n))
            pr = NDProof("mem-replace-right", m, (assume(e, "e"), assume(m, "m")))
            v = value_of(extract(imp_intro("e", e, imp_intro("m", m, pr))))
            out = apply_values(v, [synthesize(e, Run()), synthesize(m, Run())])
            assert check(BOTH(out.value), m).status is Status.REALIZED, (n, k)
    e = Eq(Nat(2), Nat(3))
    with pytest.raises(InvalidProof, match="shapes"):
        NDProof("mem-replace-right", Mem(Nat(0), Nat(3)), (assume(e, "e"), assume(Mem(Nat(0), Nat(3)), "m")))
    with pytest.raises(InvalidProof, match="replaced bound"):
        NDProof("mem-replace-right", Mem(Nat(1), Nat(3)), (assume(e, "e"), assume(Mem(Nat(0), Nat(2)), "m")))
    with pytest.raises(InvalidProof, match="two premises"):
        NDProof("mem-replace-right", Mem(Nat(0), Nat(3)), (assume(e, "e"),))


def test_not_elim_is_vacuously_sound():
    from extreal.formulas import Not

    phi, chi = Eq(Nat(1), Nat(1)), Mem(Nat(0), Nat(2))
    pr = NDProof("not-elim", chi, (assume(Not(phi), "n"), assume(phi, "p")))
    closed = imp_intro("n", Not(phi), imp_intro("p", phi, pr))
    assert not free_vars(extract(closed))


def test_generic_bounded_universal():
    body = Eq("x", "x")
    generic = NDProof("eq-refl", Eq(Nat(9), Nat(9)))
    intro = NDProof("allin-intro", AllIn("x", Nat(2), body), (generic,), aux=Nat(9))
    v = value_of(extract(intro))
    assert check(BOTH(v), AllIn("x", Nat(2), body)).status is Status.REALIZED

    inst = NDProof("allin-elim", Eq(Nat(1), Nat(1)), (intro,), aux=(Nat(1), num(1)))
    v2 = value_of(extract(inst))
    assert check(BOTH(v2), Eq(Nat(1), Nat(1))).status is Status.REALIZED


def test_bounded_existential_with_discharge():
    inst = Mem(Nat(1), Nat(4))
    target = ExIn("y", Nat(2), inst)
    pr = NDProof("exin-intro", target, (assume(inst, "m"),), aux=(Nat(1), num(1)))
    closed = imp_intro("m", inst, pr)
    v = value_of(extract(closed))
    out = apply_value(v, synthesize(inst, Run()))
    assert check(BOTH(out.value), target).status is Status.REALIZED


def test_eq_trans_extraction():
    e = Eq(Nat(2), Nat(2))
    pr = NDProof("eq-trans", e, (assume(e, "a"), assume(e, "b")))
    closed = imp_intro("a", e, imp_intro("b", e, pr))
    v = value_of(extract(closed))
    wit = synthesize(e, Run())
    out = apply_values(v, [wit, wit])
    assert check(BOTH(out.value), e).status is Status.REALIZED


def test_mem_replacement_extraction():
    e = Eq(Nat(1), Nat(1))
    m = Mem(Nat(1), Nat(3))
    pr = NDProof("mem-replace-left", m, (assume(e, "e"), assume(m, "m")))
    closed = imp_intro("e", e, imp_intro("m", m, pr))
    v = value_of(extract(closed))
    out = apply_values(v, [synthesize(e, Run()), synthesize(m, Run())])
    assert check(BOTH(out.value), m).status is Status.REALIZED


def test_invalid_proofs_rejected():
    phi, psi = Eq(Nat(1), Nat(1)), Eq(Nat(2), Nat(2))
    with pytest.raises(InvalidProof):
        NDProof("imp-elim", psi, (assume(Imp(phi, psi), "f"), assume(psi, "x")))
    with pytest.raises(InvalidProof):
        NDProof("and-intro", And(phi, psi), (assume(psi, "a"), assume(phi, "b")))
    with pytest.raises(InvalidProof):
        NDProof("eq-refl", Eq(Nat(1), Nat(2)))
    with pytest.raises(InvalidProof):
        NDProof("no-such-rule", phi)
    with pytest.raises(InvalidProof):
        NDProof("or-elim", phi, (assume(Or(phi, psi), "d"), assume(phi, "l"), assume(phi, "r")))
