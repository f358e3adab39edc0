"""Natural-deduction proofs and extraction of realizer terms.

Each node states its conclusion; construction validates that the conclusion
follows from the children by the labelled rule.  Extraction is clause-wise:
implication introduction becomes a compiled binder, conjunction becomes
pairing, disjunction elimination a tag dispatch, the equality rules the
library realizers.  Generic (unbounded) quantifier rules leave the realizer
untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

from .compiler import Lam, compile_term
from .formulas import (
    All,
    AllIn,
    And,
    Eq,
    Ex,
    ExIn,
    Formula,
    Imp,
    Mem,
    Not,
    Or,
    fmt,
    substitute,
)
from .names import VName
from .realizers import eq_realizers, ifeq, p_, proj
from .terms import App, K, Term, Var, num


class InvalidProof(ValueError):
    pass


@dataclass(frozen=True)
class NDProof:
    rule: str
    conclusion: Formula
    premises: tuple["NDProof", ...] = ()
    label: str | None = None  # assumption label, witness data, etc.
    aux: object = None

    def __post_init__(self):
        _validate(self)


def _req(cond: bool, proof: NDProof, msg: str):
    if not cond:
        raise InvalidProof(f"{proof.rule} concluding {fmt(proof.conclusion)}: {msg}")


def _validate(p: NDProof):
    prem = p.premises
    match p.rule:
        case "assume":
            _req(p.label is not None, p, "assumptions carry a label")
        case "imp-intro":
            _req(len(prem) == 1 and isinstance(p.conclusion, Imp), p, "one premise, implication conclusion")
            _req(prem[0].conclusion == p.conclusion.concl, p, "premise must conclude the consequent")
            _req(p.label is not None, p, "names the discharged assumption")
        case "imp-elim":
            _req(len(prem) == 2, p, "two premises")
            impf = prem[0].conclusion
            _req(isinstance(impf, Imp) and impf.hyp == prem[1].conclusion and impf.concl == p.conclusion,
                 p, "modus ponens shape")
        case "and-intro":
            _req(len(prem) == 2 and isinstance(p.conclusion, And), p, "two premises")
            _req(p.conclusion.left == prem[0].conclusion and p.conclusion.right == prem[1].conclusion,
                 p, "components must match")
        case "and-elim-left" | "and-elim-right":
            _req(len(prem) == 1 and isinstance(prem[0].conclusion, And), p, "one conjunction premise")
            side = prem[0].conclusion.left if p.rule.endswith("left") else prem[0].conclusion.right
            _req(side == p.conclusion, p, "selects the stated component")
        case "or-intro-left" | "or-intro-right":
            _req(len(prem) == 1 and isinstance(p.conclusion, Or), p, "one premise, disjunction conclusion")
            side = p.conclusion.left if p.rule.endswith("left") else p.conclusion.right
            _req(side == prem[0].conclusion, p, "injects into the stated side")
        case "or-elim":
            _req(len(prem) == 3 and isinstance(prem[0].conclusion, Or), p, "disjunction and two implications")
            d = prem[0].conclusion
            _req(prem[1].conclusion == Imp(d.left, p.conclusion), p, "left case")
            _req(prem[2].conclusion == Imp(d.right, p.conclusion), p, "right case")
        case "not-elim":
            _req(len(prem) == 2 and isinstance(prem[0].conclusion, Not), p, "negation and its body")
            _req(prem[0].conclusion.body == prem[1].conclusion, p, "contradictory premises")
        case "all-intro":
            _req(len(prem) == 1 and isinstance(p.conclusion, All), p, "one premise")
            _req(prem[0].conclusion == p.conclusion.body, p, "generic body")
        case "all-elim":
            _req(len(prem) == 1 and isinstance(prem[0].conclusion, All), p, "one universal premise")
            body = prem[0].conclusion
            _req(isinstance(p.aux, VName), p, "carries the instance name")
            _req(substitute(body.body, body.var, p.aux) == p.conclusion, p, "instance must match")
        case "ex-intro":
            _req(len(prem) == 1 and isinstance(p.conclusion, Ex), p, "one premise")
            _req(isinstance(p.aux, VName), p, "carries the witness name")
            _req(substitute(p.conclusion.body, p.conclusion.var, p.aux) == prem[0].conclusion,
                 p, "premise is the instance")
        case "allin-intro":
            # From a realizer uniform in the member: premise proves the body
            # for a generic member named by aux.
            _req(len(prem) == 1 and isinstance(p.conclusion, AllIn), p, "one premise")
            _req(isinstance(p.aux, VName), p, "carries the generic member name")
            _req(substitute(p.conclusion.body, p.conclusion.var, p.aux) == prem[0].conclusion,
                 p, "premise is the generic instance")
        case "allin-elim":
            _req(len(prem) == 1 and isinstance(prem[0].conclusion, AllIn), p, "one bounded universal premise")
            body = prem[0].conclusion
            _req(isinstance(p.aux, tuple) and len(p.aux) == 2, p, "carries (member name, key term)")
            z, _key = p.aux
            _req(substitute(body.body, body.var, z) == p.conclusion, p, "instance must match")
        case "exin-intro":
            _req(len(prem) == 1 and isinstance(p.conclusion, ExIn), p, "one premise")
            _req(isinstance(p.aux, tuple) and len(p.aux) == 2, p, "carries (witness name, key term)")
            z, _key = p.aux
            _req(substitute(p.conclusion.body, p.conclusion.var, z) == prem[0].conclusion,
                 p, "premise is the witness instance")
        case "eq-refl":
            _req(isinstance(p.conclusion, Eq) and p.conclusion.x == p.conclusion.y, p, "x = x shape")
        case "eq-sym":
            _req(len(prem) == 1 and isinstance(prem[0].conclusion, Eq), p, "one equality premise")
            e = prem[0].conclusion
            _req(p.conclusion == Eq(e.y, e.x), p, "swapped equality")
        case "eq-trans":
            _req(len(prem) == 2, p, "two premises")
            e1, e2 = prem[0].conclusion, prem[1].conclusion
            _req(isinstance(e1, Eq) and isinstance(e2, Eq) and e1.y == e2.x, p, "chained equalities")
            _req(p.conclusion == Eq(e1.x, e2.y), p, "endpoints")
        case "mem-replace-left":
            # x=y, y∈z ⊢ x∈z
            _req(len(prem) == 2, p, "two premises")
            e, m = prem[0].conclusion, prem[1].conclusion
            _req(isinstance(e, Eq) and isinstance(m, Mem) and m.x == e.y, p, "shapes")
            _req(p.conclusion == Mem(e.x, m.y), p, "replaced member")
        case "mem-replace-right":
            # x=y, z∈x ⊢ z∈y
            _req(len(prem) == 2, p, "two premises")
            e, m = prem[0].conclusion, prem[1].conclusion
            _req(isinstance(e, Eq) and isinstance(m, Mem) and m.y == e.x, p, "shapes")
            _req(p.conclusion == Mem(m.x, e.y), p, "replaced bound")
        case _:
            raise InvalidProof(f"unknown rule {p.rule!r}")


def extract(proof: NDProof) -> Term:
    """A closed realizer term for the proved formula (closed when every
    assumption is discharged)."""
    return compile_term(_extract(proof))


def _extract(p: NDProof):
    i_r, i_s, i_t, i_0, i_1 = eq_realizers()
    prem = p.premises
    match p.rule:
        case "assume":
            return Var(f"h_{p.label}")
        case "imp-intro":
            return Lam(f"h_{p.label}", _extract(prem[0]))
        case "imp-elim":
            return App(_extract(prem[0]), _extract(prem[1]))
        case "and-intro":
            return p_(_extract(prem[0]), _extract(prem[1]))
        case "and-elim-left":
            return proj(_extract(prem[0]), "0")
        case "and-elim-right":
            return proj(_extract(prem[0]), "1")
        case "or-intro-left":
            return p_(num(0), _extract(prem[0]))
        case "or-intro-right":
            return p_(num(1), _extract(prem[0]))
        case "or-elim":
            d = _extract(prem[0])
            left = _extract(prem[1])
            right = _extract(prem[2])
            return ifeq(proj(d, "0"), num(0), App(left, proj(d, "1")), App(right, proj(d, "1")))
        case "not-elim":
            # The premises can never both be realized; any value is sound.
            return K
        case "all-intro" | "all-elim" | "ex-intro":
            # Generic quantifiers: realizers pass through.
            return _extract(prem[0])
        case "allin-intro":
            # A uniform realizer serves every member; ignore the key.
            return App(K, _extract(prem[0]))
        case "allin-elim":
            _, key = p.aux
            return App(_extract(prem[0]), key)
        case "exin-intro":
            _, key = p.aux
            return p_(key, _extract(prem[0]))
        case "eq-refl":
            return i_r
        case "eq-sym":
            return App(i_s, _extract(prem[0]))
        case "eq-trans":
            return App(i_t, p_(_extract(prem[0]), _extract(prem[1])))
        case "mem-replace-left":
            return App(i_0, p_(_extract(prem[0]), _extract(prem[1])))
        case "mem-replace-right":
            return App(i_1, p_(_extract(prem[0]), _extract(prem[1])))
    raise InvalidProof(p.rule)


# Convenience constructors.


def assume(phi: Formula, label: str) -> NDProof:
    return NDProof("assume", phi, label=label)


def imp_intro(label: str, hyp: Formula, body: NDProof) -> NDProof:
    return NDProof("imp-intro", Imp(hyp, body.conclusion), (body,), label=label)


def imp_elim(f: NDProof, x: NDProof) -> NDProof:
    assert isinstance(f.conclusion, Imp)
    return NDProof("imp-elim", f.conclusion.concl, (f, x))


def and_intro(l: NDProof, r: NDProof) -> NDProof:
    return NDProof("and-intro", And(l.conclusion, r.conclusion), (l, r))


def and_elim_left(pr: NDProof) -> NDProof:
    assert isinstance(pr.conclusion, And)
    return NDProof("and-elim-left", pr.conclusion.left, (pr,))


def and_elim_right(pr: NDProof) -> NDProof:
    assert isinstance(pr.conclusion, And)
    return NDProof("and-elim-right", pr.conclusion.right, (pr,))


def eq_sym(pr: NDProof) -> NDProof:
    e = pr.conclusion
    assert isinstance(e, Eq)
    return NDProof("eq-sym", Eq(e.y, e.x), (pr,))
