"""Set-theoretic formulas over names.

Atoms are membership and equality between name references; a reference is
either a bound variable (a string) or a name literal.  Bounded quantifiers
are primitive connectives; the unbounded ones are representable but the
checker refuses to affirm them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .names import VName

NameRef = str | VName


class Formula:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Mem(Formula):
    x: NameRef
    y: NameRef


@dataclass(frozen=True, slots=True)
class Eq(Formula):
    x: NameRef
    y: NameRef


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True, slots=True)
class Imp(Formula):
    hyp: Formula
    concl: Formula


@dataclass(frozen=True, slots=True)
class AllIn(Formula):
    var: str
    bound: NameRef
    body: Formula


@dataclass(frozen=True, slots=True)
class ExIn(Formula):
    var: str
    bound: NameRef
    body: Formula


@dataclass(frozen=True, slots=True)
class All(Formula):
    var: str
    body: Formula


@dataclass(frozen=True, slots=True)
class Ex(Formula):
    var: str
    body: Formula


def _subst_ref(r: NameRef, var: str, val: VName) -> NameRef:
    return val if isinstance(r, str) and r == var else r


def substitute(phi: Formula, var: str, val: VName) -> Formula:
    match phi:
        case Mem(x, y):
            return Mem(_subst_ref(x, var, val), _subst_ref(y, var, val))
        case Eq(x, y):
            return Eq(_subst_ref(x, var, val), _subst_ref(y, var, val))
        case And(l, r):
            return And(substitute(l, var, val), substitute(r, var, val))
        case Or(l, r):
            return Or(substitute(l, var, val), substitute(r, var, val))
        case Not(b):
            return Not(substitute(b, var, val))
        case Imp(h, c):
            return Imp(substitute(h, var, val), substitute(c, var, val))
        case AllIn(v, bound, body):
            bound2 = _subst_ref(bound, var, val)
            return AllIn(v, bound2, body if v == var else substitute(body, var, val))
        case ExIn(v, bound, body):
            bound2 = _subst_ref(bound, var, val)
            return ExIn(v, bound2, body if v == var else substitute(body, var, val))
        case All(v, body):
            return All(v, body if v == var else substitute(body, var, val))
        case Ex(v, body):
            return Ex(v, body if v == var else substitute(body, var, val))
    raise TypeError(phi)


def free_formula_vars(phi: Formula) -> frozenset[str]:
    match phi:
        case Mem(x, y) | Eq(x, y):
            out = frozenset()
            if isinstance(x, str):
                out |= {x}
            if isinstance(y, str):
                out |= {y}
            return out
        case And(l, r) | Or(l, r) | Imp(l, r):
            return free_formula_vars(l) | free_formula_vars(r)
        case Not(b):
            return free_formula_vars(b)
        case AllIn(v, bound, body) | ExIn(v, bound, body):
            out = free_formula_vars(body) - {v}
            if isinstance(bound, str):
                out |= {bound}
            return out
        case All(v, body) | Ex(v, body):
            return free_formula_vars(body) - {v}
    raise TypeError(phi)


def is_closed(phi: Formula) -> bool:
    return not free_formula_vars(phi)


def fmt(phi: Formula) -> str:
    """``phi`` in scenario syntax, which reads back as ``phi`` where ``describe``
    spells each name in full; quantifiers, whose bodies run right, are parenthesized."""
    from .names import describe

    def ref(r: NameRef) -> str:
        return r if isinstance(r, str) else describe(r)

    match phi:
        case Mem(x, y):
            return f"mem({ref(x)}, {ref(y)})"
        case Eq(x, y):
            return f"eq({ref(x)}, {ref(y)})"
        case And(l, r):
            return f"({fmt(l)} /\\ {fmt(r)})"
        case Or(l, r):
            return f"({fmt(l)} \\/ {fmt(r)})"
        case Not(b):
            return f"~{fmt(b)}"
        case Imp(h, c):
            return f"({fmt(h)} => {fmt(c)})"
        case AllIn(v, bound, body):
            return f"(all {v} in {ref(bound)}. {fmt(body)})"
        case ExIn(v, bound, body):
            return f"(ex {v} in {ref(bound)}. {fmt(body)})"
        case All(v, body):
            return f"(ALL {v}. {fmt(body)})"
        case Ex(v, body):
            return f"(EX {v}. {fmt(body)})"
    raise TypeError(phi)


# --- formula macros -------------------------------------------------------


def is_empty(y: NameRef, var: str = "_e") -> Formula:
    """y = 0, rendered as: every member is unequal to itself."""
    return AllIn(var, y, Not(Eq(var, var)))


def is_succ_of(y: NameRef, z: NameRef) -> Formula:
    """y = z ∪ {z}."""
    return And(
        AllIn("_x", y, Or(Mem("_x", z), Eq("_x", z))),
        And(AllIn("_x", z, Mem("_x", y)), Mem(z, y)),
    )


def theta(y: NameRef, omega: NameRef) -> Formula:
    """y = 0 or y is the successor of some member of omega."""
    return Or(is_empty(y), ExIn("_z", omega, is_succ_of(y, "_z")))


def unordered_pair(x: NameRef, y: NameRef, z: NameRef) -> Formula:
    """z = {x, y}."""
    return And(
        Mem(x, z),
        And(Mem(y, z), AllIn("_u", z, Or(Eq("_u", x), Eq("_u", y)))),
    )


def ordered_pair(x: NameRef, y: NameRef, z: NameRef) -> Formula:
    """z = ⟨x, y⟩ for the Kuratowski pair {{x}, {x, y}}."""
    return And(
        ExIn("_s", z, unordered_pair(x, x, "_s")),
        And(
            ExIn("_p", z, unordered_pair(x, y, "_p")),
            AllIn(
                "_u",
                z,
                Or(unordered_pair(x, x, "_u"), unordered_pair(x, y, "_u")),
            ),
        ),
    )
