"""Set-theoretic formulas over names, and their bounded-arithmetic fragment.

Atoms are membership and equality between name references; a reference is
either a bound variable (a string) or a name literal.  Bounded quantifiers
are primitive connectives; the unbounded ones are representable but the
checker refuses to affirm them.  On the fragment (``in_fragment``)
realizability is classical truth over the naturals, a fact about the
formula alone, which ``decide`` finds, with its evidence, in one walk.

Formulas are canonical (``terms.Canonical``), as names are: building one
returns the live formula with those fields, so equal formulas are one
object, compared and hashed by identity.
"""

from __future__ import annotations

from .names import Nat, Omega, VName, describe
from .terms import Canonical

NameRef = str | VName


class Formula(Canonical):
    __slots__ = ()


class Mem(Formula):
    __slots__ = __match_args__ = ("x", "y")


class Eq(Formula):
    __slots__ = __match_args__ = ("x", "y")


class And(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Or(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Not(Formula):
    __slots__ = __match_args__ = ("body",)


class Imp(Formula):
    __slots__ = __match_args__ = ("hyp", "concl")


class AllIn(Formula):
    __slots__ = __match_args__ = ("var", "bound", "body")


class ExIn(Formula):
    __slots__ = __match_args__ = ("var", "bound", "body")


class All(Formula):
    __slots__ = __match_args__ = ("var", "body")


class Ex(Formula):
    __slots__ = __match_args__ = ("var", "body")


def _subst_ref(r: NameRef, var: str, val: VName) -> NameRef:
    return val if isinstance(r, str) and r == var else r


def substitute(phi: Formula, var: str, val: VName) -> Formula:
    match phi:
        case Mem(x, y) | Eq(x, y):
            return type(phi)(_subst_ref(x, var, val), _subst_ref(y, var, val))
        case And(l, r) | Or(l, r) | Imp(l, r):
            return type(phi)(substitute(l, var, val), substitute(r, var, val))
        case Not(b):
            return Not(substitute(b, var, val))
        case AllIn(v, bound, body) | ExIn(v, bound, body):
            body = body if v == var else substitute(body, var, val)
            return type(phi)(v, _subst_ref(bound, var, val), body)
        case All(v, body) | Ex(v, body):
            return type(phi)(v, body if v == var else substitute(body, var, val))
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


# --- the bounded-arithmetic fragment: truth oracle -------------------------


class FragmentError(ValueError):
    """The formula is outside the decidable bounded-arithmetic fragment."""


def in_fragment(phi: Formula, bound_vars: frozenset[str] = frozenset()) -> bool:
    """Formulas where realizability coincides with arithmetic truth.

    Atoms compare numeral names (membership also against ω̇); quantifiers are
    bounded by numeral names, existentials also by ω̇.
    """

    def ok_elem(r: NameRef) -> bool:
        return (isinstance(r, str) and r in bound_vars) or isinstance(r, Nat)

    match phi:
        case Mem(x, y):
            return ok_elem(x) and (ok_elem(y) or isinstance(y, Omega))
        case Eq(x, y):
            return ok_elem(x) and ok_elem(y)
        case And(l, r) | Or(l, r) | Imp(l, r):
            return in_fragment(l, bound_vars) and in_fragment(r, bound_vars)
        case Not(b):
            return in_fragment(b, bound_vars)
        case AllIn(v, bound, body):
            return isinstance(bound, Nat) and in_fragment(body, bound_vars | {v})
        case ExIn(v, bound, body):
            return isinstance(bound, (Nat, Omega)) and in_fragment(body, bound_vars | {v})
        case _:
            return False


def _max_numeral(phi: Formula) -> int:
    def of_ref(r: NameRef) -> int:
        return r.n if isinstance(r, Nat) else 0

    match phi:
        case Mem(x, y) | Eq(x, y):
            return max(of_ref(x), of_ref(y))
        case And(l, r) | Or(l, r) | Imp(l, r):
            return max(_max_numeral(l), _max_numeral(r))
        case Not(b):
            return _max_numeral(b)
        case AllIn(_, bound, body) | ExIn(_, bound, body):
            return max(of_ref(bound), _max_numeral(body))


def truth_eval(phi: Formula) -> bool:
    """Classical truth over the naturals, as ``decide`` finds it."""
    return decide(phi) is not None


def decide(phi: Formula) -> tuple | None:
    """Classical truth over the naturals (nat n ↦ n, mem ↦ <, eq ↦ =), in one
    walk: None for a false sentence, else its evidence, a tuple of the sentence
    and, for ``And``, each part's evidence; ``Or``, the leftmost true side (0/1)
    and its evidence; ``Imp``, the conclusion's, or None for a false hypothesis;
    ``AllIn``, a list of every instance's; ``ExIn``, the least witness and its
    instance's.  Raises FragmentError outside the fragment."""
    if not in_fragment(phi):
        raise FragmentError(f"not a bounded-arithmetic formula: {fmt(phi)}")
    return _decide(phi)


def _decide(phi: Formula) -> tuple | None:
    # A fragment sentence: every reference is a numeral name, once the
    # quantifiers have substituted theirs.
    match phi:
        case Mem(x, y):
            holds = isinstance(y, Omega) or x.n < y.n
        case Eq(x, y):
            holds = x.n == y.n
        case Not(b):
            holds = _decide(b) is None
        case And(l, r):
            if (left := _decide(l)) is None or (right := _decide(r)) is None:
                return None
            return phi, left, right
        case Or(l, r):
            if (left := _decide(l)) is not None:
                return phi, 0, left
            right = _decide(r)
            return None if right is None else (phi, 1, right)
        case Imp(h, c):
            if _decide(h) is None:
                return phi, None
            concl = _decide(c)
            return None if concl is None else (phi, concl)
        case AllIn(v, bound, body):
            instances = []
            for m in range(bound.n):
                if (ev := _decide(substitute(body, v, Nat(m)))) is None:
                    return None
                instances.append(ev)
            return phi, instances
        case ExIn(v, bound, body):
            # Over ω̇ every atom compares against constants, so witnesses
            # past the largest numeral plus one behave like it.
            for k in range(bound.n if isinstance(bound, Nat) else _max_numeral(body) + 2):
                if (ev := _decide(substitute(body, v, Nat(k)))) is not None:
                    return phi, k, ev
            return None
    return (phi,) if holds else None


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
