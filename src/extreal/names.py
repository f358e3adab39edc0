"""Names: the finite/schematic fragment of the realizability universe.

A name denotes a set of triples ⟨a, b, y⟩ where a, b are machine values and
y is again a name.  Finite names carry their triples explicitly; the
schematic ones (the naturals, the finite-type extensions, internalized
elements, graph names) enumerate lazily and support direct lookup wherever
the defining set is indexed by a decidable key.

Each function that samples a type or runs the machine takes the run
(``terms.Run``) from its caller and reads its fuel and its enumeration
budget from it; none has a default.  The generators of the arrow types
(the identity, swap and apply-at; the successor is a constant) are library
values, built under that run by ``kernel.value_of`` and kept in its table,
not in this module: only their terms are cached here.  Building a name
runs nothing: ``internalize`` only checks that a value at type ``o`` is a
numeral.

Names and finite types are canonical (``terms.Canonical``): building one
returns the live name with those fields, so equal names are one object,
and the checker's goal table compares and hashes them by identity.
"""

from __future__ import annotations

from functools import cache

from .bracket import SKK, compile_term, lam
from .kernel import Crash, NoValue, Open, apply, project, value_of
from .terms import (
    D,
    K,
    SUCC,
    Canonical,
    Node,
    Run,
    Term,
    Value,
    Var,
    app,
    num,
    num_value,
    set_field,
)


class FinType(Canonical):
    __slots__ = ()


class O(FinType):
    __slots__ = ()

    def __str__(self):
        return "o"


class Arrow(FinType):
    __slots__ = __match_args__ = ("dom", "cod")

    def __str__(self):
        return f"({self.dom}){self.cod}"


TYPE_O = O()


Triple = tuple[Value, Value, "VName"]


class VName(Canonical):
    """Base class; concrete names below."""

    __slots__ = ()

    def __str__(self):  # pragma: no cover - debugging aid
        return describe(self)


class Explicit(VName):
    __slots__ = __match_args__ = ("triples",)


class Nat(VName):
    __slots__ = __match_args__ = ("n",)


class Omega(VName):
    __slots__ = ()


class Sing(VName):
    __slots__ = __match_args__ = ("x",)


class UPair(VName):
    __slots__ = __match_args__ = ("x", "y")


class OPair(VName):
    __slots__ = __match_args__ = ("x", "y")


class TypeName(VName):
    __slots__ = __match_args__ = ("sigma",)


class Internal(VName):
    __slots__ = __match_args__ = ("a", "sigma")


class Graph(VName):
    """Choice-function name: triples ⟨c, d, ⟨č, ě⟩⟩ with c related to d and
    e the first projection of a·c."""

    __slots__ = __match_args__ = ("a", "sigma", "tau")


OMEGA = Omega()


def type_name(sigma: FinType) -> VName:
    """The canonical name of the type extension; at base type this is ω̇."""
    return OMEGA if sigma == TYPE_O else TypeName(sigma)


def describe(x: VName) -> str:
    match x:
        case Explicit(triples):
            return "{" + "; ".join(f"(..,..,{describe(z)})" for _, _, z in triples) + "}"
        case Nat(n):
            return f"nat {n}"
        case Omega():
            return "omega"
        case Sing(inner):
            return f"sing ({describe(inner)})"
        case UPair(a, b):
            return f"upair ({describe(a)}) ({describe(b)})"
        case OPair(a, b):
            return f"opair ({describe(a)}) ({describe(b)})"
        case TypeName(sigma):
            return f"F {sigma}"
        case Internal(_, sigma):
            return f"int <...> : {sigma}"
        case Graph(_, sigma, tau):
            return f"graph <...> : {sigma} -> {tau}"
    return repr(x)


def _values_eq_num(a: Value, b: Value) -> int | None:
    """The shared numeral when both keys are the same numeral, else None."""
    if a is b and a.is_numeral() and not a.args:
        return a.numeral
    return None


# ---------------------------------------------------------------------------
# gen_elems / eq_type / internalize: the hereditarily extensional structure


@cache
def _swap01() -> Term:
    # \x. D x #0 #1 (D x #1 #0 x): swaps 0 and 1, fixes other numerals.
    x = Var("x")
    return compile_term(lam("x", app(D, x, num(0), num(1), app(D, x, num(1), num(0), x))))


@cache
def _apply_at(n: int) -> Term:
    # \f. f #n
    return compile_term(lam("f", app(Var("f"), num(n))))


def _built(t: Term, run: Run) -> Value | None:
    """The value of the library term ``t`` under the run, None when the
    run's limits cannot build it."""
    try:
        return value_of(t, run)
    except NoValue:
        return None


def gen_elems(sigma: FinType, run: Run) -> list[Value]:
    """Canonical sample inhabitants of the type, deterministically ordered.
    An arrow type gets at most ``generators_per_type`` constant functions
    and at most three more generators.  They are built under the run; one its
    limits cannot build is left out, since the sample is not exhaustive
    anyway."""
    match sigma:
        case O():
            return [num_value(i) for i in range(run.max_index + 1)]
        case Arrow(dom, cod):
            out = [apply(Value(K), v, run) for v in gen_elems(cod, run)[: run.generators_per_type]]
            if dom == cod:
                out.append(_built(SKK, run))
            if dom == TYPE_O and cod == TYPE_O:
                out.append(Value(SUCC))
                out.append(_built(_swap01(), run))
            if isinstance(dom, Arrow) and cod == TYPE_O:
                for n in range(min(3, run.max_index + 1)):
                    out.append(_built(_apply_at(n), run))
            return [v for v in out if isinstance(v, Value)]
    raise TypeError(sigma)


class EqTypeReport(Node):
    __slots__ = __match_args__ = ("result", "samples_passed", "samples_total", "counterexample")

    def __init__(self, result: bool | None, samples_passed: int = 0, samples_total: int = 0,
                 counterexample: Value | None = None):
        set_field(self, "result", result)  # None: sampled, not decided
        set_field(self, "samples_passed", samples_passed)
        set_field(self, "samples_total", samples_total)
        set_field(self, "counterexample", counterexample)


def eq_type(a: Value, b: Value, sigma: FinType, run: Run) -> EqTypeReport:
    """The per-type partial equivalence, decided at base type and sampled at
    arrow types (never affirmed over an infinite domain)."""
    if sigma == TYPE_O:
        n = _values_eq_num(a, b)
        return EqTypeReport(n is not None)
    assert isinstance(sigma, Arrow)
    gens = gen_elems(sigma.dom, run)
    passed = 0
    for g in gens:
        # A crash on a generator is a counterexample; a resource limit
        # decides nothing.  When b is a, the run's table answers b·g.
        va = apply(a, g, run)
        vb = va if isinstance(va, Crash) else apply(b, g, run)
        if isinstance(va, Crash) or isinstance(vb, Crash):
            return EqTypeReport(False, passed, len(gens), g)
        if isinstance(va, Open) or isinstance(vb, Open):
            continue
        if eq_type(va, vb, sigma.cod, run).result is False:
            return EqTypeReport(False, passed, len(gens), g)
        passed += 1
    # All sampled generator pairs agree; the domain is infinite, so this is
    # evidence, not proof.
    return EqTypeReport(None, passed, len(gens))


def internalize(a: Value, sigma: FinType) -> VName:
    """The canonical name of a type-σ element.  It runs nothing: whether
    ``a`` is self-related at σ is the caller's question (``eq_type(a, a,
    σ, run)``)."""
    if sigma == TYPE_O:
        if not a.is_numeral():
            raise ValueError("only numerals internalize at type o")
        return Nat(a.numeral)
    return Internal(a, sigma)


# ---------------------------------------------------------------------------
# Triple access


def _member(x: Internal | Graph, g: Value, run: Run) -> list[VName] | None:
    """The members at key g of an arrow-type ``Internal`` name (⟨ǧ, f·g⟩)
    or a ``Graph`` name (⟨ǧ, (f·g)_0⟩): one, or none where a machine error
    leaves the image undefined or the image is not a numeral at codomain o;
    None when the image runs out of fuel or outgrows the value size cap,
    which a larger cap could lift."""
    image = apply(x.a, g, run)
    if isinstance(x, Graph) and isinstance(image, Value):
        image = project(image, 0, run)
    if isinstance(image, Crash):
        return []
    if isinstance(image, Open):
        return None
    dom, cod = (x.sigma, x.tau) if isinstance(x, Graph) else (x.sigma.dom, x.sigma.cod)
    if cod == TYPE_O and not image.is_numeral():
        return []
    return [OPair(internalize(g, dom), internalize(image, cod))]


def lookup_triples(x: VName, a: Value, b: Value, run: Run) -> tuple[list[VName], bool]:
    """All members z with ⟨a, b, z⟩ ∈ x discoverable within the run's budget.

    The boolean reports exhaustiveness: finite names and schematic names
    indexed by a decidable key answer completely.
    """
    match x:
        case Explicit() | Sing() | UPair() | OPair():
            triples, _ = enumerate_triples(x, run)
            return [z for ka, kb, z in triples if ka == a and kb == b], True
        case Nat(n):
            m = _values_eq_num(a, b)
            return ([Nat(m)] if m is not None and m < n else []), True
        case Omega():
            m = _values_eq_num(a, b)
            return ([Nat(m)] if m is not None else []), True
        case TypeName(sigma):
            rep = eq_type(a, b, sigma, run)
            if rep.result is False:
                return [], True
            exhaustive = sigma == TYPE_O or rep.result is True
            return [internalize(a, sigma)], exhaustive
        case Internal(f, O()):
            # The internalization of a numeral has the numeral's triples.
            return lookup_triples(Nat(f.numeral), a, b, run)
        case Internal(_, Arrow(dom, _)) | Graph(_, dom, _):
            rep = eq_type(a, b, dom, run)
            if rep.result is False:
                return [], True
            zs = _member(x, a, run)
            if zs is None:
                return [], False
            return zs, dom == TYPE_O or rep.result is True
    raise TypeError(x)


# The keys of the finite names' triples.
_ZERO, _ONE = num_value(0), num_value(1)


def enumerate_triples(x: VName, run: Run) -> tuple[list[Triple], bool]:
    """Triples of the name in a deterministic order; finite names enumerate
    fully, schematic ones up to the run's budget."""
    match x:
        case Explicit(triples):
            return list(triples), True
        case Nat(n):
            return [(num_value(m), num_value(m), Nat(m)) for m in range(n)], True
        case Omega():
            return (
                [(num_value(m), num_value(m), Nat(m)) for m in range(run.max_index)],
                False,
            )
        case Sing(inner):
            return [(_ZERO, _ZERO, inner)], True
        case UPair(x0, y0):
            # Two triples even when the components coincide.
            return [(_ZERO, _ZERO, x0), (_ONE, _ONE, y0)], True
        case OPair(x0, y0):
            return [(_ZERO, _ZERO, Sing(x0)), (_ONE, _ONE, UPair(x0, y0))], True
        case TypeName(sigma):
            return [(g, g, internalize(g, sigma)) for g in gen_elems(sigma, run)], False
        case Internal(f, O()):
            return enumerate_triples(Nat(f.numeral), run)
        case Internal(_, Arrow(dom, _)) | Graph(_, dom, _):
            members = ((g, _member(x, g, run) or []) for g in gen_elems(dom, run))
            return [(g, g, z) for g, zs in members for z in zs], False
    raise TypeError(x)
