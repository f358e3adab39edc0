"""Names: the finite/schematic fragment of the realizability universe.

A name denotes a set of triples ⟨a, b, y⟩ where a, b are machine values and
y is again a name.  Finite names carry their triples explicitly; the
schematic ones (the naturals, the finite-type extensions, internalized
elements, graph names) enumerate lazily and support direct lookup wherever
the defining set is indexed by a decidable key.

Each function that samples a type or runs the machine takes the run
(``terms.Run``) from its caller and reads its fuel and its enumeration
budget from it; none has a default.  Building a name runs nothing:
``internalize`` only checks that a value at type ``o`` is a numeral.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .bracket import SKK, compile_term, lam
from .kernel import Crash, Open, apply, defined, project, value_of
from .terms import (
    D,
    K,
    SUCC,
    Run,
    Tri,
    Value,
    Var,
    app,
    num,
    num_value,
)


@dataclass(frozen=True, slots=True)
class FinType:
    pass


@dataclass(frozen=True, slots=True)
class O(FinType):
    def __str__(self):
        return "o"


@dataclass(frozen=True, slots=True)
class Arrow(FinType):
    dom: FinType
    cod: FinType

    def __str__(self):
        return f"({self.dom}){self.cod}"


TYPE_O = O()


Triple = tuple[Value, Value, "VName"]


class VName:
    """Base class; concrete names below."""

    __slots__ = ()

    def __str__(self):  # pragma: no cover - debugging aid
        return describe(self)


@dataclass(frozen=True, slots=True)
class Explicit(VName):
    triples: tuple[Triple, ...]


@dataclass(frozen=True, slots=True)
class Nat(VName):
    n: int


@dataclass(frozen=True, slots=True)
class Omega(VName):
    pass


@dataclass(frozen=True, slots=True)
class Sing(VName):
    x: VName


@dataclass(frozen=True, slots=True)
class UPair(VName):
    x: VName
    y: VName


@dataclass(frozen=True, slots=True)
class OPair(VName):
    x: VName
    y: VName


@dataclass(frozen=True, slots=True)
class TypeName(VName):
    sigma: FinType


@dataclass(frozen=True, slots=True)
class Internal(VName):
    a: Value
    sigma: FinType


@dataclass(frozen=True, slots=True)
class Graph(VName):
    """Choice-function name: triples ⟨c, d, ⟨č, ě⟩⟩ with c related to d and
    e the first projection of a·c."""

    a: Value
    sigma: FinType
    tau: FinType


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
def _swap01_value() -> Value:
    # \x. D x #0 #1 (D x #1 #0 x): swaps 0 and 1, fixes other numerals.
    x = Var("x")
    return value_of(compile_term(lam("x", app(D, x, num(0), num(1), app(D, x, num(1), num(0), x)))))


@cache
def _identity_value() -> Value:
    return value_of(SKK)


@cache
def _succ_value() -> Value:
    return value_of(SUCC)


@cache
def _apply_at_value(n: int) -> Value:
    # \f. f #n
    return value_of(compile_term(lam("f", app(Var("f"), num(n)))))


def _const_value(v: Value, run: Run) -> Value:
    return defined(apply(Value(K), v, run))


def gen_elems(sigma: FinType, run: Run) -> list[Value]:
    """Canonical sample inhabitants of the type, deterministically ordered."""
    match sigma:
        case O():
            return [num_value(i) for i in range(run.max_index + 1)]
        case Arrow(dom, cod):
            out: list[Value] = []
            for v in gen_elems(cod, run)[: run.generators_per_type]:
                out.append(_const_value(v, run))
            if dom == cod:
                out.append(_identity_value())
            if dom == TYPE_O and cod == TYPE_O:
                out.append(_succ_value())
                out.append(_swap01_value())
            if isinstance(dom, Arrow) and cod == TYPE_O:
                for n in range(min(3, run.max_index + 1)):
                    out.append(_apply_at_value(n))
            return out[: run.generators_per_type + 3]
    raise TypeError(sigma)


@dataclass(frozen=True, slots=True)
class EqTypeReport:
    result: Tri
    samples_passed: int = 0
    samples_total: int = 0
    counterexample: Value | None = None


def eq_type(a: Value, b: Value, sigma: FinType, run: Run) -> EqTypeReport:
    """The per-type partial equivalence, decided at base type and sampled at
    arrow types (never affirmed over an infinite domain)."""
    if sigma == TYPE_O:
        n = _values_eq_num(a, b)
        return EqTypeReport(Tri.of(n is not None))
    assert isinstance(sigma, Arrow)
    gens = gen_elems(sigma.dom, run)
    passed = 0
    for g in gens:
        # A crash on a generator is a counterexample; a resource limit
        # decides nothing.  When b is a, the run's table answers b·g.
        va = apply(a, g, run)
        vb = va if isinstance(va, Crash) else apply(b, g, run)
        if isinstance(va, Crash) or isinstance(vb, Crash):
            return EqTypeReport(Tri.FALSE, passed, len(gens), g)
        if isinstance(va, Open) or isinstance(vb, Open):
            continue
        if eq_type(va, vb, sigma.cod, run).result is Tri.FALSE:
            return EqTypeReport(Tri.FALSE, passed, len(gens), g)
        passed += 1
    # All sampled generator pairs agree; the domain is infinite, so this is
    # evidence, not proof.
    return EqTypeReport(Tri.UNKNOWN, passed, len(gens))


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
            if rep.result is Tri.FALSE:
                return [], True
            exhaustive = sigma == TYPE_O or rep.result is Tri.TRUE
            return [internalize(a, sigma)], exhaustive
        case Internal(f, O()):
            # The internalization of a numeral has the numeral's triples.
            return lookup_triples(Nat(f.numeral), a, b, run)
        case Internal(_, Arrow(dom, _)) | Graph(_, dom, _):
            rep = eq_type(a, b, dom, run)
            if rep.result is Tri.FALSE:
                return [], True
            zs = _member(x, a, run)
            if zs is None:
                return [], False
            return zs, dom == TYPE_O or rep.result is Tri.TRUE
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
