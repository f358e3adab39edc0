"""Names: the finite/schematic fragment of the realizability universe.

A name denotes a set of triples ⟨a, b, y⟩ where a, b are machine values and
y is again a name.  Finite names carry their triples explicitly; the
schematic ones (the naturals, the finite-type extensions, internalized
elements, graph names) enumerate lazily and support direct lookup wherever
the defining set is indexed by a decidable key.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cache

from .kernel import apply_value, eval_term, project
from .parser import MAX_NESTING
from .terms import (
    D,
    DEFAULT_FUEL,
    Defined,
    FuelConfig,
    FuelExhausted,
    K,
    MachineError,
    SUCC,
    Term,
    Tri,
    Value,
    ValueSizeExceeded,
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


def parse_type(text: str) -> FinType:
    ty, rest = _parse_type(text.strip(), 0)
    if rest.strip():
        raise ValueError(f"trailing input in type: {rest!r}")
    return ty


def _parse_type(text: str, depth: int) -> tuple[FinType, str]:
    """The type at the start of ``text``, ``depth`` arrows down.  Both sides
    of an arrow are one level deeper, so the parse recurses at most
    ``MAX_NESTING`` levels."""
    if depth > MAX_NESTING:
        raise ValueError(f"type nesting deeper than {MAX_NESTING} levels")
    text = text.lstrip()
    if text.startswith("o"):
        return TYPE_O, text[1:]
    if text.startswith("("):
        dom, rest = _parse_type(text[1:], depth + 1)
        rest = rest.lstrip()
        if not rest.startswith(")"):
            raise ValueError("')' expected in type")
        cod, rest = _parse_type(rest[1:], depth + 1)
        return Arrow(dom, cod), rest
    raise ValueError(f"type expected at {text!r}")


@dataclass(frozen=True, slots=True)
class EnumBudget:
    max_index: int = 8
    generators_per_type: int = 6

    def __post_init__(self):
        if self.max_index <= 0 or self.generators_per_type <= 0:
            raise ValueError("budgets must be positive")


DEFAULT_BUDGET = EnumBudget()

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
    if a.is_numeral() and b.is_numeral() and a.head == b.head and not a.args and not b.args:
        return a.numeral
    return None


# ---------------------------------------------------------------------------
# gen_elems / eq_type / internalize: the hereditarily extensional structure


def _build_swap01() -> Term:
    # \x. D x #0 #1 (D x #1 #0 x): swaps 0 and 1, fixes other numerals.
    from .compiler import compile_term, lam
    from .terms import Var

    x = Var("x")
    return compile_term(
        lam("x", app(D, x, num(0), num(1), app(D, x, num(1), num(0), x)))
    )


@cache
def _swap01_value() -> Value:
    out = eval_term(_build_swap01())
    assert isinstance(out, Defined)
    return out.value


@cache
def _identity_value() -> Value:
    from .compiler import SKK

    out = eval_term(SKK)
    assert isinstance(out, Defined)
    return out.value


@cache
def _succ_value() -> Value:
    out = eval_term(SUCC)
    assert isinstance(out, Defined)
    return out.value


@cache
def _apply_at_value(n: int) -> Value:
    # \f. f #n
    from .compiler import compile_term, lam
    from .terms import Var

    out = eval_term(compile_term(lam("f", app(Var("f"), num(n)))))
    assert isinstance(out, Defined)
    return out.value


def _const_value(v: Value) -> Value:
    out = apply_value(Value(K), v)
    assert isinstance(out, Defined)
    return out.value


def gen_elems(sigma: FinType, budget: EnumBudget = DEFAULT_BUDGET) -> list[Value]:
    """Canonical sample inhabitants of the type, deterministically ordered."""
    match sigma:
        case O():
            return [num_value(i) for i in range(budget.max_index + 1)]
        case Arrow(dom, cod):
            out: list[Value] = []
            for v in gen_elems(cod, budget)[: budget.generators_per_type]:
                out.append(_const_value(v))
            if dom == cod:
                out.append(_identity_value())
            if dom == TYPE_O and cod == TYPE_O:
                out.append(_succ_value())
                out.append(_swap01_value())
            if isinstance(dom, Arrow) and cod == TYPE_O:
                for n in range(min(3, budget.max_index + 1)):
                    out.append(_apply_at_value(n))
            return out[: budget.generators_per_type + 3]
    raise TypeError(sigma)


@dataclass(frozen=True, slots=True)
class EqTypeReport:
    result: Tri
    samples_passed: int = 0
    samples_total: int = 0
    counterexample: Value | None = None


# eq_type is pure in all five arguments; arrow-type sampling is costly and
# the checker consults it once per lookup, so results are cached.
_EQ_TYPE_CACHE: dict = {}


def eq_type(
    a: Value,
    b: Value,
    sigma: FinType,
    budget: EnumBudget = DEFAULT_BUDGET,
    cfg: FuelConfig = DEFAULT_FUEL,
) -> EqTypeReport:
    """The per-type partial equivalence, decided at base type and sampled at
    arrow types (never affirmed over an infinite domain)."""
    if sigma == TYPE_O:
        n = _values_eq_num(a, b)
        return EqTypeReport(Tri.of(n is not None))
    key = (a, b, sigma, budget, cfg)
    hit = _EQ_TYPE_CACHE.get(key)
    if hit is not None:
        return hit
    rep = _eq_type_arrow(a, b, sigma, budget, cfg)
    if len(_EQ_TYPE_CACHE) > 100_000:
        _EQ_TYPE_CACHE.clear()
    _EQ_TYPE_CACHE[key] = rep
    return rep


def _eq_type_arrow(
    a: Value, b: Value, sigma: FinType, budget: EnumBudget, cfg: FuelConfig
) -> EqTypeReport:
    assert isinstance(sigma, Arrow)
    gens = gen_elems(sigma.dom, budget)
    passed = 0
    for g in gens:
        # A machine error on a generator is a counterexample; any other
        # exception is a fault of the program and propagates.
        try:
            oa = apply_value(a, g, cfg)
            ob = apply_value(b, g, cfg)
        except MachineError:
            return EqTypeReport(Tri.FALSE, passed, len(gens), g)
        if isinstance(oa, FuelExhausted) or isinstance(ob, FuelExhausted):
            continue
        if eq_type(oa.value, ob.value, sigma.cod, budget, cfg).result is Tri.FALSE:
            return EqTypeReport(Tri.FALSE, passed, len(gens), g)
        passed += 1
    # All sampled generator pairs agree; the domain is infinite, so this is
    # evidence, not proof.
    return EqTypeReport(Tri.UNKNOWN, passed, len(gens))


def internalize(a: Value, sigma: FinType, budget: EnumBudget = DEFAULT_BUDGET) -> VName:
    """The canonical name of a type-σ element."""
    if sigma == TYPE_O:
        if not a.is_numeral():
            raise ValueError(f"only numerals internalize at type o, got {a!r}")
        return Nat(a.numeral)
    rep = eq_type(a, a, sigma, budget)
    if rep.result is Tri.FALSE:
        warnings.warn(
            f"internalizing a value that fails self-relatedness sampling at {sigma}",
            stacklevel=2,
        )
    return Internal(a, sigma)


# ---------------------------------------------------------------------------
# Triple access


def _member(x: Internal | Graph, g: Value, budget: EnumBudget, cfg: FuelConfig) -> list[VName] | None:
    """The members at key g of an arrow-type ``Internal`` name (⟨ǧ, f·g⟩)
    or a ``Graph`` name (⟨ǧ, (f·g)_0⟩): one, or none where a machine error
    leaves the image undefined; None when the image runs out of fuel or
    outgrows the value size cap, which a larger cap could lift."""
    try:
        out = apply_value(x.a, g, cfg)
        image = None if isinstance(out, FuelExhausted) else out.value
        if isinstance(x, Graph) and image is not None:
            image = project(image, 0, cfg)
    except ValueSizeExceeded:
        return None
    except MachineError:
        return []
    if image is None:
        return None
    dom, cod = (x.sigma, x.tau) if isinstance(x, Graph) else (x.sigma.dom, x.sigma.cod)
    return [OPair(internalize(g, dom, budget), internalize(image, cod, budget))]


def lookup_triples(
    x: VName,
    a: Value,
    b: Value,
    budget: EnumBudget = DEFAULT_BUDGET,
    cfg: FuelConfig = DEFAULT_FUEL,
) -> tuple[list[VName], bool]:
    """All members z with ⟨a, b, z⟩ ∈ x discoverable within budget.

    The boolean reports exhaustiveness: finite names and schematic names
    indexed by a decidable key answer completely.
    """
    match x:
        case Explicit() | Sing() | UPair() | OPair():
            triples, _ = enumerate_triples(x, budget, cfg)
            return [z for ka, kb, z in triples if ka == a and kb == b], True
        case Nat(n):
            m = _values_eq_num(a, b)
            return ([Nat(m)] if m is not None and m < n else []), True
        case Omega():
            m = _values_eq_num(a, b)
            return ([Nat(m)] if m is not None else []), True
        case TypeName(sigma):
            rep = eq_type(a, b, sigma, budget, cfg)
            if rep.result is Tri.FALSE:
                return [], True
            exhaustive = sigma == TYPE_O or rep.result is Tri.TRUE
            return [internalize(a, sigma, budget)], exhaustive
        case Internal(f, O()):
            # The internalization of a numeral has the numeral's triples.
            return lookup_triples(Nat(f.numeral), a, b, budget, cfg)
        case Internal(_, Arrow(dom, _)) | Graph(_, dom, _):
            rep = eq_type(a, b, dom, budget, cfg)
            if rep.result is Tri.FALSE:
                return [], True
            zs = _member(x, a, budget, cfg)
            if zs is None:
                return [], False
            return zs, dom == TYPE_O or rep.result is Tri.TRUE
    raise TypeError(x)


# The keys of the finite names' triples.
_ZERO, _ONE = num_value(0), num_value(1)


def enumerate_triples(
    x: VName,
    budget: EnumBudget = DEFAULT_BUDGET,
    cfg: FuelConfig = DEFAULT_FUEL,
) -> tuple[list[Triple], bool]:
    """Triples of the name in a deterministic order; finite names enumerate
    fully, schematic ones up to budget."""
    match x:
        case Explicit(triples):
            return list(triples), True
        case Nat(n):
            return [(num_value(m), num_value(m), Nat(m)) for m in range(n)], True
        case Omega():
            return (
                [(num_value(m), num_value(m), Nat(m)) for m in range(budget.max_index)],
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
            out = []
            for g in gen_elems(sigma, budget):
                out.append((g, g, internalize(g, sigma, budget)))
            return out, False
        case Internal(f, O()):
            return enumerate_triples(Nat(f.numeral), budget, cfg)
        case Internal(_, Arrow(dom, _)) | Graph(_, dom, _):
            members = ((g, _member(x, g, budget, cfg) or []) for g in gen_elems(dom, budget))
            return [(g, g, z) for g, zs in members for z in zs], False
    raise TypeError(x)


def explicit(*triples: tuple[Value, Value, VName]) -> Explicit:
    return Explicit(tuple(triples))
