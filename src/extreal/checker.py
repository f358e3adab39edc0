"""Three-valued checker for the extensional realizability relation.

``check((a, b), φ)`` decides, clause by clause, whether the pair of machine
values realizes the closed formula φ.  Every positive answer bottoms out in
exhaustively verified clauses; any budget-truncated branch forces Unknown.

Failure policy, applied in one place (``_both``): a projection or
application of a realizer that crashes (a machine error on a genuine member)
refutes the clause, exhaustively, since the clauses only speak about defined
applications; one that runs out of fuel leaves the clause Unknown.

Negation, implication and the unbounded quantifiers range over the whole
algebra, so the checker affirms them only where a decision principle
applies: the bounded-arithmetic fragment (where realizability coincides
with classical truth over the naturals) and constant-valued realizers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from functools import partial

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
    NameRef,
    Not,
    Or,
    is_closed,
    fmt,
    substitute,
)
from .kernel import apply_value, project
from .names import (
    DEFAULT_BUDGET,
    EnumBudget,
    Nat,
    Omega,
    VName,
    enumerate_triples,
    lookup_triples,
)
from .terms import (
    ConstKind,
    Const,
    DEFAULT_FUEL,
    FuelConfig,
    FuelExhausted,
    MachineError,
    Value,
)


class Status(enum.Enum):
    REALIZED = "realized"
    REFUTED = "refuted"
    UNKNOWN = "unknown"


@dataclass(frozen=True, slots=True)
class RealizerPair:
    a: Value
    b: Value

    @staticmethod
    def both(v: Value) -> "RealizerPair":
        return RealizerPair(v, v)


@dataclass
class Trace:
    clause: str
    status: Status
    note: str = ""
    exhaustive: bool = False
    witness_directed: bool = False
    children: list["Trace"] = field(default_factory=list)

    def to_dict(self, depth: int | None = None) -> dict:
        d = {
            "clause": self.clause,
            "status": self.status.value,
            "note": self.note,
            "exhaustive": self.exhaustive,
            "witness_directed": self.witness_directed,
        }
        if depth is None or depth > 0:
            nxt = None if depth is None else depth - 1
            d["children"] = [c.to_dict(nxt) for c in self.children]
        return d

    def render(self, depth: int | None = None, indent: int = 0) -> str:
        pad = "  " * indent
        flags = []
        if self.exhaustive:
            flags.append("exhaustive")
        if self.witness_directed:
            flags.append("witness-directed")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        note = f" -- {self.note}" if self.note else ""
        lines = [f"{pad}{self.clause}: {self.status.value}{suffix}{note}"]
        if depth is None or depth > 0:
            nxt = None if depth is None else depth - 1
            for c in self.children:
                lines.append(c.render(nxt, indent + 1))
        return "\n".join(lines)


@dataclass
class Verdict:
    status: Status
    trace: Trace
    samples_checked: int

    def __bool__(self):
        return self.status is Status.REALIZED


class FragmentError(ValueError):
    """The formula is outside the decidable bounded-arithmetic fragment."""


def decide_nat_eq(n: int, m: int) -> bool:
    """Is the equality of the n-th and m-th canonical numeral names realizable?

    It is realizable exactly when n = m; for distinct numerals no realizer
    pair exists, so the checker may refute outright.
    """
    return n == m


class _Ctx:
    __slots__ = ("budget", "cfg", "samples", "memo")

    def __init__(self, budget: EnumBudget, cfg: FuelConfig):
        self.budget = budget
        self.cfg = cfg
        self.samples = 0
        # check is pure in (a, b, φ) for fixed budget and fuel; shared
        # sub-names would otherwise be re-verified exponentially often.
        self.memo: dict = {}


def _as_name(r: NameRef) -> VName:
    if isinstance(r, str):
        raise ValueError(f"formula not closed: free variable {r!r}")
    return r


_STUCK = "stuck"
_FUEL = "fuel"


def _apply(ctx: _Ctx, f: Value, a: Value) -> tuple[Value | None, str | None]:
    try:
        out = apply_value(f, a, ctx.cfg)
    except MachineError as exc:
        return None, f"{_STUCK}: {exc}"
    if isinstance(out, FuelExhausted):
        return None, _FUEL
    return out.value, None


def _project(ctx: _Ctx, v: Value, i: int) -> tuple[Value | None, str | None]:
    try:
        out = project(v, i, ctx.cfg)
    except MachineError as exc:
        return None, f"{_STUCK}: {exc}"
    if out is None:
        return None, _FUEL
    return out, None


def _fail(clause: str, failure: str, what: str) -> tuple[Status, Trace]:
    if failure.startswith(_STUCK):
        return Status.REFUTED, Trace(
            clause, Status.REFUTED, note=f"{what} crashed ({failure})", exhaustive=True
        )
    return Status.UNKNOWN, Trace(clause, Status.UNKNOWN, note=f"{what} ran out of fuel")


def _both(ctx: _Ctx, clause: str, op, a: Value, x, b: Value, y, what_a: str, what_b: str):
    """``op`` (``_apply`` or ``_project``) on the a side, then on the b side:
    the two results and None, or None, None and the first failure's verdict."""
    va, fail = op(ctx, a, x)
    if fail:
        return None, None, _fail(clause, fail, what_a)
    vb, fail = op(ctx, b, y)
    if fail:
        return None, None, _fail(clause, fail, what_b)
    return va, vb, None


def _meet_all(trace: Trace, results) -> Status:
    """Append each (status, child) of the lazy ``results`` to ``trace`` and
    return their meet, stopping at the first refutation."""
    out = Status.REALIZED
    for status, child in results:
        trace.children.append(child)
        if status is Status.REFUTED:
            return Status.REFUTED
        out = _meet(out, status)
    return out


def _meet(s1: Status, s2: Status) -> Status:
    if Status.REFUTED in (s1, s2):
        return Status.REFUTED
    if Status.UNKNOWN in (s1, s2):
        return Status.UNKNOWN
    return Status.REALIZED


def check(
    pair: RealizerPair,
    phi: Formula,
    budget: EnumBudget = DEFAULT_BUDGET,
    cfg: FuelConfig = DEFAULT_FUEL,
) -> Verdict:
    """Does the pair realize the closed formula?  Realized / Refuted / Unknown."""
    if not is_closed(phi):
        raise ValueError("check requires a closed formula")
    ctx = _Ctx(budget, cfg)
    status, trace = _check(ctx, pair.a, pair.b, phi)
    return Verdict(status, trace, ctx.samples)


def _check(ctx: _Ctx, a: Value, b: Value, phi: Formula) -> tuple[Status, Trace]:
    """The clause for φ's connective, memoised.  Clauses recurse only through
    here, and the dispatch is a table lookup rather than a call, so a deep
    name or formula costs few host frames per level."""
    ctx.samples += 1
    key = (a, b, phi)
    out = ctx.memo.get(key)
    if out is None:
        out = ctx.memo[key] = _CLAUSES[type(phi)](ctx, a, b, phi)
    return out


def _check_unbounded(ctx: _Ctx, a: Value, b: Value, phi: All | Ex) -> tuple[Status, Trace]:
    return Status.UNKNOWN, Trace(
        "quantifier", Status.UNKNOWN, note="unbounded quantifier: not checkable"
    )


# Notes of the keyed clauses: realized, refuted after trying candidates,
# refuted on an empty lookup, and left open.
_KEYED_NOTES = {
    "mem": (
        "matching triple found",
        "no matching triple realizes the equality",
        "empty exhaustive lookup",
        "candidate matches passed but membership is not exhaustive",
    ),
    "ex-in": (
        "",
        "witness key selects no usable triple",
        "witness key selects no usable triple",
        "candidate witnesses passed but membership is not exhaustive",
    ),
}


def _check_keyed(ctx: _Ctx, a: Value, b: Value, phi: Mem | ExIn) -> tuple[Status, Trace]:
    """``mem(x, y)`` and ``ex z in y. body``: the key (a)_0, (b)_0 selects
    members z of the bound name y, and (a)_1, (b)_1 must realize ``sub(z)``,
    that is ``eq(x, z)`` or ``body[z]``, for one of them."""
    if isinstance(phi, Mem):
        clause, bound, sub = "mem", _as_name(phi.y), partial(Eq, _as_name(phi.x))
    else:
        clause, bound, sub = "ex-in", _as_name(phi.bound), partial(substitute, phi.body, phi.var)
    found, refuted, empty, open_note = _KEYED_NOTES[clause]
    a0, b0, bad = _both(ctx, clause, _project, a, 0, b, 0, "(a)_0", "(b)_0")
    if bad:
        return bad
    a1, b1, bad = _both(ctx, clause, _project, a, 1, b, 1, "(a)_1", "(b)_1")
    if bad:
        return bad
    matches, exhaustive = lookup_triples(bound, a0, b0, ctx.budget, ctx.cfg)
    trace = Trace(clause, Status.UNKNOWN, exhaustive=exhaustive)
    saw_unknown = False
    for z in matches:
        st, t = _check(ctx, a1, b1, sub(z))
        trace.children.append(t)
        # Candidates from a non-exhaustive lookup are only probable members;
        # a positive answer through them stays Unknown.
        if st is Status.REALIZED and exhaustive:
            trace.status, trace.note = Status.REALIZED, found
            return Status.REALIZED, trace
        saw_unknown |= st is not Status.REFUTED
    if exhaustive and not saw_unknown:
        trace.status, trace.note = Status.REFUTED, refuted if matches else empty
        return Status.REFUTED, trace
    trace.note = open_note if saw_unknown else ""
    return Status.UNKNOWN, trace


def _apply_members(ctx: _Ctx, clause: str, a: Value, b: Value, triples, sub, pi=None):
    """Per triple ⟨c, d, z⟩: the verdict that a·c, b·d (or their ``pi``-th
    projections) realize ``sub(z)``, or the failure that stopped it."""
    for c, d, z in triples:
        ac, bd, bad = _both(ctx, clause, _apply, a, c, b, d, "a·c", "b·d")
        if not bad and pi is not None:
            ac, bd, bad = _both(
                ctx, clause, _project, ac, pi, bd, pi, f"(a·c)_{pi}", f"(b·d)_{pi}"
            )
        yield bad if bad else _check(ctx, ac, bd, sub(z))


def _check_eq(ctx: _Ctx, a: Value, b: Value, phi: Eq) -> tuple[Status, Trace]:
    clause = "eq"
    x, y = _as_name(phi.x), _as_name(phi.y)
    if isinstance(x, Nat) and isinstance(y, Nat) and not decide_nat_eq(x.n, y.n):
        return Status.REFUTED, Trace(
            clause,
            Status.REFUTED,
            note=f"distinct numeral names nat {x.n} / nat {y.n}: no realizer exists",
            exhaustive=True,
        )
    trace = Trace(clause, Status.UNKNOWN)
    overall = Status.REALIZED
    for label, src, dst, pi in (("left", x, y, 0), ("right", y, x, 1)):
        triples, exhausted = enumerate_triples(src, ctx.budget, ctx.cfg)
        side = Trace(f"eq/{label}", Status.UNKNOWN, exhaustive=exhausted)
        members = _meet_all(
            side, _apply_members(ctx, side.clause, a, b, triples, lambda z: Mem(z, dst), pi)
        )
        side.status = _meet(members, Status.REALIZED if exhausted else Status.UNKNOWN)
        trace.children.append(side)
        overall = _meet(overall, side.status)
        if overall is Status.REFUTED:
            break
    trace.status = overall
    trace.exhaustive = overall is Status.REALIZED
    return overall, trace


def _check_and(ctx: _Ctx, a: Value, b: Value, phi: And) -> tuple[Status, Trace]:
    clause = "and"
    trace = Trace(clause, Status.UNKNOWN, exhaustive=True)
    overall = Status.REALIZED
    for i, sub in ((0, phi.left), (1, phi.right)):
        pa, pb, bad = _both(ctx, clause, _project, a, i, b, i, f"(a)_{i}", f"(b)_{i}")
        if bad:
            return bad
        st, t = _check(ctx, pa, pb, sub)
        trace.children.append(t)
        if st is Status.REFUTED:
            trace.status = Status.REFUTED
            return Status.REFUTED, trace
        overall = _meet(overall, st)
    trace.status = overall
    return overall, trace


def _check_or(ctx: _Ctx, a: Value, b: Value, phi: Or) -> tuple[Status, Trace]:
    clause = "or"
    ta, tb, bad = _both(ctx, clause, _project, a, 0, b, 0, "(a)_0", "(b)_0")
    if bad:
        return bad
    if not (ta.is_numeral() and tb.is_numeral() and ta == tb and ta.numeral in (0, 1)):
        return Status.REFUTED, Trace(
            clause, Status.REFUTED, note="disjunction tags must both be #0 or both #1",
            exhaustive=True,
        )
    pa, pb, bad = _both(ctx, clause, _project, a, 1, b, 1, "(a)_1", "(b)_1")
    if bad:
        return bad
    side = phi.left if ta.numeral == 0 else phi.right
    st, t = _check(ctx, pa, pb, side)
    trace = Trace(clause, st, note=f"tag #{ta.numeral}", exhaustive=True, children=[t])
    return st, trace


def _check_allin(ctx: _Ctx, a: Value, b: Value, phi: AllIn) -> tuple[Status, Trace]:
    clause = "all-in"
    triples, exhausted = enumerate_triples(_as_name(phi.bound), ctx.budget, ctx.cfg)
    trace = Trace(clause, Status.UNKNOWN, exhaustive=exhausted)
    # The meet over the sampled members only.
    members = _meet_all(
        trace,
        _apply_members(ctx, clause, a, b, triples, partial(substitute, phi.body, phi.var)),
    )
    if not exhausted and members is not Status.REFUTED:
        if members is Status.REALIZED and triples:
            trace.note = "all sampled members pass; enumeration truncated"
        members = Status.UNKNOWN
    trace.status = members
    return members, trace


def _check_not(ctx: _Ctx, a: Value, b: Value, phi: Not) -> tuple[Status, Trace]:
    clause = "not"
    if in_fragment(phi.body):
        if truth_eval(phi.body):
            return Status.REFUTED, Trace(
                clause,
                Status.REFUTED,
                note="body is realizable (decided on the arithmetic fragment)",
                exhaustive=True,
            )
        return Status.REALIZED, Trace(
            clause,
            Status.REALIZED,
            note="no realizer of the body exists (decided on the arithmetic fragment)",
            exhaustive=True,
        )
    return Status.UNKNOWN, Trace(
        clause, Status.UNKNOWN, note="negation quantifies over the whole algebra"
    )


def _constant_output(v: Value) -> Value | None:
    """For K-headed one-argument values the application result is fixed."""
    if isinstance(v.head, Const) and v.head.kind is ConstKind.K and len(v.args) == 1:
        return v.args[0]
    return None


def _check_imp(ctx: _Ctx, a: Value, b: Value, phi: Imp) -> tuple[Status, Trace]:
    clause = "imp"
    ca, cb = _constant_output(a), _constant_output(b)
    decidable = in_fragment(phi.hyp)
    if decidable and not truth_eval(phi.hyp):
        return Status.REALIZED, Trace(
            clause,
            Status.REALIZED,
            note="hypothesis has no realizer (decided on the arithmetic fragment)",
            exhaustive=True,
        )
    if ca is not None and cb is not None:
        # Constant realizers collapse the universal over hypothesis realizers.
        st, t = _check(ctx, ca, cb, phi.concl)
        if st is Status.REALIZED:
            return Status.REALIZED, Trace(
                clause, Status.REALIZED, note="constant realizer: conclusion checked once",
                exhaustive=True, children=[t],
            )
        if st is Status.REFUTED and decidable:
            # Hypothesis realizable and the fixed output fails.
            return Status.REFUTED, Trace(
                clause, Status.REFUTED, note="constant realizer refutes the conclusion",
                exhaustive=True, children=[t],
            )
        return Status.UNKNOWN, Trace(clause, Status.UNKNOWN, children=[t])
    if decidable:
        from .realizers import synthesize  # cycle-free: realizers does not import checker

        wit = synthesize(phi.hyp)
        if wit is not None:
            aw, bw, bad = _both(ctx, clause, _apply, a, wit.a, b, wit.b, "a·witness", "b·witness")
            if bad:
                return bad
            st, t = _check(ctx, aw, bw, phi.concl)
            if st is Status.REFUTED:
                return Status.REFUTED, Trace(
                    clause, Status.REFUTED,
                    note="synthesized hypothesis witness drives the conclusion to a refutation",
                    exhaustive=True, children=[t],
                )
            return Status.UNKNOWN, Trace(
                clause, Status.UNKNOWN,
                note="one synthesized witness passed; the universal over realizers is open",
                children=[t], witness_directed=True,
            )
    return Status.UNKNOWN, Trace(
        clause, Status.UNKNOWN, note="implication quantifies over the whole algebra"
    )


_CLAUSES = {
    Mem: _check_keyed,
    ExIn: _check_keyed,
    Eq: _check_eq,
    And: _check_and,
    Or: _check_or,
    AllIn: _check_allin,
    Not: _check_not,
    Imp: _check_imp,
    All: _check_unbounded,
    Ex: _check_unbounded,
}


def check_imp_on_witnesses(
    pair: RealizerPair,
    hyp: Formula,
    concl: Formula,
    witnesses: list[RealizerPair],
    budget: EnumBudget = DEFAULT_BUDGET,
    cfg: FuelConfig = DEFAULT_FUEL,
) -> Verdict:
    """Witness-directed implication check.

    Each witness believed to realize the hypothesis is screened first; the
    implication realizer must send every surviving witness to a realizer of
    the conclusion.  A positive verdict is marked witness-directed: the
    universal claim over the whole algebra remains unverified.
    """
    ctx = _Ctx(budget, cfg)
    trace = Trace("imp/witness-directed", Status.UNKNOWN, witness_directed=True)
    usable = 0

    def results():
        nonlocal usable
        for i, w in enumerate(witnesses):
            pre_status, pre_trace = _check(ctx, w.a, w.b, hyp)
            if pre_status is Status.REFUTED:
                # A skipped witness bears on no verdict: REALIZED is the meet's unit.
                yield Status.REALIZED, Trace(
                    "witness", Status.UNKNOWN, children=[pre_trace],
                    note=f"witness {i} does not realize the hypothesis; skipped",
                )
                continue
            usable += 1
            aw, bw, bad = _both(
                ctx, "imp/witness", _apply, pair.a, w.a, pair.b, w.b, "a·witness", "b·witness"
            )
            if bad:
                yield bad
                continue
            st, t = _check(ctx, aw, bw, concl)
            # The memo holds t; label a copy.
            yield st, replace(t, note=(f"witness {i}: " + t.note).rstrip(": "))

    status = _meet_all(trace, results())
    if status is not Status.REFUTED:
        if usable:
            trace.note = f"{usable} witness(es); universal claim over the algebra unverified"
        else:
            status, trace.note = Status.UNKNOWN, "no usable witnesses"
    trace.status = status
    return Verdict(status, trace, ctx.samples)


# ---------------------------------------------------------------------------
# The bounded-arithmetic fragment: truth oracle


def in_fragment(phi: Formula, bound_vars: frozenset[str] = frozenset()) -> bool:
    """Formulas where realizability coincides with arithmetic truth.

    Atoms compare numeral names (membership also against ω̇); quantifiers are
    bounded by numeral names, existentials also by ω̇.
    """

    def ok_elem(r: NameRef) -> bool:
        return (isinstance(r, str) and r in bound_vars) or isinstance(r, Nat)

    def ok_bound_mem(r: NameRef) -> bool:
        return ok_elem(r) or isinstance(r, Omega)

    match phi:
        case Mem(x, y):
            return ok_elem(x) and ok_bound_mem(y)
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
        case _:
            return 0


def truth_eval(phi: Formula) -> bool:
    """Classical truth over the naturals: nat n ↦ n, mem ↦ <, eq ↦ =.

    Existentials over ω̇ are decided by a saturation bound: every atom
    compares against constants, so witnesses above the largest numeral plus
    one behave identically.
    """
    if not in_fragment(phi):
        raise FragmentError(f"not a bounded-arithmetic formula: {fmt(phi)}")
    return _truth(phi)


def _truth(phi: Formula) -> bool:
    match phi:
        case Mem(x, y):
            xn = _as_nat(x)
            if isinstance(y, Omega):
                return True
            return xn < _as_nat(y)
        case Eq(x, y):
            return _as_nat(x) == _as_nat(y)
        case And(l, r):
            return _truth(l) and _truth(r)
        case Or(l, r):
            return _truth(l) or _truth(r)
        case Not(b):
            return not _truth(b)
        case Imp(h, c):
            return (not _truth(h)) or _truth(c)
        case AllIn(v, bound, body):
            assert isinstance(bound, Nat)
            return all(_truth(substitute(body, v, Nat(m))) for m in range(bound.n))
        case ExIn(v, bound, body):
            if isinstance(bound, Nat):
                rng = range(bound.n)
            else:
                rng = range(_max_numeral(body) + 2)
            return any(_truth(substitute(body, v, Nat(m))) for m in rng)
    raise FragmentError(fmt(phi))


def _as_nat(r: NameRef) -> int:
    if isinstance(r, Nat):
        return r.n
    raise FragmentError(f"non-numeral name in arithmetic position: {r}")
