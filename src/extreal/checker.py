"""Three-valued checker for the extensional realizability relation.

``check((a, b), φ)`` decides, clause by clause, whether the pair of machine
values realizes the closed formula φ.  Every positive answer bottoms out in
exhaustively verified clauses; any budget-truncated branch forces Unknown.

Each clause returns its ``Trace``, and the trace is the verdict: its
status, note and children say what was decided and why.

One driver, ``_solve``, runs the recursion on an explicit stack: a clause
that needs subgoals is a generator that yields each subgoal ``(a, b, ψ)`` and
is sent back its Trace, so the depth of a name or formula costs no host
stack.  A subgoal answered from the memo under a pending clause comes back
without children: its subtree is shown where the goal was first reached.

A verdict keeps a goal memo (``_Ctx.memo``), the Trace of each goal, so a
goal asked again under another goal is answered without checking it again.
A projection or application of a realizer is a tabled ``kernel.apply``,
whose outcome the run keeps (``run.ops``), so an operation asked again, on
the other side of a pair, under another goal or by a later verdict of the
same run, does not run again either.

Failure policy: the kernel (``kernel.apply``, ``kernel.project``) decides
how a projection or application of a realizer ends, and ``_run`` states
what each end means for the clause.  A crash (a machine error on a genuine
member) refutes the clause, exhaustively, since the clauses only speak
about defined applications.  Resource limits leave it Unknown, as a larger
limit could decide it either way: running out of fuel or outgrowing the
value size cap.

Negation, implication and the unbounded quantifiers range over the whole
algebra, so the checker affirms them only where a decision principle
applies: the bounded-arithmetic fragment (where realizability coincides
with classical truth over the naturals) and constant-valued realizers.
Truth there is one ``formulas.decide`` walk; an implication is tried on the
realizer ``realizers.build`` makes from its evidence, one layer below.
"""

from __future__ import annotations

import enum
from functools import partial

from .formulas import (
    All,
    AllIn,
    And,
    Eq,
    Ex,
    ExIn,
    Formula,
    FragmentError,
    Imp,
    Mem,
    NameRef,
    Not,
    Or,
    decide,
    is_closed,
    substitute,
    truth_eval,
)
from .kernel import Crash, NoValue, apply, project, reason
from .names import Nat, VName, enumerate_triples, lookup_triples
from .realizers import build
from .terms import ConstKind, Const, Node, Run, Value, set_field


class Status(enum.Enum):
    REALIZED = "realized"
    REFUTED = "refuted"
    UNKNOWN = "unknown"


class RealizerPair(Node):
    __slots__ = __match_args__ = ("a", "b")

    def __init__(self, a: Value, b: Value):
        set_field(self, "a", a)
        set_field(self, "b", b)

    @staticmethod
    def both(v: Value) -> "RealizerPair":
        return RealizerPair(v, v)


class Trace(Node):
    """A verdict's derivation, built up in place.  A trace can be as deep as
    the names it checks, so it is walked on an explicit stack, and its
    equality and ``repr`` leave the children out."""

    __match_args__ = ("clause", "status", "note", "exhaustive", "witness_directed")
    __slots__ = (*__match_args__, "children")
    __setattr__ = object.__setattr__
    __hash__ = None

    def __init__(self, clause: str, status: Status, note: str = "", exhaustive: bool = False,
                 witness_directed: bool = False, children: list[Trace] | None = None):
        self.clause = clause
        self.status = status
        self.note = note
        self.exhaustive = exhaustive
        self.witness_directed = witness_directed
        self.children = [] if children is None else children

    def to_dict(self, depth: int | None = None) -> dict:
        def head(t: Trace) -> dict:
            return {
                "clause": t.clause,
                "status": t.status.value,
                "note": t.note,
                "exhaustive": t.exhaustive,
                "witness_directed": t.witness_directed,
            }

        root = head(self)
        stack = [(self, root, depth)]
        while stack:
            t, d, depth = stack.pop()
            if depth is None or depth > 0:
                nxt = None if depth is None else depth - 1
                d["children"] = kids = []
                for c in t.children:
                    kids.append(head(c))
                    stack.append((c, kids[-1], nxt))
        return root

    def render(self, depth: int | None = None, indent: int = 0) -> str:
        lines = []
        stack = [(self, depth, indent)]
        while stack:
            t, depth, indent = stack.pop()
            flags = []
            if t.exhaustive:
                flags.append("exhaustive")
            if t.witness_directed:
                flags.append("witness-directed")
            suffix = f" [{', '.join(flags)}]" if flags else ""
            note = f" -- {t.note}" if t.note else ""
            lines.append(f"{'  ' * indent}{t.clause}: {t.status.value}{suffix}{note}")
            if depth is None or depth > 0:
                nxt = None if depth is None else depth - 1
                stack.extend((c, nxt, indent + 1) for c in reversed(t.children))
        return "\n".join(lines)


class Verdict(Node):
    __slots__ = __match_args__ = ("trace", "samples_checked")

    def __init__(self, trace: Trace, samples_checked: int):
        set_field(self, "trace", trace)
        set_field(self, "samples_checked", samples_checked)

    @property
    def status(self) -> Status:
        return self.trace.status

    def __bool__(self):
        return self.status is Status.REALIZED


class _Ctx(Node):
    """One verdict's run and its goal memo.  For a fixed run a goal's Trace
    is a function of (a, b, φ), and equal values are one object: ``memo``
    answers a repeated goal, which shared sub-names would otherwise
    re-verify exponentially often.  It lives as long as the verdict, since a
    goal it answers is shown without its subtree, which only the verdict
    that first reached the goal shows.  The applications under the goals
    live longer: ``kernel.apply`` keeps them in the run's table
    (``run.ops``), beside the machine's memo."""

    __slots__ = __match_args__ = ("run", "samples", "memo")
    __setattr__ = object.__setattr__
    __hash__ = None

    def __init__(self, run: Run):
        self.run = run
        self.samples = 0
        self.memo: dict = {}


def _as_name(r: NameRef) -> VName:
    if isinstance(r, str):
        raise ValueError(f"formula not closed: free variable {r!r}")
    return r


def _run(ctx: _Ctx, clause: str, what: str, op, f: Value, x) -> Value | Trace:
    """``op`` (the kernel's ``apply`` or ``project``) on f and x: the value,
    or the Trace of the clause that its failure decides."""
    out = op(f, x, ctx.run)
    if isinstance(out, Value):
        return out
    if isinstance(out, Crash):
        return Trace(clause, Status.REFUTED, note=f"{what} crashed (stuck: {out.error})", exhaustive=True)
    if out.error is not None:
        return Trace(clause, Status.UNKNOWN, note=f"{what} outgrew the value size cap")
    return Trace(clause, Status.UNKNOWN, note=f"{what} ran out of fuel")


def _both(ctx: _Ctx, clause: str, op, a: Value, x, b: Value, y, what_a: str, what_b: str):
    """``op`` on the a side, then on the b side: the two values and None, or
    None, None and the first failure's Trace."""
    va = _run(ctx, clause, what_a, op, a, x)
    if isinstance(va, Trace):
        return None, None, va
    vb = _run(ctx, clause, what_b, op, b, y)
    if isinstance(vb, Trace):
        return None, None, vb
    return va, vb, None


def _meet(s1: Status, s2: Status) -> Status:
    if Status.REFUTED in (s1, s2):
        return Status.REFUTED
    if Status.UNKNOWN in (s1, s2):
        return Status.UNKNOWN
    return Status.REALIZED


def check(pair: RealizerPair, phi: Formula, run: Run | None = None) -> Verdict:
    """Does the pair realize the closed formula?  Realized / Refuted / Unknown."""
    if not is_closed(phi):
        raise ValueError("check requires a closed formula")
    ctx = _Ctx(Run() if run is None else run)
    return Verdict(_solve(ctx, pair.a, pair.b, phi), ctx.samples)


def _solve(ctx: _Ctx, a: Value, b: Value, phi: Formula) -> Trace:
    """The Trace of the goal ``(a, b, φ)``, memoised per goal.

    A clause returns its Trace, or is a generator that yields subgoals and
    returns its Trace; suspended clauses wait on ``stack`` while their
    subgoal runs.  The stack is bounded and no goal waits on itself: a
    subgoal's formula has fewer connectives than its goal's, or both are
    atoms (``mem``, ``eq``) and the subgoal's two names have a smaller rank
    sum, because a clause only descends to members of a name.  So the stack
    is at most as deep as the goal's formula and names."""
    ctx.samples += 1
    goal = (a, b, phi)
    out = ctx.memo.get(goal)
    if out is not None:
        return out
    stack = []
    while True:
        # Start the goal's clause: it answers at once, or asks for a subgoal.
        clause = _CLAUSES[type(goal[2])](ctx, *goal)
        if isinstance(clause, Trace):
            out = ctx.memo[goal] = clause
        else:
            stack.append((goal, clause))
            out = None
        # Resume clauses until one asks for a goal the memo cannot answer.
        while stack:
            key, clause = stack[-1]
            try:
                goal = clause.send(out)
            except StopIteration as done:
                stack.pop()
                out = ctx.memo[key] = done.value
                continue
            ctx.samples += 1
            hit = ctx.memo.get(goal)
            if hit is None:
                break
            # Shown without children: the subtree is where the goal was first
            # reached.  (Built directly: ``replace`` costs 8x as much.)
            out = Trace(hit.clause, hit.status, hit.note, hit.exhaustive, hit.witness_directed)
        else:
            return out


def _check_unbounded(ctx: _Ctx, a: Value, b: Value, phi: All | Ex) -> Trace:
    return Trace("quantifier", Status.UNKNOWN, note="unbounded quantifier: not checkable")


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


def _check_keyed(ctx: _Ctx, a: Value, b: Value, phi: Mem | ExIn) -> Trace:
    """``mem(x, y)`` and ``ex z in y. body``: the key (a)_0, (b)_0 selects
    members z of the bound name y, and (a)_1, (b)_1 must realize ``sub(z)``,
    that is ``eq(x, z)`` or ``body[z]``, for one of them."""
    if isinstance(phi, Mem):
        clause, bound, sub = "mem", _as_name(phi.y), partial(Eq, _as_name(phi.x))
    else:
        clause, bound, sub = "ex-in", _as_name(phi.bound), partial(substitute, phi.body, phi.var)
    found, refuted, empty, open_note = _KEYED_NOTES[clause]
    a0, b0, bad = _both(ctx, clause, project, a, 0, b, 0, "(a)_0", "(b)_0")
    if bad:
        return bad
    a1, b1, bad = _both(ctx, clause, project, a, 1, b, 1, "(a)_1", "(b)_1")
    if bad:
        return bad
    matches, exhaustive = lookup_triples(bound, a0, b0, ctx.run)
    trace = Trace(clause, Status.UNKNOWN, exhaustive=exhaustive)
    saw_unknown = False
    for z in matches:
        t = yield a1, b1, sub(z)
        trace.children.append(t)
        # Candidates from a non-exhaustive lookup are only probable members;
        # a positive answer through them stays Unknown.
        if t.status is Status.REALIZED and exhaustive:
            trace.status, trace.note = Status.REALIZED, found
            return trace
        saw_unknown |= t.status is not Status.REFUTED
    if exhaustive and not saw_unknown:
        trace.status, trace.note = Status.REFUTED, refuted if matches else empty
    elif saw_unknown:
        trace.note = open_note
    return trace


def _members(ctx: _Ctx, trace: Trace, a: Value, b: Value, triples, sub, pi=None):
    """Per triple ⟨c, d, z⟩, ask whether a·c, b·d (or their ``pi``-th
    projections) realize ``sub(z)``, and append the answer, or the failure
    that stopped it, to ``trace``.  Returns the meet of the answers, stopping
    at the first refutation."""
    out = Status.REALIZED
    for c, d, z in triples:
        ac, bd, bad = _both(ctx, trace.clause, apply, a, c, b, d, "a·c", "b·d")
        if not bad and pi is not None:
            ac, bd, bad = _both(ctx, trace.clause, project, ac, pi, bd, pi, f"(a·c)_{pi}", f"(b·d)_{pi}")
        child = bad or (yield ac, bd, sub(z))
        trace.children.append(child)
        out = _meet(out, child.status)
        if out is Status.REFUTED:
            break
    return out


def _check_eq(ctx: _Ctx, a: Value, b: Value, phi: Eq) -> Trace:
    clause = "eq"
    x, y = _as_name(phi.x), _as_name(phi.y)
    # Distinct numeral names have no realizer of their equality, so it is
    # refuted outright; equal ones are one object.
    if isinstance(x, Nat) and isinstance(y, Nat) and x is not y:
        return Trace(
            clause, Status.REFUTED, exhaustive=True,
            note=f"distinct numeral names nat {x.n} / nat {y.n}: no realizer exists",
        )
    trace = Trace(clause, Status.REALIZED)
    for label, src, dst, pi in (("left", x, y, 0), ("right", y, x, 1)):
        triples, exhausted = enumerate_triples(src, ctx.run)
        side = Trace(f"eq/{label}", Status.UNKNOWN, exhaustive=exhausted)
        members = yield from _members(ctx, side, a, b, triples, lambda z, dst=dst: Mem(z, dst), pi)
        side.status = _meet(members, Status.REALIZED if exhausted else Status.UNKNOWN)
        trace.children.append(side)
        trace.status = _meet(trace.status, side.status)
        if trace.status is Status.REFUTED:
            break
    trace.exhaustive = trace.status is Status.REALIZED
    return trace


def _check_and(ctx: _Ctx, a: Value, b: Value, phi: And) -> Trace:
    clause = "and"
    trace = Trace(clause, Status.REALIZED, exhaustive=True)
    for i, sub in ((0, phi.left), (1, phi.right)):
        pa, pb, bad = _both(ctx, clause, project, a, i, b, i, f"(a)_{i}", f"(b)_{i}")
        if bad:
            return bad
        t = yield pa, pb, sub
        trace.children.append(t)
        trace.status = _meet(trace.status, t.status)
        if trace.status is Status.REFUTED:
            break
    return trace


def _check_or(ctx: _Ctx, a: Value, b: Value, phi: Or) -> Trace:
    clause = "or"
    ta, tb, bad = _both(ctx, clause, project, a, 0, b, 0, "(a)_0", "(b)_0")
    if bad:
        return bad
    if not (ta.is_numeral() and tb.is_numeral() and ta == tb and ta.numeral in (0, 1)):
        return Trace(
            clause, Status.REFUTED, note="disjunction tags must both be #0 or both #1",
            exhaustive=True,
        )
    pa, pb, bad = _both(ctx, clause, project, a, 1, b, 1, "(a)_1", "(b)_1")
    if bad:
        return bad
    t = yield pa, pb, phi.left if ta.numeral == 0 else phi.right
    return Trace(clause, t.status, note=f"tag #{ta.numeral}", exhaustive=True, children=[t])


def _check_allin(ctx: _Ctx, a: Value, b: Value, phi: AllIn) -> Trace:
    clause = "all-in"
    triples, exhausted = enumerate_triples(_as_name(phi.bound), ctx.run)
    trace = Trace(clause, Status.UNKNOWN, exhaustive=exhausted)
    # The meet over the sampled members only.
    trace.status = yield from _members(
        ctx, trace, a, b, triples, partial(substitute, phi.body, phi.var)
    )
    if not exhausted and trace.status is not Status.REFUTED:
        if trace.status is Status.REALIZED and triples:
            trace.note = "all sampled members pass; enumeration truncated"
        trace.status = Status.UNKNOWN
    return trace


def _check_not(ctx: _Ctx, a: Value, b: Value, phi: Not) -> Trace:
    """On a fragment body, realized exactly when ``formulas.truth_eval`` (one
    ``decide`` walk) finds the body false."""
    clause = "not"
    try:
        body_true = truth_eval(phi.body)
    except FragmentError:
        return Trace(clause, Status.UNKNOWN, note="negation quantifies over the whole algebra")
    if body_true:
        return Trace(clause, Status.REFUTED, exhaustive=True,
                     note="body is realizable (decided on the arithmetic fragment)")
    return Trace(clause, Status.REALIZED, exhaustive=True,
                 note="no realizer of the body exists (decided on the arithmetic fragment)")


def _constant_output(v: Value) -> Value | None:
    """For K-headed one-argument values the application result is fixed."""
    if isinstance(v.head, Const) and v.head.kind is ConstKind.K and len(v.args) == 1:
        return v.args[0]
    return None


def _check_imp(ctx: _Ctx, a: Value, b: Value, phi: Imp) -> Trace:
    """Realized when ``formulas.decide`` finds a fragment hypothesis false, or
    a constant realizer's output realizes the conclusion.  Past the first test
    a fragment hypothesis is true, and ``realizers.build`` makes its realizer w
    from the evidence of that one decision; a·w, b·w can only refute."""
    clause = "imp"
    ca, cb = _constant_output(a), _constant_output(b)
    try:
        if (evidence := decide(phi.hyp)) is None:
            return Trace(clause, Status.REALIZED, exhaustive=True,
                         note="hypothesis has no realizer (decided on the arithmetic fragment)")
    except FragmentError:
        evidence = None  # from here on, None means outside the fragment
    if ca is not None and cb is not None:
        # Constant realizers collapse the universal over hypothesis realizers.
        t = yield ca, cb, phi.concl
        if t.status is Status.REALIZED:
            return Trace(
                clause, Status.REALIZED, note="constant realizer: conclusion checked once",
                exhaustive=True, children=[t],
            )
        if t.status is Status.REFUTED and evidence is not None:
            # Hypothesis realizable and the fixed output fails.
            return Trace(
                clause, Status.REFUTED, note="constant realizer refutes the conclusion",
                exhaustive=True, children=[t],
            )
        return Trace(clause, Status.UNKNOWN, children=[t])
    if evidence is not None:
        try:
            wit = build(evidence, ctx.run)
        except NoValue as exc:
            return Trace(clause, Status.UNKNOWN,
                         note=f"hypothesis witness synthesis stopped: {reason(exc.outcome)}")
        aw, bw, bad = _both(ctx, clause, apply, a, wit, b, wit, "a·witness", "b·witness")
        if bad:
            return bad
        t = yield aw, bw, phi.concl
        if t.status is Status.REFUTED:
            return Trace(
                clause, Status.REFUTED,
                note="synthesized hypothesis witness drives the conclusion to a refutation",
                exhaustive=True, children=[t],
            )
        return Trace(
            clause, Status.UNKNOWN,
            note="one synthesized witness passed; the universal over realizers is open",
            children=[t], witness_directed=True,
        )
    return Trace(clause, Status.UNKNOWN, note="implication quantifies over the whole algebra")


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
    run: Run | None = None,
) -> Verdict:
    """Witness-directed implication check.

    Each witness believed to realize the hypothesis is screened first; the
    implication realizer must send every surviving witness to a realizer of
    the conclusion.  A positive verdict is marked witness-directed: the
    universal claim over the whole algebra remains unverified.
    """
    if not (is_closed(hyp) and is_closed(concl)):
        raise ValueError("check_imp_on_witnesses requires closed formulas")
    ctx = _Ctx(Run() if run is None else run)
    trace = Trace("imp/witness-directed", Status.REALIZED, witness_directed=True)
    usable = 0
    for i, w in enumerate(witnesses):
        pre = _solve(ctx, w.a, w.b, hyp)
        if pre.status is Status.REFUTED:
            # A skipped witness is shown but bears on no verdict, so it
            # joins the children outside the meet.
            trace.children.append(Trace(
                "witness", Status.UNKNOWN, children=[pre],
                note=f"witness {i} does not realize the hypothesis; skipped",
            ))
            continue
        usable += 1
        aw, bw, t = _both(
            ctx, "imp/witness", apply, pair.a, w.a, pair.b, w.b, "a·witness", "b·witness"
        )
        if t is None:
            t = _solve(ctx, aw, bw, concl)
            # The memo holds t; label a copy.
            t = Trace(t.clause, t.status, (f"witness {i}: " + t.note).rstrip(": "),
                      t.exhaustive, t.witness_directed, t.children)
        trace.children.append(t)
        trace.status = _meet(trace.status, t.status)
        if trace.status is Status.REFUTED:
            break
    if trace.status is not Status.REFUTED:
        if usable:
            trace.note = f"{usable} witness(es); universal claim over the algebra unverified"
        else:
            trace.status, trace.note = Status.UNKNOWN, "no usable witnesses"
    return Verdict(trace, ctx.samples)
