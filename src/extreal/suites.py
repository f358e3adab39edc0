"""Built-in property suites, shared by the test harness and the CLI.

Each suite runs a deterministic, seeded corpus of law checks and returns one
result per case; a failing case carries a standalone scenario snippet that
reproduces it.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from .checker import RealizerPair, Status, check, check_imp_on_witnesses, truth_eval
from .bracket import SKK, abstract, compile_term, lam
from .formulas import (
    AllIn,
    And,
    Eq,
    ExIn,
    Formula,
    Imp,
    Mem,
    Not,
    Or,
    fmt,
    ordered_pair,
    theta,
    unordered_pair,
)
from .kernel import (
    Crash,
    NoValue,
    Open,
    apply,
    defined,
    evaluate,
    kleene_agree,
    pair_value,
    project,
)
from .names import (
    Arrow,
    Explicit,
    Graph,
    Internal,
    Nat,
    OMEGA,
    OPair,
    Sing,
    TYPE_O,
    Triple,
    UPair,
    VName,
    enumerate_triples,
    eq_type,
    gen_elems,
    internalize,
)
from .parser import print_term
from .realizers import (
    _dispatch_term,
    _dispatch_value,
    _pairs_uniqueness_part,
    arrow_term,
    bounded_separation_terms,
    choice_term,
    collection_name,
    double_fixpoint,
    eq_realizers,
    extensionality_term,
    fixpoint,
    i_r_value,
    infinity_terms,
    p_,
    pairing_name,
    pairing_realizers,
    pairing_term,
    powerset_term,
    primrec,
    proj,
    separation_name,
    set_induction_term,
    strong_collection_term,
    subset_collection_term,
    synthesize,
    union_name,
    union_term,
    value_of,
)
from .terms import (
    App,
    D,
    K,
    KBAR,
    Opaque,
    P,
    P0,
    P1,
    PRED,
    Run,
    S,
    SUCC,
    Term,
    Tri,
    Value,
    Var,
    app,
    num,
    num_value,
)


@dataclass
class CaseResult:
    name: str
    ok: bool
    detail: str = ""
    snippet: str = ""


@dataclass
class SuiteReport:
    suite: str
    seed: int
    cases: list[CaseResult] = field(default_factory=list)

    @property
    def failures(self) -> list[CaseResult]:
        return [c for c in self.cases if not c.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def add(self, name: str, bad: list[str], detail: str) -> None:
        """Record a case that passes when ``bad`` is empty; ``bad`` holds one
        note per failed instance, and the first is the case's snippet."""
        self.cases.append(CaseResult(name, not bad, detail, bad[0] if bad else ""))

    @contextmanager
    def guard(self, name: str):
        """Run a block that needs the values of library terms, under the
        user's limits.  If one has no value (a crash, or a limit too small
        for it), the rest of the block is skipped and a failing case ``name``
        says why; the block's cases recorded before stay."""
        try:
            yield
        except NoValue as exc:
            self.cases.append(CaseResult(name, False, str(exc)))


# --- random printable terms and values ------------------------------------

_VALUE_ATOMS: tuple[Term, ...] = (K, D, KBAR) + tuple(num(i) for i in range(5))


def random_closed_term(rng: random.Random, max_leaves: int, atoms=_VALUE_ATOMS) -> Term:
    leaves = rng.randint(1, max_leaves)

    def build(n: int) -> Term:
        if n == 1:
            return rng.choice(atoms)
        k = rng.randint(1, n - 1)
        return App(build(k), build(n - k))

    return build(leaves)


def random_printable_value(rng: random.Random, max_leaves: int = 4) -> tuple[Term, Value]:
    """A random closed term with a value under the default run, and that
    value."""
    while True:
        t = random_closed_term(rng, max_leaves)
        v = evaluate(t, Run())
        if isinstance(v, Value):
            return t, v


def _draw(rng: random.Random, n: int) -> list[Term]:
    """The terms of ``n`` successive random printable values.  They are drawn
    under the default run, not the suite's: a term is kept when it has a
    value within the default fuel, so a seed gives the same cases under any
    ``--fuel``."""
    return [random_printable_value(rng)[0] for _ in range(n)]


def _law(bad: list[str], lhs: Term, rhs: Term, run: Run, total: bool = True,
         shown: Term | None = None) -> None:
    """Check lhs ≃ rhs and, when it fails, add to ``bad`` a snippet that
    evaluates lhs expecting ``shown`` (rhs by default).  A total law fails
    unless both sides are seen to agree; otherwise only a disagreement fails,
    and running out of fuel passes."""
    agree = kleene_agree(lhs, rhs, run)
    if agree is False or (total and agree is None):
        bad.append(f"eval ({print_term(lhs)}) expect ({print_term(rhs if shown is None else shown)})")


def _realized(r: Value | Crash | Open, phi: Formula, run: Run) -> bool:
    """Whether ``r`` realizes phi on both sides.  ``r`` may be the outcome of
    a machine operation; a crash or a resource limit realizes nothing."""
    return isinstance(r, Value) and check(RealizerPair.both(r), phi, run).status is Status.REALIZED


# --- suite: pca-laws --------------------------------------------------------


def suite_pca_laws(run: Run, rounds: int = 200) -> SuiteReport:
    rng = random.Random(run.seed)
    rep = SuiteReport("pca-laws", run.seed)

    bad = []
    for _ in range(rounds):
        ta, tb = _draw(rng, 2)
        _law(bad, app(K, ta, tb), ta, run)
        _law(bad, app(KBAR, ta, tb), tb, run)
    rep.add("k-law", bad, f"{rounds} instances")

    bad = []
    for _ in range(rounds):
        ta, tb, tc = _draw(rng, 3)
        _law(bad, app(S, ta, tb, tc), App(App(ta, tc), App(tb, tc)), run, total=False)
    rep.add("s-law", bad, f"{rounds} instances")

    bad = []
    for _ in range(rounds):
        n = rng.randint(0, 64)
        m = n if rng.random() < 0.5 else rng.randint(0, 64)
        ta, tb = _draw(rng, 2)
        _law(bad, app(D, num(n), num(m), ta, tb), ta if n == m else tb, run)
    rep.add("d-law", bad, f"{rounds} instances")

    bad = []
    for _ in range(rounds):
        n = rng.randint(0, 200)
        _law(bad, App(SUCC, num(n)), num(n + 1), run)
        _law(bad, App(PRED, num(n + 1)), num(n), run)
    if not isinstance(evaluate(App(PRED, num(0)), run), Crash):
        bad.append("-- PRED #0 should be stuck")
    rep.add("succ-pred", bad, f"{rounds} instances")

    bad = []
    for _ in range(rounds):
        ta, tb = _draw(rng, 2)
        _law(bad, App(P0, app(P, ta, tb)), ta, run)
        _law(bad, App(P1, app(P, ta, tb)), tb, run)
    rep.add("pairing-projections", bad, f"{rounds} instances")

    bad = []
    for n, m in ((i, j) for i in range(5) for j in range(5)):
        if n == m:
            _law(bad, num(n), num(m), run)
        elif kleene_agree(num(n), num(m), run) is not False:
            bad.append(f"-- #{n} and #{m} not seen to differ")
    rep.add("numeral-injectivity", bad, "25 pairs")
    return rep


# --- suite: abstraction -----------------------------------------------------


def subst_oracle(t: Term, var: str, a: Term) -> Term:
    """Independent substitution on binder-free terms."""
    match t:
        case Var(name):
            return a if name == var else t
        case App(fun, arg):
            return App(subst_oracle(fun, var, a), subst_oracle(arg, var, a))
        case _:
            return t


def random_open_term(rng: random.Random, max_leaves: int, var: str) -> Term:
    atoms = _VALUE_ATOMS + (Var(var), Var(var), SUCC, PRED)
    return random_closed_term(rng, max_leaves, atoms)


def term_size(t: Term) -> int:
    match t:
        case App(fun, arg):
            return 1 + term_size(fun) + term_size(arg)
        case _:
            return 1
    raise AssertionError


def suite_abstraction(run: Run, rounds: int = 100) -> SuiteReport:
    rng = random.Random(run.seed)
    rep = SuiteReport("abstraction", run.seed)

    bad = []
    size_bad = []
    for _ in range(rounds):
        body = random_open_term(rng, 12, "x")
        s = abstract("x", body)
        [ta] = _draw(rng, 1)
        _law(bad, App(s, ta), subst_oracle(body, "x", ta), run, total=False)
        if term_size(s) > 10 * term_size(body) ** 2:
            size_bad.append(f"-- |compiled| = {term_size(s)} for |t| = {term_size(body)}")
    rep.add("substitution-law", bad, f"{rounds} instances")
    rep.add("size-bound", size_bad, "|compile(t)| <= 10*|t|^2")

    ok = kleene_agree(App(abstract("x", Var("x")), num(7)), num(7), run) is True
    rep.cases.append(CaseResult("identity", ok, "(\\x. x) #7 = #7"))
    k_like = compile_term(lam("x", "y", Var("x")))
    s_like = compile_term(lam("x", "y", "z", app(Var("x"), Var("z"), App(Var("y"), Var("z")))))
    kbar_like = compile_term(lam("x", "y", Var("y")))
    bad = []
    for _ in range(50):
        ta, tb, tc = _draw(rng, 3)
        _law(bad, app(k_like, ta, tb), app(K, ta, tb), run, shown=ta)
        _law(bad, app(kbar_like, ta, tb), app(KBAR, ta, tb), run, shown=tb)
        _law(bad, app(s_like, ta, tb, tc), app(S, ta, tb, tc), run, total=False)
    rep.add("k-s-compilations", bad, "50 instances")
    return rep


# --- suite: fixpoints -------------------------------------------------------


def suite_fixpoints(run: Run, rounds: int = 50) -> SuiteReport:
    rng = random.Random(run.seed)
    rep = SuiteReport("fixpoints", run.seed)
    f = fixpoint()
    g, h = double_fixpoint()
    r = primrec()

    bad = []
    for _ in range(20):
        [ta] = _draw(rng, 1)
        if not isinstance(evaluate(App(f, ta), run), Value):
            bad.append(f"eval ({print_term(App(f, ta))})")
    rep.add("f-defined", bad, "f a defined, 20 instances")

    bad = []
    for _ in range(rounds):
        ta, tb = _draw(rng, 2)
        _law(bad, app(f, ta, tb), app(ta, App(f, ta), tb), run, total=False)
    rep.add("f-law", bad, f"f a b = a (f a) b, {rounds} instances")

    # One-step hand unfolding: f K b = K (f K) b = f K.
    bad = []
    for _ in range(10):
        [tb] = _draw(rng, 1)
        _law(bad, app(f, K, tb), App(f, K), run)
    rep.add("f-unfold-oracle", bad, "f K b = f K")

    bad_def, bad_g, bad_h = [], [], []
    for _ in range(rounds):
        ta, tb, tc = _draw(rng, 3)
        for t in (app(g, ta, tb), app(h, ta, tb)):
            if not isinstance(evaluate(t, run), Value):
                bad_def.append(f"eval ({print_term(t)})")
        _law(bad_g, app(g, ta, tb, tc), app(ta, app(h, ta, tb), tc), run, total=False)
        _law(bad_h, app(h, ta, tb, tc), app(tb, app(g, ta, tb), tc), run, total=False)
    rep.add("gh-defined", bad_def, "g a b, h a b defined")
    rep.add("g-law", bad_g, f"g a b c = a (h a b) c, {rounds} instances")
    rep.add("h-law", bad_h, f"h a b c = b (g a b) c, {rounds} instances")

    bad = []
    for _ in range(20):
        ta, tb = _draw(rng, 2)
        _law(bad, app(r, ta, tb, num(0)), ta, run)
        n = rng.randint(0, 6)
        _law(bad, app(r, ta, tb, num(n + 1)), app(tb, app(r, ta, tb, num(n)), num(n)), run, total=False)
    big = replace(run, max_steps=max(run.max_steps, 400_000))
    add = compile_term(lam("m", "n", app(r, Var("m"), lam("u", "v", App(SUCC, Var("u"))), Var("n"))))
    _law(bad, app(add, num(2), num(3)), num(5), big)
    rep.add("primrec", bad, "recursor laws and 2+3=5")
    return rep


# --- random names and the equality suite -----------------------------------


def random_finite_name(rng: random.Random, rank: int) -> VName:
    if rank <= 0:
        return Nat(rng.randint(0, 3))
    choice = rng.random()
    sub = lambda: random_finite_name(rng, rank - 1)  # noqa: E731
    if choice < 0.4:
        triples = tuple(
            (num_value(rng.randint(0, 3)), num_value(rng.randint(0, 3)), sub())
            for _ in range(rng.randint(0, 3))
        )
        return Explicit(triples)
    if choice < 0.6:
        return Sing(sub())
    if choice < 0.8:
        return UPair(sub(), sub())
    return OPair(sub(), sub())


def suite_equality(run: Run, rounds: int = 30) -> SuiteReport:
    rng = random.Random(run.seed)
    rep = SuiteReport("equality", run.seed)
    ir = i_r_value()

    bad = []
    for _ in range(rounds):
        x = random_finite_name(rng, rng.randint(0, 3))
        if not _realized(ir, Eq(x, x), run):
            bad.append(f"-- i_r fails x=x on {x}")
    for n in range(7):
        if not _realized(ir, Eq(Nat(n), Nat(n)), run):
            bad.append(f"realizer i_r = i_r\ncheck (i_r, i_r) eq(nat {n}, nat {n}) expect realized")
    rep.add("reflexivity", bad, f"{rounds} random finite names (rank <= 3) and naturals <= 6")

    _, i_s_t, i_t_t, i_0_t, i_1_t = eq_realizers()
    i_s, i_t, i_0, i_1 = (value_of(t) for t in (i_s_t, i_t_t, i_0_t, i_1_t))
    bad = []
    with rep.guard("transport-laws"):
        for n in range(5):
            wit = synthesize(Eq(Nat(n), Nat(n)), run)
            if not _realized(apply(i_s, wit.a, run), Eq(Nat(n), Nat(n)), run):
                bad.append(f"-- i_s fails on nat {n}")
            chained = apply(i_t, pair_value(wit.a, wit.a, run), run)
            if not _realized(chained, Eq(Nat(n), Nat(n)), run):
                bad.append(f"-- i_t fails on nat {n}")
        for n, m in ((1, 4), (2, 5)):
            eqw = synthesize(Eq(Nat(n), Nat(n)), run)
            memw = synthesize(Mem(Nat(n), Nat(m)), run)
            for label, i_x in (("i_0", i_0), ("i_1", i_1)):
                moved = apply(i_x, pair_value(eqw.a, memw.a, run), run)
                if not _realized(moved, Mem(Nat(n), Nat(m)), run):
                    bad.append(f"-- {label} fails on {n} in {m}")
        rep.add("transport-laws", bad, "i_s, i_t, i_0, i_1 on synthesized numeral realizers")

    bad = []
    for n in range(5):
        for m in range(5):
            if n == m:
                continue
            ver = check(RealizerPair.both(ir), Eq(Nat(n), Nat(m)), run)
            if ver.status is not Status.REFUTED:
                bad.append(f"realizer i_r = i_r\ncheck (i_r, i_r) eq(nat {n}, nat {m}) expect refuted")
    rep.add("numeral-absoluteness", bad, "n != m <= 4 refuted")
    return rep


# --- suite: czf-axioms ------------------------------------------------------


def _witness_status(e: Value, hyp: Formula, concl: Formula, w: Value, run: Run) -> Status:
    """How e fares on hyp -> concl when the hypothesis is realized by w alone."""
    return check_imp_on_witnesses(RealizerPair.both(e), hyp, concl, [RealizerPair.both(w)], run).status


def infinity_e0_cases(e0: Value, max_n: int, run: Run) -> list[tuple[str, Status]]:
    ir = i_r_value()
    out = []
    for n in range(max_n + 1):
        w = pair_value(num_value(n), ir, run)
        out.append((f"e0 n={n}", _witness_status(e0, Mem(Nat(n), OMEGA), theta(Nat(n), OMEGA), w, run)))
    return out


def infinity_e1_cases(e1: Value, run: Run) -> list[tuple[str, Status]]:
    ir = i_r_value()
    # zero case
    w0 = pair_value(num_value(0), Value(K), run)
    out = [("e1 zero-case", _witness_status(e1, theta(Nat(0), OMEGA), Mem(Nat(0), OMEGA), w0, run))]
    # successor case, y = nat 3 = 2' u {2'}
    m = 2
    disp = compile_term(
        lam("c", app(D, Var("c"), num(m), p_(num(1), Opaque("ir", ir)),
                     p_(num(0), p_(Var("c"), Opaque("ir", ir)))))
    )
    r10 = value_of(disp, run)
    r110 = value_of(compile_term(lam("c", p_(Var("c"), Opaque("ir", ir)))), run)
    r111 = pair_value(num_value(m), ir, run)
    r = pair_value(r10, pair_value(r110, r111, run), run)
    w1 = pair_value(num_value(1), pair_value(num_value(m), r, run), run)
    y = Nat(m + 1)
    out.append(("e1 successor-case", _witness_status(e1, theta(y, OMEGA), Mem(y, OMEGA), w1, run)))
    return out


def skewed_numeral_name(n: int, stride: int = 2, offset: int = 7) -> Explicit:
    """Extensionally the n-th numeral name, but keyed off the diagonal, so
    the two directions of an equality realizer cannot be interchanged."""
    return Explicit(
        tuple(
            (num_value(offset + stride * m), num_value(offset + stride * m), Nat(m))
            for m in range(n)
        )
    )


def infinity_skewed_cases(e0: Value, e1: Value, run: Run) -> list[tuple[str, Status]]:
    """Forward and backward checks against a skew-keyed copy of the third
    numeral name; these instances see both projections of every equality
    realizer separately."""
    ir = i_r_value()
    n = 3
    y = skewed_numeral_name(n)
    ykey = {m: 7 + 2 * m for m in range(n)}

    # a_1 realizes y = nat-n with distinct key maps per direction.
    left = [(ykey[m], pair_value(num_value(m), ir, run)) for m in range(n)]
    right = [(m, pair_value(num_value(ykey[m]), ir, run)) for m in range(n)]
    r_eq = value_of(
        compile_term(lam("c", p_(_dispatch_term(left), _dispatch_term(right)))), run
    )
    w = pair_value(num_value(n), r_eq, run)
    out = [("e0 skewed-keys", _witness_status(e0, Mem(y, OMEGA), theta(y, OMEGA), w, run))]

    # Backward: realize theta(y) through the successor branch with m = 2.
    m = n - 1
    rr0 = _dispatch_value([
        (ykey[k], pair_value(num_value(0), pair_value(num_value(k), ir, run), run))
        for k in range(m)
    ] + [(ykey[m], pair_value(num_value(1), ir, run))], run)
    rr10 = _dispatch_value([(k, pair_value(num_value(ykey[k]), ir, run)) for k in range(m)], run)
    rr11 = pair_value(num_value(ykey[m]), ir, run)
    rr = pair_value(rr0, pair_value(rr10, rr11, run), run)
    w1 = pair_value(num_value(1), pair_value(num_value(m), rr, run), run)
    out.append(("e1 skewed-keys", _witness_status(e1, theta(y, OMEGA), Mem(y, OMEGA), w1, run)))
    return out


def suite_czf_axioms(run: Run) -> SuiteReport:
    rep = SuiteReport("czf-axioms", run.seed)
    ir = i_r_value()

    # Pairing
    with rep.guard("pairing"):
        z = pairing_name(Nat(1), Nat(2))
        e = value_of(pairing_term(), run)
        st = check(RealizerPair.both(e), And(Mem(Nat(1), z), Mem(Nat(2), z)), run).status
        rep.cases.append(CaseResult("pairing", st is Status.REALIZED, str(st)))

    # Union
    with rep.guard("union"):
        x = Explicit(((num_value(0), num_value(0), Sing(Nat(1))),))
        y = union_name(x, run)
        e = value_of(union_term(), run)
        st = check(RealizerPair.both(e), AllIn("u", x, AllIn("v", "u", Mem("v", y))), run).status
        rep.cases.append(CaseResult("union", st is Status.REALIZED, str(st)))

    # Extensionality on two extensionally equal names
    with rep.guard("extensionality"):
        x1 = Explicit(((num_value(0), num_value(0), Nat(1)),))
        y1 = Sing(Nat(1))
        e = value_of(extensionality_term(), run)
        idv = value_of(SKK, run)
        ok = _realized(apply(e, pair_value(idv, idv, run), run), Eq(x1, y1), run)
        rep.cases.append(CaseResult("extensionality", ok, "witness-directed"))

    # Infinity, both directions, plus skew-keyed instances
    with rep.guard("infinity"):
        e0t, e1t = infinity_terms()
        e0, e1 = value_of(e0t, run), value_of(e1t, run)
        cases = (
            infinity_e0_cases(e0, 4, run)
            + infinity_e1_cases(e1, run)
            + infinity_skewed_cases(e0, e1, run)
        )
        for name, st in cases:
            rep.cases.append(CaseResult(f"infinity {name}", st is Status.REALIZED, str(st)))

    # Set induction: defining equation and a rank-2 instance
    with rep.guard("set-induction"):
        ev = value_of(set_induction_term(), run)
        ok = True
        for ident in ("a1", "a2"):
            a = Value(Opaque(ident))
            lhs = App(Opaque("e", ev), Opaque("a", a))
            rhs = App(Opaque("a", a), compile_term(lam("z", App(Opaque("e", ev), Opaque("a", a)))))
            ok &= kleene_agree(lhs, rhs, run) is True
        rep.cases.append(CaseResult("set-induction equation", ok, "e a = a (\\z. e a)"))
        hypo = value_of(compile_term(lam("c", Opaque("ir", ir))), run)
        ok = _realized(apply(ev, hypo, run), Eq(Nat(2), Nat(2)), run)
        rep.cases.append(CaseResult("set-induction instance", ok, "rank-2 witness-directed"))

    # Bounded separation on nat-4 with phi(u) := u in nat 2
    with rep.guard("separation"):
        x4 = Explicit(tuple((num_value(k), num_value(k), Nat(k)) for k in range(4)))
        ysep = separation_name(x4, lambda u: Mem(u, Nat(2)), run)
        e0s, e1s = (value_of(t, run) for t in bounded_separation_terms())
        st = check(RealizerPair.both(e0s), AllIn("u", ysep, And(Mem("u", x4), Mem("u", Nat(2)))), run).status
        rep.cases.append(CaseResult("separation forward", st is Status.REALIZED, str(st)))
        ok = True
        for n in range(2):
            e1u = defined(apply(e1s, num_value(n), run))
            wit = synthesize(Mem(Nat(n), Nat(2)), run)
            ok &= _realized(apply(e1u, wit.a, run), Mem(Nat(n), ysep), run)
        rep.cases.append(CaseResult("separation backward", ok, "per-member witness-directed"))

    # Strong collection on one finite instance
    with rep.guard("strong-collection"):
        xc = Explicit(((num_value(0), num_value(0), Nat(1)),))
        acoll = value_of(compile_term(lam("c", Opaque("ir", ir))), run)
        yc = collection_name(xc, lambda tr: tr[2], run)
        e = value_of(strong_collection_term(), run)
        phi = And(AllIn("u", xc, ExIn("v", yc, Eq("u", "v"))),
                  AllIn("v", yc, ExIn("u", xc, Eq("u", "v"))))
        ok = _realized(apply(e, acoll, run), phi, run)
        rep.cases.append(CaseResult("strong-collection", ok, "one finite instance"))

    # Subset collection and powerset terms: closed and defined
    for name, build in (("subset-collection", subset_collection_term), ("powerset", powerset_term)):
        ok = isinstance(evaluate(build(), run), Value)
        rep.cases.append(CaseResult(f"{name} term defined", ok, ""))
    return rep


# --- suite: pairing-internal -------------------------------------------------


def suite_pairing_internal(run: Run) -> SuiteReport:
    rng = random.Random(run.seed)
    rep = SuiteReport("pairing-internal", run.seed)
    with rep.guard("pairing realizers"):
        u0t, u1t, vt, wt, zt = pairing_realizers()
        u0, u1, v, w, z = (value_of(t, run) for t in (u0t, u1t, vt, wt, zt))

        bad = []
        for _ in range(8):
            x = random_finite_name(rng, rng.randint(0, 2))
            y = random_finite_name(rng, rng.randint(0, 2))
            if not _realized(u0, unordered_pair(x, x, Sing(x)), run):
                bad.append(f"-- u0 on {x}")
            if not _realized(u1, unordered_pair(x, y, UPair(x, y)), run):
                bad.append(f"-- u1 on {x}, {y}")
            if not _realized(v, ordered_pair(x, y, OPair(x, y)), run):
                bad.append(f"-- v on {x}, {y}")
        rep.add("u0-u1-v", bad, "rank <= 2 names")

        # w round-trip: i_r realizes OPair(1,2)=OPair(1,2); w extracts both equalities.
        ir = i_r_value()
        ok = _realized(apply(w, ir, run), And(Eq(Nat(1), Nat(1)), Eq(Nat(2), Nat(2))), run)
        rep.cases.append(CaseResult("w-round-trip", ok, "injectivity on a synthesized pair-equality"))

        # z round-trip: from v itself conclude OPair(1,2) = OPair(1,2).
        ok = _realized(apply(z, v, run), Eq(OPair(Nat(1), Nat(2)), OPair(Nat(1), Nat(2))), run)
        rep.cases.append(CaseResult("z-round-trip", ok, "canonicity from the OP realizer"))
    return rep


# --- suite: heo --------------------------------------------------------------


def suite_heo(run: Run) -> SuiteReport:
    rep = SuiteReport("heo", run.seed)
    oo = Arrow(TYPE_O, TYPE_O)

    with rep.guard("base-type-decides"):
        ok = True
        for n in range(8):
            for m in range(8):
                want = Tri.of(n == m)
                if eq_type(num_value(n), num_value(m), TYPE_O, run).result is not want:
                    ok = False
        k5 = defined(apply(Value(K), num_value(5), run))
        ok &= eq_type(k5, num_value(5), TYPE_O, run).result is Tri.FALSE
        rep.cases.append(CaseResult("base-type-decides", ok, "numerals compared exactly"))

    with rep.guard("successor functions"):
        succ = value_of(SUCC, run)
        pred = value_of(PRED, run)
        r1 = eq_type(succ, pred, oo, run)
        rep.cases.append(CaseResult("succ-vs-pred", r1.result is Tri.FALSE,
                                    f"counterexample {r1.counterexample}"))
        eta = value_of(compile_term(lam("x", App(SUCC, Var("x")))), run)
        r2 = eq_type(succ, eta, oo, run)
        ok = r2.result is Tri.UNKNOWN and r2.samples_passed == r2.samples_total
        rep.cases.append(CaseResult("succ-vs-eta", ok, f"{r2.samples_passed}/{r2.samples_total} samples pass"))

        ok = internalize(num_value(3), TYPE_O) == Nat(3)
        rep.cases.append(CaseResult("internalize-base", ok, "int #3 : o = nat 3"))

        const_k = defined(apply(Value(K), num_value(2), run))
        const_d = value_of(compile_term(lam("x", app(D, Var("x"), Var("x"), num(2), num(2)))), run)
        small = replace(run, max_index=5)
        ts1, _ = enumerate_triples(internalize(const_k, oo), small)
        ts2, _ = enumerate_triples(internalize(const_d, oo), small)
        members1 = [z for _, _, z in ts1]
        members2 = [z for _, _, z in ts2]
        rep.cases.append(CaseResult("const-fn-triples", members1 == members2,
                                    "two constant-2 functions agree on indices <= 5"))

        gens = gen_elems(Arrow(oo, TYPE_O), run)
        ok = all(isinstance(apply(g, succ, run), Value) for g in gens)
        rep.cases.append(CaseResult("higher-generators", ok, "(o)o -> o generators apply to SUCC"))

    # Sampled partial-equivalence behaviour on generator pairs.
    ok = True
    few = replace(run, max_index=3, generators_per_type=3)
    for sigma in (TYPE_O, oo):
        for a in gen_elems(sigma, few):
            if eq_type(a, a, sigma, few).result is Tri.FALSE:
                ok = False
    rep.cases.append(CaseResult("generators-self-related", ok, "v =_sigma v never refuted"))
    return rep


# --- suite: choice-arrow ------------------------------------------------------


def _op_of_naturals(z: VName) -> Formula:
    """z is the ordered pair of two naturals."""
    return ExIn("x", OMEGA, ExIn("y", OMEGA, ordered_pair("x", "y", z)))


def _triple_failures(ts: list[Triple], realizer: Callable[[Value], Value | Crash | Open],
                     formula: Callable[[VName], Formula], what: str, run: Run) -> list[str]:
    """A note for each triple ⟨c, d, z⟩ of ``ts`` where ``realizer(c)``, the
    outcome of machine operations on ``c``, does not realize ``formula(z)``."""
    return [f"-- {what} fails at c={c.numeral}" for c, _, z in ts
            if not _realized(realizer(c), formula(z), run)]


def _then(out: Value | Crash | Open,
          step: Callable[[Value], Value | Crash | Open]) -> Value | Crash | Open:
    """``step(out)`` when ``out`` is a value, else ``out``: a chain of
    operations ends in its first failure, which fails the case that runs
    the chain instead of skipping its ``guard`` block."""
    return step(out) if isinstance(out, Value) else out


def _part(v: Value, path: str, run: Run) -> Value:
    """The component of the nested pair ``v`` at ``path``, one projection
    index per character (``"10"`` is the first of the second); NoValue when
    a projection has none."""
    for i in path:
        v = defined(project(v, int(i), run))
    return v


def suite_choice_arrow(run: Run) -> SuiteReport:
    rep = SuiteReport("choice-arrow", run.seed)
    ir = i_r_value()
    small = replace(run, max_index=min(3, run.max_index))

    with rep.guard("choice-arrow values"):
        a = value_of(compile_term(lam("c", p_(Var("c"), Opaque("ir", ir)))), run)
        f = Graph(a, TYPE_O, TYPE_O)
        ts, _ = enumerate_triples(f, small)
        ok = all(
            z == OPair(Nat(c.numeral), Nat(c.numeral)) and c == d
            for c, d, z in ts
        )
        rep.cases.append(CaseResult("graph-triples", ok, "graph of \\c. p c i_r at c <= 3"))

        e = value_of(choice_term(), run)
        ea = defined(apply(e, a, run))
        ea0, ea10, ea11 = (_part(ea, path, run) for path in ("0", "10", "11"))

        bad = _triple_failures(ts, lambda c: apply(ea0, c, run), _op_of_naturals, "clause 3", small)
        rep.add("choice-clause-3", bad, "all sampled triples")

        bad = []
        for n in range(small.max_index + 1):
            phi = ExIn("y", OMEGA, ExIn("z", f, And(ordered_pair(Nat(n), "y", "z"), Eq("y", Nat(n)))))
            if not _realized(apply(ea10, num_value(n), run), phi, small):
                bad.append(f"-- clause 4 fails at key {n}")
        rep.add("choice-clause-4", bad, "all sampled keys")

        u0t, u1t, vt, wt, zt = pairing_realizers()
        vv = value_of(vt, run)
        gpair = pair_value(vv, vv, run)
        two = num_value(2)
        out = _then(apply(ea11, two, run), lambda g: apply(g, two, run))
        out = _then(out, lambda g: apply(g, gpair, run))
        ok = _realized(out, Eq(Nat(2), Nat(2)), small)
        rep.cases.append(CaseResult("choice-clause-5", ok, "c0 = c1 = #2 with the OP realizer pair"))

        # Arrow types at (o, o)
        oo = Arrow(TYPE_O, TYPE_O)
        arrow = value_of(arrow_term(), run)
        e0, e1 = _part(arrow, "0", run), _part(arrow, "1", run)
        succ = value_of(SUCC, run)
        e00 = _part(defined(apply(e0, succ, run)), "0", run)
        r2 = defined(apply(e00, num_value(2), run))
        ok = _part(r2, "0", run).numeral == 2 and _part(r2, "10", run).numeral == 3
        rep.cases.append(CaseResult("arrow-direct-eval", ok, "(e0 SUCC)_0 #2 projects to #2 and SUCC #2"))

        ts, _ = enumerate_triples(Internal(succ, oo), small)
        bad = _triple_failures(ts, lambda c: apply(e00, c, run), _op_of_naturals, "arrow clause 1",
                               small)
        rep.add("arrow-clause-1", bad, "a = SUCC, sampled triples")

        part = value_of(compile_term(lam("c", p_(Var("c"), p_(Var("c"), Opaque("v", vv))))), run)
        uniq = value_of(_pairs_uniqueness_part(), run)
        a_arrow = pair_value(part, pair_value(part, uniq, run), run)
        e1a = defined(apply(e1, a_arrow, run))
        e1a0, e1a1 = _part(e1a, "0", run), _part(e1a, "1", run)
        ok = all(defined(apply(e1a0, num_value(n), run)).numeral == n for n in (0, 1))
        rep.cases.append(CaseResult("arrow-e1-identity", ok, "(e1 a)_0 is the identity on #0, #1"))

        gval = value_of(compile_term(lam("c", proj(App(Opaque("a10", part), Var("c")), "0"))), run)
        gname = Internal(gval, oo)
        for what, side, xs, ys, of in (("subset", 0, f, gname, "the graph name"),
                                       ("superset", 1, gname, f, "the internalization")):
            ts, _ = enumerate_triples(xs, small)
            bad = _triple_failures(ts, lambda c: _then(apply(e1a1, c, run), lambda r: project(r, side, run)),
                                   lambda z: Mem(z, ys), what, small)
            rep.add(f"arrow-{what}", bad, f"sampled triples of {of}")
    return rep


# --- suite: truth-oracle ------------------------------------------------------


# Connectives a generated formula may nest.  Each connective draws both
# operands (Not then drops one) and keeps qdepth on the left, so without a
# bound the generator is a critical branching process that now and then
# recurses past the interpreter's limit.  The default corpus (seed 0) nests
# at most 28 deep, so the bound leaves it unchanged.
FRAGMENT_NESTING = 32


def random_fragment_formula(rng: random.Random, qdepth: int, vars_in_scope: tuple[str, ...] = (),
                            nesting: int = FRAGMENT_NESTING) -> Formula:
    def ref():
        if vars_in_scope and rng.random() < 0.5:
            return rng.choice(vars_in_scope)
        return Nat(rng.randint(0, 5))

    roll = rng.random()
    if qdepth > 0 and roll < 0.35:
        var = f"v{len(vars_in_scope)}"
        body = random_fragment_formula(rng, qdepth - 1, vars_in_scope + (var,), nesting)
        if rng.random() < 0.5:
            return AllIn(var, Nat(rng.randint(0, 5)), body)
        bound = OMEGA if rng.random() < 0.3 else Nat(rng.randint(0, 5))
        return ExIn(var, bound, body)
    if roll < 0.5 and nesting > 0:
        kind = rng.randrange(4)
        l = random_fragment_formula(rng, qdepth, vars_in_scope, nesting - 1)
        r = random_fragment_formula(rng, max(0, qdepth - 1), vars_in_scope, nesting - 1)
        if kind == 0:
            return And(l, r)
        if kind == 1:
            return Or(l, r)
        if kind == 2:
            return Imp(l, r)
        return Not(l)
    if rng.random() < 0.5:
        y = OMEGA if rng.random() < 0.25 else Nat(rng.randint(0, 5))
        return Mem(ref(), y)
    return Eq(ref(), ref())


def suite_truth_oracle(run: Run, rounds: int = 50) -> SuiteReport:
    rng = random.Random(run.seed)
    rep = SuiteReport("truth-oracle", run.seed)
    bad = []
    with rep.guard("round-trip"):
        for i in range(rounds):
            phi = random_fragment_formula(rng, 2)
            want = truth_eval(phi)
            wit = synthesize(phi, run)
            got = wit is not None and check(wit, phi, run).status is Status.REALIZED
            if want != got:
                bad.append(f"-- mismatch on {fmt(phi)}: truth={want} realizer-loop={got}")
        rep.add("round-trip", bad, f"{rounds} sentences")
    return rep


# --- registry ----------------------------------------------------------------

SUITES = {
    "pca-laws": suite_pca_laws,
    "abstraction": suite_abstraction,
    "fixpoints": suite_fixpoints,
    "equality": suite_equality,
    "czf-axioms": suite_czf_axioms,
    "pairing-internal": suite_pairing_internal,
    "heo": suite_heo,
    "choice-arrow": suite_choice_arrow,
    "truth-oracle": suite_truth_oracle,
}


def run_suite(name: str, run: Run = Run()) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    return SUITES[name](run)
