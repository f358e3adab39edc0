"""The realizer library: the fixed-point and recursion combinators, closed
terms for the equality laws, the set axioms, internal pairing, choice and
arrow types, plus synthesis of realizers for true bounded-arithmetic
sentences.

Terms are transcribed from their defining equations; where only the shape of
a construction is fixed (the transitivity pair, the ordered-pair laws), the
term is reconstructed from the clause structure and validated behaviourally
by the checker.  Definition-by-cases branches that may crash in the branch
not taken are guarded by a dummy binder, since this machine evaluates
arguments by value.
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import Callable

from .bracket import Lam, compile_term, lam
from .checker import FragmentError, RealizerPair, in_fragment, truth_eval, witness_range
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
    substitute,
)
from .kernel import apply, defined, pair_value, value_of
from .names import Explicit, Nat, Omega, Triple, VName, enumerate_triples
from .terms import (
    App,
    Const,
    ConstKind,
    D,
    K,
    Num,
    Opaque,
    P,
    P0,
    P1,
    PRED,
    Run,
    SUCC,
    Term,
    Value,
    Var,
    app,
    num,
    num_value,
)

_fresh_counter = itertools.count()


def _fresh(prefix: str = "_t") -> str:
    return f"{prefix}{next(_fresh_counter)}"


def p_(x: Term, y: Term) -> Term:
    return app(P, x, y)


def proj(t: Term, idx: str) -> Term:
    """proj(t, "01") is p1(p0 t): subscripts read left to right, innermost first."""
    for ch in idx:
        t = App(P0 if ch == "0" else P1, t)
    return t


_FORCE = Opaque("force")


def ifeq(sel_a: Term, sel_b: Term, then_t: Term, else_t: Term) -> Term:
    """Definition by cases with both branches frozen under a dummy binder."""
    return app(
        D,
        sel_a,
        sel_b,
        Lam(_fresh(), then_t),
        Lam(_fresh(), else_t),
        _FORCE,
    )


# ---------------------------------------------------------------------------
# Fixed points and primitive recursion; each law holds on the nose in this
# machine.


@cache
def fixpoint() -> Term:
    """The fixed-point combinator f := \\a. c c with c := \\d b. a (d d) b:
    f a ↓ and f a b ≃ a (f a) b."""
    c = lam("d", "b", app(Var("a"), App(Var("d"), Var("d")), Var("b")))
    return compile_term(lam("a", App(c, c)))


@cache
def double_fixpoint() -> tuple[Term, Term]:
    """Mutual fixed points g, h: g a b ↓, h a b ↓, g a b c ≃ a (h a b) c and
    h a b c ≃ b (g a b) c.

    g := \\a b. f t(a,b), where t(a,b) := \\x c. a (\\z. b x z) c (the
    inner binder delays unfolding).  For h, the inner function
    \\c. b (f t(a,b)) c is produced by applying \\x c. b x c to the
    *evaluated* fixed point, so that the element a receives in
    g a b c ≃ a (h a b) c  is identical to h a b; binding c over the
    unevaluated splice would denote a different element.
    """
    t_ab = lam("x", "c", app(Var("a"), lam("z", app(Var("b"), Var("x"), Var("z"))), Var("c")))
    g = compile_term(lam("a", "b", App(fixpoint(), t_ab)))
    eta = lam("x", "c", app(Var("b"), Var("x"), Var("c")))
    h = compile_term(lam("a", "b", App(eta, App(fixpoint(), t_ab))))
    return g, h


@cache
def primrec() -> Term:
    """The recursor r, from the fixed point, D and PRED: r a b #0 ≃ a and
    r a b #(n+1) ≃ b (r a b #n) #n.

    Both branches of the definition-by-cases sit under a dummy binder so the
    recursive unfolding is only evaluated when the selector says so.
    """
    w, a, b, n = Var("w"), Var("a"), Var("b"), Var("n")
    step = lam("_z", app(b, app(w, a, b, App(PRED, n)), App(PRED, n)))
    body = app(D, n, Num(0), lam("_z", a), step, Num(0))
    return App(fixpoint(), compile_term(lam("w", "a", "b", "n", body)))


# ---------------------------------------------------------------------------
# Equality realizers


@cache
def eq_realizers() -> tuple[Term, Term, Term, Term, Term]:
    """Closed terms (i_r, i_s, i_t, i_0, i_1) realizing reflexivity, symmetry,
    transitivity, and replacement on both sides of membership."""
    f = fixpoint()
    a, c, u = Var("a"), Var("c"), Var("u")

    # i_r a = p (p a i_r) (p a i_r), solved through the fixed point.
    refl_body = lam("w", "a", p_(p_(a, Var("w")), p_(a, Var("w"))))
    i_r = App(f, compile_term(refl_body))

    # i_s a c = p (a c)_1 (a c)_0: interchange the two directions.
    i_s = compile_term(lam("a", "c", p_(proj(App(a, c), "1"), proj(App(a, c), "0"))))

    # Transitivity and left replacement solve a mutual recursion:
    #   i_t a ≃ t i_0 a     i_0 a ≃ r i_t a
    # where, writing m for the membership realizer a transports,
    #   r u a   = p a_10 (u (p a_0 a_11))
    #   t u a c = p (u (p (a_0 c)_01 ((a_1 (a_0 c)_00)_0)))
    #               (u (p (a_1 c)_11 ((a_0 (a_1 c)_10)_1)))
    a0c = App(proj(a, "0"), c)
    a1c = App(proj(a, "1"), c)
    t_src = lam(
        "u",
        "a",
        "c",
        p_(
            App(u, p_(proj(a0c, "01"), proj(App(proj(a, "1"), proj(a0c, "00")), "0"))),
            App(u, p_(proj(a1c, "11"), proj(App(proj(a, "0"), proj(a1c, "10")), "1"))),
        ),
    )
    r_src = lam("u", "a", p_(proj(a, "10"), App(u, p_(proj(a, "0"), proj(a, "11")))))
    g, h = double_fixpoint()
    t_term = compile_term(t_src)
    r_term = compile_term(r_src)
    i_t = app(g, t_term, r_term)
    i_0 = app(h, t_term, r_term)

    # i_1 a = p (a_0 a_10)_00 (i_t (p a_11 ((a_0 a_10)_01)))
    chase = App(proj(a, "0"), proj(a, "10"))
    i_1 = compile_term(
        lam("a", p_(proj(chase, "00"), App(i_t, p_(proj(a, "11"), proj(chase, "01")))))
    )
    return i_r, i_s, i_t, i_0, i_1


@cache
def i_r_value() -> Value:
    return value_of(eq_realizers()[0])


# ---------------------------------------------------------------------------
# Realizer synthesis on the bounded-arithmetic fragment


def _dispatch_term(entries: list[tuple[int, Value]]) -> Term:
    """The body, in ``c``, of a function sending each numeral key to its
    realizer; the default is projected when key spaces overlap, so it is a pair."""
    body: Term = p_(num(0), num(0))
    c = Var("c")
    for k, r in reversed(entries):
        body = app(D, c, num(k), Opaque(f"r{k}", r), body)
    return body


def _dispatch_value(entries: list[tuple[int, Value]], run: Run) -> Value:
    return value_of(compile_term(lam("c", _dispatch_term(entries))), run)


def synthesize(phi: Formula, run: Run) -> RealizerPair | None:
    """A realizer pair for a true bounded-arithmetic sentence, None for a
    false one.  Raises FragmentError outside the fragment, and NoValue when
    the run's limits stop a pairing."""
    if not in_fragment(phi):
        raise FragmentError("synthesis only covers the bounded-arithmetic fragment")
    v = _synth(phi, run)
    return None if v is None else RealizerPair.both(v)


def _synth(phi: Formula, run: Run) -> Value | None:
    ir = i_r_value()
    match phi:
        case Eq(Nat(n), Nat(m)):
            return ir if n == m else None
        case Mem(Nat(n), Nat(m)):
            return pair_value(num_value(n), ir, run) if n < m else None
        case Mem(Nat(n), Omega()):
            return pair_value(num_value(n), ir, run)
        case And(l, r):
            vl = _synth(l, run)
            if vl is None:
                return None
            vr = _synth(r, run)
            if vr is None:
                return None
            return pair_value(vl, vr, run)
        case Or(l, r):
            vl = _synth(l, run)
            if vl is not None:
                return pair_value(num_value(0), vl, run)
            vr = _synth(r, run)
            if vr is not None:
                return pair_value(num_value(1), vr, run)
            return None
        case Not(b):
            # Any pair realizes a negation whose body has no realizer.
            return Value(K) if not truth_eval(b) else None
        case Imp(h, c):
            if not truth_eval(h):
                return Value(K)
            vc = _synth(c, run)
            if vc is None:
                return None
            return defined(apply(Value(K), vc, run))
        case AllIn(v, Nat(n), body):
            entries = []
            for k in range(n):
                sub = _synth(substitute(body, v, Nat(k)), run)
                if sub is None:
                    return None
                entries.append((k, sub))
            if not entries:
                return Value(K)
            return _dispatch_value(entries, run)
        case ExIn(v, bound, body):
            for k in witness_range(bound, body):
                sub = _synth(substitute(body, v, Nat(k)), run)
                if sub is not None:
                    return pair_value(num_value(k), sub, run)
            return None
    raise FragmentError(f"cannot synthesize for {phi!r}")


# ---------------------------------------------------------------------------
# Set-theoretic axiom realizers


@cache
def extensionality_term() -> Term:
    a, c = Var("a"), Var("c")
    ir = eq_realizers()[0]
    feed = p_(c, ir)
    return compile_term(
        lam("a", "c", p_(App(proj(a, "0"), feed), App(proj(a, "1"), feed)))
    )


@cache
def pairing_term() -> Term:
    ir = eq_realizers()[0]
    return p_(p_(num(0), ir), p_(num(0), ir))


def pairing_name(x: VName, y: VName) -> Explicit:
    zero = num_value(0)
    return Explicit(((zero, zero, x), (zero, zero, y)))


@cache
def union_term() -> Term:
    return compile_term(lam("a", "c", p_(Var("c"), eq_realizers()[0])))


def union_name(x: VName, run: Run) -> Explicit:
    """Flatten one level of a hereditarily finite name."""
    triples: list[Triple] = []
    outer, ok = enumerate_triples(x, run)
    if not ok:
        raise ValueError("union witness requires a finite name")
    for _, _, u in outer:
        inner, ok = enumerate_triples(u, run)
        if not ok:
            raise ValueError("union witness requires finite members")
        triples.extend(inner)
    return Explicit(tuple(triples))


@cache
def infinity_terms() -> tuple[Term, Term]:
    """The two implication realizers for the axiom of infinity.

    e0 sends a membership realizer for ω̇ to the zero-or-successor
    disjunction; e1 goes the other way.  The top-level case split is
    thunked: its untaken branch contains PRED of the scrutinized numeral,
    which is stuck at zero.
    """
    a = Var("a")
    a0 = proj(a, "0")
    a1 = proj(a, "1")

    a1c = App(a1, Var("c"))
    t10 = lam(
        "c",
        app(
            D,
            proj(a1c, "00"),
            App(PRED, a0),
            p_(num(1), proj(a1c, "01")),
            p_(num(0), proj(a1c, "0")),
        ),
    )
    t110 = lam("x", proj(App(a1, Var("x")), "1"))
    t111 = proj(App(a1, App(PRED, a0)), "1")
    t_of_a = p_(App(PRED, a0), p_(t10, p_(t110, t111)))
    e0 = compile_term(lam("a", ifeq(num(0), a0, p_(num(0), num(0)), p_(num(1), t_of_a))))

    a10 = proj(a, "10")
    a110c = App(proj(a, "110"), Var("c"))
    s_left = app(
        D,
        num(0),
        proj(a110c, "0"),
        proj(a110c, "1"),
        p_(a10, proj(a110c, "1")),
    )
    s_right = app(D, Var("c"), a10, proj(a, "1111"), App(proj(a, "1110"), Var("c")))
    s_of_a = lam("c", p_(s_left, s_right))
    e1 = compile_term(
        lam(
            "a",
            ifeq(num(0), a0, p_(a0, eq_realizers()[0]), p_(App(SUCC, a10), s_of_a)),
        )
    )
    return e0, e1


@cache
def set_induction_term() -> Term:
    # e := fix (\w a. a (\z. w a)): e a = a (\z. e a).
    f = fixpoint()
    body = lam("w", "a", App(Var("a"), lam("z", App(Var("w"), Var("a")))))
    return App(f, compile_term(body))


@cache
def bounded_separation_terms() -> tuple[Term, Term]:
    ir = eq_realizers()[0]
    e0 = compile_term(lam("f", p_(p_(proj(Var("f"), "0"), ir), proj(Var("f"), "1"))))
    e1 = compile_term(lam("a", "c", p_(p_(Var("a"), Var("c")), ir)))
    return e0, e1


def separation_name(x: VName, phi_of: Callable[[VName], Formula], run: Run) -> Explicit:
    """{⟨p a c, p b d, u⟩ : ⟨a,b,u⟩ ∈ x and (c,d) realizes φ(u)}, with one
    synthesized representative pair per member."""
    triples, ok = enumerate_triples(x, run)
    if not ok:
        raise ValueError("separation witness requires a finite name")
    out: list[Triple] = []
    for ka, kb, u in triples:
        wit = synthesize(phi_of(u), run)
        if wit is None:
            continue
        out.append((pair_value(ka, wit.a, run), pair_value(kb, wit.b, run), u))
    return Explicit(tuple(out))


@cache
def strong_collection_term() -> Term:
    inner = lam("c", p_(Var("c"), App(Var("a"), Var("c"))))
    return compile_term(lam("a", p_(inner, inner)))


def collection_name(x: VName, choose: Callable[[Triple], VName], run: Run) -> Explicit:
    """{⟨c, d, v⟩ : ⟨c,d,u⟩ ∈ x, v the chosen image of that triple}."""
    triples, ok = enumerate_triples(x, run)
    if not ok:
        raise ValueError("collection witness requires a finite name")
    return Explicit(tuple((c, d, choose((c, d, u))) for c, d, u in triples))


@cache
def subset_collection_term() -> Term:
    a, c, f = Var("a"), Var("c"), Var("f")
    part10 = lam("c", p_(p_(a, c), proj(App(a, c), "1")))
    part11 = lam("f", p_(proj(f, "1"), proj(App(proj(f, "0"), proj(f, "1")), "1")))
    return compile_term(lam("a", p_(num(0), p_(part10, part11))))


@cache
def powerset_term() -> Term:
    return compile_term(lam("a", p_(Var("a"), eq_realizers()[0])))


# ---------------------------------------------------------------------------
# Internal pairing: UP / OP realizers


@cache
def pairing_realizers() -> tuple[Term, Term, Term, Term, Term]:
    """(u0, u1, v, w, z):

    u0 realizes that x̌ is the unordered pair of x with itself, u1 that
    {x,y}̌ is the unordered pair of x and y, v that ⟨x,y⟩̌ is their ordered
    pair, w the injectivity implication, and z that any ordered pair equals
    the canonical one.  w and z are reconstructed by chasing the clause
    structure; their case dispatches are thunked because the unselected
    branch may apply a realizer outside the keys it is defined on.
    """
    ir, i_s, i_t, _, _ = eq_realizers()

    u0 = p_(p_(num(0), ir), p_(p_(num(0), ir), compile_term(lam("c", p_(num(0), ir)))))
    u1 = p_(
        p_(num(0), ir),
        p_(p_(num(1), ir), compile_term(lam("c", p_(Var("c"), ir)))),
    )
    v = p_(
        p_(num(0), u0),
        p_(
            p_(num(1), u1),
            compile_term(lam("c", p_(Var("c"), app(D, num(0), Var("c"), u0, u1)))),
        ),
    )

    # E mu: from mu realizing UP(x,x,q), an equality realizer for q = x̌.
    mu = Var("mu")
    E = compile_term(
        lam(
            "mu",
            "c",
            p_(p_(num(0), proj(App(proj(mu, "11"), Var("c")), "1")), proj(mu, "0")),
        )
    )
    # F mu: from mu realizing UP(x,y,q), an equality realizer for q = {x,y}̌.
    # Its canonical-side selector needs numeral keys, which the canonical
    # pair names always have.
    F = compile_term(
        lam(
            "mu",
            "c",
            p_(
                App(proj(mu, "11"), Var("c")),
                app(D, num(0), Var("c"), proj(mu, "0"), proj(mu, "10")),
            ),
        )
    )

    # w: from a realizer of ⟨x,y⟩̌ = ⟨u,v⟩̌, a realizer of x=u ∧ y=v.
    a = Var("a")
    a_at0 = App(a, num(0))  # relates the singleton slot
    a_at1 = App(a, num(1))  # relates the pair slot
    k_sel = proj(a_at0, "00")
    m_eq = proj(a_at0, "01")
    m0 = App(m_eq, num(0))
    x_eq_u = ifeq(
        k_sel,
        num(0),
        proj(m0, "01"),
        App(i_s, proj(m0, "11")),
    )
    kp_sel = proj(a_at1, "00")
    mp_eq = proj(a_at1, "01")
    mp1 = App(mp_eq, num(1))
    # Case k'=1: m' relates {x,y}̌ to {u,v}̌.
    kpp_sel = proj(mp1, "00")
    pi = proj(mp1, "01")
    j_sel = proj(mp1, "10")
    kappa = proj(mp1, "11")
    chain_yuv = App(
        i_t,
        p_(pi, App(i_t, p_(App(i_s, x_eq_u), App(i_s, kappa)))),
    )
    case_kp1 = ifeq(
        kpp_sel,
        num(1),
        pi,
        ifeq(j_sel, num(1), App(i_s, kappa), chain_yuv),
    )
    # Case k'=0: m' relates {x,y}̌ to ǔ; recover v through the other side.
    pi_prime = proj(mp1, "01")
    npp = proj(a_at1, "11")
    npp1 = App(npp, num(1))
    jppp_sel = proj(npp1, "00")
    pi_pp = proj(npp1, "01")
    chain_kp0 = App(
        i_t,
        p_(pi_prime, App(i_t, p_(App(i_s, x_eq_u), App(i_s, pi_pp)))),
    )
    case_kp0 = ifeq(jppp_sel, num(1), App(i_s, pi_pp), chain_kp0)
    y_eq_v = ifeq(kp_sel, num(1), case_kp1, case_kp0)
    w = compile_term(lam("a", p_(x_eq_u, y_eq_v)))

    # z: from a realizer of OP(x,y,q), a realizer of q = ⟨x,y⟩̌.
    a11c = App(proj(a, "11"), Var("c"))
    side1 = ifeq(
        proj(a11c, "0"),
        num(0),
        p_(num(0), App(E, proj(a11c, "1"))),
        p_(num(1), App(F, proj(a11c, "1"))),
    )
    side2 = ifeq(
        Var("c"),
        num(0),
        p_(proj(a, "00"), App(i_s, App(E, proj(a, "01")))),
        p_(proj(a, "100"), App(i_s, App(F, proj(a, "101")))),
    )
    z = compile_term(lam("a", "c", p_(side1, side2)))
    return u0, u1, v, w, z


# ---------------------------------------------------------------------------
# Choice and arrow types


@cache
def _op_eliminator() -> Term:
    """From a realizer of OP(x, y, ⟨c,e⟩̌), a realizer of c=x ∧ e=y."""
    _, _, _, w, z = pairing_realizers()
    return compile_term(lam("q", App(w, App(z, Var("q")))))


@cache
def _unique_image() -> Term:
    """i realizing z=y0 ∧ z=y1 → y0=y1, from symmetry and transitivity."""
    _, i_s, i_t, _, _ = eq_realizers()
    return compile_term(
        lam("q", App(i_t, p_(App(i_s, proj(Var("q"), "0")), proj(Var("q"), "1"))))
    )


@cache
def _pairs_uniqueness_part() -> Term:
    """λ c0 c1 g. i (p (wop g_0)_1 (wop g_1)_1): the shared third clause of the
    choice and arrow realizers."""
    wop = _op_eliminator()
    i = _unique_image()
    g = Var("g")
    return compile_term(
        lam(
            "c0",
            "c1",
            "g",
            App(
                i,
                p_(
                    proj(App(wop, proj(g, "0")), "1"),
                    proj(App(wop, proj(g, "1")), "1"),
                ),
            ),
        )
    )


@cache
def choice_term() -> Term:
    """The choice realizer; one term serves every pair of finite types."""
    _, _, v, _, _ = pairing_realizers()
    a, c = Var("a"), Var("c")
    ac = App(a, c)
    part0 = lam("c", p_(c, p_(proj(ac, "0"), v)))
    part10 = lam("c", p_(proj(ac, "0"), p_(c, p_(v, proj(ac, "1")))))
    part11 = _pairs_uniqueness_part()
    return compile_term(lam("a", p_(part0, p_(part10, part11))))


@cache
def arrow_term() -> Term:
    """The realizer of "the function-type name equals the set of functions";
    one term serves every pair of finite types."""
    _, i_s, _, _, _ = eq_realizers()
    _, _, v, _, z = pairing_realizers()
    a, c = Var("a"), Var("c")

    e0_part0 = lam("c", p_(c, p_(App(a, c), v)))
    e0_part10 = lam("x", p_(App(a, Var("x")), p_(Var("x"), v)))
    e0 = compile_term(lam("a", p_(e0_part0, p_(e0_part10, _pairs_uniqueness_part()))))

    a0c = App(proj(a, "0"), c)
    a10c = App(proj(a, "10"), c)
    e1_part0 = lam("c", proj(a10c, "0"))
    e1_part1 = lam(
        "c",
        p_(
            p_(proj(a0c, "0"), App(z, proj(a0c, "11"))),
            p_(proj(a10c, "10"), App(i_s, App(z, proj(a10c, "11")))),
        ),
    )
    e1 = compile_term(lam("a", p_(e1_part0, e1_part1)))
    return p_(e0, e1)


# ---------------------------------------------------------------------------
# Single-site mutations (tags and projections), used to guard the checks
# against vacuous passes.


def term_mutants(t: Term) -> list[tuple[str, Term]]:
    """Every term obtained by flipping one #0/#1 literal or one P0/P1."""
    sites: list[str] = []

    def walk(u: Term, path: str) -> None:
        match u:
            case Num(0) | Num(1):
                sites.append(path)
            case Const(ConstKind.P0) | Const(ConstKind.P1):
                sites.append(path)
            case App(fun, arg):
                walk(fun, path + "L")
                walk(arg, path + "R")
            case _:
                pass

    walk(t, "")

    def rebuild(u: Term, path: str, target: str) -> Term:
        if path == target:
            match u:
                case Num(0):
                    return Num(1)
                case Num(1):
                    return Num(0)
                case Const(ConstKind.P0):
                    return P1
                case Const(ConstKind.P1):
                    return P0
            raise AssertionError
        if isinstance(u, App):
            if target.startswith(path + "L"):
                return App(rebuild(u.fun, path + "L", target), u.arg)
            if target.startswith(path + "R"):
                return App(u.fun, rebuild(u.arg, path + "R", target))
        return u

    out = []
    for site in sites:
        out.append((site or "root", rebuild(t, "", site)))
    return out


# ---------------------------------------------------------------------------
# The library by id, for scenarios and the command-line front end: each id
# maps to the builder of its closed term.

LIBRARY: dict[str, Callable[[], Term]] = {
    "i_r": lambda: eq_realizers()[0],
    "i_s": lambda: eq_realizers()[1],
    "i_t": lambda: eq_realizers()[2],
    "i_0": lambda: eq_realizers()[3],
    "i_1": lambda: eq_realizers()[4],
    "fix": fixpoint,
    "fix2.g": lambda: double_fixpoint()[0],
    "fix2.h": lambda: double_fixpoint()[1],
    "primrec": primrec,
    "pair.u0": lambda: pairing_realizers()[0],
    "pair.u1": lambda: pairing_realizers()[1],
    "pair.v": lambda: pairing_realizers()[2],
    "pair.w": lambda: pairing_realizers()[3],
    "pair.z": lambda: pairing_realizers()[4],
    "choice.o.o": choice_term,
    "arrow.o.o": arrow_term,
    "ax.extensionality": extensionality_term,
    "ax.pairing": pairing_term,
    "ax.union": union_term,
    "ax.infinity": lambda: p_(*infinity_terms()),
    "ax.set-induction": set_induction_term,
    "ax.bounded-separation": lambda: p_(*bounded_separation_terms()),
    "ax.strong-collection": strong_collection_term,
    "ax.subset-collection": subset_collection_term,
    "ax.powerset": powerset_term,
}


def realizer_term(ident: str) -> Term:
    if ident not in LIBRARY:
        raise KeyError(f"unknown realizer id {ident!r}; known: {', '.join(sorted(LIBRARY))}")
    return LIBRARY[ident]()
