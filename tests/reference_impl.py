"""Independent reference oracles: realizability clauses, bracket abstraction.

``realizes`` is a direct boolean recursion over the defining clauses, valid
on hereditarily finite explicit names only.  It shares nothing with the
production checker beyond the reduction machine, whose raw ``apply_value``
(from ``extreal.kernel``) it uses for both operations, a projection being
the application of the value of ``P0`` or ``P1``: no kernel table, no
lookup indexing, no checker memo, no verdict calculus.  The machine's own
memo, kept in the table of the run ``cfg`` it is given, is included; that
it agrees with the memo-free machine below is tested on its own in
``test_machine.py``.  Crashing applications count as non-realization.

``abstract``/``compile_term`` are the original quadratic bracket
abstraction, which recomputes ``free_vars`` and ``always_defined`` at every
App node on its path; ``extreal.bracket`` must produce exactly these terms.

``oracle_run``/``oracle_eval_term``/``oracle_apply_value`` are the
reduction machine's plain loop with no memo and no interning: every
application is reduced, every value built afresh.  ``extreal.machine`` must
report exactly their outcomes: steps, values, errors and fuel notes.
"""

from __future__ import annotations

from extreal.bracket import EXPANSIONS, SKK, Lam, LambdaTerm
from extreal.formulas import AllIn, And, Eq, ExIn, Formula, Mem, Or, substitute
from extreal.kernel import apply_value, eval_term
from extreal.names import Explicit, VName
from extreal.terms import (
    App,
    Const,
    ConstKind,
    DEFINED_ARITY,
    DELTA_ARITY,
    Defined,
    Run,
    FuelExhausted,
    IllTypedApplication,
    K,
    MachineError,
    Num,
    Opaque,
    Outcome,
    P0,
    P1,
    S,
    StuckApplication,
    Term,
    UnboundVariable,
    Value,
    ValueSizeExceeded,
    Var,
)


class OracleFuelOut(RuntimeError):
    pass


# The values of P0 and P1: a projection applies one of them.
_PROJECTIONS = (eval_term(P0).value, eval_term(P1).value)


def _triples(x: VName):
    if isinstance(x, Explicit):
        return x.triples
    raise TypeError(f"reference oracle needs explicit names, got {x!r}")


def _proj(v: Value, i: int, cfg: Run) -> Value | None:
    return _app(_PROJECTIONS[i], v, cfg)


def _app(f: Value, a: Value, cfg: Run) -> Value | None:
    try:
        out = apply_value(f, a, cfg)
    except MachineError:
        return None
    if not isinstance(out, Defined):
        raise OracleFuelOut
    return out.value


def realizes(a: Value, b: Value, phi: Formula, cfg: Run = Run()) -> bool:
    match phi:
        case Mem(x, y):
            a0 = _proj(a, 0, cfg)
            b0 = _proj(b, 0, cfg)
            a1 = _proj(a, 1, cfg)
            b1 = _proj(b, 1, cfg)
            if None in (a0, b0, a1, b1):
                return False
            for ka, kb, z in _triples(y):
                if ka == a0 and kb == b0 and realizes(a1, b1, Eq(x, z), cfg):
                    return True
            return False
        case Eq(x, y):
            for src, dst, pi in ((x, y, 0), (y, x, 1)):
                for c, d, z in _triples(src):
                    ac = _app(a, c, cfg)
                    bd = _app(b, d, cfg)
                    if ac is None or bd is None:
                        return False
                    qa = _proj(ac, pi, cfg)
                    qb = _proj(bd, pi, cfg)
                    if qa is None or qb is None:
                        return False
                    if not realizes(qa, qb, Mem(z, dst), cfg):
                        return False
            return True
        case And(left, right):
            a0, b0 = _proj(a, 0, cfg), _proj(b, 0, cfg)
            a1, b1 = _proj(a, 1, cfg), _proj(b, 1, cfg)
            if None in (a0, b0, a1, b1):
                return False
            return realizes(a0, b0, left, cfg) and realizes(a1, b1, right, cfg)
        case Or(left, right):
            ta, tb = _proj(a, 0, cfg), _proj(b, 0, cfg)
            if ta is None or tb is None:
                return False
            if not (ta.is_numeral() and tb.is_numeral() and ta == tb and ta.numeral in (0, 1)):
                return False
            pa, pb = _proj(a, 1, cfg), _proj(b, 1, cfg)
            if pa is None or pb is None:
                return False
            side = left if ta.numeral == 0 else right
            return realizes(pa, pb, side, cfg)
        case AllIn(var, bound, body):
            for c, d, z in _triples(bound):
                ac = _app(a, c, cfg)
                bd = _app(b, d, cfg)
                if ac is None or bd is None:
                    return False
                if not realizes(ac, bd, substitute(body, var, z), cfg):
                    return False
            return True
        case ExIn(var, bound, body):
            a0, b0 = _proj(a, 0, cfg), _proj(b, 0, cfg)
            a1, b1 = _proj(a, 1, cfg), _proj(b, 1, cfg)
            if None in (a0, b0, a1, b1):
                return False
            for ka, kb, z in _triples(bound):
                if ka == a0 and kb == b0 and realizes(a1, b1, substitute(body, var, z), cfg):
                    return True
            return False
    raise TypeError(f"clause not covered by the reference oracle: {phi!r}")


def nat_explicit(n: int) -> Explicit:
    """The numeral name spelled out as explicit triples, for oracle use."""
    from extreal.terms import num_value

    return Explicit(
        tuple((num_value(m), num_value(m), nat_explicit(m)) for m in range(n))
    )


# --- bracket abstraction -----------------------------------------------------


def free_vars(t: LambdaTerm) -> frozenset[str]:
    match t:
        case Var(name):
            return frozenset((name,))
        case App(fun, arg):
            return free_vars(fun) | free_vars(arg)
        case Lam(var, body):
            return free_vars(body) - {var}
        case _:
            return frozenset()


def always_defined(t: Term) -> bool:
    head = t
    nargs = 0
    while isinstance(head, App):
        if not always_defined(head.arg):
            return False
        nargs += 1
        head = head.fun
    match head:
        case Const(kind):
            arity = DELTA_ARITY.get(kind) or DEFINED_ARITY[kind]
            return nargs < arity
        case Num():
            return nargs == 0
        case Var():
            return nargs == 0
        case Opaque(_, value):
            return nargs == 0 or value is None
        case _:
            return False


def abstract(x: str, t: Term) -> Term:
    match t:
        case Var(name) if name == x:
            return SKK
        case App(fun, arg) if x in free_vars(t) or not always_defined(t):
            return App(App(S, abstract(x, fun)), abstract(x, arg))
        case _:
            return App(K, t)


def compile_term(t: LambdaTerm) -> Term:
    match t:
        case Lam(var, body):
            return abstract(var, compile_term(body))
        case App(fun, arg):
            return App(compile_term(fun), compile_term(arg))
        case _:
            return t


# --- reduction machine ---------------------------------------------------------

_EVAL, _APPLY, _PUSH = 0, 1, 2
_consts: dict[ConstKind, Value] = {}


def _const(kind: ConstKind) -> Value:
    if kind not in _consts:
        if kind in DELTA_ARITY:
            _consts[kind] = Value(Const(kind))
        else:
            out = oracle_run([(_EVAL, EXPANSIONS[kind], None)], [], Run())
            assert isinstance(out, Defined)
            _consts[kind] = out.value
    return _consts[kind]


def oracle_run(ops: list, vstack: list, cfg: Run) -> Outcome:
    steps = 0
    while ops:
        op = ops.pop()
        if op[0] == _PUSH:
            vstack.append(op[1])
        elif op[0] == _EVAL:
            t, env = op[1], op[2]
            while isinstance(t, App):
                ops.append((_APPLY,))
                ops.append((_EVAL, t.arg, env))
                t = t.fun
            match t:
                case Const(kind):
                    vstack.append(_const(kind))
                case Num():
                    vstack.append(Value(t))
                case Var(name):
                    if env is None or name not in env:
                        raise UnboundVariable(name)
                    vstack.append(env[name])
                case Opaque(_, value):
                    vstack.append(value if value is not None else Value(t))
                case Value():
                    vstack.append(t)
                case _:
                    raise TypeError(f"not a term: {t!r}")
        else:
            steps += 1
            if steps > cfg.max_steps:
                return FuelExhausted(
                    steps - 1,
                    f"fuel exhausted: {len(ops)} pending operations, "
                    f"{len(vstack)} values on the stack",
                )
            a = vstack.pop()
            f = vstack.pop()
            if isinstance(f.head, Num):
                raise IllTypedApplication(f"numeral #{f.head.n} applied as a function")
            if isinstance(f.head, Opaque) or len(f.args) + 1 < DELTA_ARITY[f.head.kind]:
                if f.size + a.size > cfg.max_value_size:
                    raise ValueSizeExceeded(
                        f"value of {f.size + a.size} nodes exceeds the cap of {cfg.max_value_size}"
                    )
                vstack.append(Value(f.head, f.args + (a,)))
                continue
            args = f.args + (a,)
            match f.head.kind:
                case ConstKind.K:
                    vstack.append(args[0])
                case ConstKind.KBAR:
                    vstack.append(args[1])
                case ConstKind.S:
                    # (x z)(y z): x z is applied first.
                    x, y, z = args
                    ops += [(_APPLY,), (_APPLY,), (_PUSH, z), (_PUSH, y), (_APPLY,)]
                    vstack += [x, z]
                case ConstKind.SUCC | ConstKind.PRED as kind:
                    if not args[0].is_numeral():
                        raise StuckApplication(f"{kind.value} on a non-numeral")
                    n = args[0].numeral + (1 if kind is ConstKind.SUCC else -1)
                    if n < 0:
                        raise StuckApplication("PRED #0")
                    vstack.append(Value(Num(n)))
                case _:  # D
                    sel_a, sel_b = args[0], args[1]
                    if not (sel_a.is_numeral() and sel_b.is_numeral()):
                        raise StuckApplication("D selectors must be numerals")
                    vstack.append(args[2] if sel_a.numeral == sel_b.numeral else args[3])
    assert len(vstack) == 1
    return Defined(vstack.pop(), steps)


def oracle_eval_term(
    t: Term, env: dict[str, Value] | None = None, cfg: Run = Run()
) -> Outcome:
    return oracle_run([(_EVAL, t, env)], [], cfg)


def oracle_apply_value(f: Value, a: Value, cfg: Run = Run()) -> Outcome:
    return oracle_run([(_APPLY,)], [f, a], cfg)
