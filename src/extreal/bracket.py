"""Bracket abstraction: lambda binders compiled to pure K/S terms.

The translation guarantees more than extensional correctness: every output
of ``abstract`` is *always defined* — substituting values for its free
variables yields a canonical value, no matter what those values are.  Under
call-by-value application this property is what keeps the fixed-point
combinators from spinning, so the usual ``K t when x not free in t``
shortcut is restricted to subterms that are themselves manifestly defined.

Cost: ``abstract`` is one bottom-up pass per binder, linear in its input
term.  ``_room`` holds the arity rule; ``always_defined`` reads it too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import (
    App,
    Const,
    ConstKind,
    DEFINED_ARITY,
    DELTA_ARITY,
    K,
    Num,
    Opaque,
    S,
    Term,
    Var,
)


@dataclass(frozen=True, slots=True)
class Lam:
    var: str
    body: "LambdaTerm"


LambdaTerm = Term | Lam

# The identity combinator S K K.
SKK = App(App(S, K), K)


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


def _room(t: Term) -> float:
    """How many more arguments t takes while always defined (< 0: it is not)."""
    match t:
        case App(fun, arg):
            return _applied(_room(fun), _room(arg))
        case Const(kind):  # one fewer than the arity at which it fires
            return (DELTA_ARITY.get(kind) or DEFINED_ARITY[kind]) - 1
        case Opaque(_, None):  # a bare opaque head is inert and absorbs anything
            return float("inf")
        case Num() | Var() | Opaque():  # applied: ill-typed or unknown
            return 0
        case _:
            return -1


def _applied(fun_room: float, arg_room: float) -> float:
    return fun_room - 1 if fun_room > 0 and arg_room >= 0 else -1


def always_defined(t: Term) -> bool:
    """True when every closing substitution of t denotes a value: atoms, and
    constant-headed spines below arity with always-defined arguments."""
    return _room(t) >= 0


# Marks a node on the stacks of the post-order walks below whose children
# are done; the node itself lies just beneath the marker.
_DONE = object()


def _abstract(x: str, t: Term) -> tuple[Term | None, float]:
    """λ*x.t and the room of t; None means ``K t`` (x not free, t defined).

    A post-order walk on an explicit stack: abstraction makes terms deeper
    than their source, so compiled terms outgrow the host recursion limit.
    """
    todo: list = [t]
    done: list[tuple[Term | None, float]] = []
    while todo:
        t = todo.pop()
        if t is _DONE:
            t = todo.pop()
            arg, arg_room = done.pop()
            fun, fun_room = done.pop()
            room = _applied(fun_room, arg_room)
            if fun is None and arg is None and room >= 0:
                done.append((None, room))  # closed and defined: wrapped whole
            else:
                done.append((App(App(S, fun or App(K, t.fun)), arg or App(K, t.arg)), room))
        elif type(t) is App:
            todo += (t, _DONE, t.arg, t.fun)
        else:
            done.append(((SKK if type(t) is Var and t.name == x else None), _room(t)))
    return done[0]


def abstract(x: str, t: Term) -> Term:
    """λ*x.t on a Lam-free term: built from K, S and the symbols of t."""
    return _abstract(x, t)[0] or App(K, t)


def compile_term(t: LambdaTerm) -> Term:
    """Eliminate every Lam node, innermost binders first (a post-order walk
    on an explicit stack, like ``_abstract``)."""
    todo: list = [t]
    done: list[Term] = []
    while todo:
        t = todo.pop()
        if t is _DONE:
            t = todo.pop()
            if type(t) is Lam:
                done.append(abstract(t.var, done.pop()))
            else:
                arg = done.pop()
                done.append(App(done.pop(), arg))
        elif type(t) is App:
            todo += (t, _DONE, t.arg, t.fun)
        elif type(t) is Lam:
            todo += (t, _DONE, t.body)
        else:
            done.append(t)
    return done[0]


def lam(*parts: object) -> Lam:
    """lam("x", "y", body) builds nested binders around a term."""
    *names, body = parts
    t = body
    for name in reversed(names):
        t = Lam(name, t)  # type: ignore[arg-type]
    return t  # type: ignore[return-value]


# Expansions of the defined constants.  P is pairing, P0/P1 the (partial)
# projections; the aliases are exactly these compilations.
PAIR_TERM = compile_term(lam("x", "y", "z", App(App(Var("z"), Var("x")), Var("y"))))
PROJ0_TERM = compile_term(lam("x", App(Var("x"), K)))
PROJ1_TERM = compile_term(lam("x", App(Var("x"), Const(ConstKind.KBAR))))

EXPANSIONS = {
    ConstKind.P: PAIR_TERM,
    ConstKind.P0: PROJ0_TERM,
    ConstKind.P1: PROJ1_TERM,
}
