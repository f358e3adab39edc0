"""Bracket abstraction: lambda binders compiled to pure K/S terms.

The translation guarantees more than extensional correctness: every output
of ``abstract`` is *always defined* — substituting values for its free
variables yields a canonical value, no matter what those values are.  Under
call-by-value application this property is what keeps the fixed-point
combinators from spinning, so the usual ``K t when x not free in t``
shortcut is restricted to subterms that are themselves manifestly defined.

Cost: ``compile_term`` enters each node it meets or builds once in a
table local to the call, with its free variables (a bitmask) and its room.
The pass for a binder x descends only into nodes that hold x or are not
always defined, and wraps any other node whole, so each pass costs the nodes
it rebuilds, and a shared subterm (a DAG input, a spliced compiled term) is
walked once.  ``_room`` holds the arity rule of a leaf, ``_applied`` that of
an application; ``always_defined`` reads the same walk.
"""

from __future__ import annotations

from .terms import (
    App,
    Canonical,
    Const,
    ConstKind,
    DEFINED_ARITY,
    DELTA_ARITY,
    K,
    Opaque,
    S,
    Term,
    Var,
)


class Lam(Canonical):
    __slots__ = __match_args__ = ("var", "body")


LambdaTerm = Term | Lam

# The identity combinator S K K.
SKK = App(App(S, K), K)

# Marks a node on the stacks of the post-order walks below whose children
# are done; the node itself lies just beneath the marker.
_DONE = object()


def free_vars(t: LambdaTerm) -> frozenset[str]:
    """The free variables of t, by a post-order walk on an explicit stack."""
    todo: list = [t]
    done: list[frozenset[str]] = []
    while todo:
        t = todo.pop()
        if t is _DONE:
            t = todo.pop()
            if type(t) is Lam:
                done.append(done.pop() - {t.var})
            else:
                arg = done.pop()
                done.append(done.pop() | arg)
        elif type(t) is App:
            todo += (t, _DONE, t.arg, t.fun)
        elif type(t) is Lam:
            todo += (t, _DONE, t.body)
        else:
            done.append(frozenset((t.name,)) if type(t) is Var else frozenset())
    return done[0]


def _room(t: Term) -> float:
    """How many more arguments the leaf t takes while always defined."""
    match t:
        case Const(kind):  # one fewer than the arity at which it fires
            return (DELTA_ARITY.get(kind) or DEFINED_ARITY[kind]) - 1
        case Opaque(_, None):  # a bare opaque head is inert and absorbs anything
            return float("inf")
        case _:  # a numeral, variable or valued opaque: applied, ill-typed or unknown
            return 0


def _applied(fun_room: float, arg_room: float) -> float:
    """The room of an application (< 0: it is not always defined)."""
    return fun_room - 1 if fun_room > 0 and arg_room >= 0 else -1


# A table, local to one compilation, maps every node met or built to an entry
# (bitmask of its free variables, its room, its compilation).
_Entry = tuple[int, float, Term]


def _compiled(t: LambdaTerm, table: dict[LambdaTerm, _Entry], bits: dict[str, int]) -> _Entry:
    """The entry of t, after one post-order walk on an explicit stack that
    enters every node of t not yet in ``table``; ``bits`` numbers the
    variables.  A node whose parts compile to themselves is its own
    compilation, and a Lam compiles to the abstraction of its compiled body,
    innermost binders first."""
    todo: list = [t]
    done: list[_Entry] = []
    while todo:
        t = todo.pop()
        if t is _DONE:
            t = todo.pop()
            if type(t) is Lam:
                e = _abstract(t.var, done.pop()[2], table, bits)
            else:
                arg = done.pop()
                fun = done.pop()
                node = App(fun[2], arg[2])
                e = table[node] = (fun[0] | arg[0], _applied(fun[1], arg[1]), node)
            table[t] = e
            done.append(e)
        elif t in table:
            done.append(table[t])
        elif type(t) is App:
            todo += (t, _DONE, t.arg, t.fun)
        elif type(t) is Lam:
            todo += (t, _DONE, t.body)
        else:
            mask = bits.setdefault(t.name, 1 << len(bits)) if type(t) is Var else 0
            e = table[t] = (mask, _room(t), t)
            done.append(e)
    return done[0]


def _entered(table: dict[LambdaTerm, _Entry], mask: int, room: float, t: App) -> App:
    """t, entered in the table with its free-variable mask and room."""
    table[t] = (mask, room, t)
    return t


def _abstract(x: str, body: Term, table: dict[LambdaTerm, _Entry], bits: dict[str, int]) -> _Entry:
    """The entry of λ*x.body, for a Lam-free body whose nodes are all in
    the table.

    A post-order walk on an explicit stack (abstraction makes terms deeper
    than their source, so compiled terms outgrow the host recursion limit).
    It stops at every node without x that is always defined and yields None
    there, meaning ``K t``: the children of such a node are such nodes too,
    so a full descent would wrap it whole as well.  Each node built is
    always defined: ``K t`` and ``S f a`` take one more argument, ``S f``
    two.
    """
    xbit = bits.get(x, 0)
    todo: list = [body]
    done: list[tuple[int, Term | None]] = []  # (free-variable mask, λ*x.t)
    while todo:
        t = todo.pop()
        if t is _DONE:
            t = todo.pop()
            arg_mask, arg = done.pop()
            fun_mask, fun = done.pop()
            fun = _entered(table, fun_mask, 1, App(S, fun or _entered(table, fun_mask, 0, App(K, t.fun))))
            mask = fun_mask | arg_mask
            arg = arg or _entered(table, arg_mask, 0, App(K, t.arg))
            done.append((mask, _entered(table, mask, 0, App(fun, arg))))
        else:
            mask, room, _ = table[t]
            if room >= 0 and not mask & xbit:
                done.append((mask, None))  # closed in x and defined: wrapped whole
            elif type(t) is App:
                todo += (t, _DONE, t.arg, t.fun)
            else:  # every leaf is defined, so this one is x
                done.append((0, SKK))
    mask, out = done[0]
    return table[out or _entered(table, mask, 0, App(K, body))]


def _table() -> tuple[dict[LambdaTerm, _Entry], dict[str, int]]:
    """A fresh table and variable numbering, holding S, K and S K K, from
    which the abstraction passes build."""
    table: dict[LambdaTerm, _Entry] = {}
    bits: dict[str, int] = {}
    _compiled(SKK, table, bits)
    return table, bits


def always_defined(t: Term) -> bool:
    """True when every closing substitution of the Lam-free t denotes a
    value: atoms, and constant-headed spines below arity with
    always-defined arguments."""
    return _compiled(t, *_table())[1] >= 0


def abstract(x: str, t: Term) -> Term:
    """λ*x.t on a Lam-free term: built from K, S and the symbols of t."""
    table, bits = _table()
    return _abstract(x, _compiled(t, table, bits)[2], table, bits)[2]


def compile_term(t: LambdaTerm) -> Term:
    """Eliminate every Lam node, innermost binders first; a subterm without
    one comes back as itself."""
    return _compiled(t, *_table())[2]


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
