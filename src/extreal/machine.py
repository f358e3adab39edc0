"""Pure-Python reduction machine: fuel-bounded call-by-value evaluation.

The machine is iterative (explicit instruction and value stacks) so that a
divergent self-application burns fuel instead of the host stack.  Each firing
of the application operation costs one step; outcomes are deterministic and
monotone in fuel.

Application is a function of the two elements, and equal values are one
object: produced values are interned (a partial application ``f a`` is the
canonical object of ``f.extend(a)``), and a value from outside (an operand
of ``apply_value``, a ``Value`` or an ``Opaque``'s value in a term) is
shared first (``_share``).  So a whole reduction that repeats is answered
from ``terms._APPLY_MEMO``: a whole S-redex ``S x y a`` by the identities of
its operator and argument, and, since evaluation without an environment is a
function of the term, a closed application node by its identity.  A replay
still costs every step the reduction took, so steps, fuel notes and errors
are those of a machine without the memo:

- admission: always; an entry holds the objects whose ids key it (a redex's
  operator and argument, a term), so no id is reused while it exists;
- fuel fit: an entry of cost ``c`` found after ``n`` steps replays only when
  ``n + c`` is within the fuel; otherwise it is reduced again, and runs out
  of fuel exactly where it would have.  A redex is looked up once it has
  fired, so ``n`` counts the firing and ``c`` the steps after it.  The value
  size cap is fixed, so a reduction that completed once completes again.

A term is recorded on its third visit (by the seen filter below) when no
enclosing term is being recorded in the same run, so the inner nodes of a
term recorded whole do not fill the memo.  A term whose evaluation fails or
runs out of fuel is never recorded: the run ends first.

This module is the reference semantics.  A compiled twin with identical
behaviour, and no memo, may be selected at import time by
:mod:`extreal.kernel`.
"""

from __future__ import annotations

from .bracket import EXPANSIONS, Lam
from .terms import (
    App,
    Const,
    ConstKind,
    DEFAULT_FUEL,
    DELTA_ARITY,
    Defined,
    FuelConfig,
    FuelExhausted,
    IllTypedApplication,
    Num,
    Opaque,
    Outcome,
    StuckApplication,
    Term,
    Tri,
    UnboundVariable,
    Value,
    ValueSizeExceeded,
    Var,
    _APPLY_MEMO,
    _INTERN,
    intern_value,
    remember,
)

_OP_EVAL = 0
_OP_APPLY = 1
_OP_PUSH = 2
_OP_RECORD = 3

# Every pending application is the same instruction; one shared tuple.
_APPLY = (_OP_APPLY,)

_K = ConstKind.K
_KBAR = ConstKind.KBAR
_S = ConstKind.S
_D = ConstKind.D
_SUCC = ConstKind.SUCC
_PRED = ConstKind.PRED

# The value of each constant, interned: a delta constant is its own value, a
# defined one the value of its expansion.
_const_cache: dict[ConstKind, Value] = {}

# Firings of S-redexes and visits of closed application nodes, counted up to
# 2 per slot of their memo key modulo a prime.  A redex or term is recorded
# only once its slot has counted two, so one that never repeats costs no
# record, and few entries go to redexes that only ever fire inside a larger
# redex that is then replayed whole.  The filter is a hint: a collision only
# records early.
_SEEN_SLOTS = 65_521
_SEEN = bytearray(_SEEN_SLOTS)


def _const_value(kind: ConstKind) -> Value:
    v = _const_cache.get(kind)
    if v is None:
        if kind in DELTA_ARITY:
            v = Value(Const(kind))
        else:
            out = _run([(_OP_EVAL, EXPANSIONS[kind], None)], [], DEFAULT_FUEL)
            assert isinstance(out, Defined)
            v = out.value
        v = _const_cache[kind] = intern_value(v)
    return v


_MAX_SIZE = FuelConfig.max_value_size


def _accumulate(f: Value, a: Value) -> Value:
    """``f a`` below the head's arity: the interned extension of ``f``."""
    if f.size + a.size > _MAX_SIZE:
        raise ValueSizeExceeded(
            f"value of {f.size + a.size} nodes exceeds the cap of {_MAX_SIZE}"
        )
    return intern_value(f.extend(a))


def _share(v: Value) -> Value:
    """The interned object equal to ``v``, its arguments shared first.

    An interned ``v`` costs one probe of ``_INTERN``.  Otherwise the walk runs
    on an explicit stack and visits each distinct object once: a value is a
    DAG of up to ``_MAX_SIZE`` nodes.
    """
    hit = _INTERN.get(v)
    if hit is not None:
        return hit
    done: dict[int, Value] = {}
    stack = [(v, False)]
    while stack:
        x, ready = stack.pop()
        if id(x) in done:
            continue
        if ready:  # its arguments are shared
            args = tuple(done[id(a)] for a in x.args)
            same = all(s is a for s, a in zip(args, x.args))
            done[id(x)] = intern_value(x if same else Value(x.head, args))
        elif (hit := _INTERN.get(x)) is not None:
            done[id(x)] = hit
        else:
            stack.append((x, True))
            stack.extend((a, False) for a in x.args)
    return done[id(v)]


def _run(ops: list, vstack: list, cfg: FuelConfig) -> Outcome:
    steps = 0
    max_steps = cfg.max_steps
    const_cache = _const_cache
    memo_get = _APPLY_MEMO.get
    seen = _SEEN
    push_op = ops.append
    pop_op = ops.pop
    push = vstack.append
    pop = vstack.pop
    recording = False  # a closed term's record marker is pending
    while ops:
        op = pop_op()
        if op is not _APPLY:
            tag = op[0]
            if tag == _OP_PUSH:
                push(op[1])
            elif tag == _OP_EVAL:
                t, env = op[1], op[2]
                while True:  # unfold application spines without re-pushing atoms
                    tt = type(t)
                    if tt is App:
                        if env is None:
                            # A recorded closed term replays whole at its
                            # full cost when that fits the fuel.
                            key = id(t)
                            e = memo_get(key)
                            if e is not None and steps + e[1] <= max_steps:
                                steps += e[1]
                                push(e[0])
                                break
                            slot = key % _SEEN_SLOTS
                            c = seen[slot]
                            if c != 2:
                                seen[slot] = c + 1
                            elif not recording:
                                # Only the outermost: a term recorded whole
                                # leaves its inner nodes unrecorded.
                                recording = True
                                push_op((_OP_RECORD, key, steps, t))
                        push_op(_APPLY)
                        push_op((_OP_EVAL, t.arg, env))
                        t = t.fun
                        continue
                    if tt is Const:
                        v = const_cache.get(t.kind)
                        push(v if v is not None else _const_value(t.kind))
                    elif tt is Num:
                        push(intern_value(Value(t)))
                    elif tt is Var:
                        if env is None or t.name not in env:
                            raise UnboundVariable(t.name)
                        push(env[t.name])
                    elif tt is Opaque:
                        push(_share(t.value) if t.value is not None else intern_value(Value(t)))
                    elif tt is Value:
                        # Allow already-evaluated elements spliced into trees.
                        push(_share(t))
                    elif tt is Lam:
                        raise TypeError("lambda terms must be compiled before evaluation")
                    else:
                        raise TypeError(f"not a term: {t!r}")
                    break
            else:  # _OP_RECORD
                # A closed term entered, or an S-redex fired, at step op[2]
                # has reduced to the top value; op[3:] are its key objects.
                remember(op[1], (vstack[-1], steps - op[2], *op[3:]))
                if len(op) == 4:  # a term: the outermost record is done
                    recording = False
            continue
        steps += 1
        if steps > max_steps:
            pending = sum(1 for op in ops if op[0] != _OP_RECORD)
            return FuelExhausted(
                steps - 1,
                f"fuel exhausted: {pending} pending operations, "
                f"{len(vstack)} values on the stack",
            )
        a = pop()
        f = pop()
        head = f.head
        th = type(head)
        if th is Num:
            raise IllTypedApplication(f"numeral #{head.n} applied as a function")
        if th is Opaque or len(f.args) + 1 < DELTA_ARITY[head.kind]:
            push(_accumulate(f, a))
            continue
        kind = head.kind
        if kind is _S:
            # A recorded redex replays, adding its steps after this firing,
            # when that fits the fuel; otherwise it is reduced and recorded.
            key = id(f) << 64 | id(a)
            e = memo_get(key)
            if e is not None and steps + e[1] <= max_steps:
                steps += e[1]
                push(e[0])
                continue
            slot = key % _SEEN_SLOTS
            c = seen[slot]
            if c == 2:
                push_op((_OP_RECORD, key, steps, f, a))
            else:
                seen[slot] = c + 1
            fa, fb = f.args
            # (fa a)(fb a), both applications by value; fa a is applied
            # next, so its operands go straight onto the stack.
            push_op(_APPLY)
            push_op(_APPLY)
            push_op((_OP_PUSH, a))
            push_op((_OP_PUSH, fb))
            push_op(_APPLY)
            push(fa)
            push(a)
        elif kind is _K:
            push(f.args[0])
        elif kind is _KBAR:
            push(a)
        elif kind is _SUCC:
            if not a.is_numeral():
                raise StuckApplication("SUCC on a non-numeral")
            push(intern_value(Value(Num(a.numeral + 1))))
        elif kind is _PRED:
            if not a.is_numeral():
                raise StuckApplication("PRED on a non-numeral")
            n = a.numeral
            if n == 0:
                raise StuckApplication("PRED #0")
            push(intern_value(Value(Num(n - 1))))
        else:  # _D
            sel_a, sel_b = f.args[0], f.args[1]
            if not (sel_a.is_numeral() and sel_b.is_numeral()):
                raise StuckApplication("D selectors must be numerals")
            push(f.args[2] if sel_a.numeral == sel_b.numeral else a)
    assert len(vstack) == 1
    return Defined(vstack.pop(), steps)


def eval_term(t: Term, env: dict[str, Value] | None = None, cfg: FuelConfig = DEFAULT_FUEL) -> Outcome:
    """Call-by-value, leftmost-innermost evaluation of a term."""
    return _run([(_OP_EVAL, t, env)], [], cfg)


def apply_value(f: Value, a: Value, cfg: FuelConfig = DEFAULT_FUEL) -> Outcome:
    """The partial application operation of the algebra, on elements."""
    return _run([_APPLY], [_share(f), _share(a)], cfg)


def apply_values(f: Value, args: list[Value] | tuple[Value, ...], cfg: FuelConfig = DEFAULT_FUEL) -> Outcome:
    """Left-associated application of several arguments; fuel is budgeted
    per application, steps reported in total."""
    cur = f
    total = 0
    for a in args:
        out = apply_value(cur, a, cfg)
        if isinstance(out, FuelExhausted):
            return out
        cur = out.value
        total += out.steps
    return Defined(cur, total)


def kleene_eq(t1: Term, t2: Term, cfg: FuelConfig = DEFAULT_FUEL) -> Tri:
    """Both sides defined with identical values / definitely different / out of fuel."""
    o1 = eval_term(t1, None, cfg)
    o2 = eval_term(t2, None, cfg)
    if isinstance(o1, FuelExhausted) or isinstance(o2, FuelExhausted):
        return Tri.UNKNOWN
    return Tri.of(o1.value == o2.value)
