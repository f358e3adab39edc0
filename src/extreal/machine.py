"""Pure-Python reduction machine: fuel-bounded call-by-value evaluation.

The machine is iterative (explicit instruction and value stacks) so that a
divergent self-application burns fuel instead of the host stack.  Each firing
of the application operation costs one step; outcomes are deterministic and
monotone in fuel.

Application is a function of the two elements, and equal values are one
object: ``Value`` hash-conses at construction (:mod:`extreal.terms`), so a
value built anywhere, inside the machine or out, is the canonical object.
So a whole reduction that repeats within a run is answered from the run's
memo, kept in the run's table (``Run.ops``) beside the kernel's outcomes: a
whole S-redex ``S x y a`` by the identities of its operator and argument,
and, since evaluation without an environment is a function of the term, a
closed application node by its identity.  Runs derived from one another
with ``dataclasses.replace`` share it; a fresh ``Run`` starts empty.  A
replay still costs every step the reduction took, so steps, fuel notes and
errors are those of a machine without the memo:

- admission: always, by ``Run.admit``, which empties a table past
  ``terms.MEMO_LIMIT`` entries; an entry holds the objects whose ids key it
  (a redex's operator and argument, a term), so no id is reused while it
  exists;
- fuel fit: an entry of cost ``c`` found after ``n`` steps replays only when
  ``n + c`` is within the fuel; otherwise it is reduced again, and runs out
  of fuel exactly where it would have.  A redex is looked up once it has
  fired, so ``n`` counts the firing and ``c`` the steps after it.  The value
  size cap is fixed, so a reduction that completed once completes again.

A term is recorded on its third visit (by the seen filter below) when no
enclosing term is being recorded in the same run, so the inner nodes of a
term recorded whole do not fill the memo.  A term whose evaluation fails or
runs out of fuel is never recorded: the run ends first.

Divergence is skipped, not run: an S-redex that fires while its own record
marker is pending (fired at step ``s0``, again at ``s1``) diverges, and from
``s0`` on the run repeats every ``p = s1 - s0`` steps, each period leaving
the same ops (record markers aside) and values beneath the top.  The
machine adds the ``k`` whole periods that fit the fuel to its steps and
their ops and values to the fuel note, then runs the rest until the fuel
is out.  This is exact:

- the machine is deterministic: from ``s1`` it does what it did from
  ``s0``, memo replays included, since a replay has the steps and value of
  the reduction it stands for;
- the stacks below a pending redex are never read while it is pending, so
  what a period leaves there cannot change the next period; only the note
  counts it;
- replays fit the fuel: after the skip less than one period of fuel is
  left, a replay is taken only where it fits, so the run stops at the step
  and in the state of the memo-free machine.

A repeat whose first firing is before an earlier skip and whose second is
after it has ``k = 0``: its period spans the ``k' >= 1`` skipped periods of
length ``p'``, so it is at least ``p'``, more than the fuel left.  So the
stacks it would measure, which lack what that skip counted, are never used.

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
    DELTA_ARITY,
    Defined,
    FuelExhausted,
    IllTypedApplication,
    Num,
    Opaque,
    Outcome,
    Run,
    StuckApplication,
    Term,
    Tri,
    UnboundVariable,
    Value,
    ValueSizeExceeded,
    Var,
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

# The value of each constant: a delta constant is its own value, a defined
# one the value of its expansion.
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
            out = _run([(_OP_EVAL, EXPANSIONS[kind], None)], [], Run())
            assert isinstance(out, Defined)
            v = out.value
        _const_cache[kind] = v
    return v


_MAX_SIZE = Run.max_value_size


def _accumulate(f: Value, a: Value) -> Value:
    """``f a`` below the head's arity: the extension of ``f``."""
    if f.size + a.size > _MAX_SIZE:
        raise ValueSizeExceeded(
            f"value of {f.size + a.size} nodes exceeds the cap of {_MAX_SIZE}"
        )
    return f.extend(a)


def _run(ops: list, vstack: list, run: Run) -> Outcome:
    steps = 0
    max_steps = run.max_steps
    const_cache = _const_cache
    memo_get = run.ops.get
    seen = _SEEN
    push_op = ops.append
    pop_op = ops.pop
    push = vstack.append
    pop = vstack.pop
    recording = False  # a closed term's record marker is pending
    # Pending S records: key -> (firing step, len(ops), len(vstack)).
    pending_s: dict[int, tuple[int, int, int]] = {}
    skipped_ops = skipped_vals = 0  # of the periods skipped, for the fuel note
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
                        push(Value(t))
                    elif tt is Var:
                        if env is None or t.name not in env:
                            raise UnboundVariable(t.name)
                        push(env[t.name])
                    elif tt is Opaque:
                        push(t.value if t.value is not None else Value(t))
                    elif tt is Value:
                        # Allow already-evaluated elements spliced into trees.
                        push(t)
                    elif tt is Lam:
                        raise TypeError("lambda terms must be compiled before evaluation")
                    else:
                        raise TypeError(f"not a term: {t!r}")
                    break
            else:  # _OP_RECORD
                # A closed term entered, or an S-redex fired, at step op[2]
                # has reduced to the top value; op[3:] are its key objects.
                run.admit(op[1], (vstack[-1], steps - op[2], *op[3:]))
                if len(op) == 4:  # a term: the outermost record is done
                    recording = False
                else:
                    del pending_s[op[1]]
            continue
        steps += 1
        if steps > max_steps:
            pending = sum(1 for op in ops if op[0] != _OP_RECORD) + skipped_ops
            return FuelExhausted(
                steps - 1,
                f"fuel exhausted: {pending} pending operations, "
                f"{len(vstack) + skipped_vals} values on the stack",
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
                p = pending_s.get(key)
                if p is not None:
                    # Fired inside its own reduction: the run repeats every
                    # `period` steps, each adding ops[p[1]:] and the values
                    # above p[2] beneath the top.  Count the whole periods
                    # that fit the fuel without running them.
                    period = steps - p[0]
                    k = (max_steps - steps) // period
                    if k:
                        steps += k * period
                        skipped_ops += k * sum(1 for op in ops[p[1]:] if op[0] != _OP_RECORD)
                        skipped_vals += k * (len(vstack) - p[2])
                pending_s[key] = (steps, len(ops), len(vstack))
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
            push(Value(Num(a.numeral + 1)))
        elif kind is _PRED:
            if not a.is_numeral():
                raise StuckApplication("PRED on a non-numeral")
            n = a.numeral
            if n == 0:
                raise StuckApplication("PRED #0")
            push(Value(Num(n - 1)))
        else:  # _D
            sel_a, sel_b = f.args[0], f.args[1]
            if not (sel_a.is_numeral() and sel_b.is_numeral()):
                raise StuckApplication("D selectors must be numerals")
            push(f.args[2] if sel_a.numeral == sel_b.numeral else a)
    assert len(vstack) == 1
    return Defined(vstack.pop(), steps)


def eval_term(t: Term, env: dict[str, Value] | None = None, run: Run = Run()) -> Outcome:
    """Call-by-value, leftmost-innermost evaluation of a term."""
    return _run([(_OP_EVAL, t, env)], [], run)


def apply_value(f: Value, a: Value, run: Run = Run()) -> Outcome:
    """The partial application operation of the algebra, on elements."""
    return _run([_APPLY], [f, a], run)


def apply_values(f: Value, args: list[Value] | tuple[Value, ...], run: Run = Run()) -> Outcome:
    """Left-associated application of several arguments; fuel is budgeted
    per application, steps reported in total."""
    cur = f
    total = 0
    for a in args:
        out = apply_value(cur, a, run)
        if isinstance(out, FuelExhausted):
            return out
        cur = out.value
        total += out.steps
    return Defined(cur, total)


def kleene_eq(t1: Term, t2: Term, run: Run = Run()) -> Tri:
    """Both sides defined with identical values / definitely different / out of fuel."""
    o1 = eval_term(t1, None, run)
    o2 = eval_term(t2, None, run)
    if isinstance(o1, FuelExhausted) or isinstance(o2, FuelExhausted):
        return Tri.UNKNOWN
    return Tri.of(o1.value == o2.value)
