"""Pure-Python reduction machine: fuel-bounded call-by-value evaluation.

The machine is iterative (explicit instruction and value stacks) so that a
divergent self-application burns fuel instead of the host stack.  An entry
of the instruction stack is the object it stands for: a term or a value to
evaluate (a value evaluates to itself), the one ``_APPLY`` sentinel, or a
record marker ``(key, start_step)``.  Each firing of the application
operation costs one step; outcomes are deterministic and monotone in fuel.

The machine evaluates closed terms: ``eval_term`` binds its environment
before the run (``terms.bind``), so a variable left in the term is unbound.
Application is a function of the two elements, and equal values, like
equal terms, are one object: they hash-cons at construction
(:mod:`extreal.terms`), so a value or term built anywhere, inside the
machine or out, is the canonical object.  So a whole reduction that repeats
within a run is answered from the run's memo, kept in the run's table
(``Run.ops``) beside the kernel's outcomes, keyed by the canonical objects
themselves: a whole S-redex ``S x y a`` by the pair ``(f, a)`` of its
operator and argument, and, since evaluation of a closed term is a
function of the term, an application by its node.  An entry is ``(value,
cost)``.  Runs derived from one another with ``Run.replace`` share the memo
and its seen filter (below); a fresh ``Run`` starts with both empty.  A
replay still costs every step the reduction took, so steps, fuel notes and
errors are those of a machine without the memo:

- admission: always, by ``Run.admit``, which empties a table past
  ``terms.MEMO_LIMIT`` entries;
- fuel fit: an entry of cost ``c`` found after ``n`` steps replays only when
  ``n + c`` is within the fuel; otherwise it is reduced again, and runs out
  of fuel exactly where it would have.  A redex is looked up once it has
  fired, so ``n`` counts the firing and ``c`` the steps after it.  The value
  size cap is fixed, so a reduction that completed once completes again.

A redex or term is recorded on its third visit, by the run's seen filter
(``Run.seen``): it counts visits up to 2 per slot, the memo key's hash
modulo its length, so one that never repeats costs no record, and few
entries go to redexes that only ever fire inside a larger redex that is
then replayed whole.  The filter is a hint: a collision only records early.
A term is recorded only when no enclosing term is being recorded in the
same run, so the inner nodes of a term recorded whole do not fill the memo.
A term whose evaluation fails or runs out of fuel is never recorded: the run
ends first.

Divergence is skipped, not run: an S-redex that fires while its own record
marker is pending (fired at step ``s0``, again at ``s1``) diverges, and from
``s0`` on the run repeats every ``p = s1 - s0`` steps, each period leaving
the same instructions (record markers aside) and values beneath the top.
The machine adds the ``k`` whole periods that fit the fuel to its steps and
their instructions and values to the fuel note, then runs the rest until
the fuel is out.  This is exact:

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

This module is the reference semantics, and keeps no state of its own:
all it remembers is in the run.  A compiled twin with identical behaviour,
and no memo or seen filter, may be selected at import time by
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
    bind,
)

# Every pending application is this one instruction.
_APPLY = object()

_K = ConstKind.K
_KBAR = ConstKind.KBAR
_S = ConstKind.S
_D = ConstKind.D
_SUCC = ConstKind.SUCC
_PRED = ConstKind.PRED

_MAX_SIZE = Run.max_value_size


def _accumulate(f: Value, a: Value) -> Value:
    """``f a`` below the head's arity: the extension of ``f``."""
    if f.size + a.size > _MAX_SIZE:
        raise ValueSizeExceeded(
            f"value of {f.size + a.size} nodes exceeds the cap of {_MAX_SIZE}"
        )
    return Value(f.head, f.args + (a,))


def _run(ops: list, vstack: list, run: Run) -> Outcome:
    steps = 0
    max_steps = run.max_steps
    const_values = CONST_VALUES
    memo_get = run.ops.get
    seen = run.seen
    slots = len(seen)
    push_op = ops.append
    pop_op = ops.pop
    push = vstack.append
    pop = vstack.pop
    recording = False  # a term's record marker is pending
    # Pending S records: key -> (firing step, len(ops), len(vstack)).
    pending_s: dict[tuple[Value, Value], tuple[int, int, int]] = {}
    skipped_ops = skipped_vals = 0  # of the periods skipped, for the fuel note
    while ops:
        t = pop_op()
        if t is not _APPLY:
            while True:  # unfold application spines without re-pushing atoms
                tt = type(t)
                if tt is App:
                    # A recorded term replays whole at its full cost when
                    # that fits the fuel.
                    e = memo_get(t)
                    if e is not None and steps + e[1] <= max_steps:
                        steps += e[1]
                        push(e[0])
                        break
                    slot = hash(t) % slots
                    c = seen[slot]
                    if c != 2:
                        seen[slot] = c + 1
                    elif not recording:
                        # Only the outermost: a term recorded whole leaves
                        # its inner nodes unrecorded.
                        recording = True
                        push_op((t, steps))
                    push_op(_APPLY)
                    push_op(t.arg)
                    t = t.fun
                    continue
                if tt is Value:
                    push(t)
                elif tt is Const:
                    push(const_values[t.kind])
                elif tt is tuple:
                    # The term entered, or the S-redex fired, at step t[1]
                    # has reduced to the top value.
                    key = t[0]
                    run.admit(key, (vstack[-1], steps - t[1]))
                    if type(key) is App:  # the outermost record is done
                        recording = False
                    else:
                        del pending_s[key]
                elif tt is Num:
                    push(Value(t))
                elif tt is Opaque:
                    push(t.value if t.value is not None else Value(t))
                elif tt is Var:
                    raise UnboundVariable(t.name)
                elif tt is Lam:
                    raise TypeError("lambda terms must be compiled before evaluation")
                else:
                    raise TypeError(f"not a term: {t!r}")
                break
            continue
        steps += 1
        if steps > max_steps:
            pending = sum(1 for op in ops if type(op) is not tuple) + skipped_ops
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
            key = (f, a)
            e = memo_get(key)
            if e is not None and steps + e[1] <= max_steps:
                steps += e[1]
                push(e[0])
                continue
            slot = hash(key) % slots
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
                        skipped_ops += k * sum(1 for op in ops[p[1]:] if type(op) is not tuple)
                        skipped_vals += k * (len(vstack) - p[2])
                pending_s[key] = (steps, len(ops), len(vstack))
                push_op((key, steps))
            else:
                seen[slot] = c + 1
            fa, fb = f.args
            # (fa a)(fb a), both applications by value; fa a is applied
            # next, so its operands go straight onto the stack.
            push_op(_APPLY)
            push_op(_APPLY)
            push_op(a)
            push_op(fb)
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


def eval_term(t: Term, env: dict[str, Value] | None = None, run: Run | None = None) -> Outcome:
    """Call-by-value, leftmost-innermost evaluation of a term, each of its
    variables that ``env`` names bound to that value first."""
    return _run([t if env is None else bind(t, env)], [], Run() if run is None else run)


def apply_value(f: Value, a: Value, run: Run | None = None) -> Outcome:
    """The partial application operation of the algebra, on elements."""
    return _run([_APPLY], [f, a], Run() if run is None else run)


def apply_values(f: Value, args: list[Value] | tuple[Value, ...], run: Run | None = None) -> Outcome:
    """Left-associated application of several arguments; fuel is budgeted
    per application, steps reported in total."""
    run = Run() if run is None else run
    cur = f
    total = 0
    for a in args:
        out = apply_value(cur, a, run)
        if isinstance(out, FuelExhausted):
            return out
        cur = out.value
        total += out.steps
    return Defined(cur, total)


def kleene_eq(t1: Term, t2: Term, run: Run | None = None) -> Tri:
    """Both sides defined with identical values / definitely different / out of fuel."""
    run = Run() if run is None else run
    o1 = eval_term(t1, None, run)
    o2 = eval_term(t2, None, run)
    if isinstance(o1, FuelExhausted) or isinstance(o2, FuelExhausted):
        return Tri.UNKNOWN
    return Tri.of(o1.value == o2.value)


# The value of each constant, built once: a delta constant is its own value,
# a defined one the value of its expansion, which uses delta constants only.
CONST_VALUES = {kind: Value(Const(kind)) for kind in DELTA_ARITY}
CONST_VALUES.update({kind: eval_term(t).value for kind, t in EXPANSIONS.items()})
