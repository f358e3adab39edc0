"""Kernel facade: selects the reduction machine at import time, and decides
how a machine operation ends.

The pure-Python machine (``machine``) is the machine and the reference
semantics; ``PCA_BACKEND`` unset or ``pure`` selects it.  ``PCA_BACKEND=
compiled`` selects the compiled twin (``extreal._speedup``), which is built
only to compare against: it implements the same fueled call-by-value
semantics, including step counts.  Both return canonical values: equal
values are one object, since ``terms.Value`` hash-conses at construction.

A bad setting (an unknown value, or ``compiled`` when the twin is not built)
does not stop the import: the pure machine is selected, and
``BACKEND_ERROR`` says what is wrong.  The CLI refuses to run with it (exit
status 2).

The machines raise on a hard failure and return ``FuelExhausted`` when fuel
runs out.  ``attempt`` turns either into one of three outcomes, and no other
layer catches a machine error:

- the ``Value``: the operation is defined;
- ``Crash``: a machine error (``PRED #0``, a numeral applied as a function),
  so the operation is undefined;
- ``Open``: a resource limit, fuel or the value size cap, stopped it, and a
  larger limit could decide it either way.

``defined_value`` is for a caller that cannot go on without the value (a
library term, a pair of values): it raises ``NoValue``, carrying the
``Crash`` or ``Open``, and ``attempt`` of an operation that raised it
returns that outcome.

One rule for the layers above: under a fixed fuel a machine operation is a
function of its operands, and equal operands are one object, so two
operations with identical operands run once.  ``attempt`` keeps the rule
for ``apply_value`` and ``project`` with the run's table (``Run.ops``), so
the checker, ``names``, ``realizers`` and the suites share it: an operation
asked again, on the other side of a pair, under another goal or by a later
verdict of the same run, is answered from the table.  ``pair_value``, whose
operand is a list, is not tabled; the separation witness keeps the rule on
a diagonal pair ``(a, a)`` by pairing once and using that value for the b
side as well.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import machine as _impl
from . import terms

_setting = os.environ.get("PCA_BACKEND", "")
_choice = _setting.strip().lower()
BACKEND = "pure"
BACKEND_ERROR: str | None = None
if _choice == "compiled":
    try:
        from . import _speedup as _impl  # type: ignore[no-redef]

        BACKEND = "compiled"
    except ImportError:
        BACKEND_ERROR = (
            "PCA_BACKEND=compiled but extreal._speedup is not built; "
            "compile src/extreal/_speedup.c as the README's Install section shows"
        )
elif _choice not in ("", "pure"):
    BACKEND_ERROR = f"PCA_BACKEND must be pure or compiled, got {_setting!r}"

eval_term = _impl.eval_term
apply_value = _impl.apply_value
apply_values = _impl.apply_values
# No layer calls kleene_eq (suites use kleene_agree below); it stays bound
# because perfbench/probe.py traces it by name.
kleene_eq = _impl.kleene_eq

from .terms import (  # noqa: E402
    Const,
    ConstKind,
    FuelExhausted,
    MachineError,
    P,
    P0,
    P1,
    Run,
    Term,
    Value,
    ValueSizeExceeded,
)


@dataclass(frozen=True, slots=True)
class Crash:
    """The operation is undefined: the machine raised ``error``."""

    error: MachineError


@dataclass(frozen=True, slots=True)
class Open:
    """A resource limit stopped the operation: fuel (``error`` is None) or
    the value size cap (``error`` is the overflow)."""

    error: ValueSizeExceeded | None = None


class NoValue(RuntimeError):
    """An operation that had to be defined is not: ``outcome`` says why."""

    def __init__(self, outcome: Crash | Open):
        super().__init__(f"no value: {reason(outcome)}")
        self.outcome = outcome


def reason(outcome: Crash | Open) -> str:
    """What stopped an operation, in a few words."""
    exc = outcome.error
    if exc is None:
        return "fuel exhausted"
    return f"{type(exc).__name__}: {exc}"


def attempt(op, *args) -> Value | Crash | Open:
    """``op(*args)`` for a machine operation (``eval_term``, ``apply_value``,
    ``apply_values``, ``project``, ``pair_value``), classified: its value,
    ``Crash`` or ``Open``.

    ``apply_value`` and ``project`` on ``(f, x, run)`` go through the run's
    table (``run.ops``, keyed ``(op, f, x, run.max_steps)``): an operation
    the run asked before at the same fuel is answered without running it.
    The table is emptied once it holds more than ``terms.MEMO_LIMIT``
    entries, as the machine memo is."""
    if op is apply_value or op is project:
        f, x, run = args
        table = run.ops
        key = (op, f, x, run.max_steps)
        out = table.get(key)
        if out is None:
            if len(table) > terms.MEMO_LIMIT:
                table.clear()
            out = table[key] = _classify(op, args)
        return out
    return _classify(op, args)


def _classify(op, args) -> Value | Crash | Open:
    # A run's table may hold the outcome as long as the run: an error's
    # traceback would keep the machine's frames alive with it.
    try:
        out = op(*args)
    except ValueSizeExceeded as exc:
        return Open(exc.with_traceback(None))
    except MachineError as exc:
        return Crash(exc.with_traceback(None))
    except NoValue as exc:
        return exc.outcome
    if out is None or isinstance(out, FuelExhausted):
        return Open()
    return out if isinstance(out, Value) else out.value


def kleene_agree(t1: Term, t2: Term, run: Run = Run()) -> bool | None:
    """Kleene equality of two closed terms, a crash counted as undefined:
    True when both are undefined or both have equal values; None when a
    resource limit stops either side.  ``t2`` is evaluated only when ``t1``
    ends in a value or a crash: after an ``Open`` the answer is None
    whatever ``t2`` does."""
    v1 = attempt(eval_term, t1, None, run)
    if isinstance(v1, Open):
        return None
    v2 = attempt(eval_term, t2, None, run)
    if isinstance(v2, Open):
        return None
    return type(v1) is type(v2) is Crash or v1 == v2


def defined_value(op, *args) -> Value:
    """The value of ``op(*args)``, which the caller needs; ``NoValue`` if a
    crash or a resource limit leaves it without one."""
    out = attempt(op, *args)
    if isinstance(out, Value):
        return out
    raise NoValue(out)


def value_of(t: Term, run: Run = Run()) -> Value:
    """The value of a library term; ``NoValue`` under limits too small for it."""
    return defined_value(eval_term, t, None, run)


# The values of P, P0 and P1, each evaluated once on the selected backend.
_consts: dict[ConstKind, Value] = {}


def _const_value(t: Const) -> Value:
    v = _consts.get(t.kind)
    if v is None:
        v = _consts[t.kind] = value_of(t)
    return v


def pair_value(a: Value, b: Value, run: Run = Run()) -> Value:
    """p a b as an element.  Pairing of values is always defined, but a
    small fuel, or the value size cap, can stop it (``NoValue``)."""
    return defined_value(apply_values, _const_value(P), [a, b], run)


def project(v: Value, i: int, run: Run = Run()) -> Value | None:
    """The i-th projection of v, or None when fuel runs out.

    Projections are partial: a machine error propagates to the caller, and
    ``attempt(project, …)`` classifies it.
    """
    out = apply_value(_const_value(P0 if i == 0 else P1), v, run)
    if isinstance(out, FuelExhausted):
        return None
    return out.value
