"""Kernel facade: selects the reduction machine at import time, and asks it
the algebra's one operation.

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
runs out.  The layers above ask through ``apply(f, x, run)`` and
``evaluate(t, run)``, which end every operation in one of three outcomes,
and no other layer catches a machine error:

- the ``Value``: the operation is defined;
- ``Crash``: a machine error (``PRED #0``, a numeral applied as a function),
  so the operation is undefined;
- ``Open``: a resource limit, fuel or the value size cap, stopped it, and a
  larger limit could decide it either way.

``defined(outcome)`` is for a caller that cannot go on without the value (a
library term, a pair of values): it raises ``NoValue``, carrying the
``Crash`` or ``Open``.

Application is the one operation: projection is ``apply`` of the value of
``P0`` or ``P1``, and pairing two ``apply``s of the value of ``P``, values
fixed at import (``machine.CONST_VALUES``: a defined constant's value is
its expansion's, never ``Value(P0)``).  Under a fixed fuel it is a function of its operands, and equal operands are one
object, so ``apply`` is tabled: its outcome is kept in the run's table
(``Run.ops``) under ``(f, x, run.max_steps)``, so the checker, ``names``,
``realizers`` and the suites share it, and an application asked again, on
the other side of a pair, under another goal or by a later verdict of the
same run, is answered from the table.

``value_of(t, run)`` is the one way to the value of a library term (a
realizer, a generator): its outcome is kept in the same table under
``(id(t), run.max_steps)``, beside ``t`` itself so that the id is not
reused, and built under the asking run's limits.  No value it builds
outlives its run.  ``evaluate`` is not tabled here: the machine's own memo
answers a closed term it has seen.

Each entry point defaults its run to a fresh ``Run()`` per call, so two
calls that pass none share no table.
"""

from __future__ import annotations

import os

from . import machine as _impl
from .machine import CONST_VALUES

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

# The raw machine operations, for the package API.  ``apply`` and
# ``evaluate`` call them by these names, which the tests and
# perfbench/probe.py rebind to count the machine's work.
eval_term = _impl.eval_term
apply_value = _impl.apply_value
apply_values = _impl.apply_values
# No layer calls kleene_eq (suites use kleene_agree below); it stays bound
# because perfbench/probe.py traces it by name.
kleene_eq = _impl.kleene_eq

from .terms import (  # noqa: E402
    Defined,
    MachineError,
    Node,
    P,
    P0,
    P1,
    Run,
    Term,
    Value,
    ValueSizeExceeded,
    set_field,
)


class Crash(Node):
    """The operation is undefined: the machine raised ``error``."""

    __slots__ = __match_args__ = ("error",)

    def __init__(self, error: MachineError):
        set_field(self, "error", error)


class Open(Node):
    """A resource limit stopped the operation: fuel (``error`` is None) or
    the value size cap (``error`` is the overflow)."""

    __slots__ = __match_args__ = ("error",)

    def __init__(self, error: ValueSizeExceeded | None = None):
        set_field(self, "error", error)


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


def _ended(op, *args) -> Value | Crash | Open:
    """How the machine operation ``op(*args)`` ends.  The error is kept
    without its traceback: a run's table may hold the outcome as long as
    the run, and a traceback would keep the machine's frames alive."""
    try:
        out = op(*args)
    except ValueSizeExceeded as exc:
        return Open(exc.with_traceback(None))
    except MachineError as exc:
        return Crash(exc.with_traceback(None))
    return out.value if isinstance(out, Defined) else Open()


def apply(f: Value, x: Value, run: Run | None = None) -> Value | Crash | Open:
    """``f·x``: its value, ``Crash`` or ``Open``, answered from the run's
    table when the run asked it before at the same fuel."""
    run = Run() if run is None else run
    key = (f, x, run.max_steps)
    out = run.ops.get(key)
    if out is None:
        out = run.admit(key, _ended(apply_value, f, x, run))
    return out


def evaluate(t: Term, run: Run | None = None) -> Value | Crash | Open:
    """The closed term ``t``'s value, ``Crash`` or ``Open``."""
    return _ended(eval_term, t, None, Run() if run is None else run)


def defined(out: Value | Crash | Open) -> Value:
    """The value ``out``, which the caller needs; ``NoValue`` if a crash or
    a resource limit left it without one."""
    if isinstance(out, Value):
        return out
    raise NoValue(out)


def kleene_agree(t1: Term, t2: Term, run: Run | None = None) -> bool | None:
    """Kleene equality of two closed terms, a crash counted as undefined:
    True when both are undefined or both have equal values; None when a
    resource limit stops either side.  ``t2`` is evaluated only when ``t1``
    ends in a value or a crash: after an ``Open`` the answer is None
    whatever ``t2`` does."""
    run = Run() if run is None else run
    v1 = evaluate(t1, run)
    if isinstance(v1, Open):
        return None
    v2 = evaluate(t2, run)
    if isinstance(v2, Open):
        return None
    return type(v1) is type(v2) is Crash or v1 == v2


def value_of(t: Term, run: Run | None = None) -> Value:
    """The value of a library term, evaluated once per run and fuel: the
    outcome is tabled under ``(id(t), run.max_steps)`` with ``t`` beside
    it.  ``NoValue`` under limits too small for it.  A term built on the
    spot is for ``evaluate``: no later call could hit its entry."""
    run = Run() if run is None else run
    key = (id(t), run.max_steps)
    entry = run.ops.get(key)
    if entry is None:
        entry = run.admit(key, (t, evaluate(t, run)))
    return defined(entry[1])


def pair_value(a: Value, b: Value, run: Run | None = None) -> Value:
    """p a b as an element, by two tabled applications.  Pairing of values
    is always defined, but a small fuel, or the value size cap, can stop it
    (``NoValue``)."""
    run = Run() if run is None else run
    return defined(apply(defined(apply(CONST_VALUES[P.kind], a, run)), b, run))


def project(v: Value, i: int, run: Run | None = None) -> Value | Crash | Open:
    """The i-th projection of v, a tabled application of P0 or P1."""
    run = Run() if run is None else run
    return apply(CONST_VALUES[(P0 if i == 0 else P1).kind], v, run)
