"""Kernel facade: selects the reduction machine at import time, and decides
how a machine operation ends.

The pure-Python machine (``machine``) is the machine and the reference
semantics; ``PCA_BACKEND`` unset or ``pure`` selects it.  ``PCA_BACKEND=
compiled`` selects the compiled twin (``extreal._speedup``), which is built
only to compare against: it implements the same fueled call-by-value
semantics, including step counts.

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
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import machine as _impl

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
    DEFAULT_FUEL,
    Const,
    ConstKind,
    FuelConfig,
    FuelExhausted,
    MachineError,
    P,
    P0,
    P1,
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
    ``Crash`` or ``Open``."""
    try:
        out = op(*args)
    except ValueSizeExceeded as exc:
        return Open(exc)
    except MachineError as exc:
        return Crash(exc)
    except NoValue as exc:
        return exc.outcome
    if out is None or isinstance(out, FuelExhausted):
        return Open()
    return out if isinstance(out, Value) else out.value


def kleene_agree(t1: Term, t2: Term, cfg: FuelConfig = DEFAULT_FUEL) -> bool | None:
    """Kleene equality of two closed terms, a crash counted as undefined:
    True when both are undefined or both have equal values; None when a
    resource limit stops either side."""
    v1, v2 = attempt(eval_term, t1, None, cfg), attempt(eval_term, t2, None, cfg)
    if isinstance(v1, Open) or isinstance(v2, Open):
        return None
    return type(v1) is type(v2) is Crash or v1 == v2


def defined_value(op, *args) -> Value:
    """The value of ``op(*args)``, which the caller needs; ``NoValue`` if a
    crash or a resource limit leaves it without one."""
    out = attempt(op, *args)
    if isinstance(out, Value):
        return out
    raise NoValue(out)


def value_of(t: Term, cfg: FuelConfig = DEFAULT_FUEL) -> Value:
    """The value of a library term; ``NoValue`` under limits too small for it."""
    return defined_value(eval_term, t, None, cfg)


# The values of P, P0 and P1, each evaluated once on the selected backend.
_consts: dict[ConstKind, Value] = {}


def _const_value(t: Const) -> Value:
    v = _consts.get(t.kind)
    if v is None:
        v = _consts[t.kind] = value_of(t)
    return v


def pair_value(a: Value, b: Value, cfg: FuelConfig = DEFAULT_FUEL) -> Value:
    """p a b as an element.  Pairing of values is always defined, but a
    small fuel, or the value size cap, can stop it (``NoValue``)."""
    return defined_value(apply_values, _const_value(P), [a, b], cfg)


def project(v: Value, i: int, cfg: FuelConfig = DEFAULT_FUEL) -> Value | None:
    """The i-th projection of v, or None when fuel runs out.

    Projections are partial: a machine error propagates to the caller, and
    ``attempt(project, …)`` classifies it.
    """
    out = apply_value(_const_value(P0 if i == 0 else P1), v, cfg)
    if isinstance(out, FuelExhausted):
        return None
    return out.value
