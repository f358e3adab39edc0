"""Application terms and canonical values of the combinator machine.

Terms are finite application trees over the machine constants and the
numerals; values are weak canonical forms (constants applied below their
arity, numerals, inert opaque heads).  One rule makes values canonical:
``Value(head, args)`` returns the one live object with that head and those
arguments, so equal values are one object, and a value is compared and
hashed by identity.

Application is a partial operation: besides honest divergence (modelled by
fuel) there are two kinds of hard failure, kept apart so callers can tell a
crash from a timeout.
"""

from __future__ import annotations

import enum
from _weakref import _remove_dead_weakref
from dataclasses import dataclass, field
from weakref import ref


class MachineError(Exception):
    """Base class for evaluation failures that are errors, not divergence."""


class IllTypedApplication(MachineError):
    """A numeral was used in function position; numerals are inert data."""


class StuckApplication(MachineError):
    """A delta rule hit an argument outside its domain (PRED #0, D on non-numerals)."""


class UnboundVariable(MachineError):
    pass


class ValueSizeExceeded(MachineError):
    """A value grew past the fixed node cap; never silently truncated."""


class Tri(enum.Enum):
    """``machine.kleene_eq``'s answer; layers above the kernel use ``bool |
    None``.  Kept for ``_speedup.c`` and perfbench/probe.py, which import it."""

    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    @staticmethod
    def of(b: bool) -> "Tri":
        return Tri.TRUE if b else Tri.FALSE


class ConstKind(enum.Enum):
    K = "K"
    S = "S"
    D = "D"
    SUCC = "SUCC"
    PRED = "PRED"
    KBAR = "KBAR"
    # Defined constants: aliases for closed combinator terms, expanded on
    # evaluation.  They never occur as value heads.
    P = "P"
    P0 = "P0"
    P1 = "P1"

    # Members are singletons compared by identity, so the identity hash is
    # sound; Enum's own __hash__ is a Python-level call on every dict lookup.
    __hash__ = object.__hash__


# Arity at which a delta rule fires.  P/P0/P1 are absent on purpose: they are
# macro constants, not primitives.
DELTA_ARITY = {
    ConstKind.K: 2,
    ConstKind.KBAR: 2,
    ConstKind.S: 3,
    ConstKind.D: 4,
    ConstKind.SUCC: 1,
    ConstKind.PRED: 1,
}

# Number of arguments a defined constant absorbs before its body could fire.
DEFINED_ARITY = {ConstKind.P: 3, ConstKind.P0: 1, ConstKind.P1: 1}


@dataclass(frozen=True, slots=True)
class Const:
    kind: ConstKind


@dataclass(frozen=True, slots=True)
class Num:
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("numerals are naturals")


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class App:
    fun: "Term"
    arg: "Term"


@dataclass(frozen=True, slots=True)
class Opaque:
    """An element of the algebra embedded into term syntax.

    With `value` attached it evaluates to that value; without, it is an inert
    head that just accumulates arguments.
    """

    ident: str
    value: "Value | None" = None


Term = Const | Num | Var | App | Opaque


@dataclass(frozen=True, slots=True, eq=False, init=False, weakref_slot=True)
class Value:
    """A weak canonical form: no delta rule fires at its head.

    Construction is hash-consing: ``Value(head, args)``, ``args`` a tuple of
    values, returns the live value with that head and those arguments when
    there is one, so ``==`` and ``hash`` are ``object``'s.
    """

    head: Const | Num | Opaque
    args: tuple["Value", ...]
    size: int = field(repr=False)

    def __new__(cls, head: Const | Num | Opaque, args: tuple["Value", ...] = ()) -> "Value":
        key = (head, args)
        r = _INTERN.get(key)
        if r is not None:
            v = r()
            if v is not None:
                return v
        v = object.__new__(cls)
        size = 1
        for a in args:
            size += a.size
        object.__setattr__(v, "head", head)
        object.__setattr__(v, "args", args)
        object.__setattr__(v, "size", size)
        r = _Ref(v, _drop)
        r.key = key
        _INTERN[key] = r
        return v

    def is_numeral(self) -> bool:
        return isinstance(self.head, Num)

    @property
    def numeral(self) -> int:
        if not isinstance(self.head, Num):
            raise ValueError(f"not a numeral value: {self!r}")
        return self.head.n


class _Ref(ref):
    """A weak reference to a value that knows its key in ``_INTERN``."""

    __slots__ = ("key",)


# The hash-consing table: each live value's weak reference under its
# ``(head, args)``.  A value's death drops its entry, so ``len(_INTERN)``
# counts live values.
_INTERN: "dict[tuple, _Ref]" = {}


def _drop(r: _Ref, _table=_INTERN, _remove=_remove_dead_weakref) -> None:
    # Only a dead reference goes: a value built again under the same key
    # before this callback ran keeps its entry.  The table and the remover
    # are bound as defaults, as values still die while the interpreter
    # clears module globals at exit.
    _remove(_table, r.key)


# The bound of a run's table (``Run.ops``): once it holds more than
# MEMO_LIMIT entries, of any kind, it is emptied before the next entry is
# admitted (``Run.admit``).
MEMO_LIMIT = 1_000_000


def intern_value(v: Value) -> Value:
    # Every value is canonical from construction; the compiled twin calls this.
    return v


@dataclass(frozen=True, slots=True)
class Defined:
    value: Value
    steps: int


@dataclass(frozen=True, slots=True)
class FuelExhausted:
    steps: int
    note: str


Outcome = Defined | FuelExhausted


@dataclass(frozen=True, slots=True)
class Run:
    """The limits and seed of one run, set once by its entry point and passed
    down unchanged: ``max_steps`` bounds one machine run, the checker
    enumerates schematic names at keys up to ``max_index`` and
    ``generators_per_type`` sample elements per finite type, and ``seed``
    seeds the property suites.

    ``ops`` is the run's table, with three kinds of entry:
    - the machine's memo of whole reductions, under int keys: a whole
      S-redex ``f a`` (``f = S x y``) under ``id(f) << 64 | id(a)``, entry
      ``(value, cost, f, a)``, its cost counted after its firing step, and a
      closed term ``t`` evaluated without an environment under ``id(t)``,
      entry ``(value, cost, t)``.  An entry holds the objects whose ids make
      its key, so no id is reused while it exists, and it replays under any
      fuel it fits (:mod:`extreal.machine`);
    - the outcome (value, ``Crash`` or ``Open``) of each ``kernel.apply``
      under the tuple key ``(f, x, max_steps)``;
    - the outcome of each library term ``t`` (a realizer, a generator)
      that ``kernel.value_of`` evaluates, under ``(id(t), max_steps)``,
      entry ``(t, outcome)``; a constant's value is the machine's, and has
      no entry.
    ``seen`` is the machine's seen filter, which decides what enters the
    memo: visits counted up to 2 per slot, a memo key modulo its length (a
    prime, as keys are ids).
    A run derived with ``dataclasses.replace`` shares its parent's table and
    filter, which is why the tuple keys carry the fuel."""

    max_steps: int = 100_000
    max_index: int = 8
    generators_per_type: int = 6
    seed: int = 0
    ops: dict = field(default_factory=dict, compare=False, hash=False, repr=False)
    seen: bytearray = field(
        default_factory=lambda: bytearray(65_521), compare=False, hash=False, repr=False)
    # The value size cap, in nodes counted as a tree: fixed for every run, so
    # a class constant, not a field.
    max_value_size = 1_000_000

    def admit(self, key, entry):
        """Keep ``entry`` under ``key``, emptying the table first once it
        holds more than ``MEMO_LIMIT`` entries; returns ``entry``."""
        if len(self.ops) > MEMO_LIMIT:
            self.ops.clear()
        self.ops[key] = entry
        return entry

    def __post_init__(self):
        if self.max_steps <= 0:
            raise ValueError("fuel limits must be strictly positive")
        if self.max_index <= 0 or self.generators_per_type <= 0:
            raise ValueError("budgets must be positive")


# The default run, under the name that the generated compiled twin
# (``_speedup.c``) imports.
DEFAULT_FUEL = Run()

# Constant term singletons.
K = Const(ConstKind.K)
S = Const(ConstKind.S)
D = Const(ConstKind.D)
SUCC = Const(ConstKind.SUCC)
PRED = Const(ConstKind.PRED)
KBAR = Const(ConstKind.KBAR)
P = Const(ConstKind.P)
P0 = Const(ConstKind.P0)
P1 = Const(ConstKind.P1)


def num(n: int) -> Num:
    return Num(n)


def app(fun: Term, *args: Term) -> Term:
    """Left-associated application: app(f, a, b) is (f a) b."""
    t = fun
    for a in args:
        t = App(t, a)
    return t


def num_value(n: int) -> Value:
    return Value(Num(n))


def opaque_value(ident: str) -> Value:
    return Value(Opaque(ident))
