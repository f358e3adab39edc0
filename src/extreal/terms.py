"""Application terms and canonical values of the combinator machine.

Terms are finite application trees over the machine constants and the
numerals; values are weak canonical forms (constants applied below their
arity, numerals, inert opaque heads).  One rule makes terms, values, names,
types, formulas and constants canonical (``Canonical``): building one
returns the live object of that class with those fields, so equal records
are one object, compared and hashed by identity.

Application is a partial operation: besides honest divergence (modelled by
fuel) there are two kinds of hard failure, kept apart so callers can tell a
crash from a timeout.
"""

from __future__ import annotations

import enum
from _weakref import _remove_dead_weakref
from weakref import ref

# Sets a field of a ``Node`` in its ``__init__``, past the ``__setattr__``
# that refuses assignment.
set_field = object.__setattr__


class Node:
    """The base of the package's record classes: plain slotted classes,
    built by a written ``__init__`` or, for a ``Canonical`` record, by the
    hash-consing ``__new__``.

    ``__match_args__`` names the fields that make a record's identity.  Two
    records are equal when they are of one class and these fields are equal,
    a record's hash is the hash of the tuple of these fields, and its repr is
    ``Name(field=value, ...)`` over them.  A slot that is not named there (a
    run's table, a value's size, a trace's children) takes no part.
    Assignment is refused; ``__init__`` sets the fields with ``set_field``.
    ``Canonical`` replaces equality and hash with identity; a mutable class
    restores ``object.__setattr__`` and has no hash.  Each method here runs
    in one Python frame, so a deep record that is not canonical costs one
    frame per level."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        for f in self.__match_args__:
            a = getattr(self, f)
            b = getattr(other, f)
            if a is not b and not a == b:
                return False
        return True

    def __hash__(self):
        key = ()
        for f in self.__match_args__:
            key += (getattr(self, f),)
        return hash(key)

    def __repr__(self):
        parts = []
        for f in self.__match_args__:
            parts.append(f"{f}={getattr(self, f)!r}")
        return f"{self.__class__.__qualname__}({', '.join(parts)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Canonical(Node):
    """A hash-consed record: ``cls(*fields)``, positional only, returns the
    live record of that class with those fields when there is one, so equal
    records are one object and ``==`` and ``hash`` are ``object``'s, which
    take no Python frame at any depth.  Fields are numbers, strings, None,
    enum members, canonical records and tuples of these, so the table's key
    compares them as the structural equality would."""

    __slots__ = ("__weakref__",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, *fields):
        key = (cls, *fields)
        r = _INTERN.get(key)
        if r is not None:
            x = r()
            if x is not None:
                return x
        names = cls.__match_args__
        if len(fields) != len(names):
            raise TypeError(f"{cls.__qualname__} takes {len(names)} fields, got {len(fields)}")
        x = object.__new__(cls)
        for f, v in zip(names, fields):
            set_field(x, f, v)
        r = _Ref(x, _drop)
        r.key = key
        _INTERN[key] = r
        return x


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


class Const(Canonical):
    __slots__ = __match_args__ = ("kind",)


class Num(Canonical):
    __slots__ = __match_args__ = ("n",)

    def __new__(cls, n: int):
        if n < 0:
            raise ValueError("numerals are naturals")
        return Canonical.__new__(cls, n)


class Var(Canonical):
    __slots__ = __match_args__ = ("name",)


class App(Canonical):
    __slots__ = __match_args__ = ("fun", "arg")


class Opaque(Canonical):
    """An element of the algebra embedded into term syntax.

    With `value` attached it evaluates to that value; without, it is an inert
    head that just accumulates arguments.
    """

    __slots__ = __match_args__ = ("ident", "value")

    def __new__(cls, ident: str, value: "Value | None" = None):
        return Canonical.__new__(cls, ident, value)


Term = Const | Num | Var | App | Opaque


class Value(Canonical):
    """A weak canonical form: no delta rule fires at its head.

    ``Value(head, args)``, ``args`` a tuple of values, is canonical under its
    own key ``(head, args)``, so that ``size``, which counts its nodes as a
    tree and takes no part in its identity, is set once.
    """

    __slots__ = ("head", "args", "size")
    __match_args__ = ("head", "args")

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
        set_field(v, "head", head)
        set_field(v, "args", args)
        set_field(v, "size", size)
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
    """A weak reference to a canonical record that knows its key in
    ``_INTERN``."""

    __slots__ = ("key",)


# The hash-consing table: each live canonical record's weak reference, a
# value's under its ``(head, args)``, any other's under ``(cls, *fields)``
# (a head is never a class, so the two kinds of key never meet).  A record's
# death drops its entry, so ``len(_INTERN)`` counts live records.
_INTERN: "dict[tuple, _Ref]" = {}


def _drop(r: _Ref, _table=_INTERN, _remove=_remove_dead_weakref) -> None:
    # Only a dead reference goes: a record built again under the same key
    # before this callback ran keeps its entry.  The table and the remover
    # are bound as defaults, as records still die while the interpreter
    # clears module globals at exit.
    _remove(_table, r.key)


# The bound of a run's table (``Run.ops``): once it holds more than
# MEMO_LIMIT entries, of any kind, it is emptied before the next entry is
# admitted (``Run.admit``).
MEMO_LIMIT = 1_000_000


def intern_value(v: Value) -> Value:
    # Every value is canonical from construction; the compiled twin calls this.
    return v


class Defined(Node):
    __slots__ = __match_args__ = ("value", "steps")

    def __init__(self, value: Value, steps: int):
        set_field(self, "value", value)
        set_field(self, "steps", steps)


class FuelExhausted(Node):
    __slots__ = __match_args__ = ("steps", "note")

    def __init__(self, steps: int, note: str):
        set_field(self, "steps", steps)
        set_field(self, "note", note)


Outcome = Defined | FuelExhausted


class Run(Node):
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
      that ``kernel.value_of`` evaluates, under ``(t, max_steps)``; a
      constant's value is the machine's, and has no entry.
    ``seen`` is the machine's seen filter, which decides what enters the
    memo: visits counted up to 2 per slot, a memo key modulo its length (a
    prime, as keys are ids).
    A run derived with ``Run.replace`` shares its parent's table and filter,
    which is why the tuple keys carry the fuel; neither takes part in a run's
    equality, hash or repr."""

    __match_args__ = ("max_steps", "max_index", "generators_per_type", "seed")
    __slots__ = (*__match_args__, "ops", "seen")
    # The value size cap, in nodes counted as a tree: fixed for every run, so
    # a class constant, not a field.
    max_value_size = 1_000_000

    def __init__(self, max_steps: int = 100_000, max_index: int = 8, generators_per_type: int = 6,
                 seed: int = 0, ops: dict | None = None, seen: bytearray | None = None):
        if max_steps <= 0:
            raise ValueError("fuel limits must be strictly positive")
        if max_index <= 0 or generators_per_type <= 0:
            raise ValueError("budgets must be positive")
        set_field(self, "max_steps", max_steps)
        set_field(self, "max_index", max_index)
        set_field(self, "generators_per_type", generators_per_type)
        set_field(self, "seed", seed)
        set_field(self, "ops", {} if ops is None else ops)
        set_field(self, "seen", bytearray(65_521) if seen is None else seen)

    def replace(self, **changes) -> "Run":
        """This run with ``changes`` to its fields, validated as a new run;
        it shares this run's table and seen filter unless ``changes`` names
        them."""
        return Run(**{f: getattr(self, f) for f in self.__slots__} | changes)

    def admit(self, key, entry):
        """Keep ``entry`` under ``key``, emptying the table first once it
        holds more than ``MEMO_LIMIT`` entries; returns ``entry``."""
        if len(self.ops) > MEMO_LIMIT:
            self.ops.clear()
        self.ops[key] = entry
        return entry


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
