"""Application terms and canonical values of the combinator machine.

Terms are finite application trees over the machine constants and the
numerals; values are weak canonical forms (constants applied below their
arity, numerals, inert opaque heads).  Application is a partial operation:
besides honest divergence (modelled by fuel) there are two kinds of hard
failure, kept apart so callers can tell a crash from a timeout.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class MachineError(Exception):
    """Base class for evaluation failures that are errors, not divergence."""


class IllTypedApplication(MachineError):
    """A numeral was used in function position; numerals are inert data."""


class StuckApplication(MachineError):
    """A delta rule hit an argument outside its domain (PRED #0, D on non-numerals)."""


class UnboundVariable(MachineError):
    pass


class ValueSizeExceeded(MachineError):
    """A value grew past the configured node cap; never silently truncated."""


class Tri(enum.Enum):
    """Three-valued answer used by the fueled equality tests."""

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


@dataclass(frozen=True, slots=True, eq=False)
class Value:
    """A weak canonical form: no delta rule fires at its head.

    ``_hash`` is a left fold over the spine (``hash(head)``, then
    ``hash((h, arg._hash))`` per argument), so ``extend`` can compute it from
    the prefix in constant time.
    """

    head: Const | Num | Opaque
    args: tuple["Value", ...] = ()
    size: int = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False)

    def __post_init__(self):
        size = 1
        h = hash(self.head)
        for a in self.args:
            size += a.size
            h = hash((h, a._hash))
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "_hash", h)

    def __hash__(self):
        return self._hash

    def extend(self, a: "Value") -> "Value":
        """``Value(self.head, self.args + (a,))`` in constant time."""
        v = _new_value(Value)
        _set_head(v, self.head)
        _set_args(v, self.args + (a,))
        _set_size(v, self.size + a.size)
        _set_hash(v, hash((self._hash, a._hash)))
        return v

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Value):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.size == other.size
            and self.head == other.head
            and self.args == other.args
        )

    def is_numeral(self) -> bool:
        return isinstance(self.head, Num)

    @property
    def numeral(self) -> int:
        if not isinstance(self.head, Num):
            raise ValueError(f"not a numeral value: {self!r}")
        return self.head.n


# Slot setters for ``Value.extend``: they bypass the frozen __setattr__ the
# way object.__setattr__ does, without its per-call attribute lookup.
_new_value = object.__new__
_set_head = Value.head.__set__
_set_args = Value.args.__set__
_set_size = Value.size.__set__
_set_hash = Value._hash.__set__

# Values produced by the machines are interned so that structural equality
# of results usually reduces to identity (the checker memoizes on values).
# The table is emptied once it holds more than INTERN_LIMIT entries, and
# then refilled with the pinned values: the constants the machine and the
# kernel keep for the life of the process, so that a reduction whose
# argument or value is a constant can still enter the memo below.
INTERN_LIMIT = 1_000_000
_INTERN: dict[Value, Value] = {}
_PINNED: dict[Value, Value] = {}

# Memo of the reference machine: whole reductions, each entry
# ``(value, cost, need)``, the steps the reduction takes and a value-size cap
# under which it completes (no value it builds is larger).  Two key spaces
# share it:
# - a whole S-redex ``f a`` (``f = S x y``) under ``id(f) << 64 | id(a)``, at
#   least 2**64, its cost counted after its firing step;
# - a closed term ``t`` evaluated without an environment under ``id(t)``,
#   below 2**64, its entry holding ``t`` as a fourth field.
# An entry is admitted only when _INTERN holds its value, and each object
# whose id keys it is held for as long as the entry: by _INTERN for ``f``
# and ``a`` (see ``remember``), by the entry for ``t`` (see
# ``remember_term``), so no id is reused while the entry exists.  A partial
# application ``f a`` has no entry: interning ``f a`` already returns its
# canonical object.  The memo is emptied with _INTERN, and on its own once
# it holds more than INTERN_LIMIT entries.
_APPLY_MEMO: dict[int, "tuple[Value, int, int] | tuple[Value, int, int, App]"] = {}


def remember(f: Value, a: Value, r: Value, cost: int, need: int) -> None:
    """Admit the S-redex ``f a = r``, ``cost`` steps after its firing,
    replayable under caps of ``need`` and above, when _INTERN holds f, a and r."""
    if _INTERN.get(f) is f and _INTERN.get(a) is a and _INTERN.get(r) is r:
        _admit(id(f) << 64 | id(a), (r, cost, need))


def remember_term(t: App, r: Value, cost: int, need: int) -> None:
    """Admit the closed term ``t``, evaluated to ``r`` in ``cost`` steps,
    replayable under caps of ``need`` and above, when _INTERN holds r."""
    if _INTERN.get(r) is r:
        _admit(id(t), (r, cost, need, t))


def _admit(key: int, entry) -> None:
    if len(_APPLY_MEMO) > INTERN_LIMIT:
        _APPLY_MEMO.clear()
    _APPLY_MEMO[key] = entry


def intern_value(v: Value) -> Value:
    hit = _INTERN.get(v)
    if hit is not None:
        return hit
    if len(_INTERN) > INTERN_LIMIT:
        _INTERN.clear()
        _APPLY_MEMO.clear()
        _INTERN.update(_PINNED)
    _INTERN[v] = v
    return v


def pin_value(v: Value) -> Value:
    """``intern_value(v)``, kept in _INTERN across its overflow clears."""
    v = intern_value(v)
    _PINNED[v] = v
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
class FuelConfig:
    max_steps: int = 100_000
    max_value_size: int = 1_000_000

    def __post_init__(self):
        if self.max_steps <= 0 or self.max_value_size <= 0:
            raise ValueError("fuel limits must be strictly positive")


DEFAULT_FUEL = FuelConfig()


@dataclass(frozen=True, slots=True)
class EnumBudget:
    """How far the checker enumerates schematic names: keys up to
    ``max_index``, ``generators_per_type`` sample elements per finite type."""

    max_index: int = 8
    generators_per_type: int = 6

    def __post_init__(self):
        if self.max_index <= 0 or self.generators_per_type <= 0:
            raise ValueError("budgets must be positive")


DEFAULT_BUDGET = EnumBudget()

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


def embed(v: Value, ident: str = "_") -> Opaque:
    """Wrap an already-evaluated element so it can occur inside a term."""
    return Opaque(ident, v)
