"""The record base ``terms.Node``: equality, hash, repr and immutability of
the package's node classes, against the methods ``dataclasses`` generates."""

import dataclasses
import functools
import random
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from test_compiler import _terms
from test_crosscheck import random_explicit, random_formula
from test_machine import _values

from extreal.checker import RealizerPair, Status, Trace
from extreal.formulas import All, And, Ex, Imp, Mem, Not
from extreal.kernel import Crash, Open
from extreal.names import OMEGA, TYPE_O, Arrow, EqTypeReport, Graph, Internal, Nat, Sing, TypeName
from extreal.parser import MAX_NESTING
from extreal.proofs import NDProof
from extreal.scenarios import DirectiveResult, ScenarioReport
from extreal.suites import CaseResult, SuiteReport, random_finite_name, random_fragment_formula
from extreal.terms import Defined, FuelExhausted, Node, StuckApplication, Value, ValueSizeExceeded, num_value


@functools.cache
def _twin(cls: type) -> type:
    """The frozen dataclass with ``cls``'s name and fields: the oracle for
    the format, equality and hash a node class had as a dataclass."""
    return dataclasses.make_dataclass(cls.__qualname__, cls.__match_args__, frozen=True)


def _fields(x: Node) -> tuple:
    return tuple(getattr(x, f) for f in x.__match_args__)


def _as_twin(x: Node):
    return _twin(type(x))(*_fields(x))


def _nodes(root) -> list[Node]:
    """Every node reachable from ``root`` through fields and tuples, once."""
    out, seen, stack = [], set(), [root]
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, tuple):
            stack.extend(x)
        elif isinstance(x, Node):
            out.append(x)
            stack.extend(_fields(x))
    return out


def _fixed_examples() -> list[Node]:
    """One record of each class the generators below do not draw."""
    v = num_value(2)
    return [
        Arrow(TYPE_O, Arrow(TYPE_O, TYPE_O)), TypeName(TYPE_O), Internal(v, TYPE_O),
        Graph(v, TYPE_O, TYPE_O), OMEGA, EqTypeReport(None, 1, 2), EqTypeReport(False, 0, 3, v),
        Crash(StuckApplication("PRED #0")), Open(), Open(ValueSizeExceeded("cap")),
        Defined(v, 3), FuelExhausted(7, "fuel"), RealizerPair(v, Value(v.head)),
        Imp(Mem(Nat(0), Nat(1)), Not(All("x", Ex("y", Mem("x", "y"))))),
        NDProof("assume", Mem(Nat(0), Nat(1)), label="h"),
        CaseResult("case", True, "detail"), SuiteReport("suite", 0, []),
        DirectiveResult(1, "eval", "K", "K", None, True), ScenarioReport([], ["line 1: w"]),
    ]


_seeds = st.integers(0, 2**32 - 1)
_drawn = st.one_of(
    _terms(binders=True),
    _values,
    st.builds(lambda s, rank: random_finite_name(random.Random(s), rank), _seeds, st.integers(0, 3)),
    st.builds(lambda s, rank: random_explicit(random.Random(s), rank), _seeds, st.integers(0, 3)),
    st.builds(lambda s, q: random_fragment_formula(random.Random(s), q), _seeds, st.integers(0, 3)),
    st.builds(lambda s, d: random_formula(random.Random(s), [Nat(0), Nat(1), OMEGA], d), _seeds,
              st.integers(0, 3)),
    st.sampled_from(_fixed_examples()),
)


def _hash(x):
    try:
        return hash(x)
    except TypeError:  # a list field, as in a report
        return TypeError


def _check_alone(x: Node) -> None:
    assert repr(x) == repr(_as_twin(x))
    if isinstance(x, Value):
        # Values are hash-consed: compared and hashed by identity.
        assert hash(x) == object.__hash__(x) and x == x and Value(x.head, x.args) is x
        assert weakref.ref(x)() is x
    else:
        assert _hash(x) == _hash(_fields(x)) == _hash(_as_twin(x))
        again = type(x)(*_fields(x))
        assert again == x and not again != x and again is not x
    for name in (*x.__match_args__, "stray"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)


@settings(max_examples=300, deadline=None)
@given(_drawn, _drawn)
def test_nodes_behave_as_the_dataclasses_they_replace(a, b):
    for x in _nodes(a):
        _check_alone(x)
    for x in _nodes(a)[:20]:
        for y in _nodes(b)[:20]:
            if isinstance(x, Value) or isinstance(y, Value):
                assert (x == y) is (x is y)
            else:
                assert (x == y) is (_as_twin(x) == _as_twin(y))
                assert (x == y) is (type(x) is type(y) and _fields(x) == _fields(y))


def test_mutable_records_assign_and_do_not_hash():
    trace = Trace("check", Status.UNKNOWN)
    trace.status, trace.note = Status.REALIZED, "found"
    trace.children.append(Trace("child", Status.REALIZED))
    assert repr(trace) == "Trace(clause='check', status=<Status.REALIZED: 'realized'>, note='found', " \
                          "exhaustive=False, witness_directed=False)"
    with pytest.raises(TypeError):
        hash(trace)


def _limit_needed(op) -> int:
    """The lowest recursion limit under which ``op()`` runs."""
    old = sys.getrecursionlimit()
    lo, hi = 1, old
    try:
        while lo < hi:
            mid = (lo + hi) // 2
            try:
                sys.setrecursionlimit(mid)  # raises below the current depth
                op()
                hi = mid
            except RecursionError:
                lo = mid + 1
    finally:
        sys.setrecursionlimit(old)
    return lo


def _chains(depth: int) -> dict[str, tuple[Node, Node]]:
    """Two equal, unshared records of each kind, ``depth`` levels deep."""
    def build(kind):
        x = Nat(0) if kind == "sing" else Mem(Nat(0), Nat(1))
        for i in range(depth):
            x = {"sing": Sing, "not": Not, "and": lambda x: And(x, Mem(Nat(i), "v"))}[kind](x)
        return x

    return {kind: (build(kind), build(kind)) for kind in ("sing", "not", "and")}


def test_deep_records_cost_one_call_per_level():
    # A name or formula as deep as the parser admits hashes, compares and
    # prints under the default recursion limit.
    assert sys.getrecursionlimit() >= 1000
    for a, b in _chains(MAX_NESTING).values():
        assert hash(a) == hash(b) and a == b and repr(a) == repr(b)
    # And each level costs the recursion limit what ``hash`` of nested
    # tuples costs: one Python call per level, and one C entry into it on
    # interpreters that count those.  A dataclass's generated ``__eq__`` and
    # ``__repr__`` cost three.
    half = MAX_NESTING // 2
    shallow, deep = _chains(half), _chains(MAX_NESTING)
    for kind in shallow:
        for op in (lambda a, b: hash(a), lambda a, b: a == b, lambda a, b: repr(a)):
            per_level = (_limit_needed(lambda: op(*deep[kind])) - _limit_needed(lambda: op(*shallow[kind]))) / half
            assert per_level <= 2, (kind, per_level)
