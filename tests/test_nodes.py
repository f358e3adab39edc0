"""The record base ``terms.Node``: equality, hash, repr and immutability of
the package's node classes, against the methods ``dataclasses`` generates,
and the hash-consed ``terms.Canonical`` records, whose equality is identity."""

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
from extreal.formulas import All, AllIn, And, Eq, Ex, ExIn, Imp, Mem, Not, Or
from extreal.kernel import Crash, Open
from extreal.names import (OMEGA, TYPE_O, Arrow, EqTypeReport, Explicit, Graph, Internal, Nat, O, Omega,
                           OPair, Sing, TypeName, UPair)
from extreal.parser import MAX_NESTING
from extreal.proofs import NDProof
from extreal.scenarios import DirectiveResult, ScenarioReport
from extreal.suites import CaseResult, SuiteReport, random_finite_name, random_fragment_formula
from extreal.terms import (Canonical, Const, Defined, FuelExhausted, Node, StuckApplication, Value,
                           ValueSizeExceeded, num_value)


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
    if isinstance(x, Canonical):
        # Canonical records are hash-consed: compared and hashed by identity.
        assert hash(x) == object.__hash__(x) and x == x and type(x)(*_fields(x)) is x
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
            if isinstance(x, Canonical) or isinstance(y, Canonical):
                assert (x == y) is (x is y)
            else:
                assert (x == y) is (_as_twin(x) == _as_twin(y))
                assert (x == y) is (type(x) is type(y) and _fields(x) == _fields(y))


def _same(x, y) -> bool:
    """Structural equality, field by field down to plain data, never through
    a record's own ``==``."""
    if isinstance(x, Node):
        return type(x) is type(y) and all(_same(getattr(x, f), getattr(y, f)) for f in x.__match_args__)
    if isinstance(x, tuple):
        return type(y) is tuple and len(x) == len(y) and all(map(_same, x, y))
    return type(x) is type(y) and x == y


def _fixed_records() -> list[Canonical]:
    return [x for x in _fixed_examples() if isinstance(x, Canonical)]


# Builders of names and formulas: each call builds its record afresh.
_builders = st.one_of(
    st.builds(lambda s, rank: lambda: random_finite_name(random.Random(s), rank), _seeds, st.integers(0, 3)),
    st.builds(lambda s, rank: lambda: random_explicit(random.Random(s), rank), _seeds, st.integers(0, 3)),
    st.builds(lambda s, q: lambda: random_fragment_formula(random.Random(s), q), _seeds, st.integers(0, 3)),
    st.builds(lambda s, d: lambda: random_formula(random.Random(s), [Nat(0), Nat(1), OMEGA], d), _seeds,
              st.integers(0, 3)),
    st.builds(lambda i: lambda: _fixed_records()[i], st.integers(0, len(_fixed_records()) - 1)),
)


@settings(max_examples=300, deadline=None)
@given(_builders, _builders)
def test_canonical_records_are_one_object_exactly_when_structurally_equal(make_a, make_b):
    # A record built twice is one object, and two records reached inside
    # two drawn ones are one object exactly when they agree field by field.
    a, again, b = make_a(), make_a(), make_b()
    assert _same(a, again) and again is a
    records = [x for x in _nodes((a, again, b)) if isinstance(x, Canonical)][:40]
    for x in records:
        for y in records:
            assert _same(x, y) is (x is y)


def _subclasses(cls: type) -> list[type]:
    return [c for sub in cls.__subclasses__() for c in (sub, *_subclasses(sub))]


def test_canonical_records_write_no_init_eq_or_hash():
    # Every constant, name, finite type and formula is canonical, and takes
    # its construction, equality and hash from ``Canonical`` alone; a value
    # writes only its own ``__new__``, for its size.
    canonical = set(_subclasses(Canonical))
    assert {Const, Value, O, Arrow, Explicit, Nat, Omega, Sing, UPair, OPair, TypeName, Internal, Graph,
            Mem, Eq, And, Or, Not, Imp, AllIn, ExIn, All, Ex} <= canonical
    for cls in canonical:
        assert not {"__init__", "__eq__", "__hash__"} & vars(cls).keys(), cls
        assert "__new__" not in vars(cls) or cls is Value, cls
    # Construction is positional, one argument per field.
    for build in (lambda: Nat(), lambda: Mem(Nat(0)), lambda: Not(Nat(0), Nat(1)), lambda: Nat(n=0)):
        with pytest.raises(TypeError):
            build()


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
    """A record of each kind, ``depth`` levels deep, built twice."""
    def build(kind):
        x = Nat(0) if kind == "sing" else Mem(Nat(0), Nat(1))
        for i in range(depth):
            x = {"sing": Sing, "not": Not, "and": lambda x: And(x, Mem(Nat(i), "v"))}[kind](x)
        return x

    return {kind: (build(kind), build(kind)) for kind in ("sing", "not", "and")}


def test_deep_records_cost_one_call_per_level():
    # A name or formula as deep as the parser admits, built twice, is one
    # object, and it hashes, compares and prints under the default recursion
    # limit.
    assert sys.getrecursionlimit() >= 1000
    for a, b in _chains(MAX_NESTING).values():
        assert a is b and hash(a) == hash(b) and a == b and repr(a) == repr(b)
    # Its hash and equality are identity's, which cost the recursion limit
    # nothing at any depth.  Each level costs ``repr`` what ``hash`` of nested
    # tuples costs: one Python call per level, and one C entry into it on
    # interpreters that count those.  A dataclass's generated ``__repr__``
    # costs three.
    half = MAX_NESTING // 2
    shallow, deep = _chains(half), _chains(MAX_NESTING)
    for kind in shallow:
        for op, most in ((lambda a, b: hash(a), 0), (lambda a, b: a == b, 0), (lambda a, b: repr(a), 2)):
            per_level = (_limit_needed(lambda: op(*deep[kind])) - _limit_needed(lambda: op(*shallow[kind]))) / half
            assert per_level <= most, (kind, per_level)
