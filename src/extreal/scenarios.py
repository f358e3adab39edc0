"""Scenario files: declarations plus directives, executed in order.

Each line holds one declaration or directive; ``--`` starts a comment, and
any run of whitespace separates words as one space does:

    fuel 200000            budget 8            seed 7
    term two = SUCC #1
    realizer ir = i_r
    name n4 = nat 4
    name x  = { (#0, #0, nat 1); (#1, #1, nat 2) }
    formula f = eq(n4, n4)
    eval (P0 (P #1 #2)) expect #1
    check (ir, ir) f expect realized
    check (ir, ir) eq(nat 2, nat 2)
    check-with-witnesses (e, e) mem(nat 1, omega) => f witnesses [(w, w); (v, v)] expect realized
    synth-roundtrip ex y in n4. eq(nat 2, y)
    suite pca-laws

The text before `` expect `` is read as one token stream (the term lexer's,
which also knows ``{ } [ ] ; , ~ : /\\ \\/ => ->`` and bare naturals) by one
recursive-descent reader:

    pair     ::= ( term , term )
    name     ::= omega | nat N | sing name | upair name name | opair name name
               | F type | int term : type | graph term : type -> type
               | { triple ; ... } | ( name ) | declared-name
    triple   ::= ( term , term , name )
    type     ::= o | ( type ) type
    ref      ::= name | variable
    formula  ::= atom, joined by /\\ (tightest), \\/ (both left associative)
                 and => (right associative)
    atom     ::= ~ atom | ( formula ) | mem ( ref , ref ) | eq ( ref , ref )
               | all x in ref . formula | ex x in ref . formula
               | ALL x . formula | EX x . formula | declared-formula
    witnesses ::= witnesses [ pair ; ... ]

A term ends at the first token that cannot continue it, such as ``,``, ``:``
or an unmatched ``)``.  The name words ``omega nat sing upair opair F int
graph`` are reserved in name positions; any other identifier there that is
not a declared name is a bound variable.  A quantifier's variable shadows a
declared name in its body and cannot be a name word.  A quantifier's body
runs as far right as it can.  ``;``-separated lists skip empty items.  A
declaration binds one identifier that a later line can refer to: not a term
keyword (``term K``), a name word (``name nat``), a quantifier (``formula
all``) or ``expect``.  A term is closed but for declared terms.

After `` expect ``, ``eval`` takes ``error``, ``fuel-exhausted`` or a term
with a value, ``check`` and ``check-with-witnesses`` take ``realized``,
``refuted`` or ``unknown``, and ``synth-roundtrip`` takes ``agree`` or
``disagree``.

Every line runs under the scenario's current run (``terms.Run``): its fuel,
enumeration budget and seed, which a ``fuel``, ``budget`` or ``seed`` line
replaces for the lines after it.  An ``int`` name whose value fails
self-relatedness sampling under that run is still built, and adds a warning
to the report.

Exit status: 0 when every stated expectation holds, 1 on a mismatch, 2 on a
parse error.

This module imports only the machine half (terms, bracket abstraction, the
kernel and the parser), so ``term``/``eval``/``fuel``/``budget``/``seed``
lines run without the realizability layers.  Each of those loads at the first
line that needs it, by an import inside the reader method or ``_run_*``
function that uses it: ``names`` with the first name or type, ``formulas``
with the first formula, ``checker`` with the first realizer pair, ``check*``
or ``synth-roundtrip``, ``realizers`` with the first ``realizer`` or
``synth-roundtrip`` line and ``suites`` with the first ``suite`` line.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .bracket import compile_term, free_vars
from .kernel import NoValue, evaluate, reason
from .parser import _KEYWORDS, MAX_NESTING, Lexer, ParseError, parse, print_term
from .terms import Node, Run, Value, bind, set_field

if TYPE_CHECKING:  # for annotations only: each layer is imported where it runs
    from .checker import RealizerPair
    from .formulas import Formula, NameRef
    from .names import FinType, VName


class ScenarioError(ValueError):
    def __init__(self, msg: str, line: int):
        super().__init__(f"line {line}: {msg}")
        self.line = line


class DirectiveResult(Node):
    __slots__ = __match_args__ = ("line", "kind", "text", "outcome", "expected", "ok", "trace")

    def __init__(self, line: int, kind: str, text: str, outcome: str, expected: str | None, ok: bool,
                 trace: object = None):
        set_field(self, "line", line)
        set_field(self, "kind", kind)
        set_field(self, "text", text)
        set_field(self, "outcome", outcome)
        set_field(self, "expected", expected)
        set_field(self, "ok", ok)
        set_field(self, "trace", trace)


class ScenarioReport(Node):
    __slots__ = __match_args__ = ("results", "warnings")

    def __init__(self, results: list[DirectiveResult] | None = None, warnings: list[str] | None = None):
        set_field(self, "results", [] if results is None else results)
        set_field(self, "warnings", [] if warnings is None else warnings)  # "line N: message"

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


class _Env(Node):
    __slots__ = __match_args__ = ("run", "warnings", "terms", "names", "formulas")
    __setattr__ = object.__setattr__
    __hash__ = None

    def __init__(self, run: Run, warnings: list[str], terms: dict[str, object] | None = None,
                 names: dict[str, tuple[VName, int]] | None = None,
                 formulas: dict[str, tuple[Formula, int]] | None = None):
        self.run = run  # the current limits and seed, which every line runs under
        self.warnings = warnings  # the report's
        self.terms = {} if terms is None else terms  # name -> Term
        self.names = {} if names is None else names  # with its height
        self.formulas = {} if formulas is None else formulas  # with its height


def _strip_comment(line: str) -> str:
    idx = line.find("--")
    return line if idx < 0 else line[:idx]


def _top_words(text: str):
    """The ``(start, end)`` span of each word of text, words being split by
    runs of whitespace at paren/brace/bracket depth zero."""
    depth, start = 0, None
    for i, ch in enumerate(text):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch.isspace() and depth == 0:
            if start is not None:
                yield start, i
                start = None
        elif start is None:
            start = i
    if start is not None:
        yield start, len(text)


def _join(items: list, ops: list[str], op: str, cls) -> tuple[list, list[str]]:
    """Fold each run of ``items`` joined by ``op`` into one ``cls`` node,
    left associative; items are (formula, height) pairs."""
    out, out_ops = [items[0]], []
    for o, (g, h) in zip(ops, items[1:]):
        if o == op:
            f, height = out[-1]
            out[-1] = (cls(f, g), max(height, h) + 1)
        else:
            out.append((g, h))
            out_ops.append(o)
    return out, out_ops


_NAME_TOO_DEEP = f"name nesting deeper than {MAX_NESTING} levels"
_FORMULA_TOO_DEEP = f"formula nesting deeper than {MAX_NESTING} levels"
_NAME_WORDS = frozenset(("omega", "nat", "sing", "upair", "opair", "F", "int", "graph"))
_QUANTIFIERS = frozenset(("all", "ex", "ALL", "EX"))
_CONNECTIVES = ("/\\", "\\/", "=>")


class _Reader:
    """A directive body as one token stream, read by recursive descent.
    Each method reads one form of the grammar at the stream's position and
    leaves the stream after it; a malformed input is a ScenarioError."""

    def __init__(self, env: _Env, text: str, line: int):
        self.env, self.text, self.line = env, text, line
        self.bound: list[str] = []  # the quantifier variables in scope
        try:
            self.lx = Lexer(text)
        except ParseError as exc:
            raise self.error(exc.msg, exc.pos) from None

    def error(self, msg: str, pos: int | None = None) -> ScenarioError:
        """``msg`` at ``pos`` (by default the next token), quoting the rest of
        the body from there."""
        rest = self.text[self.lx.peek()[2] if pos is None else pos :].strip()
        if len(rest) > 40:
            rest = rest[:37] + "..."
        return ScenarioError(f"{msg} at {rest!r}" if rest else f"{msg} at end of line", self.line)

    def take(self, tok: str) -> bool:
        """Consume the next token if its text is ``tok``."""
        if self.lx.peek()[1] == tok:
            self.lx.next()
            return True
        return False

    def expect(self, tok: str) -> None:
        if not self.take(tok):
            raise self.error(f"{tok!r} expected")

    def ident(self) -> str:
        kind, word, _ = self.lx.peek()
        if kind != "ident":
            raise self.error("identifier expected")
        self.lx.next()
        return word

    def end(self) -> None:
        if self.lx.peek()[0] != "eof":
            raise self.error("trailing input")

    def items(self, close: str):
        """Yield once per item of a ``;``-separated list ended by ``close``,
        for the caller to read the item; empty items are skipped."""
        while True:
            while self.take(";"):
                pass
            if self.take(close):
                return
            yield
            if self.lx.peek()[1] not in (";", close):
                raise self.error(f"';' or {close!r} expected")

    def term(self):
        """A term, compiled, with each declared term name replaced; a free
        variable that is not a declared term is an error."""
        start = self.lx.peek()[2]
        try:
            t = parse(self.lx)
        except ParseError as exc:
            raise self.error(f"bad term: {exc.msg}", exc.pos) from None
        free = free_vars(t)
        unknown = free.difference(self.env.terms)
        if unknown:
            text = self.text[start : self.lx.peek()[2]].strip()
            raise ScenarioError(
                f"term {text!r} is not closed: free variable(s) {', '.join(sorted(unknown))}", self.line
            )
        # Each free variable is a declared term.  Compilation keeps the free
        # variables, so a closed term needs no resolution.
        t = compile_term(t)
        return bind(t, self.env.terms) if free else t

    def value(self) -> Value:
        """The value of a term the scenario needs as data; a term without one
        (machine error or fuel exhausted) is an error on this line."""
        start = self.lx.peek()[2]
        out = evaluate(self.term(), self.env.run)
        if isinstance(out, Value):
            return out
        text = self.text[start : self.lx.peek()[2]].strip()
        raise ScenarioError(f"term {text!r} does not evaluate: {reason(out)}", self.line)

    def pair(self) -> RealizerPair:
        from .checker import RealizerPair  # the checker loads with the first pair

        self.expect("(")
        a = self.value()
        self.expect(",")
        b = self.value()
        self.expect(")")
        return RealizerPair(a, b)

    def fintype(self, depth: int = 0) -> FinType:
        """``o`` or ``(dom)cod``, ``depth`` arrows down; both sides of an
        arrow are one level deeper."""
        from .names import TYPE_O, Arrow  # names load with the first name or type

        if depth > MAX_NESTING:
            raise ScenarioError(f"type nesting deeper than {MAX_NESTING} levels", self.line)
        if self.take("o"):
            return TYPE_O
        if not self.take("("):
            raise self.error("type expected")
        dom = self.fintype(depth + 1)
        self.expect(")")
        return Arrow(dom, self.fintype(depth + 1))

    def name(self, depth: int = 0) -> tuple[VName, int]:
        """A name ``depth`` levels down, and its height.

        A parenthesized name, the arguments of ``sing``/``upair``/``opair``
        and the members of an explicit name nest one level each, and the
        read recurses once per level; a declared name counts its own height.
        Either past ``MAX_NESTING`` is an error, as for formulas.
        """
        # Names load with the first name a scenario reads.
        from .names import (
            OMEGA, Explicit, Graph, Nat, OPair, Sing, UPair, eq_type, internalize, type_name,
        )

        if depth > MAX_NESTING:
            raise ScenarioError(_NAME_TOO_DEEP, self.line)
        kind, word, pos = self.lx.next()
        if kind == "(":
            out = self.name(depth + 1)
            self.expect(")")
            return out
        if kind == "{":
            triples, heights = [], []
            for _ in self.items("}"):
                self.expect("(")
                a = self.value()
                self.expect(",")
                b = self.value()
                self.expect(",")
                member, height = self.name(depth + 1)
                self.expect(")")
                triples.append((a, b, member))
                heights.append(height)
            return self.compound(Explicit(tuple(triples)), heights)
        if kind != "ident":
            raise self.error("name expected", pos)
        if word == "omega":
            return OMEGA, 0
        if word == "nat":
            kind, n, _ = self.lx.peek()
            if kind != "nat":
                raise self.error("nat needs a natural number")
            self.lx.next()
            return Nat(int(n)), 0
        constructors = {"sing": (Sing, 1), "upair": (UPair, 2), "opair": (OPair, 2)}
        if word in constructors:
            cls, arity = constructors[word]
            args = []
            for _ in range(arity):  # parentheses around an argument are free
                paren = self.take("(")
                args.append(self.name(depth + 1))
                if paren:
                    self.expect(")")
            return self.compound(cls(*(n for n, _ in args)), [h for _, h in args])
        if word == "F":
            return type_name(self.fintype()), 0
        if word == "int":
            a = self.value()
            self.expect(":")
            sigma = self.fintype()
            try:
                out = internalize(a, sigma)
            except ValueError as exc:
                text = self.text[pos : self.lx.peek()[2]].strip()
                raise ScenarioError(f"bad int name {text!r}: {exc}", self.line) from None
            # The name is built either way; a value that sampling shows is not
            # self-related at σ gets one warning per line.
            if eq_type(a, a, sigma, self.env.run).result is False:
                msg = (f"line {self.line}: internalizing a value that fails "
                       f"self-relatedness sampling at {sigma}")
                if msg not in self.env.warnings:
                    self.env.warnings.append(msg)
            return out, 0
        if word == "graph":
            f = self.value()
            self.expect(":")
            dom = self.fintype()
            self.expect("->")
            return Graph(f, dom, self.fintype()), 0
        if word in self.bound:
            raise ScenarioError(f"bound variable {word!r} where a name is expected", self.line)
        if word in self.env.names:
            return self.env.names[word]
        raise ScenarioError(f"unknown name {word!r}", self.line)

    def compound(self, name: VName, heights: list[int]) -> tuple[VName, int]:
        """A name one level above members of the given heights, and its height."""
        height = max(heights, default=-1) + 1
        if height > MAX_NESTING:
            raise ScenarioError(_NAME_TOO_DEEP, self.line)
        return name, height

    def ref(self) -> NameRef:
        """A name, or a variable: an identifier bound by an enclosing
        quantifier, which shadows a declared name, or one that is neither a
        name word nor a declared name."""
        kind, word, _ = self.lx.peek()
        if kind == "ident" and (
            word in self.bound or word not in _NAME_WORDS and word not in self.env.names
        ):
            self.lx.next()
            return word
        return self.name()[0]

    def formula(self, depth: int = 0) -> tuple[Formula, int]:
        """Atoms joined by connectives, ``depth`` levels down, and the height.

        ``/\\`` binds tightest, then ``\\/``, both left associative, then
        ``=>``, right associative.  Parentheses, ``~`` and quantifier bodies
        nest one level each, and the read recurses once per level; each
        connective adds one to the height of the formula, as a reference adds
        the height of the named formula.  Either past ``MAX_NESTING`` is an
        error, so no later walk over the formula reaches the host recursion
        limit.
        """
        from .formulas import And, Imp, Or  # formulas load with the first formula

        items, ops = [self.atom(depth)], []
        while self.lx.peek()[0] in _CONNECTIVES:
            ops.append(self.lx.next()[0])
            items.append(self.atom(depth))
        items, ops = _join(items, ops, "/\\", And)
        items, _ = _join(items, ops, "\\/", Or)
        f, height = items[-1]
        for g, h in reversed(items[:-1]):
            f, height = Imp(g, f), max(h, height) + 1
        if height > MAX_NESTING:
            raise ScenarioError(_FORMULA_TOO_DEEP, self.line)
        return f, height

    def atom(self, depth: int) -> tuple[Formula, int]:
        from .formulas import All, AllIn, Eq, Ex, ExIn, Mem, Not  # as in ``formula``

        if depth > MAX_NESTING:
            raise ScenarioError(_FORMULA_TOO_DEEP, self.line)
        kind, word, pos = self.lx.next()
        if kind == "~":
            body, height = self.atom(depth + 1)
            return Not(body), height + 1
        if kind == "(":
            out = self.formula(depth + 1)
            self.expect(")")
            return out
        if kind != "ident":
            raise self.error("formula expected", pos)
        if word in _QUANTIFIERS:
            # ``ref`` would read a name word as a name, never as the variable.
            var_pos = self.lx.peek()[2]
            var = self.ident()
            if var in _NAME_WORDS:
                raise self.error(f"name word {var!r} cannot be a bound variable", var_pos)
            bounded = word in ("all", "ex")
            if bounded:
                self.expect("in")
                bound = self.ref()
            self.expect(".")
            self.bound.append(var)
            body, height = self.formula(depth + 1)
            self.bound.pop()
            cls = {"all": AllIn, "ex": ExIn, "ALL": All, "EX": Ex}[word]
            return (cls(var, bound, body) if bounded else cls(var, body)), height + 1
        if word in ("mem", "eq") and self.take("("):
            x = self.ref()
            self.expect(",")
            y = self.ref()
            self.expect(")")
            return (Mem if word == "mem" else Eq)(x, y), 0
        if word in self.env.formulas:
            return self.env.formulas[word]
        raise ScenarioError(f"unknown formula {word!r}", self.line)

    def closed_formula(self) -> Formula:
        """A formula a directive checks: it must have no free variables."""
        from .formulas import fmt, free_formula_vars

        phi = self.formula()[0]
        free = free_formula_vars(phi)
        if free:
            raise ScenarioError(
                f"formula {fmt(phi)} is not closed: free variable(s) {', '.join(sorted(free))}",
                self.line,
            )
        return phi


def _read(env: _Env, text: str, line: int, form):
    """All of ``text`` as the ``form`` (a _Reader method) it must spell."""
    r = _Reader(env, text, line)
    out = form(r)
    r.end()
    return out


# The field of the run that each setting line replaces.
_SETTINGS = {"fuel": "max_steps", "budget": "max_index", "seed": "seed"}


def run_scenario(text: str, run: Run | None = None) -> ScenarioReport:
    """Run the lines of ``text`` in order, starting from ``run``, whose fuel,
    budget and seed ``fuel``/``budget``/``seed`` lines change.  An ``int``
    name whose value fails self-relatedness sampling under the current run
    adds one line to the report's ``warnings``."""
    report = ScenarioReport()
    env = _Env(Run() if run is None else run, report.warnings)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        head = line.split(None, 1)[0]
        rest = line[len(head) :].strip()
        if head in _SETTINGS:
            # A bad literal and an out-of-range limit both raise ValueError.
            try:
                env.run = env.run.replace(**{_SETTINGS[head]: int(rest)})
            except ValueError as exc:
                raise ScenarioError(f"bad {head} {rest!r}: {exc}", lineno) from None
        elif head in ("term", "name", "formula"):
            name, _, body = rest.partition("=")
            table, form = {"term": (env.terms, _Reader.term), "name": (env.names, _Reader.name),
                           "formula": (env.formulas, _Reader.formula)}[head]
            table[_declared(head, name, lineno)] = _read(env, body, lineno, form)
        elif head == "realizer":
            name, _, body = rest.partition("=")
            name = _declared(head, name, lineno)
            # The realizer library loads with the first realizer line.
            from .realizers import realizer_term

            try:
                env.terms[name] = realizer_term(body.strip())
            except KeyError as exc:
                raise ScenarioError(exc.args[0], lineno) from None
        elif head == "eval":
            report.results.append(_run_eval(env, rest, lineno))
        elif head in ("check", "check-with-witnesses"):
            report.results.append(_run_check(env, rest, lineno, head))
        elif head == "synth-roundtrip":
            report.results.append(_run_synth(env, rest, lineno))
        elif head == "suite":
            report.results.append(_run_suite_directive(env, rest, lineno))
        else:
            raise ScenarioError(f"unknown directive {head!r}", lineno)
    return report


# The identifiers a later line reads as something else than a declaration:
# term keywords, name words, quantifiers, and ``expect`` everywhere.
_RESERVED = {"term": {*_KEYWORDS, "expect"}, "realizer": {*_KEYWORDS, "expect"},
             "name": {*_NAME_WORDS, "expect"}, "formula": {*_QUANTIFIERS, "expect"}}


def _declared(head: str, name: str, lineno: int) -> str:
    """The identifier a ``head`` declaration binds; one that no later line
    could refer to (not one identifier, or a reserved word) is an error."""
    name = name.strip()
    try:
        kinds = [kind for kind, _, _ in Lexer(name).tokens]
    except ParseError:
        kinds = []
    if kinds != ["ident", "eof"] or name in _RESERVED[head]:
        raise ScenarioError(f"cannot declare {head} {name!r}: no later line could refer to it", lineno)
    return name


def _split_expect(text: str, lineno: int, words: tuple[str, ...] = ()) -> tuple[str, str | None]:
    """The body before the word ``expect`` at bracket depth zero and the
    expectation after it, if any; given ``words``, the expectation must be
    one of them."""
    body, expected = text.strip(), None
    for start, end in _top_words(text):
        if text[start:end] == "expect":
            body, expected = text[:start].strip(), text[end:].strip()
            break
    if words and expected is not None and expected not in words:
        raise ScenarioError(
            f"bad expectation {expected!r}: must be {', '.join(words[:-1])} or {words[-1]}", lineno
        )
    return body, expected


def _run_eval(env: _Env, rest: str, lineno: int) -> DirectiveResult:
    body, expected = _split_expect(rest, lineno)
    out = evaluate(_read(env, body, lineno, _Reader.term), env.run)
    if isinstance(out, Value):
        outcome, end = print_term(out), out
    elif out.error is None:
        outcome = end = "fuel-exhausted"
    else:  # a size-cap overflow ends as a crash does, so ``expect error`` holds
        outcome, end = f"error: {out.error}", "error"
    # The expectation names an end, or is a term whose value the result must be.
    if expected in (None, "error", "fuel-exhausted"):
        want = expected
    else:
        want = _read(env, expected, lineno, _Reader.value)
    return DirectiveResult(lineno, "eval", body, outcome, expected, want is None or end == want)


def _run_check(env: _Env, rest: str, lineno: int, kind: str) -> DirectiveResult:
    """``check``, or ``check-with-witnesses`` of an implication on the
    witness pairs that follow it."""
    from .checker import check, check_imp_on_witnesses  # the checker loads here
    from .formulas import Imp

    body, expected = _split_expect(rest, lineno, ("realized", "refuted", "unknown"))
    r = _Reader(env, body, lineno)
    pair, phi = r.pair(), r.closed_formula()
    if kind == "check":
        r.end()
        ver = check(pair, phi, env.run)
    else:
        if not isinstance(phi, Imp):
            raise ScenarioError("check-with-witnesses applies to an implication", lineno)
        r.expect("witnesses")
        r.expect("[")
        wits = [r.pair() for _ in r.items("]")]
        r.end()
        ver = check_imp_on_witnesses(pair, phi.hyp, phi.concl, wits, env.run)
    # A status prints as its word: realized, refuted or unknown.
    ok = expected is None or ver.status.value == expected
    return DirectiveResult(lineno, kind, body, ver.status.value, expected, ok, ver.trace)


def _run_synth(env: _Env, rest: str, lineno: int) -> DirectiveResult:
    # The checker and the realizer library load with the first synth-roundtrip.
    from .checker import RealizerPair, Status, check
    from .formulas import FragmentError, decide, fmt
    from .realizers import build

    body, expected = _split_expect(rest, lineno, ("agree", "disagree"))
    phi = _read(env, body, lineno, _Reader.closed_formula)
    try:
        evidence = decide(phi)
    except FragmentError:
        raise ScenarioError(
            f"synth-roundtrip needs a bounded-arithmetic formula, got {fmt(phi)}", lineno
        ) from None
    want = evidence is not None
    try:
        wit = build(evidence, env.run) if want else None
    except NoValue:  # the limits stop synthesis, as they can stop the check
        wit = None
    got = wit is not None and check(RealizerPair.both(wit), phi, env.run).status is Status.REALIZED
    agreed = want == got
    outcome = f"truth={want} realizers={got}"
    ok = agreed if expected is None else (expected == "agree") == agreed
    return DirectiveResult(lineno, "synth-roundtrip", body, outcome, expected, ok)


def _run_suite_directive(env: _Env, rest: str, lineno: int) -> DirectiveResult:
    from .suites import SUITES, run_suite  # the suites load with the first suite line

    name = rest.strip()
    if name not in SUITES:
        raise ScenarioError(f"unknown suite {name!r}", lineno)
    rep = run_suite(name, env.run)
    outcome = f"{len(rep.cases) - len(rep.failures)}/{len(rep.cases)} cases"
    detail = "\n".join(
        f"  FAIL {c.name}: {c.detail}"
        + ("\n    reproduce:\n      " + c.snippet.replace("\n", "\n      ") if c.snippet else "")
        for c in rep.failures
    )
    return DirectiveResult(lineno, "suite", name, outcome + ("\n" + detail if detail else ""),
                           None, rep.ok)
