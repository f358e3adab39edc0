"""Scenario files: declarations plus directives, executed in order.

Grammar (line oriented; ``--`` comments; ``\\`` continues nothing — keep a
directive on one line):

    fuel 200000            budget 8            seed 7
    term two = SUCC #1
    realizer ir = i_r
    name n4 = nat 4
    name x  = { (#0, #0, nat 1); (#1, #1, nat 2) }
    formula f = eq(n4, n4)
    eval (P0 (P #1 #2)) expect #1
    check (ir, ir) f expect realized
    check (ir, ir) eq(nat 2, nat 2)
    check-with-witnesses (e, e) mem(nat 1, omega) => f witnesses [(w, w)] expect realized
    synth-roundtrip ex y in n4. eq(nat 2, y)
    suite pca-laws

Exit status: 0 when every stated expectation holds, 1 on a mismatch, 2 on a
parse error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .checker import RealizerPair, Status, check, check_imp_on_witnesses, in_fragment, truth_eval
from .formulas import (
    All,
    AllIn,
    And,
    Eq,
    Ex,
    ExIn,
    Formula,
    Imp,
    Mem,
    Not,
    Or,
    fmt,
    free_formula_vars,
)
from .kernel import eval_term
from .names import (
    DEFAULT_BUDGET,
    EnumBudget,
    Explicit,
    Graph,
    Nat,
    OMEGA,
    OPair,
    Sing,
    UPair,
    VName,
    parse_type,
    type_name,
)
from .parser import MAX_NESTING, ParseError, parse, print_term
from .realizers import realizer_term, synthesize
from .suites import SUITES, run_suite
from .terms import App, DEFAULT_FUEL, Defined, FuelConfig, FuelExhausted, MachineError, Value, Var
from .compiler import compile_term


class ScenarioError(ValueError):
    def __init__(self, msg: str, line: int):
        super().__init__(f"line {line}: {msg}")
        self.line = line


@dataclass
class DirectiveResult:
    line: int
    kind: str
    text: str
    outcome: str
    expected: str | None
    ok: bool
    trace: object = None


@dataclass
class ScenarioReport:
    results: list[DirectiveResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


@dataclass
class _Env:
    terms: dict[str, object] = field(default_factory=dict)  # name -> Term
    names: dict[str, VName] = field(default_factory=dict)
    name_heights: dict[str, int] = field(default_factory=dict)
    formulas: dict[str, Formula] = field(default_factory=dict)
    formula_heights: dict[str, int] = field(default_factory=dict)
    cfg: FuelConfig = DEFAULT_FUEL
    budget: EnumBudget = DEFAULT_BUDGET
    seed: int = 0


def _strip_comment(line: str) -> str:
    idx = line.find("--")
    return line if idx < 0 else line[:idx]


def _split_top(text: str, sep: str) -> list[str]:
    """Split on sep at paren/brace/bracket depth zero."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _parse_term(env: _Env, text: str, line: int):
    text = text.strip()
    try:
        t = parse(text)
    except ParseError as exc:
        raise ScenarioError(f"bad term {text!r}: {exc}", line)
    t = compile_term(t)
    return _resolve_term_names(env, t)


def _resolve_term_names(env: _Env, t):
    """t with each declared term name replaced by its term; a post-order walk
    on explicit stacks, because compiled terms outgrow the recursion limit."""
    todo, done = [t], []
    while todo:
        t = todo.pop()
        if t is None:  # both children done
            arg = done.pop()
            done.append(App(done.pop(), arg))
        elif type(t) is App:
            todo += (None, t.arg, t.fun)
        else:
            done.append(env.terms.get(t.name, t) if type(t) is Var else t)
    return done[0]


_NAME_TOO_DEEP = f"name nesting deeper than {MAX_NESTING} levels"


def _parse_name(env: _Env, text: str, line: int, depth: int = 0) -> tuple[VName, int]:
    """The name ``text`` denotes, ``depth`` levels down, and its height.

    The arguments of ``sing``/``upair``/``opair`` and the members of an
    explicit name nest one level each, and the parse recurses once per
    level; a declared name counts its own height.  Either past
    ``MAX_NESTING`` is an error, as for formulas.
    """
    if depth > MAX_NESTING:
        raise ScenarioError(_NAME_TOO_DEEP, line)
    text = text.strip()
    if text in env.names:
        return env.names[text], env.name_heights[text]
    if text == "omega":
        return OMEGA, 0
    head, _, rest = text.partition(" ")
    rest = rest.strip()
    if head == "nat":
        if not rest.isdecimal():
            raise ScenarioError(f"nat needs a natural number, got {rest!r}", line)
        return Nat(int(rest)), 0
    if head in ("sing", "upair", "opair"):
        args = _split_name_args(env, rest, line, 1 if head == "sing" else 2, depth + 1)
        cls = {"sing": Sing, "upair": UPair, "opair": OPair}[head]
        return _compound(cls(*(n for n, _ in args)), [h for _, h in args], line)
    if head == "F":
        return type_name(_parse_type(rest, line)), 0
    if head == "int":
        body, _, ty = rest.rpartition(":")
        from .names import internalize

        return internalize(_eval_value(env, body, line), _parse_type(ty, line), env.budget), 0
    if head == "graph":
        body, _, types = rest.rpartition(":")
        dom, _, cod = types.partition("->")
        f = _eval_value(env, body, line)
        return Graph(f, _parse_type(dom, line), _parse_type(cod, line)), 0
    if text.startswith("{"):
        if not text.endswith("}"):
            raise ScenarioError("unterminated explicit name", line)
        inner = text[1:-1].strip()
        triples, heights = [], []
        if inner:
            for part in _split_top(inner, ";"):
                part = part.strip()
                if not part:
                    continue
                if not (part.startswith("(") and part.endswith(")")):
                    raise ScenarioError(f"triple expected, got {part!r}", line)
                fields = _split_top(part[1:-1], ",")
                if len(fields) != 3:
                    raise ScenarioError("triples have three components", line)
                t1 = _eval_value(env, fields[0], line)
                t2 = _eval_value(env, fields[1], line)
                member, height = _parse_name(env, fields[2], line, depth + 1)
                triples.append((t1, t2, member))
                heights.append(height)
        return _compound(Explicit(tuple(triples)), heights, line)
    raise ScenarioError(f"unknown name syntax {text!r}", line)


def _compound(name: VName, heights: list[int], line: int) -> tuple[VName, int]:
    """A name one level above members of the given heights, and its height."""
    height = max(heights, default=-1) + 1
    if height > MAX_NESTING:
        raise ScenarioError(_NAME_TOO_DEEP, line)
    return name, height


def _parse_type(text: str, line: int):
    try:
        return parse_type(text)
    except ValueError as exc:
        raise ScenarioError(f"bad type {text.strip()!r}: {exc}", line) from None


def _split_name_args(
    env: _Env, text: str, line: int, n: int, depth: int
) -> list[tuple[VName, int]]:
    """The ``n`` arguments of a name constructor, each parsed ``depth``
    levels down, with their heights.  Without parentheses the arguments are
    ``n`` single tokens; otherwise each is a parenthesized name."""
    if "(" not in text:
        toks = [p for p in _split_top(text, " ") if p.strip()]
        if len(toks) == n:
            return [_parse_name(env, t, line, depth) for t in toks]
    pieces, nest, cur = [], 0, []
    for ch in text:
        if ch == "(":
            nest += 1
            if nest == 1:
                cur = []
                continue
        elif ch == ")":
            nest -= 1
            if nest == 0:
                pieces.append("".join(cur))
                continue
        if nest > 0:
            cur.append(ch)
        elif not ch.isspace():
            raise ScenarioError(
                f"compound name arguments must be parenthesized: {text!r}", line
            )
    if len(pieces) != n:
        raise ScenarioError(f"expected {n} name argument(s) in {text!r}", line)
    return [_parse_name(env, p, line, depth) for p in pieces]


def _eval_value(env: _Env, text: str, line: int) -> Value:
    """The value of a term the scenario needs as data; a term without one
    (machine error or fuel exhausted) is a ScenarioError on this line."""
    t = _parse_term(env, text, line)
    try:
        out = eval_term(t, None, env.cfg)
    except MachineError as exc:
        raise ScenarioError(
            f"term {text.strip()!r} does not evaluate: {type(exc).__name__}: {exc}", line
        ) from None
    if not isinstance(out, Defined):
        raise ScenarioError(f"term {text.strip()!r} does not evaluate: fuel exhausted", line)
    return out.value


def _formula(env: _Env, text: str, line: int, depth: int) -> tuple[Formula, int]:
    """All of ``text`` as a formula ``depth`` levels down, and its height.

    Parentheses, ``~`` and quantifier bodies nest one level each, and the
    parse recurses once per level; each connective adds one to the height of
    the formula, as a reference adds the height of the named formula.  Either
    past ``MAX_NESTING`` is an error, so no later walk over the formula
    reaches the host recursion limit.
    """
    text = text.strip()
    if text in env.formulas:
        return env.formulas[text], env.formula_heights[text]
    f, rest, height = _formula_expr(env, text, line, depth)
    if rest.strip():
        raise ScenarioError(f"trailing input after formula: {rest!r}", line)
    return f, height


def _formula_expr(env: _Env, text: str, line: int, depth: int):
    """Atoms joined by connectives: ``/\\`` binds tightest, then ``\\/``,
    both left associative, then ``=>``, right associative."""
    f, rest, height = _formula_atom(env, text, line, depth)
    items, ops = [(f, height)], []
    while True:
        rest = rest.lstrip()
        op = next((o for o in ("/\\", "\\/", "=>") if rest.startswith(o)), None)
        if op is None:
            break
        f, rest, height = _formula_atom(env, rest[len(op):], line, depth)
        items.append((f, height))
        ops.append(op)
    items, ops = _join(items, ops, "/\\", And)
    items, _ = _join(items, ops, "\\/", Or)
    f, height = items[-1]
    for g, h in reversed(items[:-1]):
        f, height = Imp(g, f), max(h, height) + 1
    if height > MAX_NESTING:
        raise ScenarioError(f"formula nesting deeper than {MAX_NESTING} levels", line)
    return f, rest, height


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


def _take_balanced(text: str, line: int) -> tuple[str, str]:
    assert text[0] == "("
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return text[1:i], text[i + 1 :]
    raise ScenarioError("unbalanced parentheses in formula", line)


def _formula_atom(env: _Env, text: str, line: int, depth: int):
    text = text.lstrip()
    if depth > MAX_NESTING:
        raise ScenarioError(f"formula nesting deeper than {MAX_NESTING} levels", line)
    if not text:
        raise ScenarioError("formula expected", line)
    if text.startswith("~"):
        body, rest, height = _formula_atom(env, text[1:], line, depth + 1)
        return Not(body), rest, height + 1
    if text.startswith("("):
        inner, rest = _take_balanced(text, line)
        f, height = _formula(env, inner, line, depth + 1)
        return f, rest, height
    for kw, cls in (("all ", AllIn), ("ex ", ExIn)):
        if text.startswith(kw):
            rest = text[len(kw):]
            var, _, rest = rest.partition(" in ")
            var = var.strip()
            bound_text, _, body_text = rest.partition(".")
            bound = _name_ref(env, bound_text.strip(), line)
            body, rest2, height = _formula_expr(env, body_text, line, depth + 1)
            return cls(var, bound, body), rest2, height + 1
    for kw, cls in (("ALL ", All), ("EX ", Ex)):
        if text.startswith(kw):
            rest = text[len(kw):]
            var, _, body_text = rest.partition(".")
            body, rest2, height = _formula_expr(env, body_text, line, depth + 1)
            return cls(var.strip(), body), rest2, height + 1
    for kw, cls in (("mem", Mem), ("eq", Eq)):
        if text.startswith(kw) and text[len(kw):].lstrip().startswith("("):
            after = text[len(kw):].lstrip()
            inner, rest = _take_balanced(after, line)
            args = _split_top(inner, ",")
            if len(args) != 2:
                raise ScenarioError(f"{kw} takes two arguments", line)
            return cls(_name_ref(env, args[0].strip(), line),
                       _name_ref(env, args[1].strip(), line)), rest, 0
    # bare formula reference
    for name, f in env.formulas.items():
        if text.startswith(name):
            return f, text[len(name):], env.formula_heights[name]
    raise ScenarioError(f"cannot parse formula at {text!r}", line)


def _name_ref(env: _Env, text: str, line: int):
    # A lowercase identifier that is not a declared name is a bound variable.
    if text in env.names:
        return env.names[text]
    if text.isidentifier() and not any(text.startswith(k) for k in ("nat", "omega", "sing", "upair", "opair")):
        return text
    return _parse_name(env, text, line)[0]


def _closed_formula(env: _Env, text: str, line: int) -> Formula:
    """A formula a directive checks: it must have no free variables."""
    phi = _formula(env, text, line, 0)[0]
    free = free_formula_vars(phi)
    if free:
        raise ScenarioError(
            f"formula {fmt(phi)} is not closed: free variable(s) {', '.join(sorted(free))}", line
        )
    return phi


def _parse_pair(env: _Env, text: str, line: int) -> RealizerPair:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ScenarioError(f"realizer pair expected, got {text!r}", line)
    parts = _split_top(text[1:-1], ",")
    if len(parts) != 2:
        raise ScenarioError("realizer pairs have two components", line)
    va = _eval_value(env, parts[0], line)
    vb = _eval_value(env, parts[1], line)
    return RealizerPair(va, vb)


_STATUS_WORDS = {
    "realized": Status.REALIZED,
    "refuted": Status.REFUTED,
    "unknown": Status.UNKNOWN,
}


def run_scenario(text: str) -> ScenarioReport:
    env = _Env()
    report = ScenarioReport()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head in ("fuel", "budget", "seed"):
            # A bad literal and an out-of-range limit both raise ValueError.
            try:
                n = int(rest)
                if head == "fuel":
                    env.cfg = FuelConfig(max_steps=n, max_value_size=env.cfg.max_value_size)
                elif head == "budget":
                    env.budget = EnumBudget(max_index=n,
                                            generators_per_type=env.budget.generators_per_type)
                else:
                    env.seed = n
            except ValueError as exc:
                raise ScenarioError(f"bad {head} {rest!r}: {exc}", lineno) from None
        elif head == "term":
            name, _, body = rest.partition("=")
            env.terms[name.strip()] = _parse_term(env, body, lineno)
        elif head == "realizer":
            name, _, body = rest.partition("=")
            try:
                env.terms[name.strip()] = realizer_term(body.strip())
            except KeyError as exc:
                raise ScenarioError(str(exc), lineno)
        elif head == "name":
            name, _, body = rest.partition("=")
            name = name.strip()
            env.names[name], env.name_heights[name] = _parse_name(env, body, lineno)
        elif head == "formula":
            name, _, body = rest.partition("=")
            phi, height = _formula(env, body.strip(), lineno, 0)
            env.formulas[name.strip()] = phi
            env.formula_heights[name.strip()] = height
        elif head == "eval":
            report.results.append(_run_eval(env, rest, lineno))
        elif head == "check":
            report.results.append(_run_check(env, rest, lineno))
        elif head == "check-with-witnesses":
            report.results.append(_run_check_witnesses(env, rest, lineno))
        elif head == "synth-roundtrip":
            report.results.append(_run_synth(env, rest, lineno))
        elif head == "suite":
            report.results.append(_run_suite_directive(env, rest, lineno))
        else:
            raise ScenarioError(f"unknown directive {head!r}", lineno)
    return report


def _split_expect(text: str) -> tuple[str, str | None]:
    parts = _split_top(text, " ")
    for i, p in enumerate(parts):
        if p == "expect":
            return " ".join(parts[:i]).strip(), " ".join(parts[i + 1 :]).strip()
    return text.strip(), None


def _run_eval(env: _Env, rest: str, lineno: int) -> DirectiveResult:
    body, expected = _split_expect(rest)
    t = _parse_term(env, body, lineno)
    try:
        out = eval_term(t, None, env.cfg)
    except MachineError as exc:
        outcome = f"error: {exc}"
        ok = expected is not None and expected.strip() == "error"
        return DirectiveResult(lineno, "eval", body, outcome, expected, ok if expected else True)
    if isinstance(out, FuelExhausted):
        outcome = "fuel-exhausted"
        ok = expected in (None, "fuel-exhausted")
        return DirectiveResult(lineno, "eval", body, outcome, expected, bool(ok))
    outcome = print_term(out.value)
    if expected is None:
        return DirectiveResult(lineno, "eval", body, outcome, None, True)
    want = _eval_value(env, expected, lineno)
    return DirectiveResult(lineno, "eval", body, outcome, expected, out.value == want)


def _run_check(env: _Env, rest: str, lineno: int) -> DirectiveResult:
    body, expected = _split_expect(rest)
    body = body.strip()
    if not body.startswith("("):
        raise ScenarioError("check needs a realizer pair", lineno)
    pair_text, after = _take_balanced(body, lineno)
    pair = _parse_pair(env, f"({pair_text})", lineno)
    phi = _closed_formula(env, after.strip(), lineno)
    ver = check(pair, phi, env.budget, env.cfg)
    ok = True if expected is None else ver.status is _STATUS_WORDS.get(expected, None)
    return DirectiveResult(lineno, "check", body, ver.status.value, expected, bool(ok), ver.trace)


def _run_check_witnesses(env: _Env, rest: str, lineno: int) -> DirectiveResult:
    body, expected = _split_expect(rest)
    if "witnesses" not in body:
        raise ScenarioError("check-with-witnesses needs a witnesses [...] block", lineno)
    main, _, wtext = body.partition("witnesses")
    main = main.strip()
    pair_text, after = _take_balanced(main, lineno)
    pair = _parse_pair(env, f"({pair_text})", lineno)
    imp = _closed_formula(env, after.strip(), lineno)
    if not isinstance(imp, Imp):
        raise ScenarioError("check-with-witnesses applies to an implication", lineno)
    wtext = wtext.strip()
    if not (wtext.startswith("[") and wtext.endswith("]")):
        raise ScenarioError("witnesses must be bracketed", lineno)
    wits = []
    for part in _split_top(wtext[1:-1], ";"):
        part = part.strip()
        if part:
            wits.append(_parse_pair(env, part, lineno))
    ver = check_imp_on_witnesses(pair, imp.hyp, imp.concl, wits, env.budget, env.cfg)
    ok = True if expected is None else ver.status is _STATUS_WORDS.get(expected, None)
    return DirectiveResult(lineno, "check-with-witnesses", body, ver.status.value,
                           expected, bool(ok), ver.trace)


def _run_synth(env: _Env, rest: str, lineno: int) -> DirectiveResult:
    body, expected = _split_expect(rest)
    phi = _closed_formula(env, body, lineno)
    if not in_fragment(phi):
        raise ScenarioError(
            f"synth-roundtrip needs a bounded-arithmetic formula, got {fmt(phi)}", lineno
        )
    want = truth_eval(phi)
    wit = synthesize(phi, env.budget, env.cfg)
    got = wit is not None and check(wit, phi, env.budget, env.cfg).status is Status.REALIZED
    agreed = want == got
    outcome = f"truth={want} realizers={got}"
    ok = agreed if expected is None else (expected == "agree") == agreed
    return DirectiveResult(lineno, "synth-roundtrip", body, outcome, expected, ok)


def _run_suite_directive(env: _Env, rest: str, lineno: int) -> DirectiveResult:
    name = rest.strip()
    if name not in SUITES:
        raise ScenarioError(f"unknown suite {name!r}", lineno)
    rep = run_suite(name, env.seed, env.cfg, env.budget)
    outcome = f"{len(rep.cases) - len(rep.failures)}/{len(rep.cases)} cases"
    detail = "\n".join(
        f"  FAIL {c.name}: {c.detail}" + (f"\n    reproduce:\n      {c.snippet}" if c.snippet else "")
        for c in rep.failures
    )
    return DirectiveResult(lineno, "suite", name, outcome + ("\n" + detail if detail else ""),
                           None, rep.ok)
