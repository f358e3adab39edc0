"""Surface syntax for terms: parser and pretty-printer.

Grammar: juxtaposition is left-associative application; ``\\x. t`` binds to
the end of the enclosing group; ``#3`` is a numeral; ``--`` starts a line
comment.  Keywords name the machine constants.  ``parse(print(t)) == t`` for
every printable tree.
"""

from __future__ import annotations

from .bracket import Lam, LambdaTerm
from .terms import App, Const, ConstKind, Num, Opaque, Value, Var

_KEYWORDS = {kind.value: Const(kind) for kind in ConstKind}

# Deepest nesting that ``parse`` accepts.  A level is a parenthesis, a binder
# name or an application, so a long left spine counts its length and the
# parsed tree is at most this many App and Lam nodes deep.  The parser takes
# up to two host frames per level, and recursive readers of source terms
# (equality and hashing of the frozen term classes, ``free_vars``) one, so
# deeper input would reach the interpreter's recursion limit (1000 frames);
# it is refused with a ParseError instead.  Compiling makes terms deeper, so
# ``compile_term`` and the walks over compiled terms use explicit stacks.
MAX_NESTING = 200


class ParseError(ValueError):
    def __init__(self, msg: str, pos: int, text: str):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{msg} at line {line}, column {col}")
        self.msg = msg
        self.pos = pos
        self.line = line
        self.col = col


class Lexer:
    """The tokens of a text: the term syntax, plus the scenario language's
    punctuation and bare naturals, so that ``parse`` reads terms in place."""

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []  # (kind, text, position)
        self._lex()
        self.idx = 0

    def _lex(self):
        text, i, n = self.text, 0, len(self.text)
        while i < n:
            ch = text[i]
            if ch in " \t\r\n":
                i += 1
            elif text.startswith("--", i):
                j = text.find("\n", i)
                i = n if j < 0 else j + 1
            elif text.startswith(_PAIRS, i):
                self.tokens.append((text[i : i + 2], text[i : i + 2], i))
                i += 2
            elif ch == "#" or ch.isdecimal():  # a numeral, or a bare natural
                j = start = i + (ch == "#")
                while j < n and text[j].isdecimal():
                    j += 1
                if j == start:
                    raise ParseError("numeral expected after '#'", i, text)
                self.tokens.append(("num" if ch == "#" else "nat", text[start:j], i))
                i = j
            elif ch in _SINGLES:
                self.tokens.append((ch, ch, i))
                i += 1
            elif ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] in "_'"):
                    j += 1
                self.tokens.append(("ident", text[i:j], i))
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r}", i, text)
        self.tokens.append(("eof", "", n))

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.idx]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok


_PAIRS = ("/\\", "\\/", "=>", "->")
_SINGLES = "().\\{}[];,~:"


def parse(src: str | Lexer) -> LambdaTerm:
    """The term ``src`` spells.  Text must hold one term and nothing else.
    From a token stream, the term at its position is read, and the stream is
    left at the first token that cannot continue it."""
    lx = Lexer(src) if type(src) is str else src
    t, _ = _parse_expr(lx, lx.text, 0)
    kind, val, pos = lx.peek()
    if kind != "eof" and lx is not src:
        raise ParseError(f"unexpected {val!r}", pos, lx.text)
    return t


def _too_deep(pos: int, text: str) -> ParseError:
    return ParseError(f"nesting deeper than {MAX_NESTING} levels", pos, text)


def _parse_expr(lx: Lexer, text: str, depth: int) -> tuple[LambdaTerm, int]:
    """The expression at ``depth`` levels and its height in App/Lam nodes."""
    kind, _, pos = lx.peek()
    if depth > MAX_NESTING:
        raise _too_deep(pos, text)
    if kind == "\\":
        return _parse_lambda(lx, text, depth)
    t, height = _parse_atom(lx, text, depth)
    while True:
        kind, _, pos = lx.peek()
        if kind == "\\":
            arg, arg_height = _parse_lambda(lx, text, depth)
        else:
            arg, arg_height = _parse_atom(lx, text, depth, optional=True)
            if arg is None:
                return t, height
        t, height = App(t, arg), max(height, arg_height) + 1
        if depth + height > MAX_NESTING:
            raise _too_deep(pos, text)
        if kind == "\\":
            return t, height


def _parse_lambda(lx: Lexer, text: str, depth: int) -> tuple[Lam, int]:
    lx.next()  # backslash
    names = []
    while True:
        kind, val, pos = lx.next()
        if kind != "ident":
            raise ParseError("binder name expected", pos, text)
        if val in _KEYWORDS:
            raise ParseError(f"keyword {val!r} cannot be bound", pos, text)
        names.append(val)
        kind, _, pos = lx.peek()
        if kind == ".":
            lx.next()
            break
        if kind != "ident":
            raise ParseError("'.' expected after binders", pos, text)
    body, height = _parse_expr(lx, text, depth + len(names))
    for name in reversed(names):
        body = Lam(name, body)
    return body, height + len(names)


def _parse_atom(
    lx: Lexer, text: str, depth: int, optional: bool = False
) -> tuple[LambdaTerm | None, int]:
    kind, val, pos = lx.peek()
    if kind == "num":
        lx.next()
        return Num(int(val)), 0
    if kind == "ident":
        lx.next()
        return _KEYWORDS.get(val, Var(val)), 0
    if kind == "(":
        lx.next()
        t = _parse_expr(lx, text, depth + 1)
        kind, _, pos = lx.next()
        if kind != ")":
            raise ParseError("')' expected", pos, text)
        return t
    if optional:
        return None, 0
    raise ParseError("term expected", pos, text)


def print_term(t: LambdaTerm | Value) -> str:
    """The surface syntax of t; a value prints as its head applied to its
    arguments.  Iterative, since evaluated and compiled terms can be deeper
    than the host recursion limit."""
    out: list[str] = []
    todo: list = [(t, False)]  # (term, in atom position) or literal text
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        t, atom_pos = item
        tt = type(t)
        if tt is App or (tt is Value and t.args):
            args: list = []  # last argument first
            while type(t) is App:
                args.append(t.arg)
                t = t.fun
            if type(t) is Value:
                args += reversed(t.args)
                t = t.head
            if atom_pos:
                out.append("(")
                todo.append(")")
            for a in args:
                todo += ((a, True), " ")
            todo.append((t, True))  # function position: lambdas need parentheses
        elif tt is Lam:
            names = []
            while type(t) is Lam:
                names.append(t.var)
                t = t.body
            if atom_pos:
                out.append("(")
                todo.append(")")
            out.append(f"\\{' '.join(names)}. ")
            todo.append((t, False))
        else:
            out.append(_atom(t.head if tt is Value else t))
    return "".join(out)


def _atom(t: LambdaTerm) -> str:
    match t:
        case Const(kind):
            return kind.value
        case Num(n):
            return f"#{n}"
        case Var(name):
            return name
        case Opaque(ident, value):
            return f"<{ident}>" if value is None else f"<{ident}=...>"
    raise TypeError(f"not a term: {t!r}")
