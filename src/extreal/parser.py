"""Surface syntax for terms: parser and pretty-printer.

Grammar: juxtaposition is left-associative application; ``\\x. t`` binds to
the end of the enclosing group; ``#3`` is a numeral; ``--`` starts a line
comment.  Keywords name the machine constants.  ``parse(print(t)) == t`` for
every printable tree.
"""

from __future__ import annotations

from .bracket import Lam, LambdaTerm
from .terms import App, Const, ConstKind, Num, Opaque, Term, Var

_KEYWORDS = {kind.value: Const(kind) for kind in ConstKind}

# Deepest nesting of parentheses and binders that ``parse`` accepts.
# The parser takes up to two host frames per level and ``compile_term`` one,
# so deeper input would hit the interpreter's recursion limit (1000 frames)
# here or in the compiler; it is refused with a ParseError instead.
MAX_NESTING = 200


class ParseError(ValueError):
    def __init__(self, msg: str, pos: int, text: str):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{msg} at line {line}, column {col}")
        self.pos = pos
        self.line = line
        self.col = col


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
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
            elif ch == "#":
                j = i + 1
                while j < n and text[j].isdigit():
                    j += 1
                if j == i + 1:
                    raise ParseError("numeral expected after '#'", i, text)
                self.tokens.append(("num", text[i + 1 : j], i))
                i = j
            elif ch in "().\\":
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


def parse(text: str) -> LambdaTerm:
    lx = _Lexer(text)
    t = _parse_expr(lx, text, 0)
    kind, val, pos = lx.peek()
    if kind != "eof":
        raise ParseError(f"unexpected {val!r}", pos, text)
    return t


def _parse_expr(lx: _Lexer, text: str, depth: int) -> LambdaTerm:
    kind, _, pos = lx.peek()
    if depth > MAX_NESTING:
        raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos, text)
    if kind == "\\":
        return _parse_lambda(lx, text, depth)
    t = _parse_atom(lx, text, depth)
    if t is None:
        raise ParseError("term expected", pos, text)
    while True:
        kind, _, _ = lx.peek()
        if kind == "\\":
            t = App(t, _parse_lambda(lx, text, depth))
            return t
        nxt = _parse_atom(lx, text, depth, optional=True)
        if nxt is None:
            return t
        t = App(t, nxt)


def _parse_lambda(lx: _Lexer, text: str, depth: int) -> Lam:
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
    body = _parse_expr(lx, text, depth + len(names))
    for name in reversed(names):
        body = Lam(name, body)
    return body


def _parse_atom(lx: _Lexer, text: str, depth: int, optional: bool = False) -> LambdaTerm | None:
    kind, val, pos = lx.peek()
    if kind == "num":
        lx.next()
        return Num(int(val))
    if kind == "ident":
        lx.next()
        return _KEYWORDS.get(val, Var(val))
    if kind == "(":
        lx.next()
        t = _parse_expr(lx, text, depth + 1)
        kind, _, pos = lx.next()
        if kind != ")":
            raise ParseError("')' expected", pos, text)
        return t
    if optional:
        return None
    raise ParseError("term expected", pos, text)


def print_term(t: LambdaTerm) -> str:
    return _pp(t, False)


def _pp(t: LambdaTerm, atom_pos: bool) -> str:
    match t:
        case Const(kind):
            return kind.value
        case Num(n):
            return f"#{n}"
        case Var(name):
            return name
        case Opaque(ident, value):
            tag = f"<{ident}>" if value is None else f"<{ident}=...>"
            return tag
        case Lam():
            names = []
            body = t
            while isinstance(body, Lam):
                names.append(body.var)
                body = body.body
            s = f"\\{' '.join(names)}. {_pp(body, False)}"
            return f"({s})" if atom_pos else s
        case App(fun, arg):
            s = f"{_pp_fun(fun)} {_pp(arg, True)}"
            return f"({s})" if atom_pos else s
    raise TypeError(f"not a term: {t!r}")


def _pp_fun(t: LambdaTerm) -> str:
    # Function position: applications stay bare (left association), lambdas
    # need parentheses.
    if isinstance(t, App):
        return f"{_pp_fun(t.fun)} {_pp(t.arg, True)}"
    return _pp(t, True)
