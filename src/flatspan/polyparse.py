"""Text grammar for polynomials.

    expr   := term (('+'|'-') term)*
    term   := '-'* factor ('*' '-'* factor)*
    factor := atom ('^' integer)?
    atom   := integer ('/' integer)? | identifier | '(' expr ')'

Identifiers are ``[A-Za-z_][A-Za-z0-9_]*`` and must name ring variables.
Parentheses nest at most :data:`MAX_NESTING` deep, so the recursive
descent stays far from the interpreter's recursion limit.  Whitespace is
insignificant.  ``format_polynomial`` emits the canonical
form (terms in descending graded-reverse-lex order) and parsing it back
reproduces the polynomial bit for bit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .fields import Field, FieldError, RationalField
from .poly import MAX_EXPONENT, Polynomial, PolynomialRing

# deepest parenthesis nesting accepted; each level takes four parser frames
MAX_NESTING = 100


class ParseError(ValueError):
    def __init__(self, message: str, line: int = 1, col: int = 1):
        super().__init__(f"{message} (line {line}, col {col})")
        self.message = message
        self.line = line
        self.col = col


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^/()]))"
)


@dataclass
class _Tok:
    kind: str  # num | ident | op | eof
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            line, col = _position(text, pos)
            raise ParseError(f"unexpected character {stripped[0]!r}", line, col)
        kind = m.lastgroup
        line, col = _position(text, m.start(kind))
        toks.append(_Tok(kind, m.group(kind), line, col))
        pos = m.end()
    end_line, end_col = _position(text, len(text))
    toks.append(_Tok("eof", "", end_line, end_col))
    return toks


def _position(text: str, pos: int) -> tuple[int, int]:
    """One-based line and column of offset ``pos``."""
    line = text.count("\n", 0, pos)
    return line + 1, pos - text.rfind("\n", 0, pos)


class _Parser:
    def __init__(self, toks: list[_Tok], ring: PolynomialRing):
        self.toks = toks
        self.i = 0
        self.ring = ring
        self.depth = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str) -> _Tok:
        t = self.next()
        if t.kind != "op" or t.text != op:
            raise ParseError(f"expected {op!r}, found {t.text or 'end of input'!r}", t.line, t.col)
        return t

    def parse_expr(self) -> Polynomial:
        total = self.parse_term()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in "+-":
                self.next()
                rhs = self.parse_term()
                total = total + rhs if t.text == "+" else total - rhs
            else:
                return total

    def parse_term(self) -> Polynomial:
        sign = 1
        while self.peek().kind == "op" and self.peek().text == "-":
            self.next()
            sign = -sign
        prod = self.parse_factor()
        while self.peek().kind == "op" and self.peek().text == "*":
            self.next()
            while self.peek().kind == "op" and self.peek().text == "-":
                self.next()
                sign = -sign
            prod = prod * self.parse_factor()
        return prod if sign == 1 else -prod

    def parse_factor(self) -> Polynomial:
        base = self.parse_atom()
        t = self.peek()
        if t.kind == "op" and t.text == "^":
            self.next()
            n = self.next()
            if n.kind != "num":
                raise ParseError("expected integer exponent after '^'", n.line, n.col)
            k = int(n.text)
            if k > MAX_EXPONENT:
                raise ParseError(f"exponent {k} exceeds {MAX_EXPONENT}", n.line, n.col)
            return base**k
        return base

    def parse_atom(self) -> Polynomial:
        t = self.next()
        if t.kind == "num":
            num = int(t.text)
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "/":
                self.next()
                d = self.next()
                if d.kind != "num":
                    raise ParseError("expected integer denominator", d.line, d.col)
                try:
                    return self.ring.const(self.ring.field.from_fraction(num, int(d.text)))
                except FieldError as e:
                    raise ParseError(str(e), t.line, t.col) from None
            return self.ring.const(num)
        if t.kind == "ident":
            if t.text not in self.ring.names:
                raise ParseError(
                    f"unknown variable {t.text!r}; ring variables are {', '.join(self.ring.names) or '(none)'}",
                    t.line,
                    t.col,
                )
            return self.ring.var(t.text)
        if t.kind == "op" and t.text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", t.line, t.col)
            self.depth += 1
            inner = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ParseError(f"unexpected {t.text or 'end of input'!r}", t.line, t.col)


def parse_polynomial(text: str, ring: PolynomialRing) -> Polynomial:
    toks = _tokenize(text)
    parser = _Parser(toks, ring)
    p = parser.parse_expr()
    t = parser.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return p


def _is_negative(field: Field, c) -> bool:
    if isinstance(field, RationalField):
        return Fraction(c) < 0
    return False


def _magnitude(field: Field, c) -> str:
    if isinstance(field, RationalField):
        return field.to_str(abs(Fraction(c)))
    return field.to_str(c)


def format_polynomial(p: Polynomial) -> str:
    """Canonical text form; parsing it back is the identity."""
    if p.is_zero():
        return "0"
    field = p.ring.field
    names = p.ring.names
    parts = []
    for exp, c in p.items_sorted():
        mono = "*".join(
            f"{name}^{k}" if k > 1 else name for name, k in zip(names, exp) if k
        )
        mag = _magnitude(field, c)
        if mono:
            body = mono if mag == "1" else f"{mag}*{mono}"
        else:
            body = mag
        parts.append(("-" if _is_negative(field, c) else "+", body))
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out
