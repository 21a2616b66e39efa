"""Text grammar for polynomials.

    expr   := term (('+'|'-') term)*
    term   := '-'* factor ('*' '-'* factor)*
    factor := atom ('^' integer)?
    atom   := integer ('/' integer)? | identifier | '(' expr ')'

Identifiers are ``[A-Za-z_][A-Za-z0-9_]*`` and must name ring variables.
Parentheses nest at most :data:`MAX_NESTING` deep, so the recursive
descent stays far from the interpreter's recursion limit, and an integer
literal has at most :data:`MAX_DIGITS` digits past its leading zeros, as
has a power of a number or of a parenthesized single term over QQ, in the
numerator and denominator of its coefficient.  Over QQ so has every
coefficient a product or a sum makes: one past the rule is a
:class:`ParseError` at the last token of the factor or term that made it,
so every coefficient parsed can be printed.  An
exponent past ``MAX_EXPONENT``, written or reached by a product or power,
is a :class:`ParseError` at the last token of the factor that reached it.
Whitespace is insignificant.  ``format_polynomial`` emits the canonical
form (terms in descending graded-reverse-lex order) and parsing it back
reproduces the polynomial bit for bit.

Parsing is one pass over the tokens.  A term made of numbers and
identifiers accumulates one coefficient and one exponent vector, and a
sum adds each term into one dict by ``poly.add_terms``, as
``Polynomial.__add__`` does.  ``Polynomial`` arithmetic runs only for the
power of a number or of a parenthesized factor, and for the rest of a
term once a parenthesized factor has joined it.  So the result equals,
term order included, what building every atom as a polynomial and
summing them would give, in time linear in the number of summands.
Tokens carry their offset; line and column are computed only for an
error.

``parse_polynomial`` is memoized on ``(text, ring)`` in a bounded LRU
cache: stored reports and workspace documents repeat the same few texts
(``t*t_inv - 1``, ``0``, ``1``).  Callers share the cached values, which
is safe because polynomials are immutable.  Errors are not cached, so a
bad text raises on every call.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .budget import InputError
from .fields import MAX_DIGITS, FieldError, too_long
from .poly import MAX_EXPONENT, ExponentOverflow, Polynomial, PolynomialRing, add_terms

# deepest parenthesis nesting accepted; each level takes four parser frames
MAX_NESTING = 100
_EXPONENT_DIGITS = len(str(MAX_EXPONENT))


class ParseError(InputError):
    def __init__(self, message: str, line: int = 1, col: int = 1):
        super().__init__(f"{message} (line {line}, col {col})")
        self.message = message
        self.line = line
        self.col = col


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^/()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) per token, kind one of num, ident, op, eof."""
    toks = []
    pos = 0
    for m in _TOKEN.finditer(text):
        if m.start() != pos:
            break
        kind = m.lastgroup
        toks.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    stripped = text[pos:].lstrip()
    if stripped:
        raise ParseError(f"unexpected character {stripped[0]!r}", *_position(text, pos))
    toks.append(("eof", "", len(text)))
    return toks


def _position(text: str, pos: int) -> tuple[int, int]:
    """One-based line and column of offset ``pos``."""
    line = text.count("\n", 0, pos)
    return line + 1, pos - text.rfind("\n", 0, pos)


class _Parser:
    """Recursive descent over the tokens of one text.  A factor is a
    :class:`Polynomial` when parenthesized, otherwise ``(coefficient, slot,
    exponent)``: a field element (slot -1) or a power of the variable in
    ``slot``."""

    def __init__(self, text: str, ring: PolynomialRing):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.ring = ring
        self.field = ring.field
        self.slots = {name: i for i, name in enumerate(ring.names)}
        self.depth = 0

    def error(self, message: str, pos: int) -> ParseError:
        return ParseError(message, *_position(self.text, pos))

    def next(self) -> tuple[str, str, int]:
        t = self.toks[self.i]
        self.i += 1
        return t

    def integer(self, text: str, pos: int) -> int:
        digits = text.lstrip("0") or "0"
        if len(digits) > MAX_DIGITS:
            raise self.error(f"integer literal longer than {MAX_DIGITS} digits", pos)
        return int(digits)

    def parse_expr(self) -> dict[tuple[int, ...], object]:
        """The sum's terms: exponent tuple to nonzero coefficient."""
        total: dict[tuple[int, ...], object] = {}
        negative = False
        while True:
            terms = self.parse_term(negative)
            size = len(total)
            add_terms(total, terms, self.field)
            # parse_term checked the term's own coefficients; a sum is made only
            # where an exponent meets an earlier term's, and then total grows less
            if len(total) - size < len(terms):
                self.check_coefficients([total[e] for e, _ in terms if e in total])
            op = self.toks[self.i][1]
            if op != "+" and op != "-":
                return total
            self.i += 1
            negative = op == "-"

    def parse_term(self, negative: bool):
        """The term's (exponent, coefficient) pairs, negated when
        ``negative`` and the term's own signs give -1."""
        f = self.field
        coef = f.one
        exp = [0] * len(self.slots)
        prod = None  # the product so far, once a parenthesized factor joined it
        while True:
            while self.toks[self.i][1] == "-":
                self.i += 1
                negative = not negative
            factor = self.parse_factor()
            if prod is not None:
                prod = prod * self.polynomial(factor)
                self.check_coefficients(prod.terms().values())
            elif isinstance(factor, Polynomial):
                prod = Polynomial(self.ring, {tuple(exp): coef}) * factor
                self.check_coefficients(prod.terms().values())
            else:
                c, slot, k = factor
                if slot < 0:
                    # a single number is a literal or a checked power, within the rule
                    product = coef != f.one
                    coef = f.mul(coef, c)
                    if product:
                        self.check_coefficients((coef,))
                else:
                    e = exp[slot] + k
                    # a zero product absorbs every later factor unchecked
                    if e > MAX_EXPONENT and coef:
                        pos = self.toks[self.i - 1][2]
                        raise self.error(f"exponent {e} exceeds {MAX_EXPONENT}", pos)
                    exp[slot] = e
            if self.toks[self.i][1] != "*":
                break
            self.i += 1
        if prod is not None:
            terms = prod.terms().items()
        elif coef:
            terms = [(tuple(exp), coef)]
        else:
            return []
        if negative:
            return [(e, f.neg(c)) for e, c in terms]
        return terms

    def polynomial(self, factor) -> Polynomial:
        if isinstance(factor, Polynomial):
            return factor
        c, slot, k = factor
        exp = [0] * len(self.slots)
        if slot >= 0:
            exp[slot] = k
        return Polynomial(self.ring, {tuple(exp): c})

    def parse_factor(self):
        atom = self.parse_atom()
        if self.toks[self.i][1] != "^":
            return atom
        self.i += 1
        kind, text, pos = self.next()
        if kind != "num":
            raise self.error("expected integer exponent after '^'", pos)
        digits = text.lstrip("0") or "0"
        if len(digits) > _EXPONENT_DIGITS:  # past the cap, so never converted
            raise self.error(f"exponent {digits} exceeds {MAX_EXPONENT}", pos)
        k = int(digits)
        if k > MAX_EXPONENT:
            raise self.error(f"exponent {k} exceeds {MAX_EXPONENT}", pos)
        if isinstance(atom, Polynomial):
            coefficients = atom.terms().values()
            if len(coefficients) == 1:  # a monomial: its coefficient is raised
                self.check_power(*coefficients, k, pos)
            return atom**k
        c, slot, _ = atom
        if slot < 0:
            self.check_power(c, k, pos)
            return (self.ring.const(c) ** k).constant_value(), slot, 0
        return c, slot, k

    def check_power(self, c, k: int, pos: int) -> None:
        """Refuse ``c**k`` over QQ when its numerator or denominator would
        pass ``MAX_DIGITS`` digits, before it is computed."""
        if self.field.characteristic:
            return
        # m**k >= 16**MAX_DIGITS when k * (bits(m) - 1) >= 4 * MAX_DIGITS: tested
        # first, so m**k is computed, and sized, only below 2**(8 * MAX_DIGITS)
        m = max(abs(c.numerator), c.denominator)
        if m > 1 and (k * (m.bit_length() - 1) >= 4 * MAX_DIGITS or too_long(m**k)):
            raise self.error(f"power of a number longer than {MAX_DIGITS} digits", pos)

    def check_coefficients(self, coefficients) -> None:
        """Refuse, over QQ, a coefficient whose numerator or denominator
        passes ``MAX_DIGITS`` digits, at the last token read: the end of
        the factor or term that made it."""
        if self.field.characteristic:
            return
        for c in coefficients:
            if too_long(max(abs(c.numerator), c.denominator)):
                pos = self.toks[self.i - 1][2]
                raise self.error(f"coefficient longer than {MAX_DIGITS} digits", pos)

    def parse_atom(self):
        kind, text, pos = self.next()
        if kind == "num":
            num = self.integer(text, pos)
            if self.toks[self.i][1] != "/":
                return self.field.from_int(num), -1, 0
            self.i += 1
            kind, den, dpos = self.next()
            if kind != "num":
                raise self.error("expected integer denominator", dpos)
            den = self.integer(den, dpos)
            try:
                return self.field.from_fraction(num, den), -1, 0
            except FieldError as e:
                raise self.error(str(e), pos) from None
        if kind == "ident":
            slot = self.slots.get(text)
            if slot is None:
                names = ", ".join(self.ring.names) or "(none)"
                raise self.error(f"unknown variable {text!r}; ring variables are {names}", pos)
            return self.field.one, slot, 1
        if text == "(":
            if self.depth == MAX_NESTING:
                raise self.error(f"parentheses nest deeper than {MAX_NESTING}", pos)
            self.depth += 1
            inner = self.parse_expr()
            _, close, cpos = self.next()
            if close != ")":
                raise self.error(f"expected ')', found {close or 'end of input'!r}", cpos)
            self.depth -= 1
            return Polynomial(self.ring, inner)
        raise self.error(f"unexpected {text or 'end of input'!r}", pos)


@lru_cache(maxsize=256)
def parse_polynomial(text: str, ring: PolynomialRing) -> Polynomial:
    parser = _Parser(text, ring)
    try:
        terms = parser.parse_expr()
    except ExponentOverflow as err:  # a product or power of parenthesized factors
        raise parser.error(str(err), parser.toks[parser.i - 1][2]) from None
    kind, rest, pos = parser.toks[parser.i]
    if kind != "eof":
        raise parser.error(f"trailing input {rest!r}", pos)
    return Polynomial(ring, terms)


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
        mag = field.to_str(abs(c))
        if mono:
            body = mono if mag == "1" else f"{mag}*{mono}"
        else:
            body = mag
        parts.append(("-" if c < 0 else "+", body))
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out
