import re
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from flatspan.fields import GF, QQ
from flatspan.poly import MAX_EXPONENT, Polynomial, PolynomialRing
from flatspan.polyparse import (
    MAX_DIGITS,
    MAX_NESTING,
    ParseError,
    format_polynomial,
    parse_polynomial,
)
from oracles import reference_parse_polynomial


R2 = PolynomialRing(QQ, ("x", "y"))


def test_parse_simple():
    p = parse_polynomial("x^2 - 2*x + 5/3", PolynomialRing(QQ, ("x",)))
    R = PolynomialRing(QQ, ("x",))
    x = R.var("x")
    assert p == x**2 - x.scale(2) + R.const(QQ.from_fraction(5, 3))


def test_parse_parens_and_unary_minus():
    x, y = R2.var("x"), R2.var("y")
    assert parse_polynomial("-(x + y)^2", R2) == -((x + y) ** 2)
    assert parse_polynomial("2 * -x * y", R2) == (x * y).scale(-2)
    assert parse_polynomial("0", R2).is_zero()


def test_parse_rational_over_prime_field():
    R = PolynomialRing(GF(5), ("t",))
    # 1/2 = 3 in GF(5)
    assert parse_polynomial("1/2", R) == R.const(3)
    with pytest.raises(ParseError):
        parse_polynomial("1/5", R)


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as info:
        parse_polynomial("x + ", R2)
    assert "end of input" in str(info.value)
    with pytest.raises(ParseError) as info:
        parse_polynomial("x + z", R2)
    assert "unknown variable 'z'" in str(info.value)
    with pytest.raises(ParseError):
        parse_polynomial("x x", R2)
    with pytest.raises(ParseError):
        parse_polynomial("x ^ y", R2)


def test_nesting_is_bounded_at_a_stated_depth():
    deepest = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_polynomial(deepest, R2) == R2.var("x")
    with pytest.raises(ParseError) as info:
        parse_polynomial("x + (" + deepest + ")", R2)
    assert info.value.message == f"parentheses nest deeper than {MAX_NESTING}"
    assert (info.value.line, info.value.col) == (1, 5 + MAX_NESTING)


def test_integer_literals_are_bounded_at_a_stated_length():
    long = "7" * (MAX_DIGITS + 1)
    with pytest.raises(ParseError) as info:
        parse_polynomial("x +\n " + long, R2)
    assert info.value.message == f"integer literal longer than {MAX_DIGITS} digits"
    assert (info.value.line, info.value.col) == (2, 2)
    with pytest.raises(ParseError) as info:
        parse_polynomial("1/" + long, R2)
    assert (info.value.message, info.value.col) == (f"integer literal longer than {MAX_DIGITS} digits", 3)
    # leading zeros do not count
    assert parse_polynomial("0" * MAX_DIGITS + "12*x", R2) == R2.var("x").scale(12)
    with pytest.raises(ParseError) as info:
        parse_polynomial("y*x^" + long, R2)
    assert (info.value.message, info.value.col) == (f"exponent {long} exceeds {MAX_EXPONENT}", 5)
    assert parse_polynomial("x^" + "0" * MAX_DIGITS + "3", R2) == R2.var("x") ** 3


def test_a_power_of_a_number_is_bounded_at_the_literal_length():
    """Over QQ a power of a number whose numerator or denominator would
    pass ``MAX_DIGITS`` digits is refused at its exponent before it is
    computed: 10^4299 and 2^14284 have 4300 digits, 10^4300 and 2^14285 one
    more.  Over GF(5) every power within the exponent cap parses."""
    ring = PolynomialRing(QQ, ("x",))
    x = ring.var("x")
    assert parse_polynomial(f"10^{MAX_DIGITS - 1}*x", ring) == x.scale(10 ** (MAX_DIGITS - 1))
    assert parse_polynomial("1/2^14284", ring) == ring.const(QQ.from_fraction(1, 2**14284))
    for text, col in [(f"10^{MAX_DIGITS}*x", 4), ("1/2^14285", 5), ("x + 3^2147483647*x", 7)]:
        start = time.perf_counter()
        with pytest.raises(ParseError) as info:
            parse_polynomial(text, ring)
        assert time.perf_counter() - start < 1.0
        assert (info.value.message, info.value.col) == (
            f"power of a number longer than {MAX_DIGITS} digits",
            col,
        )
    five = PolynomialRing(GF(5), ("x",))
    assert parse_polynomial("3^2147483647*x", five) == five.var("x").scale(2)


@pytest.mark.parametrize(
    "text, col",
    [
        ("(3)^1000000*x", 5),
        ("x*(3*x)^250000", 9),
        ("(1/3)^14285", 7),
        ("y + (-(2*x*y))^2147483647", 16),
        ("((3)^2000)^5", 12),
    ],
)
def test_a_power_of_a_parenthesized_monomial_is_bounded_like_a_number(text, col):
    """Over QQ a parenthesized term raised to a power raises its coefficient,
    which obeys the rule for a power of a number: refused at the exponent,
    before it is computed."""
    start = time.perf_counter()
    with pytest.raises(ParseError) as info:
        parse_polynomial(text, R2)
    assert time.perf_counter() - start < 1.0
    assert (info.value.message, info.value.col) == (
        f"power of a number longer than {MAX_DIGITS} digits",
        col,
    )


def test_powers_of_parenthesized_monomials_within_the_rule_parse():
    x = R2.var("x")
    assert parse_polynomial(f"(10*x)^{MAX_DIGITS - 1}", R2) == x ** (MAX_DIGITS - 1) * R2.const(
        10 ** (MAX_DIGITS - 1)
    )
    assert parse_polynomial("((3)^2000)^4", R2) == R2.const(3**8000)
    assert parse_polynomial("(x)^2147483647", R2) == x**MAX_EXPONENT
    five = PolynomialRing(GF(5), ("x",))
    assert parse_polynomial("(3*x)^2147483647", five) == five.var("x") ** MAX_EXPONENT * five.const(2)
    assert parse_polynomial("(1/3)^2147483647*x", five) == five.var("x").scale(3)


NINES = "9" * MAX_DIGITS


@pytest.mark.parametrize(
    "text, col",
    [
        ("y - 10^3000*10^3000", 16),
        (f"y - {NINES}*x - x", MAX_DIGITS + 10),
        ("y - (10^3000)*(10^3000)", 23),
        ("1/10^3000*x*1/10^3000", 18),
        ("x*(y + 10^2200)^2", 17),
        (f"{NINES}*x + {NINES}*x - {NINES}*x", 2 * MAX_DIGITS + 7),
    ],
    ids=["product", "sum", "parenthesized", "denominator", "power-of-a-sum", "sum-before-cancelling"],
)
def test_a_coefficient_past_the_literal_length_is_refused_where_it_is_made(text, col):
    """Over QQ a coefficient whose numerator or denominator passes
    ``MAX_DIGITS`` digits is refused at the last token of the factor or
    summand that made it, even when a later summand would cancel it."""
    start = time.perf_counter()
    with pytest.raises(ParseError) as info:
        parse_polynomial(text, R2)
    assert time.perf_counter() - start < 1.0
    assert (info.value.message, info.value.col) == (
        f"coefficient longer than {MAX_DIGITS} digits",
        col,
    )


def test_coefficients_at_the_literal_length_parse_and_print():
    """``10^4299`` and ``-(10^4300 - 1)`` have 4300 digits, and a product or
    sum that stays within them parses and prints back; over GF(5) the rule
    does not apply."""
    x, y = R2.var("x"), R2.var("y")
    p = parse_polynomial(f"y - {NINES}*x", R2)
    assert p == y - x.scale(10**MAX_DIGITS - 1)
    assert format_polynomial(p) == f"-{NINES}*x + y"
    assert parse_polynomial(format_polynomial(p), R2) == p
    assert parse_polynomial("10^2000*10^2299*x", R2) == x.scale(10 ** (MAX_DIGITS - 1))
    assert parse_polynomial(f"{NINES}*x - {NINES}*x + y", R2) == y
    five = PolynomialRing(GF(5), ("x", "y"))
    assert parse_polynomial("y - 10^3000*10^3000 + 3", five) == five.var("y") + five.const(3)


@pytest.mark.parametrize(
    "text, col",
    [
        ("y*x^2147483647*x", 16),  # the literal product: at the factor that overflows
        ("x*(x^2147483647 + y)", 20),  # a parenthesized product: at its closing parenthesis
        ("(x*y)^2147483647*\n  (x + 1)", 9),  # the same across lines: line 2
        ("(x^2)^2147483647", 7),  # a power: at its exponent
    ],
)
def test_an_exponent_overflow_is_a_positioned_parse_error(text, col):
    with pytest.raises(ParseError) as info:
        parse_polynomial(text, R2)
    assert info.value.message.startswith("exponent ")
    assert info.value.message.endswith(f" exceeds {MAX_EXPONENT}")
    assert (info.value.line, info.value.col) == (text.count("\n") + 1, col)


def test_long_sums_parse_in_linear_time():
    ring = PolynomialRing(QQ, ("x", "y"))
    text = " + ".join(f"{i + 1}*x^{i}*y" for i in range(8000))
    start = time.perf_counter()
    p = parse_polynomial(text, ring)
    assert time.perf_counter() - start < 1.0
    assert len(p.terms()) == 8000


def test_format_canonical_examples():
    x, y = R2.var("x"), R2.var("y")
    assert format_polynomial(R2.zero()) == "0"
    assert format_polynomial(-x) == "-x"
    assert format_polynomial(x**2 - y.scale(2)) == "x^2 - 2*y"
    assert format_polynomial(x * y + R2.const(QQ.from_fraction(-1, 2))) == "x*y - 1/2"
    # descending grevlex: degree first, then the order's tie-break
    assert format_polynomial(x + y + x * y) == "x*y + x + y"


coeffs = st.integers(min_value=-9, max_value=9).filter(lambda c: c != 0)
exps = st.tuples(st.integers(0, 4), st.integers(0, 4))


def random_poly(ring, items):
    total = ring.zero()
    for exp, c in items:
        total = total + Polynomial(ring, {exp: ring.field.from_int(c)})
    return total


@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(exps, coeffs), max_size=6), st.sampled_from(["QQ", "F5"]))
def test_print_parse_roundtrip(items, which):
    ring = R2 if which == "QQ" else PolynomialRing(GF(5), ("x", "y"))
    p = random_poly(ring, items)
    text = format_polynomial(p)
    assert parse_polynomial(text, ring) == p
    # printing is a fixpoint on canonical forms
    assert format_polynomial(parse_polynomial(text, ring)) == text


_BIG_EXPONENTS = [str(MAX_EXPONENT - 1), str(MAX_EXPONENT), str(MAX_EXPONENT + 1), "007"]
_OVERFLOW = ["x^" + str(MAX_EXPONENT), "x", "0", "(y)"]
_JUNK = ["$", ".", "\u00e9", "\n  ", "\t", "(", ")", "^", "/", "*", "+", "2", "x1"]
_NUMBER_POWER = re.compile(r"(?<!\w)(\d+)\s*\^\s*(\d+)")


def _powers_a_number_past_the_rule(text):
    """Whether a number other than 0 and 1 takes an exponent of at least
    ``4 * MAX_DIGITS``, as ``0^2147483647`` does with a ``2`` inserted
    beside its base.  The parser refuses that power by the digit rule; the
    reference, which has no such rule, would compute it for minutes."""
    return any(int(m) > 1 and int(k) >= 4 * MAX_DIGITS for m, k in _NUMBER_POWER.findall(text))


def _factor(draw, depth):
    kind = draw(st.integers(0, 15 if depth < 2 else 13))
    if kind < 5:
        text = str(draw(st.integers(0, 12)))
        if kind == 0:
            text += f"/{draw(st.integers(0, 6))}"
    elif kind < 11:
        text = draw(st.sampled_from(["x", "y"] * 8 + ["z", "w", "q"]))
        if kind == 10:
            return text + "^" + draw(st.sampled_from(_BIG_EXPONENTS))
    elif kind == 11:
        # only 0 and 1 may take huge powers: any other constant would grow too long
        return draw(st.sampled_from(["0", "1"])) + "^" + draw(st.sampled_from(["0"] + _BIG_EXPONENTS))
    elif kind == 12:
        # a zero factor before, between or after the factors of an overflow
        return "*".join(draw(st.permutations(_OVERFLOW)))
    elif kind == 13:
        return draw(st.sampled_from(["0^0", "10", "5/2", "3/5"]))
    else:
        text = f"({_expr(draw, depth + 1)})"
    return text + draw(st.sampled_from(["", "", "", "^0", "^1", "^2", "^3"]))


def _expr(draw, depth=0):
    text = ""
    for i in range(draw(st.integers(1, 4))):
        if i:
            text += draw(st.sampled_from([" + ", " - ", "-", "+"]))
        signs = [draw(st.sampled_from(["", "", "-", "--", "- -"])) for _ in range(draw(st.integers(1, 3)))]
        text += "*".join(sign + _factor(draw, depth) for sign in signs)
    return text


@st.composite
def _texts(draw):
    """Texts in the grammar and around it: ``-`` chains, ``a/b`` literals,
    coefficients that vanish over GF(5), exponents at and past the cap,
    ``0^0``, zero factors around an overflow, cancelling summands, nested
    and powered parentheses, and with some junk inserted, unless the junk
    would make a long power of a number."""
    text = _expr(draw)
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(text)))
        junked = text[:at] + draw(st.sampled_from(_JUNK)) + text[at:]
        if not _powers_a_number_past_the_rule(junked):
            text = junked
    return text


def _outcome(parse, text, ring):
    try:
        p = parse(text, ring)
    except ParseError as err:
        return ParseError, err.message, err.line, err.col
    return p.ring, [(e, type(c), c) for e, c in p.terms().items()]


@settings(max_examples=300, deadline=None)
@given(_texts())
@example("0*x^2147483647*x")
@example("x^2147483647*5*x - x*-y")
@example("x + y - x + x - 2/3")
def test_parser_matches_the_reference(text):
    """Value, term order, coefficient type and every error equal the
    reference parser's, on a first call and on a repeat (memoized) call.
    Over QQ the ring is (x, y, z), over GF(5) it is (y, x, w): the same
    text lands on other exponent positions, so a memo keyed on the text
    alone would answer the second ring with the first ring's value."""
    for ring in (PolynomialRing(QQ, ("x", "y", "z")), PolynomialRing(GF(5), ("y", "x", "w"))):
        expected = _outcome(reference_parse_polynomial, text, ring)
        assert _outcome(parse_polynomial, text, ring) == expected
        assert _outcome(parse_polynomial, text, ring) == expected
