import pytest
from hypothesis import given, settings, strategies as st

from flatspan.fields import GF, QQ
from flatspan.poly import Polynomial, PolynomialRing
from flatspan.polyparse import MAX_NESTING, ParseError, format_polynomial, parse_polynomial


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
