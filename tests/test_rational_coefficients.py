"""QQ coefficients are ints when integral and Fractions otherwise.

The canonical form is checked on the field operations, on Groebner bases
and on every polynomial read back from the shipped workspaces' envelopes;
the Groebner kernel is run against ``FractionQQ``, the all-``Fraction``
representation, and must give the same bases, text, steps and exhaustion.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from flatspan import reports
from flatspan.budget import Budget, BudgetExhausted
from flatspan.cli import main
from flatspan.fields import GF, QQ, FieldError
from flatspan.groebner import groebner_basis
from flatspan.orders import Block, GrevLex, Lex
from flatspan.poly import Polynomial, PolynomialRing
from flatspan.polyparse import format_polynomial

from oracles import FractionQQ, is_canonical_qq

WORKSPACES = sorted((Path(__file__).resolve().parent.parent / "workspaces").glob("*.fsw"))
FQ = FractionQQ()
FRACTIONS = st.fractions(min_value=-20, max_value=20, max_denominator=6)


def test_fraction_qq_is_qq():
    assert FQ == QQ and hash(FQ) == hash(QQ)
    assert PolynomialRing(FQ, ("x",)) == PolynomialRing(QQ, ("x",))


@settings(max_examples=300, deadline=None)
@given(FRACTIONS, FRACTIONS)
@example(Fraction(1, 2), Fraction(2))  # an integral product of two non-integers
@example(Fraction(2, 3), Fraction(3, 2))
@example(Fraction(1, 3), Fraction(2, 3))  # an integral sum
@example(Fraction(-1, 2), Fraction(0))  # the inverse of 1/2 is 2
def test_field_ops_give_ints_exactly_when_integral(x, y):
    a, b = QQ.from_fraction(x.numerator, x.denominator), QQ.from_fraction(y.numerator, y.denominator)
    assert is_canonical_qq(a) and a == x
    results = [
        (QQ.add(a, b), x + y),
        (QQ.sub(a, b), x - y),
        (QQ.mul(a, b), x * y),
        (QQ.neg(a), -x),
        (QQ.from_int(x.numerator), x.numerator),
    ]
    if x:
        results.append((QQ.inv(a), 1 / x))
    else:
        with pytest.raises(FieldError):
            QQ.inv(a)
    for got, want in results:
        assert is_canonical_qq(got) and got == want
        assert QQ.to_str(got) == FQ.to_str(want)
    assert is_canonical_qq(QQ.zero) and is_canonical_qq(QQ.one)



@pytest.mark.parametrize(
    "field, value, want",
    [
        (QQ, Fraction(4, 2), 2),
        (QQ, Fraction(1, 2), Fraction(1, 2)),
        (QQ, 3, 3),
        (GF(5), 7, 2),
        (GF(5), -1, 4),
    ],
)
def test_a_constant_polynomial_is_canonical(field, value, want):
    """``const`` takes an int or a field element and stores the field's
    canonical form: over QQ an integral ``Fraction`` becomes an int, over
    GF(p) an int is reduced mod p."""
    (coefficient,) = PolynomialRing(field, ("x",)).const(value).terms().values()
    assert coefficient == want and type(coefficient) is type(want)

def _drawn_gens(data, nvars):
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    coefs = st.tuples(st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))
    return [
        data.draw(st.lists(st.tuples(exps, coefs), min_size=1, max_size=3))
        for _ in range(data.draw(st.integers(1, 3)))
    ]


def _basis_or_phase(gens, order, limit, strategy):
    budget = Budget(limit)
    try:
        out = groebner_basis(gens, order, budget, strategy)
    except BudgetExhausted as exc:
        out = exc.phase
    return out, budget.used


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(2, 4), st.sampled_from(["normal", "fifo"]))
def test_int_coefficients_move_no_basis_text_or_step(data, nvars, strategy):
    orders = [Lex(nvars), GrevLex(nvars)] + [Block(nvars, s) for s in range(1, nvars)]
    order = data.draw(st.sampled_from(orders))
    drawn = _drawn_gens(data, nvars)
    limit = data.draw(st.sampled_from([10**5, 1, 3, 8, 30]))
    runs = []
    for field in (QQ, FQ):
        ring = PolynomialRing(field, ("x", "y", "z", "w")[:nvars])
        gens = [Polynomial(ring, {e: field.from_fraction(n, d) for e, (n, d) in g}) for g in drawn]
        runs.append(_basis_or_phase(gens, order, limit, strategy))
    (got, used), (want, want_used) = runs
    assert got == want and used == want_used  # the same basis, or the same phase run out
    if isinstance(want, list):
        assert [list(g.terms().items()) for g in got] == [list(g.terms().items()) for g in want]
        assert [format_polynomial(g) for g in got] == [format_polynomial(g) for g in want]
        assert all(type(c) is Fraction for g in want for c in g.terms().values())
        assert all(is_canonical_qq(c) for g in got for c in g.terms().values())


def test_polynomials_read_back_from_shipped_envelopes_are_canonical(capsys, tmp_path, monkeypatch):
    read = []

    def parse(text, ring):
        p = parse_polynomial(text, ring)
        read.append(p)
        return p

    parse_polynomial = reports.parse_polynomial
    assert len(WORKSPACES) == 7
    for path in WORKSPACES:
        out = tmp_path / f"{path.stem}.json"
        main(["run", str(path), "--format", "structured", "--out", str(out)])
        with monkeypatch.context() as patch:
            patch.setattr(reports, "parse_polynomial", parse)
            main(["run", str(path), "--recheck", str(out)])
        assert "agree" in capsys.readouterr().out
    coefficients = [c for p in read if p.ring.field == QQ for c in p.terms().values()]
    assert all(is_canonical_qq(c) for c in coefficients)
    # span-algebra's composite stores -t_inv + 1/2
    assert {type(c) for c in coefficients} == {int, Fraction}
