"""Independent checks of a reduced Groebner basis.

The naive S-pair oracle of ``tests/oracles.py`` confirms that the basis is
a Groebner basis containing the generators' ideal; for degree-reverse-lex
bases sympy recomputes the reduced basis, which also proves the reverse
inclusion.  Neither shares code with the engine; the sympy check is
skipped where sympy is not installed.
"""

from __future__ import annotations

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

from flatspan.orders import GrevLex

TESTS = Path(__file__).resolve().parent.parent / "tests"


def _naive():
    if str(TESTS) not in sys.path:
        sys.path.append(str(TESTS))
    try:
        import oracles
    except ImportError:
        return None
    return oracles


def _to_sympy(polys, ring):
    import sympy

    symbols = sympy.symbols(list(ring.names))
    kwargs = {"modulus": ring.field.p} if ring.field.characteristic else {"domain": "QQ"}
    out = []
    for p in polys:
        expr = sympy.Integer(0)
        for exp, c in p.terms().items():
            coeff = sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) else c
            term = sympy.Integer(1)
            for s, e in zip(symbols, exp):
                term *= s**e
            expr += coeff * term
        out.append(sympy.Poly(expr, *symbols, **kwargs))
    return symbols, kwargs, out


def check_basis(gens, order, basis) -> str | None:
    """None when ``basis`` is the reduced Groebner basis of ``gens``."""
    gens = [g for g in gens if not g.is_zero()]
    ring = basis[0].ring
    order = order or GrevLex(ring.nvars)
    naive = _naive()
    if naive is not None:
        if not naive.is_groebner_oracle(basis, order):
            return "an S-polynomial of the basis does not reduce to zero"
        if any(not naive.naive_divide(g, basis, order).is_zero() for g in gens):
            return "a generator does not reduce to zero modulo the basis"
    if isinstance(order, GrevLex) and importlib.util.find_spec("sympy"):
        import sympy

        symbols, kwargs, polys = _to_sympy(gens, ring)
        _, _, ours = _to_sympy(basis, ring)
        theirs = sympy.groebner(polys, *symbols, order="grevlex", **kwargs).polys
        if sorted(map(str, theirs)) != sorted(map(str, ours)):
            return "sympy computes a different reduced basis"
    return None
