"""Monomial orders on exponent vectors.

Each order is one integer weight vector: ``key(e) = Σ e[i] * weights[i]``
is an int, ordered like the monomials and linear in the exponents, so
``key(a + b) = key(a) + key(b)``.  The keys order every exponent vector
whose entries are below ``2**EXPONENT_BITS``, far above the cap a
polynomial may carry; the Groebner kernel needs that headroom, because it
packs each monomial as its key above its exponents (see
:mod:`flatspan.groebner`).

A lexicographic comparison of exponent tuples becomes a number in base
``B = 2**EXPONENT_BITS``: Lex weighs variable ``i`` of ``n`` by
``B**(n - 1 - i)``.  GrevLex compares the degree first and then the
reversed, negated exponents ``-e[n-1], ..., -e[1]`` (``e[0]`` follows from
the degree and those), so it weighs variable 0 by ``B**(n-1)`` and
variable ``i > 0`` by ``B**(n-1) - B**(i-1)``: the degree counts
``B**(n-1)`` each, and ``-Σ e[i] * B**(i-1)`` lies in ``(-B**(n-1), 0]``.
Block scales the head's GrevLex weights past the largest tail key.  All
orders here are global (1 is minimal), which the division algorithm relies
on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import le, mul
from typing import Sequence

# Keys order exactly the exponent vectors whose entries are below 2**EXPONENT_BITS.
EXPONENT_BITS = 63
_BASE = 1 << EXPONENT_BITS


@lru_cache(maxsize=64)
def _grevlex_weights(n: int) -> tuple[int, ...]:
    if not n:
        return ()
    top = _BASE ** (n - 1)
    return (top,) + tuple(top - _BASE ** (i - 1) for i in range(1, n))


class MonomialOrder:
    """Total order on monomials of a fixed number of variables."""

    nvars: int

    @cached_property
    def weights(self) -> tuple[int, ...]:
        raise NotImplementedError

    def key(self, exp: Sequence[int]) -> int:
        return sum(map(mul, exp, self.weights))


@dataclass(frozen=True)
class Lex(MonomialOrder):
    """Lexicographic order; earlier variables dominate."""

    nvars: int

    @cached_property
    def weights(self):
        return tuple(_BASE ** (self.nvars - 1 - i) for i in range(self.nvars))


@dataclass(frozen=True)
class GrevLex(MonomialOrder):
    """Graded reverse lexicographic order."""

    nvars: int

    @cached_property
    def weights(self):
        return _grevlex_weights(self.nvars)


@dataclass(frozen=True)
class Block(MonomialOrder):
    """Block (elimination) order: the first block strictly dominates.

    ``split`` is the number of leading variables forming the first block;
    within each block GrevLex is used.  Any monomial containing a variable
    of the first block is larger than any monomial without one, so a
    Groebner basis under this order computes elimination ideals.
    """

    nvars: int
    split: int

    @cached_property
    def weights(self):
        tail = _grevlex_weights(self.nvars - self.split)
        scale = (_BASE - 1) * sum(tail) + 1  # one more than the largest tail key
        return tuple(w * scale for w in _grevlex_weights(self.split)) + tail


def fiber_order(nvars: int, split: int) -> MonomialOrder:
    """The one block order: the leading ``split`` variables over the rest,
    or plain GrevLex when that block is empty."""
    return Block(nvars, split) if split else GrevLex(nvars)


def exp_divides(a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether monomial a divides monomial b."""
    return all(map(le, a, b))
