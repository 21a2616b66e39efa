"""Monomial orders on exponent vectors.

An order exposes ``key(exponents) -> comparable`` such that the usual tuple
comparison realizes the order, and ``heap_key`` reversing it, so that a
``heapq`` of ``(heap_key(e), e)`` pops the largest monomial first.  All
orders here are global (1 is minimal), which the division algorithm relies
on.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, le, neg, sub
from typing import Sequence


class MonomialOrder:
    """Total order on monomials of a fixed number of variables."""

    nvars: int

    def key(self, exp: tuple[int, ...]):
        raise NotImplementedError

    def heap_key(self, exp: tuple[int, ...]):
        """Injective key whose minimum is the order's maximum:
        ``key(a) < key(b)`` exactly when ``heap_key(a) > heap_key(b)``.
        ``heapq`` pops its minimum, so the division loop keys its heap of
        pending monomials with this."""
        raise NotImplementedError


@dataclass(frozen=True)
class Lex(MonomialOrder):
    """Lexicographic order; earlier variables dominate."""

    nvars: int

    def key(self, exp):
        return exp

    def heap_key(self, exp):
        return tuple(map(neg, exp))


@dataclass(frozen=True)
class GrevLex(MonomialOrder):
    """Graded reverse lexicographic order."""

    nvars: int

    def key(self, exp):
        return (sum(exp), tuple(map(neg, exp[::-1])))

    def heap_key(self, exp):
        return (-sum(exp), exp[::-1])


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

    def key(self, exp):
        head, tail = exp[: self.split], exp[self.split :]
        return (
            sum(head),
            tuple(map(neg, head[::-1])),
            sum(tail),
            tuple(map(neg, tail[::-1])),
        )

    def heap_key(self, exp):
        head, tail = exp[: self.split], exp[self.split :]
        return (-sum(head), head[::-1], -sum(tail), tail[::-1])


def fiber_order(nvars: int, split: int) -> MonomialOrder:
    """The one block order: the leading ``split`` variables over the rest,
    or plain GrevLex when that block is empty."""
    return Block(nvars, split) if split else GrevLex(nvars)


def exp_divides(a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether monomial a divides monomial b."""
    return all(map(le, a, b))


def exp_lcm(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return tuple(map(max, a, b))


def exp_sub(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return tuple(map(sub, a, b))


def exp_add(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return tuple(map(add, a, b))


def exp_coprime(a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether monomials a and b share no variable (exponents are
    non-negative, so no position has a nonzero minimum)."""
    return not any(map(min, a, b))
