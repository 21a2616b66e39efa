"""Exact multivariate polynomials over QQ or GF(p).

A ring fixes the coefficient field and an ordered tuple of variable names.
Inverted variables are realized by companion variables: a name ``v`` marked
as inverted is accompanied by ``v_inv``, and the unit relation
``v*v_inv - 1`` is added by the scheme layer.  Polynomials themselves only
ever carry nonnegative exponents.

Terms are stored as a dict mapping exponent tuples to nonzero field
elements; the canonical form (zero coefficients dropped, like terms merged)
is maintained by construction.  Exponents are capped well below 2**31 and
exceeding the cap is a hard error rather than silent wraparound.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from operator import add, itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple

from .budget import InputError
from .fields import Field
from .orders import GrevLex

MAX_EXPONENT = 2**31 - 1

INVERSE_SUFFIX = "_inv"


class ExponentOverflow(InputError):
    pass


class RingMismatch(ValueError):
    pass


def companion_name(name: str) -> str:
    return name + INVERSE_SUFFIX


def _mover(pick: tuple[int, ...], n: int) -> Callable[[tuple[int, ...]], tuple[int, ...]] | None:
    """The exponent map that reads source position ``pick[j]`` into slot
    ``j`` (position ``n``, past the source, reads 0), or None when it is the
    identity."""
    if pick == tuple(range(n)):
        return None
    get = itemgetter(*pick) if len(pick) > 1 else lambda e: tuple(e[k] for k in pick)
    if n in pick:
        return lambda e: get(e + (0,))
    return get


class _SlotPlan(NamedTuple):
    """How :meth:`Polynomial.map_ring` moves exponents from one list of
    (renamed) names to another, before any term is read.  Each target slot
    ``j`` reads source position ``pick[j]``, the first name landing on it
    (the source length, reading 0, where none does); ``move`` is
    :func:`_mover` of that.  ``checks`` lists, in source order, each position
    the terms must be read for: ``(i, None)`` for a name with no target
    slot, which must be unused, and ``(i, j)`` for a later name on slot
    ``j``, which takes the slot when used and refuses to merge with a used
    holder."""

    pick: tuple[int, ...]
    checks: tuple[tuple[int, int | None], ...]
    move: Callable[[tuple[int, ...]], tuple[int, ...]] | None


@lru_cache(maxsize=256)
def _slot_plan(names: tuple[str, ...], target: tuple[str, ...]) -> _SlotPlan:
    slot = {v: j for j, v in enumerate(target)}
    n = len(names)
    pick, checks = [n] * len(target), []
    for i, v in enumerate(names):
        j = slot.get(v)
        if j is not None and pick[j] == n:
            pick[j] = i
        else:
            checks.append((i, j))
    return _SlotPlan(tuple(pick), tuple(checks), _mover(tuple(pick), n))


@dataclass(frozen=True)
class PolynomialRing:
    """field + ordered variable names; ``inverted`` marks localized names."""

    field: Field
    names: tuple[str, ...]
    inverted: frozenset[str] = dc_field(default_factory=frozenset)

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names in {self.names}")
        for v in self.inverted:
            if v not in self.names:
                raise ValueError(f"inverted name {v!r} is not a ring variable")
            if companion_name(v) not in self.names:
                raise ValueError(f"inverted name {v!r} lacks companion {companion_name(v)!r}")

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        if name not in self.names:
            raise RingMismatch(f"{name!r} is not a variable of {self.names}")
        return self.names.index(name)

    def zero(self) -> Polynomial:
        return Polynomial(self, {})

    def one(self) -> Polynomial:
        return self.const(1)

    def const(self, c) -> Polynomial:
        """``c``, an int or a field element, in the field's canonical form."""
        cv = self.field.add(self.field.zero, c)
        if not cv:
            return Polynomial(self, {})
        return Polynomial(self, {(0,) * self.nvars: cv})

    def var(self, name: str) -> Polynomial:
        i = self.index(name)
        exp = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {exp: self.field.one})

    def adjoin(
        self, names: Iterable[str], inverted: Iterable[str] = ()
    ) -> tuple[PolynomialRing, tuple[str, ...]]:
        """The one way to add variables: ``names`` appended in order, ``inverted``
        (each listed with its companion) marked, and the names given.  A taken
        name gets the first free number (``x2``, ``x3``, ...); an inverted name
        and its companion share one."""
        names, inverted = tuple(names), frozenset(inverted)
        companions = {companion_name(v) for v in inverted}
        taken, fresh = set(self.names), {}
        for name in names:
            if name in companions:
                continue  # numbered with its stem
            pair = name in inverted
            stem, k = name, 1
            while stem in taken or (pair and companion_name(stem) in taken):
                k += 1
                stem = f"{name}{k}"
            fresh[name] = stem
            if pair:
                fresh[companion_name(name)] = companion_name(stem)
            taken.update(fresh.values())
        added = tuple(fresh[v] for v in names)
        inverted = self.inverted | {fresh[v] for v in inverted}
        return PolynomialRing(self.field, self.names + added, inverted), added

    def leading(self, names: Iterable[str]) -> PolynomialRing:
        """The same ring with ``names`` moved to the front, in the given
        order; the other names keep theirs."""
        first = tuple(names)
        for v in first:
            self.index(v)  # validate
        rest = tuple(v for v in self.names if v not in first)
        return PolynomialRing(self.field, first + rest, self.inverted)

    def drop(self, names: Iterable[str]) -> PolynomialRing:
        """Ring without ``names``; a variable whose companion is dropped is
        no longer marked inverted."""
        gone = set(names)
        kept = tuple(v for v in self.names if v not in gone)
        inverted = (v for v in self.inverted if v not in gone and companion_name(v) not in gone)
        return PolynomialRing(self.field, kept, frozenset(inverted))


class Polynomial:
    """Immutable multivariate polynomial attached to a ring."""

    __slots__ = ("ring", "_terms", "_hash")

    def __init__(self, ring: PolynomialRing, terms: Mapping[tuple[int, ...], object]):
        self.ring = ring
        clean = {}
        for exp, c in terms.items():
            if not c:
                continue
            for e in exp:
                if e < 0:
                    raise ValueError(f"negative exponent in {exp}")
                if e > MAX_EXPONENT:
                    raise ExponentOverflow(f"exponent {e} exceeds {MAX_EXPONENT}")
            clean[tuple(exp)] = c
        self._terms = clean
        self._hash = None

    # -- canonical form ------------------------------------------------

    def terms(self) -> dict[tuple[int, ...], object]:
        return dict(self._terms)

    def items_sorted(self):
        """Terms in descending graded-reverse-lex order (canonical)."""
        key = GrevLex(self.ring.nvars).key
        return [(e, self._terms[e]) for e in sorted(self._terms, key=key, reverse=True)]

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exp) for exp in self._terms)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        zero_exp = (0,) * self.ring.nvars
        return self._terms.get(zero_exp, self.ring.field.zero)

    def total_degree(self) -> int:
        if not self._terms:
            return -1
        return max(sum(exp) for exp in self._terms)

    def variables(self) -> set[str]:
        return {self.ring.names[i] for exp in self._terms for i, e in enumerate(exp) if e}

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        _same_ring(self.ring, other.ring)
        terms = add_terms(dict(self._terms), other._terms.items(), self.ring.field)
        return Polynomial._relabeled(self.ring, terms)

    def __neg__(self) -> Polynomial:
        f = self.ring.field
        return Polynomial(self.ring, {e: f.neg(c) for e, c in self._terms.items()})

    def __sub__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        _same_ring(self.ring, other.ring)
        return Polynomial._relabeled(self.ring, _product(self._terms, other._terms, self.ring.field))

    def __pow__(self, k: int) -> Polynomial:
        if k < 0:
            raise InputError("negative power; use the companion of an inverted name")
        if len(self._terms) == 1:  # a monomial: shift it, and raise its coefficient
            ((a, c),) = self._terms.items()
            if max(a, default=0) * k <= MAX_EXPONENT:
                f, coeff, bits = self.ring.field, self.ring.field.one, k
                while bits:
                    if bits & 1:
                        coeff = f.mul(coeff, c)
                    bits >>= 1
                    if bits:
                        c = f.mul(c, c)
                return Polynomial._relabeled(self.ring, {tuple(x * k for x in a): coeff})
        result, base = self.ring.one(), self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def scale(self, c) -> Polynomial:
        f = self.ring.field
        cv = f.from_int(c) if isinstance(c, int) else c
        if not cv:
            return self.ring.zero()
        return Polynomial(self.ring, {e: f.mul(v, cv) for e, v in self._terms.items()})

    def leading_exponent(self, order) -> tuple[int, ...]:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        return max(self._terms, key=order.key)

    # -- structure -----------------------------------------------------

    def map_ring(self, target: PolynomialRing, rename: Mapping[str, str] | None = None) -> Polynomial:
        """Reinterpret in ``target``, matching variables by (renamed) name.

        A relabeling only: each exponent is permuted into the target's
        positions and every coefficient is copied, so no field arithmetic
        runs and the terms keep their order.  Every variable actually used
        must exist in the target, and no two used variables may land on one
        target name (either breach raises :class:`RingMismatch`); unused
        variables may be dropped.  The fields must agree (no characteristic mixing).
        How the positions move depends on the names alone
        (:func:`_slot_plan`); the terms are read only for the names the plan
        flags.
        """
        if target.field != self.ring.field:
            raise RingMismatch("cannot move polynomials between different fields")
        names = self.ring.names
        renamed = tuple([rename.get(v, v) for v in names]) if rename else names
        plan = _slot_plan(renamed, target.names)
        terms = self._terms
        move, pick = plan.move, plan.pick
        for i, j in plan.checks:
            if not any(exp[i] for exp in terms):
                continue
            if j is None:
                raise RingMismatch(f"variable {names[i]!r} is used but absent from target ring")
            if any(exp[pick[j]] for exp in terms):
                raise RingMismatch(
                    f"variables {names[pick[j]]!r} and {names[i]!r} both map to {target.names[j]!r}"
                )
            pick = pick[:j] + (i,) + pick[j + 1 :]
            move = _mover(pick, len(names))
        if move is None:
            return Polynomial._relabeled(target, terms)
        return Polynomial._relabeled(target, {move(exp): c for exp, c in terms.items()})

    @classmethod
    def _relabeled(cls, ring: PolynomialRing, terms: dict) -> Polynomial:
        """A polynomial of ``ring`` over terms already in canonical form
        (shared, never copied): the constructor's checks are skipped."""
        p = cls.__new__(cls)
        p.ring, p._terms, p._hash = ring, terms, None
        return p

    def substitute(self, images: Mapping[str, Polynomial], target: PolynomialRing) -> Polynomial:
        """Apply the ring map given by ``images``; names without an image
        must exist verbatim in the target ring.  Renaming variables is
        :meth:`map_ring`'s job; with no images this is ``map_ring(target)``.

        Each term is multiplied out on raw terms, variable by variable, and
        added into the running sum (:func:`add_terms`), so the terms, their
        order and any error are those of ``sum(c * prod(image**k))`` built
        from polynomials.  The power of each (variable, exponent) is taken
        once per call; a monomial or constant power is an exponent shift (see
        :meth:`__pow__`)."""
        if not images:
            return self.map_ring(target)
        f = target.field
        if f != self.ring.field:
            raise RingMismatch("cannot substitute across different fields")
        names, unit = self.ring.names, (0,) * target.nvars
        powers: dict[tuple[int, int], Polynomial] = {}
        total: dict[tuple[int, ...], object] = {}
        for exp, c in self._terms.items():
            term = {unit: c}
            for i, k in enumerate(exp):
                if k:
                    power = powers.get((i, k))
                    if power is None:
                        power = powers[i, k] = (images.get(names[i]) or target.var(names[i])) ** k
                        _same_ring(target, power.ring)
                    term = _product(term, power._terms, f)
            add_terms(total, term.items(), f)
        return Polynomial._relabeled(target, total)

    # -- comparison ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring, tuple(sorted(self._terms.items()))))
        return self._hash

    def __str__(self) -> str:
        from .polyparse import format_polynomial

        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"<poly {self}>"


def _same_ring(ring: PolynomialRing, other: PolynomialRing) -> None:
    if ring is not other and ring != other:
        raise RingMismatch(f"ring mismatch: {ring.names} vs {other.names}")


def add_terms(total: dict, pairs: Iterable, field: Field) -> dict:
    """``total`` with each ``(exponent, coefficient)`` of ``pairs`` added in,
    in place: the one way terms are summed.  A new exponent is stored as
    given (its coefficient nonzero and canonical), a sum is taken only where
    the exponent is already present, and an exponent that cancels is
    deleted."""
    for exp, c in pairs:
        old = total.get(exp)
        if old is None:
            total[exp] = c
            continue
        s = field.add(old, c)
        if s:
            total[exp] = s
        else:
            del total[exp]
    return total


def _product(a: dict, b: dict, f: Field) -> dict:
    """The terms of the product of two term dicts, ``a``'s terms outermost;
    an exponent past the cap raises :class:`ExponentOverflow`."""
    out: dict[tuple[int, ...], object] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            if max(e, default=0) > MAX_EXPONENT:
                x = next(x for x in e if x > MAX_EXPONENT)
                raise ExponentOverflow(f"exponent {x} exceeds {MAX_EXPONENT}")
            s = f.add(out.get(e, f.zero), f.mul(c1, c2))
            if not s:
                out.pop(e, None)
            else:
                out[e] = s
    return out


def laurent_valuation(p: Polynomial, name: str) -> int | None:
    """Minimal (exponent of name) - (exponent of companion) over the terms.

    Well defined on polynomials reduced modulo the unit relation, where no
    term carries both the variable and its companion.  Returns None for 0.
    """
    if p.is_zero():
        return None
    i = p.ring.index(name)
    j = p.ring.index(companion_name(name)) if companion_name(name) in p.ring.names else None
    return min(exp[i] - (exp[j] if j is not None else 0) for exp in p._terms)
