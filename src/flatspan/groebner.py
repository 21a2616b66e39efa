"""Buchberger engine with product/chain criteria and step budgets.

The reduced Groebner basis of an ideal is unique for a fixed monomial
order, so the engine's output is deterministic and independent of the
S-pair schedule; two schedules ("normal" = minimal lcm first, "fifo" =
oldest first) are provided so that independence can be tested rather than
assumed.

Monomials are packed integers.  Inside the engine a monomial is one Python
int: its order key (:attr:`~flatspan.orders.MonomialOrder.weights`, linear
in the exponents) in the high bits and, below it, one 64-bit field per
variable holding the exponent in its low 63 bits under a guard bit.  Both
parts are linear, so the packed form of a product is the sum of the packed
forms, ``a < b`` is the monomial order (the key is injective and sits
above the exponents), and a lead is ``max(d)``.  ``a`` divides ``b``
exactly when ``(b - a) & GUARD`` is zero: no field of a quotient borrows,
and the lowest field that would go negative borrows through its own guard
bit.  The field width is fixed: exponents up to ``2**63 - 1``.  Every
addition is checked against the guard bits, so an exponent past that
raises :class:`~flatspan.poly.ExponentOverflow`, never a silent carry into
the next field.  Exponents enter the engine at most ``MAX_EXPONENT``, and
results leave it as polynomials, which check that cap again.  The engine
packs at entry and unpacks at exit; it has no other monomial form.

Every basis element is kept monic: each remainder the completion appends
is scaled by the inverse of its lead coefficient once, when it is added.
An S-polynomial depends only on ``f/lc(f)`` and ``g/lc(g)``, and dividing
by ``g`` or by ``g/lc(g)`` subtracts the same quotient term
``c * x^shift * g/lc(g)``, so the S-polynomials, remainders, cancellations
and budget charges are those of a non-monic basis; only the coefficient
work moves out of the loop.  S-polynomials are built from exponent shifts
alone, and a reduction step's quotient coefficient is the cancelled
coefficient itself: no inversion or division happens per step.

Pending S-pairs sit in one heap as records ``(*rank, j, i, lcm)`` with
``i < j``; the pair's lcm is computed once, when it is pushed (the sum of
the two leads when they are coprime, as packing is linear).  A schedule
is only the ``rank`` a pair gets then.  "normal" ranks by the packed lcm,
which orders like its key.  "fifo" ranks by nothing, so ``(j, i)``
decides: pairs are created in increasing ``(j, i)`` order, so the smallest
key is always the oldest pending pair.  Because ``(j, i)`` is unique, the
lcm is never compared, ties never reach heap internals and the pop order,
and with it every step count, is fixed by the input.

Division never rescans the working polynomial: its monomials sit in a heap
of negated packed monomials, so the next lead is one pop.  A cancelled
monomial stays in the heap and is skipped when popped (lazy deletion);
cancelling a lead only adds smaller monomials, so a popped monomial never
returns.  Irreducible terms therefore reach the remainder in descending
order, and a reduced polynomial's lead is read as its first key rather
than recomputed.

A :class:`DivisorTable` is one basis packed once: its divisors monic and
lead-first, their leads read once.  :func:`normal_form` is a thin call
through a table; callers that divide many polynomials by one basis, or
the multiples ``x^m * p`` of one polynomial, build the table once.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import islice
from operator import mul
from struct import Struct
from typing import Iterable, Iterator, NamedTuple, Sequence

from .budget import Budget
from .orders import EXPONENT_BITS, GrevLex, MonomialOrder, fiber_order
from .poly import ExponentOverflow, Polynomial, PolynomialRing

Terms = dict  # packed monomial -> nonzero coefficient

_FIELD_BITS = EXPONENT_BITS + 1  # an exponent and its guard bit
_FIELD_MAX = (1 << EXPONENT_BITS) - 1


class _Packing(NamedTuple):
    """How one order packs exponent vectors (see the module docstring)."""

    units: tuple[int, ...]  # the packed form of each variable
    guard: int  # the guard bit of every field
    low: int  # the exponent bits of every field
    nbytes: int  # bytes enough for any packed monomial
    fields: Struct  # reads the fields, lowest variable first

    def pack(self, exp: Iterable[int]) -> int:
        return sum(map(mul, exp, self.units))

    def unpack(self, m: int) -> tuple[int, ...]:
        return self.fields.unpack_from(m.to_bytes(self.nbytes, "little"))

    def lcm(self, a: int, b: int) -> int:
        """Each field's larger exponent, chosen in place: a field's guard
        bit survives ``(a | guard) - b`` exactly when ``a``'s exponent is
        the larger.  The key is then recomputed from the chosen fields."""
        low, guard = self.low, self.guard
        a, b = a & low, b & low
        mask = ((((a | guard) - b) & guard) >> EXPONENT_BITS) * _FIELD_MAX
        return self.pack(self.unpack((a & mask) | (b & (low ^ mask))))

    def coprime(self, a: int, b: int) -> bool:
        """No variable in both: adding ``low`` sets a field's guard bit
        exactly when its exponent is nonzero."""
        low = self.low
        return not ((a & low) + low) & ((b & low) + low) & self.guard

    def overflow(self, m: int) -> ExponentOverflow:
        """The error for a sum whose guard bits are not all clear; each
        field still holds its exact sum, below ``2**64``."""
        width = _FIELD_BITS * len(self.units)
        sums = self.fields.unpack_from((m & ((1 << width) - 1)).to_bytes(width // 8, "little"))
        return ExponentOverflow(f"exponent {max(sums)} exceeds {_FIELD_MAX}")


@lru_cache(maxsize=64)
def _packing(order: MonomialOrder) -> _Packing:
    n = order.nvars
    top = _FIELD_BITS * n
    units = tuple((w << top) | (1 << _FIELD_BITS * i) for i, w in enumerate(order.weights))
    low = sum(_FIELD_MAX << _FIELD_BITS * i for i in range(n))
    guard = sum(1 << _FIELD_BITS * i + EXPONENT_BITS for i in range(n))
    largest = _FIELD_MAX * sum(units)
    return _Packing(units, guard, low, (largest.bit_length() + 7) // 8, Struct(f"<{n}Q"))


def _packed(packing: _Packing, p: Polynomial) -> Terms:
    pack = packing.pack
    return {pack(e): c for e, c in p.terms().items()}


def _unpacked(ring: PolynomialRing, packing: _Packing, d: Terms) -> Polynomial:
    unpack = packing.unpack
    return Polynomial(ring, {unpack(m): c for m, c in d.items()})


def _monic(field, d: Terms) -> Terms:
    """``d`` scaled by the inverse of its first coefficient, which is its
    lead's when ``d`` is lead-first; ``d`` itself when that is already 1."""
    lc = next(iter(d.values()))
    if lc == field.one:
        return d
    inv = field.inv(lc)
    mul_ = field.mul
    return {e: mul_(c, inv) for e, c in d.items()}


def _reduce_full(
    field, work: Terms, basis: Sequence[tuple[int, Terms]], packing: _Packing, budget: Budget
) -> Terms:
    """Full (head and tail) reduction by a monic basis; deterministic.

    Each basis entry is ``(lead, g)`` with ``g`` monic and lead-first.  The
    largest monomial is reduced against the first basis element whose
    leading monomial divides it; irreducible terms migrate to the result.
    Leads come off a heap of negated monomials with lazy deletion (see the
    module docstring).  The quotient coefficient is the popped coefficient
    ``c`` itself, and ``c * x^shift * g`` is subtracted straight into
    ``work``, skipping ``g``'s lead, which cancels exactly.  The result's
    keys are in descending order, so its lead is its first key.
    """
    work = dict(work)
    heap = [-m for m in work]
    heapify(heap)
    guard = packing.guard
    add, mul_, neg = field.add, field.mul, field.neg
    out: Terms = {}
    while heap:
        lead = -heappop(heap)
        c = work.pop(lead, None)
        if c is None:
            continue
        for lm, g in basis:
            shift = lead - lm
            if not shift & guard:
                budget.spend(1, "polynomial reduction")
                nc = neg(c)
                for e, gc in islice(g.items(), 1, None):
                    m = e + shift
                    if m & guard:
                        raise packing.overflow(m)
                    old = work.get(m)
                    if old is None:
                        work[m] = mul_(gc, nc)
                        heappush(heap, -m)
                    else:
                        s = add(old, mul_(gc, nc))
                        if s:
                            work[m] = s
                        else:
                            del work[m]
                break
        else:
            out[lead] = c
    return out


def _spoly(field, f: Terms, lf: int, g: Terms, lg: int, lcm: int, packing: _Packing) -> Terms:
    """``x^u*f - x^v*g`` where ``x^u*lf = x^v*lg = lcm``, for monic
    lead-first ``f`` and ``g``: the leads cancel exactly and are skipped,
    and every other term is only shifted."""
    u, v = lcm - lf, lcm - lg
    guard = packing.guard
    s = {}
    for e, c in islice(f.items(), 1, None):
        m = e + u
        if m & guard:
            raise packing.overflow(m)
        s[m] = c
    sub, neg = field.sub, field.neg
    for e, c in islice(g.items(), 1, None):
        m = e + v
        if m & guard:
            raise packing.overflow(m)
        old = s.get(m)
        if old is None:
            s[m] = neg(c)
        else:
            d = sub(old, c)
            if d:
                s[m] = d
            else:
                del s[m]
    return s


# Schedule name -> the part of a pair's heap key in front of ``(j, i, lcm)``.
_SCHEDULES = {
    "normal": lambda lcm: (lcm,),
    "fifo": lambda lcm: (),
}


def _buchberger_dicts(
    field,
    gens: list[Terms],
    packing: _Packing,
    budget: Budget,
    strategy: str,
) -> list[Terms]:
    table: list[tuple[int, Terms]] = []  # (lead, monic lead-first element)
    lms: list[int] = []
    for g in gens:
        r = _reduce_full(field, g, table, packing, budget)
        if r:
            lms.append(next(iter(r)))
            table.append((lms[-1], _monic(field, r)))

    rank = _SCHEDULES[strategy]
    lcm_of, coprime = packing.lcm, packing.coprime
    queue: list[tuple] = []

    def push(j: int):
        lj = lms[j]
        for i in range(j):
            li = lms[i]
            lcm = li + lj if coprime(li, lj) else lcm_of(li, lj)
            heappush(queue, (*rank(lcm), j, i, lcm))

    for j in range(len(table)):
        push(j)
    done: set[tuple[int, int]] = set()  # popped pairs (i, j), i < j
    guard = packing.guard

    while queue:
        *_, j, i, lcm = heappop(queue)
        done.add((i, j))
        if packing.coprime(lms[i], lms[j]):
            continue  # product criterion
        skip = False
        for k, lk in enumerate(lms):
            if k == i or k == j or (lcm - lk) & guard:
                continue
            if ((k, i) if k < i else (i, k)) in done and ((k, j) if k < j else (j, k)) in done:
                skip = True  # chain criterion
                break
        if skip:
            continue
        budget.spend(1, "S-pair formation")
        s = _spoly(field, table[i][1], lms[i], table[j][1], lms[j], lcm, packing)
        r = _reduce_full(field, s, table, packing, budget)
        if r:
            lms.append(next(iter(r)))
            table.append((lms[-1], _monic(field, r)))
            push(len(table) - 1)
    return _reduce_basis(field, table, packing, budget)


def _reduce_basis(
    field, table: list[tuple[int, Terms]], packing: _Packing, budget: Budget
) -> list[Terms]:
    """Minimal, fully tail-reduced, monic, canonically sorted basis.

    Every element of ``table`` is monic and lead-first.  A kept element's
    lead is divisible by no other kept lead, so reduction leaves it, and its
    coefficient 1, in front."""
    guard = packing.guard
    alive = []
    for i, (lm, _) in enumerate(table):
        if not any(
            not (lm - lj) & guard and (lj != lm or j < i) for j, (lj, _) in enumerate(table) if j != i
        ):
            alive.append(i)
    reduced = [
        _reduce_full(field, table[i][1], [table[j] for j in alive if j != i], packing, budget)
        for i in alive
    ]
    reduced.sort(key=lambda g: next(iter(g)))
    return reduced


def _order_for(ring, order: MonomialOrder | None) -> MonomialOrder:
    """``order``, or GrevLex by default, checked against the ring's arity."""
    order = order or GrevLex(ring.nvars)
    if order.nvars != ring.nvars:
        raise ValueError("order arity does not match ring")
    return order


# -- public API --------------------------------------------------------


def groebner_basis(
    gens: Iterable[Polynomial],
    order: MonomialOrder | None = None,
    budget: Budget | None = None,
    strategy: str = "normal",
) -> list[Polynomial]:
    """Reduced Groebner basis; ``[]`` for the zero ideal, ``[1]`` for the
    unit ideal."""
    if strategy not in _SCHEDULES:
        raise ValueError(f"unknown S-pair strategy {strategy!r}")
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise ValueError("generators live in different rings")
    packing = _packing(_order_for(ring, order))
    budget = budget or Budget()
    out = _buchberger_dicts(ring.field, [_packed(packing, g) for g in gens], packing, budget, strategy)
    return [_unpacked(ring, packing, d) for d in out]


class DivisorTable:
    """One basis of ``ring``, packed once for division under ``order``
    (GrevLex by default).

    Each nonzero element is scaled monic and put lead-first, which leaves
    every quotient term, and so every remainder and every step charged,
    unchanged.  Any basis is accepted; remainders are unique when it is a
    Groebner basis for the order.
    """

    __slots__ = ("ring", "basis", "_packing", "_divisors")

    def __init__(
        self, ring: PolynomialRing, basis: Iterable[Polynomial], order: MonomialOrder | None = None
    ):
        self.basis = tuple(g for g in basis if not g.is_zero())
        for g in self.basis:
            if g.ring != ring:
                raise ValueError("basis element in a different ring")
        self.ring = ring
        self._packing = packing = _packing(_order_for(ring, order))
        self._divisors = []
        for g in self.basis:
            d = _packed(packing, g)
            lead = max(d)
            if next(iter(d)) != lead:
                d = {lead: d[lead], **d}
            self._divisors.append((lead, _monic(ring.field, d)))

    def leads(self) -> list[tuple[int, ...]]:
        """The leading exponent of each basis element, in basis order."""
        return [self._packing.unpack(lead) for lead, _ in self._divisors]

    def _check(self, p: Polynomial):
        if p.ring != self.ring:
            raise ValueError("polynomial in a different ring than the basis")

    def reduce(self, p: Polynomial, budget: Budget | None = None) -> Polynomial:
        """The remainder of full division of ``p`` by the basis."""
        self._check(p)
        packing = self._packing
        terms = _packed(packing, p)
        rest = _reduce_full(self.ring.field, terms, self._divisors, packing, budget or Budget())
        return _unpacked(self.ring, packing, rest)

    def reduce_multiples(
        self, p: Polynomial, monomials: Iterable[Sequence[int]], budget: Budget | None = None
    ) -> Iterator[Polynomial]:
        """The remainder of ``x^m * p`` for each exponent vector ``m`` in
        turn.  ``p`` is packed once and each multiple is a shift of it.
        Lazy: a caller that stops early spends no further steps."""
        self._check(p)
        budget = budget or Budget()
        packing, field = self._packing, self.ring.field
        terms, guard = _packed(packing, p), packing.guard
        for mono in monomials:
            shift = packing.pack(mono)
            shifted = {}
            for e, c in terms.items():
                m = e + shift
                if m & guard:
                    raise packing.overflow(m)
                shifted[m] = c
            rest = _reduce_full(field, shifted, self._divisors, packing, budget)
            yield _unpacked(self.ring, packing, rest)


def normal_form(
    p: Polynomial,
    basis: Sequence[Polynomial],
    order: MonomialOrder | None = None,
    budget: Budget | None = None,
) -> Polynomial:
    """Remainder of full division by ``basis`` (unique when basis is a
    Groebner basis for the order): :meth:`DivisorTable.reduce` through a
    table built for this one call."""
    return DivisorTable(p.ring, basis, order).reduce(p, budget)


def spolynomial_pairs_reduce(
    basis: Sequence[Polynomial],
    order: MonomialOrder | None = None,
    budget: Budget | None = None,
) -> bool:
    """Buchberger criterion: does every S-polynomial of ``basis`` reduce to
    zero against it?  Used to recheck a stored basis without rerunning the
    completion.  Any basis is accepted; it is scaled monic once."""
    polys = [g for g in basis if not g.is_zero()]
    if not polys:
        return True
    table = DivisorTable(polys[0].ring, polys, order)
    field, packing, divisors = table.ring.field, table._packing, table._divisors
    budget = budget or Budget()
    for j, (lj, gj) in enumerate(divisors):
        for i in range(j):
            li, gi = divisors[i]
            if packing.coprime(li, lj):
                continue
            s = _spoly(field, gi, li, gj, lj, packing.lcm(li, lj), packing)
            if _reduce_full(field, s, divisors, packing, budget):
                return False
    return True


def is_unit_ideal(basis: Sequence[Polynomial]) -> bool:
    """Whether a reduced Groebner basis presents the unit ideal."""
    return len(basis) == 1 and basis[0].is_constant() and not basis[0].is_zero()


def elimination_basis(
    ring: PolynomialRing,
    gens: Iterable[Polynomial],
    drop: Sequence[str],
    budget: Budget | None = None,
) -> tuple[PolynomialRing, MonomialOrder, list[Polynomial]]:
    """The reduced basis of ``gens`` (polynomials of ``ring``) with the
    ``drop`` variables leading: returns the reordered ring, its block order
    and the basis there.

    The basis decides membership in the ideal, and its elements free of
    ``drop`` generate the elimination ideal (Elimination Theorem).
    """
    work = ring.leading(drop)
    order = fiber_order(work.nvars, len(drop))
    basis = groebner_basis([g.map_ring(work) for g in gens], order, budget=budget)
    return work, order, basis


def eliminate(
    gens: Iterable[Polynomial],
    drop: Sequence[str],
    budget: Budget | None = None,
) -> list[Polynomial]:
    """Generators of (ideal) ∩ k[remaining variables].

    Returned polynomials live in the original ring but do not involve the
    dropped variables; they are the drop-free elements of
    :func:`elimination_basis`.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    ring = gens[0].ring
    _, _, basis = elimination_basis(ring, gens, drop, budget)
    dropset = set(drop)
    return [g.map_ring(ring) for g in basis if not (g.variables() & dropset)]


def saturate(
    gens: Iterable[Polynomial],
    g: Polynomial,
    budget: Budget | None = None,
) -> list[Polynomial]:
    """Generators of the saturation (I : g^infinity).

    Realized by adjoining a fresh inverse for ``g`` and eliminating it.
    """
    gens = list(gens)
    if not gens:
        return []
    ring = gens[0].ring
    if g.ring != ring:
        raise ValueError("saturating element lives in a different ring")
    ext, (aux,) = ring.adjoin(["sat"])
    lifted = [p.map_ring(ext) for p in gens]
    lifted.append(ext.var(aux) * g.map_ring(ext) - ext.one())
    return [p.map_ring(ring) for p in eliminate(lifted, [aux], budget=budget)]


def modular_inverse(
    value: Polynomial,
    relations: Iterable[Polynomial],
    budget: Budget | None = None,
) -> Polynomial | None:
    """Explicit inverse of ``value`` modulo an ideal, or ``None`` when the
    residue class is not a unit.

    A fresh reciprocal variable is adjoined with its defining relation and
    placed in the leading block; when the class is invertible the reduced
    basis rewrites the reciprocal as a polynomial in the original
    variables, which is returned (in the original ring).
    """
    ring = value.ring
    ext, (aux,) = ring.adjoin(["rec"])
    lifted = [p.map_ring(ext) for p in relations if not p.is_zero()]
    lifted.append(value.map_ring(ext) * ext.var(aux) - ext.one())
    work, order, basis = elimination_basis(ext, lifted, [aux], budget)
    target = tuple([1] + [0] * ring.nvars)
    for g in basis:
        if g.leading_exponent(order) == target:
            expr = work.var(aux) - g  # monic leading term, so this is the rewrite
            if aux in expr.variables():
                return None
            return expr.map_ring(ring)
    return None


def ideal_intersection(
    left: Iterable[Polynomial],
    right: Iterable[Polynomial],
    budget: Budget | None = None,
) -> list[Polynomial]:
    """Generators of (left) ∩ (right) via the tag-variable construction."""
    left = [g for g in left if not g.is_zero()]
    right = [g for g in right if not g.is_zero()]
    if not left or not right:
        return []
    ring = left[0].ring
    ext, (tag,) = ring.adjoin(["mix"])
    t = ext.var(tag)
    one = ext.one()
    gens = [t * g.map_ring(ext) for g in left]
    gens += [(one - t) * g.map_ring(ext) for g in right]
    return [p.map_ring(ring) for p in eliminate(gens, [tag], budget=budget)]


def ideals_equal(
    left: Iterable[Polynomial],
    right: Iterable[Polynomial],
    budget: Budget | None = None,
) -> bool:
    lb = groebner_basis(list(left), budget=budget)
    rb = groebner_basis(list(right), budget=budget)
    return lb == rb
