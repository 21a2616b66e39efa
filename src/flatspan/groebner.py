"""Buchberger engine with product/chain criteria and step budgets.

The reduced Groebner basis of an ideal is unique for a fixed monomial
order, so the engine's output is deterministic and independent of the
S-pair schedule; two schedules ("normal" = minimal lcm first, "fifo" =
oldest first) are provided so that independence can be tested rather than
assumed.

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
``i < j``; the pair's lcm is computed once, when it is pushed.  A schedule
is only the ``rank`` a pair gets then.  "normal" ranks by the order key of
the lcm.  "fifo" ranks by nothing, so ``(j, i)`` decides: pairs are created
in increasing ``(j, i)`` order, so the smallest key is always the oldest
pending pair.  Because ``(j, i)`` is unique, the lcm is never compared,
ties never reach heap internals and the pop order, and with it every step
count, is fixed by the input.

Division never rescans the working polynomial: its monomials sit in a
heap keyed by the order's ``heap_key``, so the next lead is one pop.  A
cancelled monomial stays in the heap and is skipped when popped (lazy
deletion); cancelling a lead only adds smaller monomials, so a popped
monomial never returns.  Irreducible terms therefore reach the remainder in
descending order, and a reduced polynomial's lead is read as its first key
rather than recomputed.

Internally polynomials are plain ``{exponent_tuple: coefficient}`` dicts;
the public entry points speak :class:`~flatspan.poly.Polynomial`.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import islice
from typing import Iterable, Sequence

from .budget import Budget
from .orders import GrevLex, MonomialOrder, exp_add, exp_coprime, exp_divides, exp_lcm, exp_sub, fiber_order
from .poly import Polynomial, PolynomialRing, fresh_name

Terms = dict


def _monic(field, d: Terms) -> Terms:
    """``d`` scaled by the inverse of its first coefficient, which is its
    lead's when ``d`` is lead-first; ``d`` itself when that is already 1."""
    lc = next(iter(d.values()))
    if lc == field.one:
        return d
    inv = field.inv(lc)
    mul = field.mul
    return {e: mul(c, inv) for e, c in d.items()}


def _monic_divisors(
    field, polys: Sequence[Polynomial], order: MonomialOrder
) -> list[tuple[tuple[int, ...], Terms]]:
    """``(lead, monic lead-first terms)`` of each (nonzero) polynomial, the
    form :func:`_reduce_full` and :func:`_spoly` take."""
    out = []
    for g in polys:
        d = g.terms()
        lm = g.leading_exponent(order)
        if next(iter(d)) != lm:
            d = {lm: d[lm], **d}
        out.append((lm, _monic(field, d)))
    return out


def _reduce_full(
    field, work: Terms, basis: Sequence[tuple[tuple[int, ...], Terms]], order: MonomialOrder, budget: Budget
) -> Terms:
    """Full (head and tail) reduction by a monic basis; deterministic.

    Each basis entry is ``(lead, g)`` with ``g`` monic and lead-first.  The
    largest monomial is reduced against the first basis element whose
    leading monomial divides it; irreducible terms migrate to the result.
    Leads come off a heap of ``(order.heap_key(e), e)`` with lazy deletion
    (see the module docstring).  The quotient coefficient is the popped
    coefficient ``c`` itself, and ``c * x^shift * g`` is subtracted straight
    into ``work``, skipping ``g``'s lead, which cancels exactly.  The
    result's keys are in descending order, so its lead is its first key.
    """
    work = dict(work)
    hkey = order.heap_key
    heap = [(hkey(e), e) for e in work]
    heapify(heap)
    add, mul, neg = field.add, field.mul, field.neg
    out: Terms = {}
    while heap:
        lead = heappop(heap)[1]
        c = work.pop(lead, None)
        if c is None:
            continue
        for lm, g in basis:
            if exp_divides(lm, lead):
                budget.spend(1, "polynomial reduction")
                nc = neg(c)
                shift = exp_sub(lead, lm)
                for e, gc in islice(g.items(), 1, None):
                    m = exp_add(e, shift)
                    old = work.get(m)
                    if old is None:
                        work[m] = mul(gc, nc)
                        heappush(heap, (hkey(m), m))
                    else:
                        s = add(old, mul(gc, nc))
                        if s:
                            work[m] = s
                        else:
                            del work[m]
                break
        else:
            out[lead] = c
    return out


def _spoly(
    field, f: Terms, lf: tuple[int, ...], g: Terms, lg: tuple[int, ...], lcm: tuple[int, ...]
) -> Terms:
    """``x^u*f - x^v*g`` where ``x^u*lf = x^v*lg = lcm``, for monic
    lead-first ``f`` and ``g``: the leads cancel exactly and are skipped,
    and every other term is only shifted."""
    u, v = exp_sub(lcm, lf), exp_sub(lcm, lg)
    s = {exp_add(e, u): c for e, c in islice(f.items(), 1, None)}
    sub, neg = field.sub, field.neg
    for e, c in islice(g.items(), 1, None):
        m = exp_add(e, v)
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
    "normal": lambda order, lcm: (order.key(lcm),),
    "fifo": lambda order, lcm: (),
}


def _buchberger_dicts(
    field,
    gens: list[Terms],
    order: MonomialOrder,
    budget: Budget,
    strategy: str,
) -> list[Terms]:
    table: list[tuple[tuple[int, ...], Terms]] = []  # (lead, monic lead-first element)
    lms: list[tuple[int, ...]] = []
    for g in gens:
        if not g:
            continue
        r = _reduce_full(field, g, table, order, budget)
        if r:
            lms.append(next(iter(r)))
            table.append((lms[-1], _monic(field, r)))

    rank = _SCHEDULES[strategy]
    queue: list[tuple] = []

    def push(j: int):
        lj = lms[j]
        for i in range(j):
            lcm = exp_lcm(lms[i], lj)
            heappush(queue, (*rank(order, lcm), j, i, lcm))

    for j in range(len(table)):
        push(j)
    done: set[tuple[int, int]] = set()  # popped pairs (i, j), i < j

    while queue:
        *_, j, i, lcm = heappop(queue)
        done.add((i, j))
        if exp_coprime(lms[i], lms[j]):
            continue  # product criterion
        skip = False
        for k, lk in enumerate(lms):
            if k == i or k == j or not exp_divides(lk, lcm):
                continue
            if ((k, i) if k < i else (i, k)) in done and ((k, j) if k < j else (j, k)) in done:
                skip = True  # chain criterion
                break
        if skip:
            continue
        budget.spend(1, "S-pair formation")
        s = _spoly(field, table[i][1], lms[i], table[j][1], lms[j], lcm)
        r = _reduce_full(field, s, table, order, budget)
        if r:
            lms.append(next(iter(r)))
            table.append((lms[-1], _monic(field, r)))
            push(len(table) - 1)
    return _reduce_basis(field, table, order, budget)


def _reduce_basis(
    field, table: list[tuple[tuple[int, ...], Terms]], order: MonomialOrder, budget: Budget
) -> list[Terms]:
    """Minimal, fully tail-reduced, monic, canonically sorted basis.

    Every element of ``table`` is monic and lead-first.  A kept element's
    lead is divisible by no other kept lead, so reduction leaves it, and its
    coefficient 1, in front."""
    alive = []
    for i, (lm, _) in enumerate(table):
        if not any(
            exp_divides(lj, lm) and (lj != lm or j < i) for j, (lj, _) in enumerate(table) if j != i
        ):
            alive.append(i)
    reduced = [
        _reduce_full(field, table[i][1], [table[j] for j in alive if j != i], order, budget) for i in alive
    ]
    reduced.sort(key=lambda g: order.key(next(iter(g))))
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
    order = _order_for(ring, order)
    budget = budget or Budget()
    out = _buchberger_dicts(ring.field, [g.terms() for g in gens], order, budget, strategy)
    return [Polynomial(ring, d) for d in out]


def normal_form(
    p: Polynomial,
    basis: Sequence[Polynomial],
    order: MonomialOrder | None = None,
    budget: Budget | None = None,
) -> Polynomial:
    """Remainder of full division by ``basis`` (unique when basis is a
    Groebner basis for the order).  Any basis is accepted: each divisor is
    scaled monic once, which leaves every quotient term, and so the
    remainder and the steps charged, unchanged."""
    ring = p.ring
    order = _order_for(ring, order)
    budget = budget or Budget()
    divisors = [g for g in basis if not g.is_zero()]
    for g in divisors:
        if g.ring != ring:
            raise ValueError("basis element in a different ring")
    table = _monic_divisors(ring.field, divisors, order)
    return Polynomial(ring, _reduce_full(ring.field, p.terms(), table, order, budget))


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
    ring = polys[0].ring
    for g in polys:
        if g.ring != ring:
            raise ValueError("basis element in a different ring")
    field = ring.field
    order = _order_for(ring, order)
    budget = budget or Budget()
    table = _monic_divisors(field, polys, order)
    for j, (lj, gj) in enumerate(table):
        for i in range(j):
            li, gi = table[i]
            if exp_coprime(li, lj):
                continue
            s = _spoly(field, gi, li, gj, lj, exp_lcm(li, lj))
            if _reduce_full(field, s, table, order, budget):
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
    aux = fresh_name("sat", ring.names)
    ext = ring.extend([aux])
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
    aux = fresh_name("rec", ring.names)
    ext = ring.extend([aux])
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
    tag = fresh_name("mix", ring.names)
    ext = ring.extend([tag])
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
