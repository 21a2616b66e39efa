"""Buchberger engine with product/chain criteria and step budgets.

The reduced Groebner basis of an ideal is unique for a fixed monomial
order, so the engine's output is deterministic and independent of the
S-pair schedule; two schedules ("normal" = minimal lcm first, "fifo" =
oldest first) are provided so that independence can be tested rather than
assumed.

Pending S-pairs sit in one heap; a schedule is only the key a pair gets
when it is created, ending in the pair's indices ``(j, i)`` with ``i < j``.
"normal" prefixes the order key of the pair's lcm.  "fifo" uses ``(j, i)``
alone: pairs are created in increasing ``(j, i)`` order, so the smallest
key is always the oldest pending pair.  Because every key ends in the
unique ``(j, i)``, ties never reach heap internals and the pop order, and
with it every step count, is fixed by the input.

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
from typing import Iterable, Sequence

from .budget import Budget
from .orders import GrevLex, MonomialOrder, exp_add, exp_coprime, exp_divides, exp_lcm, exp_sub, fiber_order
from .poly import Polynomial, fresh_name

Terms = dict


def _lead(d: Terms, order: MonomialOrder) -> tuple[int, ...]:
    return max(d, key=order.key)


def _mul_monomial(field, d: Terms, exp: tuple[int, ...], coeff) -> Terms:
    return {exp_add(e, exp): field.mul(c, coeff) for e, c in d.items()}


def _sub_inplace(field, a: Terms, b: Terms):
    for e, c in b.items():
        s = field.sub(a.get(e, field.zero), c)
        if s == field.zero:
            a.pop(e, None)
        else:
            a[e] = s


def _reduce_full(
    field, work: Terms, basis: Sequence[tuple[tuple[int, ...], Terms]], order: MonomialOrder, budget: Budget
) -> Terms:
    """Full (head and tail) reduction; deterministic.

    The largest monomial is reduced against the first basis element whose
    leading monomial divides it; irreducible terms migrate to the result.
    Leads come off a heap of ``(order.heap_key(e), e)`` with lazy deletion
    (see the module docstring), and ``ratio * x^shift * g`` is subtracted
    straight into ``work``, skipping ``g``'s lead, which cancels exactly.
    The result's keys are in descending order, so its lead is its first key.
    """
    work = dict(work)
    hkey = order.heap_key
    heap = [(hkey(e), e) for e in work]
    heapify(heap)
    sub, mul, neg, zero = field.sub, field.mul, field.neg, field.zero
    out: Terms = {}
    while heap:
        lead = heappop(heap)[1]
        c = work.pop(lead, None)
        if c is None:
            continue
        for lm, g in basis:
            if exp_divides(lm, lead):
                budget.spend(1, "polynomial reduction")
                ratio = field.div(c, g[lm])
                shift = exp_sub(lead, lm)
                for e, gc in g.items():
                    if e == lm:
                        continue
                    m = exp_add(e, shift)
                    old = work.get(m)
                    if old is None:
                        work[m] = neg(mul(gc, ratio))
                        heappush(heap, (hkey(m), m))
                    else:
                        s = sub(old, mul(gc, ratio))
                        if s == zero:
                            del work[m]
                        else:
                            work[m] = s
                break
        else:
            out[lead] = c
    return out


def _spoly(field, f: Terms, lf: tuple[int, ...], g: Terms, lg: tuple[int, ...]) -> Terms:
    lcm = exp_lcm(lf, lg)
    a = _mul_monomial(field, f, exp_sub(lcm, lf), field.inv(f[lf]))
    b = _mul_monomial(field, g, exp_sub(lcm, lg), field.inv(g[lg]))
    _sub_inplace(field, a, b)
    return a


# Schedule name -> the part of a pair's heap key in front of ``(j, i)``.
_SCHEDULES = {
    "normal": lambda order, a, b: (order.key(exp_lcm(a, b)),),
    "fifo": lambda order, a, b: (),
}


def _buchberger_dicts(
    field,
    gens: list[Terms],
    order: MonomialOrder,
    budget: Budget,
    strategy: str,
) -> list[Terms]:
    basis: list[Terms] = []
    lms: list[tuple[int, ...]] = []
    for g in gens:
        if not g:
            continue
        r = _reduce_full(field, g, list(zip(lms, basis)), order, budget)
        if r:
            basis.append(r)
            lms.append(next(iter(r)))

    rank = _SCHEDULES[strategy]
    queue: list[tuple] = []

    def push(j: int):
        for i in range(j):
            heappush(queue, (*rank(order, lms[i], lms[j]), j, i))

    for j in range(len(basis)):
        push(j)
    done: set[frozenset[int]] = set()

    while queue:
        *_, j, i = heappop(queue)
        done.add(frozenset((i, j)))
        lcm = exp_lcm(lms[i], lms[j])
        if exp_coprime(lms[i], lms[j]):
            continue  # product criterion
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if (
                exp_divides(lms[k], lcm)
                and frozenset((i, k)) in done
                and frozenset((j, k)) in done
            ):
                skip = True  # chain criterion
                break
        if skip:
            continue
        budget.spend(1, "S-pair formation")
        s = _spoly(field, basis[i], lms[i], basis[j], lms[j])
        r = _reduce_full(field, s, list(zip(lms, basis)), order, budget)
        if r:
            basis.append(r)
            lms.append(next(iter(r)))
            push(len(basis) - 1)
    return _reduce_basis(field, basis, order, budget)


def _reduce_basis(field, basis: list[Terms], order: MonomialOrder, budget: Budget) -> list[Terms]:
    """Minimal, fully tail-reduced, monic, canonically sorted basis.

    Every element of ``basis`` is a :func:`_reduce_full` result, so its
    lead is its first key."""
    lms = [next(iter(g)) for g in basis]
    alive = []
    for i in range(len(basis)):
        lm = lms[i]
        redundant = False
        for j in range(len(basis)):
            if i == j:
                continue
            if exp_divides(lms[j], lm) and (lms[j] != lm or j < i):
                redundant = True
                break
        if not redundant:
            alive.append(i)
    reduced: list[Terms] = []
    for i in alive:
        others = [(lms[j], basis[j]) for j in alive if j != i]
        r = _reduce_full(field, basis[i], others, order, budget)
        if r:
            inv = field.inv(next(iter(r.values())))
            reduced.append({e: field.mul(c, inv) for e, c in r.items()})
    reduced.sort(key=lambda g: order.key(next(iter(g))))
    return reduced


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
    order = order or GrevLex(ring.nvars)
    if order.nvars != ring.nvars:
        raise ValueError("order arity does not match ring")
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
    Groebner basis for the order)."""
    ring = p.ring
    order = order or GrevLex(ring.nvars)
    budget = budget or Budget()
    pairs = []
    for g in basis:
        if g.is_zero():
            continue
        if g.ring != ring:
            raise ValueError("basis element in a different ring")
        d = g.terms()
        pairs.append((_lead(d, order), d))
    return Polynomial(ring, _reduce_full(ring.field, p.terms(), pairs, order, budget))


def spolynomial_pairs_reduce(
    basis: Sequence[Polynomial],
    order: MonomialOrder | None = None,
    budget: Budget | None = None,
) -> bool:
    """Buchberger criterion: does every S-polynomial of ``basis`` reduce to
    zero against it?  Used to recheck a stored basis without rerunning the
    completion."""
    polys = [g for g in basis if not g.is_zero()]
    if not polys:
        return True
    ring = polys[0].ring
    order = order or GrevLex(ring.nvars)
    budget = budget or Budget()
    dicts = [g.terms() for g in polys]
    lms = [_lead(d, order) for d in dicts]
    table = list(zip(lms, dicts))
    for j in range(len(dicts)):
        for i in range(j):
            if exp_coprime(lms[i], lms[j]):
                continue
            s = _spoly(ring.field, dicts[i], lms[i], dicts[j], lms[j])
            if _reduce_full(ring.field, s, table, order, budget):
                return False
    return True


def is_unit_ideal(basis: Sequence[Polynomial]) -> bool:
    """Whether a reduced Groebner basis presents the unit ideal."""
    return len(basis) == 1 and basis[0].is_constant() and not basis[0].is_zero()


def eliminate(
    gens: Iterable[Polynomial],
    drop: Sequence[str],
    budget: Budget | None = None,
) -> list[Polynomial]:
    """Generators of (ideal) ∩ k[remaining variables].

    Returned polynomials live in the original ring but do not involve the
    dropped variables.  Uses a block order with the dropped block leading.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    ring = gens[0].ring
    drop = list(drop)
    work = ring.leading(drop)
    moved = [g.map_ring(work) for g in gens]
    basis = groebner_basis(moved, fiber_order(work.nvars, len(drop)), budget=budget)
    dropset = set(drop)
    kept = [g for g in basis if not (g.variables() & dropset)]
    return [g.map_ring(ring) for g in kept]


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
    ext = ring.extend([aux]).leading([aux])
    lifted = [p.map_ring(ext) for p in relations if not p.is_zero()]
    lifted.append(value.map_ring(ext) * ext.var(aux) - ext.one())
    order = fiber_order(ext.nvars, 1)
    basis = groebner_basis(lifted, order, budget=budget)
    target = tuple([1] + [0] * ring.nvars)
    for g in basis:
        if g.leading_exponent(order) == target:
            expr = ext.var(aux) - g  # monic leading term, so this is the rewrite
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
