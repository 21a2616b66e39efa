"""Independent reference implementations used only to check the library.

Deliberately naive: straightforward repeated-scan division and the
textbook S-polynomial test, written without reusing the engine's internal
reduction loop.
"""

from __future__ import annotations

from flatspan.budget import Budget
from flatspan.orders import MonomialOrder, exp_add, exp_divides, exp_lcm, exp_sub
from flatspan.poly import Polynomial


def naive_divide(p: Polynomial, divisors: list[Polynomial], order: MonomialOrder) -> Polynomial:
    """Multivariate division, scanning divisors in order, reducing any
    reducible term (not just the leading one) until none remains."""
    ring = p.ring
    f = ring.field
    work = p
    changed = True
    while changed:
        changed = False
        for exp, c in sorted(work.terms().items(), key=lambda kv: order.key(kv[0]), reverse=True):
            for d in divisors:
                if d.is_zero():
                    continue
                lm = max(d.terms(), key=order.key)
                if exp_divides(lm, exp):
                    lc = d.terms()[lm]
                    shift = exp_sub(exp, lm)
                    factor = Polynomial(ring, {shift: f.div(c, lc)})
                    work = work - factor * d
                    changed = True
                    break
            if changed:
                break
    return work


def naive_spoly(a: Polynomial, b: Polynomial, order: MonomialOrder) -> Polynomial:
    ring = a.ring
    f = ring.field
    la = max(a.terms(), key=order.key)
    lb = max(b.terms(), key=order.key)
    lcm = exp_lcm(la, lb)
    ma = Polynomial(ring, {exp_sub(lcm, la): f.inv(a.terms()[la])})
    mb = Polynomial(ring, {exp_sub(lcm, lb): f.inv(b.terms()[lb])})
    return ma * a - mb * b


def is_groebner_oracle(basis: list[Polynomial], order: MonomialOrder) -> bool:
    """Buchberger's criterion, checked naively on every pair."""
    nonzero = [g for g in basis if not g.is_zero()]
    for i in range(len(nonzero)):
        for j in range(i + 1, len(nonzero)):
            s = naive_spoly(nonzero[i], nonzero[j], order)
            if not naive_divide(s, nonzero, order).is_zero():
                return False
    return True


def generates_same_ideal(
    a: list[Polynomial], b: list[Polynomial], basis_a: list[Polynomial], basis_b: list[Polynomial], order: MonomialOrder
) -> bool:
    """Each generator of one list must divide to zero against the other's
    (claimed) Groebner basis."""
    return all(naive_divide(g, basis_b, order).is_zero() for g in a) and all(
        naive_divide(g, basis_a, order).is_zero() for g in b
    )


def rescanning_reduce(p: Polynomial, divisors: list[Polynomial], order: MonomialOrder, budget: Budget) -> Polynomial:
    """Full division with the lead found by rescanning the working terms.

    Each step takes ``max`` of the remaining terms, cancels it with the
    first divisor whose lead divides it (one budget step per cancellation)
    or moves it to the remainder.  The remainder's terms are inserted in
    the order they are found, so term order is part of what it fixes.
    """
    f = p.ring.field
    reducers = [(max(d.terms(), key=order.key), d.terms()) for d in divisors if not d.is_zero()]
    work = p.terms()
    out = {}
    while work:
        lead = max(work, key=order.key)
        c = work[lead]
        for lm, d in reducers:
            if exp_divides(lm, lead):
                budget.spend(1, "polynomial reduction")
                ratio = f.div(c, d[lm])
                shift = exp_sub(lead, lm)
                for e, dc in d.items():
                    m = exp_add(e, shift)
                    s = f.sub(work.get(m, f.zero), f.mul(dc, ratio))
                    if s == f.zero:
                        work.pop(m, None)
                    else:
                        work[m] = s
                break
        else:
            del work[lead]
            out[lead] = c
    return Polynomial(p.ring, out)
