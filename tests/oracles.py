"""Independent reference implementations used only to check the library.

Deliberately naive: straightforward repeated-scan division and the
textbook S-polynomial test, written without reusing the engine's internal
reduction loop.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from operator import add, itemgetter, sub
from typing import Iterable

from flatspan.budget import Budget, InputError
from flatspan.cancellation import (
    PARAMETER,
    FiltrationEntry,
    FiltrationReport,
    _certified,
    _single_piece,
    _torus_feet,
    bound_from_values,
    cancel_family,
    cut_value,
)
from flatspan.contraction import ContractedChart, ContractionError, _weight_images
from flatspan.fields import FieldError, RationalField
from flatspan.groebner import (
    DivisorTable,
    eliminate,
    groebner_basis,
    is_unit_ideal,
    modular_inverse,
    normal_form,
    spolynomial_pairs_reduce,
)
from flatspan.modules import PresentationError, multiplication_matrix_from
from flatspan.orders import GrevLex, MonomialOrder, exp_divides, fiber_order
from flatspan.poly import MAX_EXPONENT, ExponentOverflow, Polynomial, PolynomialRing, RingMismatch, companion_name
from flatspan.polyparse import MAX_NESTING, ParseError
from flatspan.schemes import affine_line, localize, product, strip_coordinates
from flatspan.spans import (
    CertifyOutcome,
    Correspondence,
    IncomparableSpans,
    PieceCertificate,
    SpanError,
    SpanPiece,
    _canonical,
    _piece_sort_key,
    _pieces_equal,
    certify_finite_flat,
    collapse_variables,
    cross,
    make_piece,
    piece_over_base,
    rebuild_piece,
    simplify_piece,
)


class FractionQQ(RationalField):
    """QQ with every element a ``Fraction``, integral or not: the
    reference for :class:`RationalField`'s int-when-integral form, which
    must give the same values, terms, text and budget steps.  It equals
    ``QQ``, so its rings compare equal to QQ's."""

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise FieldError("division by zero in QQ")
        return 1 / Fraction(a)

    def from_int(self, n: int):
        return Fraction(n)

    def from_fraction(self, num: int, den: int):
        if den == 0:
            raise FieldError("zero denominator")
        return Fraction(num, den)

    def to_str(self, a) -> str:
        a = Fraction(a)
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"


def is_canonical_qq(c) -> bool:
    """Whether ``c`` is a QQ element in canonical form: an ``int`` exactly
    when it is integral, a ``Fraction`` otherwise."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def exp_lcm(a, b) -> tuple[int, ...]:
    return tuple(map(max, a, b))


def exp_sub(a, b) -> tuple[int, ...]:
    return tuple(map(sub, a, b))


def exp_add(a, b) -> tuple[int, ...]:
    return tuple(map(add, a, b))


def exp_coprime(a, b) -> bool:
    """Whether monomials a and b share no variable (exponents are
    non-negative, so no position has a nonzero minimum)."""
    return not any(map(min, a, b))


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
                    factor = Polynomial(ring, {shift: f.mul(c, f.inv(lc))})
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


def completes_to_itself(piece: SpanPiece) -> bool:
    """Whether the piece's relations are what ``groebner_basis`` returns for
    them in degree-reverse-lex on the piece's ring: the same elements, in
    the same order, each with its terms in the same order."""
    again = groebner_basis(list(piece.relations), GrevLex(piece.ring.nvars))
    return [list(g.terms().items()) for g in again] == [
        list(r.terms().items()) for r in piece.relations
    ]


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
                ratio = f.mul(c, f.inv(d[lm]))
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


def unnormalized_buchberger(
    gens: list[Polynomial], order: MonomialOrder, budget: Budget, strategy: str
) -> list[Polynomial]:
    """Reduced Groebner basis by Buchberger's loop on a basis that is made
    monic only at the end; the reference for the engine's pair loop.

    Pairs ``(j, i)`` are ranked by the lcm's order key ("normal") or by
    nothing ("fifo"), the lcm is recomputed at every pop and popped pairs
    are kept as frozensets.  A pair passing the product and chain criteria
    costs one "S-pair formation" step, and its :func:`naive_spoly` is
    divided by :func:`rescanning_reduce` against the (non-monic) basis.
    Interreduction drops elements whose lead another lead divides (the
    later of two equal leads), reduces each survivor by the others and
    scales it monic.
    """
    basis: list[Polynomial] = []
    lms: list[tuple[int, ...]] = []

    def adjoin(r: Polynomial) -> bool:
        if r.is_zero():
            return False
        basis.append(r)
        lms.append(r.leading_exponent(order))
        return True

    for g in gens:
        adjoin(rescanning_reduce(g, basis, order, budget))
    queue: list[tuple] = []

    def push(j: int):
        for i in range(j):
            rank = (order.key(exp_lcm(lms[i], lms[j])),) if strategy == "normal" else ()
            heappush(queue, (*rank, j, i))

    for j in range(len(basis)):
        push(j)
    done: set[frozenset[int]] = set()
    while queue:
        *_, j, i = heappop(queue)
        done.add(frozenset((i, j)))
        lcm = exp_lcm(lms[i], lms[j])
        if exp_coprime(lms[i], lms[j]):
            continue
        if any(
            k not in (i, j)
            and exp_divides(lms[k], lcm)
            and frozenset((i, k)) in done
            and frozenset((j, k)) in done
            for k in range(len(basis))
        ):
            continue
        budget.spend(1, "S-pair formation")
        if adjoin(rescanning_reduce(naive_spoly(basis[i], basis[j], order), basis, order, budget)):
            push(len(basis) - 1)
    alive = [
        i
        for i, lm in enumerate(lms)
        if not any(j != i and exp_divides(lj, lm) and (lj != lm or j < i) for j, lj in enumerate(lms))
    ]
    out = []
    for i in alive:
        r = rescanning_reduce(basis[i], [basis[j] for j in alive if j != i], order, budget)
        out.append(r.scale(r.ring.field.inv(r.terms()[lms[i]])))
    out.sort(key=lambda g: order.key(g.leading_exponent(order)))
    return out


def accumulating_map_ring(p: Polynomial, target: PolynomialRing, rename: dict[str, str] | None = None) -> Polynomial:
    """``p`` moved into ``target`` by matching (renamed) names, each term's
    coefficient added into the target's through the field and the result
    built by the validating constructor; the reference for
    :meth:`Polynomial.map_ring` on renames that merge no used variables."""
    if target.field != p.ring.field:
        raise RingMismatch("cannot move polynomials between different fields")
    rename = rename or {}
    pos = []
    for name in p.ring.names:
        new = rename.get(name, name)
        pos.append(target.names.index(new) if new in target.names else None)
    out: dict[tuple[int, ...], object] = {}
    f = target.field
    for exp, c in p.terms().items():
        e = [0] * target.nvars
        for i, k in enumerate(exp):
            if not k:
                continue
            if pos[i] is None:
                raise RingMismatch(f"variable {p.ring.names[i]!r} is used but absent from target ring")
            e[pos[i]] = k
        key = tuple(e)
        s = f.add(out.get(key, f.zero), c)
        if not s:
            out.pop(key, None)
        else:
            out[key] = s
    return Polynomial(target, out)


def looping_power(self: Polynomial, k: int) -> Polynomial:
    """``self**k`` by square-and-multiply on whole polynomials, a monomial
    included: the reference for :meth:`Polynomial.__pow__`, whose terms,
    term order and errors it must give."""
    if k < 0:
        raise InputError("negative power; use the companion of an inverted name")
    result = self.ring.one()
    base = self
    while k:
        if k & 1:
            result = result * base
        base_needed = k >> 1
        if base_needed:
            base = base * base
        k = base_needed
    return result


def slot_loop_map_ring(p: Polynomial, target: PolynomialRing, rename: dict[str, str] | None = None) -> Polynomial:
    """:meth:`Polynomial.map_ring` with its slot map rebuilt from the names
    and the terms on every call: the reference for the planned move, its
    term order and its :class:`RingMismatch` messages."""
    if target.field != p.ring.field:
        raise RingMismatch("cannot move polynomials between different fields")
    names = p.ring.names
    rename = rename or {}
    slot = {v: j for j, v in enumerate(target.names)}
    terms = p._terms
    n = len(names)
    pick = [n] * target.nvars  # source position read by each target slot; n reads 0
    for i, v in enumerate(names):
        j = slot.get(rename.get(v, v))
        if j is None:
            if any(exp[i] for exp in terms):
                raise RingMismatch(f"variable {v!r} is used but absent from target ring")
        elif pick[j] == n:
            pick[j] = i
        elif any(exp[i] for exp in terms):
            if any(exp[pick[j]] for exp in terms):
                raise RingMismatch(
                    f"variables {names[pick[j]]!r} and {v!r} both map to {target.names[j]!r}"
                )
            pick[j] = i
    if pick == list(range(n)):
        return Polynomial._relabeled(target, terms)
    get = itemgetter(*pick) if len(pick) > 1 else lambda e: tuple(e[k] for k in pick)
    if n in pick:
        return Polynomial._relabeled(target, {get(exp + (0,)): c for exp, c in terms.items()})
    return Polynomial._relabeled(target, {get(exp): c for exp, c in terms.items()})


def two_basis_collapse(corr: Correspondence, images: list[dict[str, Polynomial]], budget: Budget) -> Correspondence:
    """:func:`flatspan.spans.collapse_variables` built from two completions
    per piece: the claims are checked against a degree-reverse-lex basis,
    and the new relations are what :func:`eliminate` returns."""
    pieces = []
    for piece, mapping in zip(corr.pieces, images):
        if not mapping:
            pieces.append(piece)
            continue
        ring = piece.ring
        basis = groebner_basis(list(piece.relations), budget=budget)
        for name, image in mapping.items():
            if not normal_form(ring.var(name) - image, basis, budget=budget).is_zero():
                raise SpanError(f"cannot collapse {name!r}")
        drop = list(mapping)
        small = ring.drop(drop)
        relations = [g.map_ring(small) for g in eliminate(list(piece.relations), drop, budget=budget)]
        moved = {name: image.map_ring(small) for name, image in mapping.items()}
        src = {v: piece.src(v).substitute(moved, small) for v in corr.source.ring.names}
        tgt = {v: piece.tgt(v).substitute(moved, small) for v in corr.target.ring.names}
        pieces.append(make_piece(small, relations, src, tgt, corr.source, corr.target))
    return Correspondence(corr.source, corr.target, tuple(pieces))


def twice_completed_equal(
    left: Correspondence,
    left_collapse: dict[str, Polynomial],
    right: Correspondence,
    right_collapse: dict[str, Polynomial],
    budget: Budget,
) -> tuple[bool, str]:
    """``spans.collapsed_equal`` completing both collapsed sides
    again before comparing them: the reference for its verdicts, details
    and :class:`IncomparableSpans` cases."""
    if left.source != right.source or left.target != right.target:
        return False, "the two sides have different feet"
    _single_piece(left, "naturality comparison")
    _single_piece(right, "naturality comparison")
    lp = collapse_variables(left, [left_collapse], budget=budget).pieces[0]
    rp = collapse_variables(right, [right_collapse], budget=budget).pieces[0]
    if _pieces_equal(_canonical(lp, lp.ring, {}, budget), rp, budget):
        return True, ""
    return False, "canonical presentations differ"


def _payload(piece: SpanPiece, names: tuple[str, ...], rename: dict[str, str], budget):
    """Relations (as a reduced basis) and map images inside a mark-free ring."""
    ring = PolynomialRing(piece.ring.field, names)
    basis = groebner_basis([r.map_ring(ring, rename) for r in piece.relations], budget=budget)
    src = tuple(normal_form(img.map_ring(ring, rename), basis, budget=budget) for _, img in piece.src_map)
    tgt = tuple(normal_form(img.map_ring(ring, rename), basis, budget=budget) for _, img in piece.tgt_map)
    return basis, src, tgt


def payload_equals(left: Correspondence, right: Correspondence, budget: Budget | None = None) -> bool:
    """:func:`flatspan.spans.equals` with every compared piece put in canonical
    form twice: both sides are simplified, and each compared pair is then
    completed again in a ring without inverted-variable marks."""
    if left.source != right.source or left.target != right.target:
        return False
    a = sorted((simplify_piece(p, budget=budget) for p in left.pieces), key=_piece_sort_key)
    remaining = [simplify_piece(p, budget=budget) for p in right.pieces]
    if len(a) != len(remaining):
        return False
    for piece in a:
        names = piece.ring.names
        for i, other in enumerate(remaining):
            if len(names) != len(other.ring.names):
                if len(a) == 1:
                    raise IncomparableSpans("different variable counts")
                continue
            rename = {} if sorted(names) == sorted(other.ring.names) else dict(zip(other.ring.names, names))
            if _payload(piece, names, {}, budget) == _payload(other, names, rename, budget):
                remaining.pop(i)
                break
        else:
            return False
    return True


def _sort_leads(basis: list[Polynomial], order: MonomialOrder, split: int):
    """Pure-fiber leads (their fiber exponents), base-only elements and
    mixed elements of ``basis``."""
    pure, base_only, mixed = [], [], []
    for g in basis:
        lm = g.leading_exponent(order)
        fp, bp = lm[:split], lm[split:]
        if any(fp) and not any(bp):
            pure.append(fp)
        elif any(bp) and not any(fp):
            base_only.append(g)
        elif any(fp):
            mixed.append(g)
    return pure, base_only, mixed


def box_staircase(pure: list[tuple[int, ...]], split: int) -> list[tuple[int, ...]] | None:
    """Every fiber monomial no pure lead divides, in degree-reverse-lex
    order, found by scanning the box the pure powers bound; ``None`` when a
    direction has no pure power."""
    bounds = []
    for i in range(split):
        powers = [a[i] for a in pure if a[i] and sum(a) == a[i]]
        if not powers:
            return None
        bounds.append(min(powers))
    box = [()]
    for b in bounds:
        box = [e + (k,) for e in box for k in range(b)]
    out = [e for e in box if not any(exp_divides(a, e) for a in pure)]
    return sorted(out, key=GrevLex(split).key)


def fiber_dimension(corr: Correspondence, point: dict[str, object]) -> int | None:
    """Dimension of the middle's fiber over the rational point ``point`` of
    the source (a field element per source coordinate), or ``None`` when
    some fiber is not finite.

    Per piece: the staircase size of a degree-reverse-lex basis of the
    piece relations plus ``src(x_i) - a_i``, summed over the pieces.  It
    shares nothing with certification but the Groebner engine: no block
    order, no base ring, no matrices.  A middle finite free of rank r over
    the source has fiber dimension r at every point.
    """
    total = 0
    for piece in corr.pieces:
        ring = piece.ring
        gens = list(piece.relations) + [piece.src(v) - ring.const(a) for v, a in point.items()]
        basis = groebner_basis(gens)
        if is_unit_ideal(basis):
            continue
        order = GrevLex(ring.nvars)
        stair = box_staircase([g.leading_exponent(order) for g in basis], ring.nvars)
        if stair is None:
            return None
        total += len(stair)
    return total


def enumerated_recheck(corr: Correspondence, outcome: CertifyOutcome, budget: Budget | None = None) -> bool:
    """A recheck that inspects the certificate field by field: the S-pair
    criterion, the relations, no mixed lead, the staircase the pure leads
    give, a matrix per fiber variable and each stored matrix
    recomputed.  It runs no torsion test."""
    if not outcome.certified or len(corr.pieces) != len(outcome.pieces):
        return False
    base_basis = tuple(groebner_basis(list(corr.source.relations), budget=budget))
    for piece, cert in zip(corr.pieces, outcome.pieces):
        combined = cert.ring
        if cert.split != len(piece.ring.names):
            return False
        if combined.drop(combined.names[: cert.split]) != corr.source.ring:
            return False
        if cert.base_groebner != base_basis:
            return False
        order = fiber_order(combined.nvars, cert.split)
        basis = [b for b in cert.groebner if not b.is_zero()]
        if not spolynomial_pairs_reduce(basis, order, budget=budget):
            return False
        for rel in piece_over_base(piece, corr.source)[2]:
            if not normal_form(rel, basis, order, budget=budget).is_zero():
                return False
        table = DivisorTable(combined, basis, order)
        pure, _, mixed = _sort_leads(basis, order, cert.split)
        stair = [] if any(b.is_constant() for b in basis) else box_staircase(pure, cert.split)
        fiber = combined.names[: cert.split]
        if mixed or stair != list(cert.staircase):
            return False
        if stair and not set(fiber) <= {name for name, _ in cert.matrices}:
            return False
        for name, recorded in cert.matrices:
            try:
                fresh = multiplication_matrix_from(
                    table, cert.split, combined.var(name), list(cert.staircase), budget
                )
            except PresentationError:
                return False
            if tuple(tuple(row) for row in fresh) != recorded:
                return False
    return True


def leads_certificate(corr: Correspondence) -> CertifyOutcome | None:
    """The certificate a forger builds from each piece's true reduced basis
    and the staircase its pure leads cut out, with no torsion or mixed-lead
    test; ``None`` when some fiber direction has no pure power."""
    base = corr.source
    base_basis = tuple(groebner_basis(list(base.relations)))
    pieces = []
    for piece in corr.pieces:
        combined, _, relations = piece_over_base(piece, base)
        split = len(piece.ring.names)
        order = fiber_order(combined.nvars, split)
        basis = groebner_basis(relations, order)
        if any(g.is_constant() for g in basis):
            stair = []
        else:
            stair = box_staircase(_sort_leads(basis, order, split)[0], split)
            if stair is None:
                return None
        fiber = combined.names[:split]
        table = DivisorTable(combined, basis, order)
        matrices = tuple(
            (v, multiplication_matrix_from(table, split, combined.var(v), stair))
            for v in sorted(fiber)
            if stair
        )
        pieces.append(PieceCertificate(combined, split, tuple(basis), tuple(stair), matrices, base_basis))
    return CertifyOutcome("certified", tuple(pieces))


# ---------------------------------------------------------------------------
# the naming of adjoined variables before ``PolynomialRing.adjoin``: a free
# name, a stem free together with its companion, and the disjoint merge of
# two rings built from them; ``adjoin`` must name every variable the same


def fresh_name(base: str, taken: Iterable[str]) -> str:
    taken = set(taken)
    if base not in taken:
        return base
    i = 2
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def _fresh_pair(base: str, taken: list[str]) -> str:
    """A stem such that both it and its companion are unused."""
    stem = base
    k = 1
    while stem in taken or companion_name(stem) in taken:
        k += 1
        stem = f"{base}{k}"
    return stem


def _merge_rings(
    left: PolynomialRing, right: PolynomialRing
) -> tuple[PolynomialRing, dict[str, str]]:
    """Disjointly adjoin ``right``'s variables, renaming clashes.

    Returns the merged ring and the rename applied to right-hand names.
    Companion pairs are renamed together so localization survives.
    """
    rename: dict[str, str] = {}
    taken = list(left.names)
    for name in right.names:
        if name.endswith("_inv") and name.removesuffix("_inv") in right.inverted:
            continue  # renamed with its stem
        if name in right.inverted:
            stem = _fresh_pair(name, taken)
            rename[name], rename[companion_name(name)] = stem, companion_name(stem)
            taken += [stem, companion_name(stem)]
        else:
            rename[name] = fresh_name(name, taken)
            taken.append(rename[name])
    merged_names = left.names + tuple(rename[n] for n in right.names)
    merged_inverted = left.inverted | frozenset(rename[v] for v in right.inverted)
    return PolynomialRing(left.field, merged_names, merged_inverted), rename


def full_box_filtration(
    alpha: Correspondence, *, window: int, budget: Budget | None = None
) -> FiltrationReport:
    """The filtration search with no mirror shortcut: every one of the
    ``2 * window**2`` families is certified, in entry order, and the index
    is the least ``i`` whose box ``i <= m, n <= window`` certifies, found
    by scanning the boxes.  Spends its budget in the order the search
    spends it: the input, the families, then the parameter-extended
    input and its two bounds."""
    budget = budget or Budget()
    _certified(alpha, budget, "filtration search")
    entries = []
    for m in range(1, window + 1):
        for n in range(1, window + 1):
            for sign in ("+", "-"):
                out = cancel_family(alpha, m, n, sign, budget=budget).certificate
                rank = out.rank if out.certified else None
                entries.append(FiltrationEntry(m, n, sign, out.status, rank))

    def failing_in_box(i):
        return [
            (e.m, e.n, e.sign)
            for e in entries
            if e.status != "certified" and min(e.m, e.n) >= i
        ]

    index = next((i for i in range(1, window + 1) if not failing_in_box(i)), None)
    box = failing_in_box(index - 1 if index else window)
    blocking = box[0] if box else None

    _single_piece(alpha, "parameter extension")
    s_name = fresh_name(PARAMETER, alpha.source.ring.names)
    extended, (pvar,) = cross(alpha, affine_line(alpha.source.field, s_name), PARAMETER)
    ring = extended.pieces[0].ring
    s, one = ring.var(pvar), ring.one()
    _, tgt_t = _torus_feet(alpha)
    t2_inv = alpha.pieces[0].tgt(companion_name(tgt_t)).map_ring(ring)
    outcome = _certified(extended, budget, "valuation bound")
    bound_plus = bound_from_values(extended, outcome, [("f1", -s), ("f2", -(one - s))], budget)
    bound_minus = bound_from_values(
        extended, outcome, [("f1", -(s * t2_inv)), ("f2", -((one - s) * t2_inv))], budget
    )
    return FiltrationReport(index, window, tuple(entries), blocking, bound_plus, bound_minus)


def blended_family_from_scratch(
    alpha: Correspondence, m: int, n: int, sign: str
) -> tuple[Correspondence, str]:
    """``blended_family`` built for this one family alone: both feet are
    stripped, each piece is moved into its extended ring and both cuts are
    raised afresh, with no state kept between calls."""
    src_t, tgt_t = _torus_feet(alpha)
    field = alpha.source.ring.field
    stripped = strip_coordinates(alpha.source, [src_t])
    s_name = fresh_name(PARAMETER, stripped.ring.names)
    source = product(stripped, affine_line(field, s_name))
    target = strip_coordinates(alpha.target, [tgt_t])
    pieces = []
    for piece in alpha.pieces:
        pvar = fresh_name(PARAMETER, piece.ring.names)
        ring = PolynomialRing(field, piece.ring.names + (pvar,), piece.ring.inverted)
        s = ring.var(pvar)
        main, aux = piece.src(src_t).map_ring(ring), piece.tgt(tgt_t).map_ring(ring)
        blend = s * cut_value(n, sign, main, aux) + (ring.one() - s) * cut_value(m, sign, main, aux)
        pieces.append(rebuild_piece(piece, ring, {}, source, target, [blend], src={s_name: s}))
    return Correspondence(source, target, tuple(pieces)), s_name


def chart_from_scratch(alpha, datum, generator, source_u, budget=None) -> ContractedChart:
    """A contraction chart built piece by piece in one step: each piece is
    extended by the parameter and the reciprocal at once (the reciprocal
    named ``lg`` made fresh), its localizing relation and weight pulled
    back by hand, and its legs set in a single rebuild."""
    budget = budget or Budget()
    source = alpha.source
    line = affine_line(source.ring.field, source_u)
    opened, aux = localize(product(source, line), generator)
    pieces, u_names, loc_names = [], [], []
    for piece in alpha.pieces:
        u2 = fresh_name(source_u, piece.ring.names)
        lg = fresh_name("lg", piece.ring.names + (u2,))
        ring = PolynomialRing(piece.ring.field, piece.ring.names + (u2, lg), piece.ring.inverted)
        on_source = {v: piece.src(v).map_ring(ring) for v in source.ring.names}
        on_source[source_u] = ring.var(u2)
        localizing = generator.substitute(on_source, ring) * ring.var(lg) - ring.one()
        images = _weight_images(piece, datum, ring, ring.var(u2))
        weight = datum.w.substitute(images, ring)
        reciprocal = modular_inverse(
            weight, [r.map_ring(ring) for r in piece.relations] + [localizing], budget=budget
        )
        if reciprocal is None:
            reciprocal = ring.zero()
        tgt = {}
        for name in datum.primary:
            tgt[name] = datum.f_images[name].substitute(images, ring)
            tgt[companion_name(name)] = datum.cofactors[name].substitute(images, ring) * reciprocal
        src = {source_u: ring.var(u2), aux: ring.var(lg)}
        pieces.append(rebuild_piece(piece, ring, {}, opened, datum.scheme, [localizing], src, tgt))
        u_names.append(u2)
        loc_names.append(lg)
    corr = Correspondence(opened, datum.scheme, tuple(pieces))
    certificate = certify_finite_flat(corr, budget=budget)
    return ContractedChart(generator, corr, certificate, tuple(u_names), tuple(loc_names))


def slice_from_scratch(chart, value, alpha, datum) -> tuple[Correspondence, Correspondence]:
    """A chart restricted to one parameter endpoint, and ``alpha``
    base-changed to the slice's source, with the input's localization
    written out by hand."""
    source = alpha.source
    corr = chart.correspondence
    field = source.ring.field
    uname = [v for v in chart.generator.ring.names if v not in source.ring.names][0]
    shrunk = chart.generator.substitute({uname: source.ring.const(value)}, source.ring)
    constant_gen = shrunk.is_constant()
    if constant_gen:
        if shrunk.is_zero():
            raise ContractionError("chart function vanishes identically at an endpoint")
        sliced_source = source
        aux_image_value = field.inv(shrunk.constant_value())
    else:
        sliced_source, aux2 = localize(source, shrunk)
    pieces, originals = [], []
    for piece, original, u2, lg in zip(corr.pieces, alpha.pieces, chart.u_names, chart.loc_names):
        small = piece.ring.drop([u2, lg] if constant_gen else [u2])
        images = {u2: small.const(value)}
        if constant_gen:
            images[lg] = small.const(aux_image_value)
        src = {} if constant_gen else {aux2: small.var(lg)}
        pieces.append(rebuild_piece(piece, small, images, sliced_source, datum.scheme, src=src))
        if not constant_gen:
            lg2 = fresh_name(aux2, original.ring.names)
            up = PolynomialRing(field, original.ring.names + (lg2,), original.ring.inverted)
            legs = {v: original.src(v).map_ring(up) for v in source.ring.names}
            unit = shrunk.substitute(legs, up) * up.var(lg2) - up.one()
            originals.append(
                rebuild_piece(
                    original, up, {}, sliced_source, alpha.target, [unit], src={aux2: up.var(lg2)}
                )
            )
    sliced = Correspondence(sliced_source, datum.scheme, tuple(pieces))
    if not constant_gen:
        alpha = Correspondence(sliced_source, alpha.target, tuple(originals))
    return sliced, alpha

# ---------------------------------------------------------------------------
# the token-list parser that built every atom as a Polynomial and copied the
# running sum at each summand; the one-pass parser must agree with it on
# value, term order and every error


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^/()]))"
)


@dataclass
class _Tok:
    kind: str  # num | ident | op | eof
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            line, col = _position(text, pos)
            raise ParseError(f"unexpected character {stripped[0]!r}", line, col)
        kind = m.lastgroup
        line, col = _position(text, m.start(kind))
        toks.append(_Tok(kind, m.group(kind), line, col))
        pos = m.end()
    end_line, end_col = _position(text, len(text))
    toks.append(_Tok("eof", "", end_line, end_col))
    return toks


def _position(text: str, pos: int) -> tuple[int, int]:
    """One-based line and column of offset ``pos``."""
    line = text.count("\n", 0, pos)
    return line + 1, pos - text.rfind("\n", 0, pos)


class _Parser:
    def __init__(self, toks: list[_Tok], ring: PolynomialRing):
        self.toks = toks
        self.i = 0
        self.ring = ring
        self.depth = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str) -> _Tok:
        t = self.next()
        if t.kind != "op" or t.text != op:
            raise ParseError(f"expected {op!r}, found {t.text or 'end of input'!r}", t.line, t.col)
        return t

    def parse_expr(self) -> Polynomial:
        total = self.parse_term()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in "+-":
                self.next()
                rhs = self.parse_term()
                total = total + rhs if t.text == "+" else total - rhs
            else:
                return total

    def parse_term(self) -> Polynomial:
        sign = 1
        while self.peek().kind == "op" and self.peek().text == "-":
            self.next()
            sign = -sign
        prod = self.parse_factor()
        while self.peek().kind == "op" and self.peek().text == "*":
            self.next()
            while self.peek().kind == "op" and self.peek().text == "-":
                self.next()
                sign = -sign
            prod = prod * self.parse_factor()
        return prod if sign == 1 else -prod

    def parse_factor(self) -> Polynomial:
        base = self.parse_atom()
        t = self.peek()
        if t.kind == "op" and t.text == "^":
            self.next()
            n = self.next()
            if n.kind != "num":
                raise ParseError("expected integer exponent after '^'", n.line, n.col)
            k = int(n.text)
            if k > MAX_EXPONENT:
                raise ParseError(f"exponent {k} exceeds {MAX_EXPONENT}", n.line, n.col)
            return base**k
        return base

    def parse_atom(self) -> Polynomial:
        t = self.next()
        if t.kind == "num":
            num = int(t.text)
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "/":
                self.next()
                d = self.next()
                if d.kind != "num":
                    raise ParseError("expected integer denominator", d.line, d.col)
                try:
                    return self.ring.const(self.ring.field.from_fraction(num, int(d.text)))
                except FieldError as e:
                    raise ParseError(str(e), t.line, t.col) from None
            return self.ring.const(num)
        if t.kind == "ident":
            if t.text not in self.ring.names:
                raise ParseError(
                    f"unknown variable {t.text!r}; ring variables are {', '.join(self.ring.names) or '(none)'}",
                    t.line,
                    t.col,
                )
            return self.ring.var(t.text)
        if t.kind == "op" and t.text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", t.line, t.col)
            self.depth += 1
            inner = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ParseError(f"unexpected {t.text or 'end of input'!r}", t.line, t.col)


def reference_parse_polynomial(text: str, ring: PolynomialRing) -> Polynomial:
    toks = _tokenize(text)
    parser = _Parser(toks, ring)
    try:
        p = parser.parse_expr()
    except ExponentOverflow as err:
        last = toks[parser.i - 1]
        raise ParseError(str(err), last.line, last.col) from None
    t = parser.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return p
