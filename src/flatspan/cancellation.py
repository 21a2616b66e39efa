"""Torus cut loci, blended one-parameter families, and flatness bounds.

The operations here turn a finite-flat correspondence between
torus-augmented schemes into a family over an affine parameter line,
slice that family at torus cut loci, and certify (or refute) flatness of
the resulting middles.  :func:`blended_family` builds a family and
:func:`cancel_family` also certifies it; the other headline entry points
are :func:`filtration_index`, :func:`verify_compat` and
:func:`verify_cancellation`.

Every blended family of one span shares its feet, its extended middle
rings and the moved relations and legs; only the blend relation differs.
Those parts depend on the span alone and charge no budget, so they are
built once, and the last four spans' parts are kept: the span, torus feet
forgotten as in :func:`cancel_slice`, crossed with the parameter line
(:func:`~flatspan.spans.cross`).  So is each moved piece's certificate
layout over the family's source (:func:`~flatspan.spans.piece_over_base`),
the first time a family of the span is certified.  A family's blend (a sum
of monomial powers, not memoized) is made only in the moved piece's ring;
:func:`cancel_family` renames it into the layout's ring, puts it right
after the moved relations and certifies through
:func:`~flatspan.spans.certify_laid_out`.  The family span is built only
for a caller that reads it (:attr:`FamilyReport.correspondence`), never by
:func:`filtration_index`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import NamedTuple

from .budget import Budget, InputError
from .fields import QQ, field_name
from .groebner import (
    groebner_basis,
    ideal_intersection,
    ideals_equal,
    is_unit_ideal,
    saturate,
)
from .modules import CertifyOutcome, multiplication_matrix_from
from .poly import (
    Polynomial,
    PolynomialRing,
    companion_name,
    laurent_valuation,
)
from .schemes import (
    AffineScheme,
    affine_line,
    detect_torus_coordinate,
    point,
    strip_coordinates,
    torus,
)
from .spans import (
    Correspondence,
    SpanPiece,
    certify_finite_flat,
    certify_laid_out,
    collapsed_equal,
    compose,
    cross,
    degree,
    equals,
    graph_span,
    identity_span,
    lift_into_certificate,
    make_piece,
    piece_over_base,
    rebuild_piece,
)


class CancellationError(InputError):
    """A family/bound operation received an input it cannot handle."""


# stem of the parameter a blended family adjoins, made fresh where taken
PARAMETER = "s"


# ---------------------------------------------------------------------------
# cut and blend polynomials


def cut_value(n: int, sign: str, main: Polynomial, aux: Polynomial | None = None) -> Polynomial:
    """``main**n + 1`` for sign ``+`` and ``main**n + aux`` for sign ``-``.

    ``main`` and ``aux`` are typically the structure-map images of the
    source and target torus coordinates; the minus cut needs both.
    """
    if n < 1:
        raise InputError("cut exponent must be at least 1")
    if sign == "+":
        return main**n + main.ring.one()
    if sign == "-":
        if aux is None:
            raise ValueError("the minus cut needs the target coordinate")
        return main**n + aux
    raise ValueError(f"sign must be '+' or '-', not {sign!r}")


def blend_value(blend: Polynomial, cut_n: Polynomial, cut_m: Polynomial) -> Polynomial:
    """``blend * cut_n + (1 - blend) * cut_m``, interpolating two cuts
    (see :func:`cut_value`)."""
    return blend * cut_n + (blend.ring.one() - blend) * cut_m


# ---------------------------------------------------------------------------
# valuation bounds


@dataclass(frozen=True)
class BoundEntry:
    """One nonzero matrix entry together with its torus valuation."""

    label: str
    row: int
    col: int
    valuation: int
    value: Polynomial


@dataclass(frozen=True)
class BoundReport:
    """Effective exponent bound extracted from multiplication matrices;
    :meth:`admits` is the per-entry criterion itself."""

    torus_var: str
    entries: tuple[BoundEntry, ...]

    def admits(self, n: int) -> bool:
        """Whether the valuation criterion certifies the n-th slice."""
        return all(n + e.valuation >= 1 for e in self.entries)

    @property
    def n_bound(self) -> int:
        """The least nonnegative ``N`` such that every slice exponent
        ``n > N`` clears all entry valuations."""
        return max(0, -min((e.valuation for e in self.entries), default=0))


def _single_piece(alpha: Correspondence, task: str) -> SpanPiece:
    if len(alpha.pieces) != 1:
        raise CancellationError(f"{task} needs a single-piece middle")
    return alpha.pieces[0]


def _certified(alpha: Correspondence, budget: Budget, task: str) -> CertifyOutcome:
    outcome = certify_finite_flat(alpha, budget=budget)
    if not outcome.certified:
        raise CancellationError(
            f"{task} needs the middle certified finite free over the source; "
            f"certification says {outcome.status}: {outcome.detail}"
        )
    return outcome


def bound_from_values(
    alpha: Correspondence,
    outcome: CertifyOutcome,
    labelled: list[tuple[str, Polynomial]],
    budget: Budget,
) -> BoundReport:
    """Bound ``labelled`` over ``outcome``, a certified outcome of ``alpha``."""
    piece = _single_piece(alpha, "valuation bound")
    tvar = detect_torus_coordinate(alpha.source)
    cert = outcome.pieces[0]
    entries = []
    for label, value in labelled:
        lifted = lift_into_certificate(piece, cert, value)
        matrix = multiplication_matrix_from(cert.table, cert.split, lifted, list(cert.staircase), budget)
        for i, row in enumerate(matrix):
            for j, entry in enumerate(row):
                v = laurent_valuation(entry, tvar)
                if v is not None:
                    entries.append(BoundEntry(label, i, j, v, entry))
    return BoundReport(tvar, tuple(entries))


def flatness_bound(
    alpha: Correspondence,
    f: Polynomial,
    *,
    budget: Budget | None = None,
) -> BoundReport:
    """Exponent bound for the slices ``Z(1 - t**n * f)`` of the middle.

    ``alpha`` must certify finite free over its source, which carries an
    inverted torus coordinate; ``f`` lives on the middle.  The matrix of
    ``f`` over the certified basis has entries in the source ring, and
    the bound is driven by their worst torus valuation.
    """
    budget = budget or Budget()
    outcome = _certified(alpha, budget, "valuation bound")
    return bound_from_values(alpha, outcome, [("f", f)], budget)


def flatness_bound_ext(
    alpha: Correspondence,
    f1: Polynomial,
    f2: Polynomial,
    *,
    budget: Budget | None = None,
) -> BoundReport:
    """One bound valid for every combination ``f1 * t**a + f2 * t**b``.

    Shifting by nonnegative powers of the (base) torus coordinate scales
    each matrix by a scalar power of ``t`` and can only raise entry
    valuations, so the minimum over the two unshifted matrices bounds all
    shifted combinations at once.
    """
    budget = budget or Budget()
    outcome = _certified(alpha, budget, "valuation bound")
    return bound_from_values(alpha, outcome, [("f1", f1), ("f2", f2)], budget)


# ---------------------------------------------------------------------------
# slices of the middle


@dataclass(frozen=True)
class SliceReport:
    """Slice of the middle along ``1 - t**n * f``, seen over the source
    with the torus factor forgotten.

    ``verdict`` is one of ``certified-flf`` (finite free, certificate
    attached), ``flat-by-certificate`` (not certified finite free, but
    the valuation bound admits the exponent), ``not-flat`` (torsion
    witness attached) and ``inconclusive``.  ``flat-by-certificate``
    claims the bound only; it is not a certificate that the slice is
    finite locally free.  ``valuation-bounds.fsw``'s ``s1`` is such a
    pass, yet its slice ``x*t = 1`` has an empty fiber over ``x = 0``
    and one point over every other ``x``.
    """

    verdict: str
    correspondence: Correspondence
    certificate: CertifyOutcome
    bound: BoundReport | None = None

    @property
    def rank(self) -> int | None:
        return self.certificate.rank

    @property
    def witness(self) -> tuple[Polynomial, ...]:
        return self.certificate.witness


def slice_locus(
    alpha: Correspondence,
    f: Polynomial,
    n: int,
    *,
    budget: Budget | None = None,
) -> SliceReport:
    """Cut the middle along ``1 - t**n * f`` and classify it over the base.

    The verdict never silently upgrades: flatness is reported only with a
    finite-free certificate or with an explicit valuation bound admitting
    the exponent.
    """
    budget = budget or Budget()
    piece = _single_piece(alpha, "slicing")
    tvar = detect_torus_coordinate(alpha.source)
    t_img = piece.src(tvar)
    relation = piece.ring.one() - t_img**n * f
    sliced_source = strip_coordinates(alpha.source, [tvar])
    new_piece = rebuild_piece(piece, piece.ring, {}, sliced_source, alpha.target, [relation])
    corr = Correspondence(sliced_source, alpha.target, (new_piece,))
    outcome = certify_finite_flat(corr, budget=budget)
    if outcome.certified:
        return SliceReport("certified-flf", corr, outcome)
    if outcome.status == "not_locally_free":
        return SliceReport("not-flat", corr, outcome)
    bound = flatness_bound(alpha, f, budget=budget)
    if bound.admits(n):
        return SliceReport("flat-by-certificate", corr, outcome, bound=bound)
    return SliceReport("inconclusive", corr, outcome, bound=bound)


def shifted_slice(
    alpha: Correspondence,
    f1: Polynomial,
    f2: Polynomial,
    a: int,
    b: int,
    n: int,
    *,
    budget: Budget | None = None,
) -> SliceReport:
    """Slice along ``1 - t**n * (f1 * t**a + f2 * t**b)``."""
    if a < 0 or b < 0:
        raise InputError("shift exponents must be nonnegative")
    piece = _single_piece(alpha, "slicing")
    t_img = piece.src(detect_torus_coordinate(alpha.source))
    return slice_locus(alpha, f1 * t_img**a + f2 * t_img**b, n, budget=budget)


# ---------------------------------------------------------------------------
# blended families


@dataclass(frozen=True)
class FamilyReport:
    """The certification attempt of ``alpha``'s blended ``(m, n, sign)``
    family, carried along even when it is inconclusive or negative.

    The family span itself, :attr:`correspondence`, is built from ``alpha``
    on first use: certification reads only the span's shared layout
    (:func:`cancel_family`), and a search that reads only the status and
    rank never builds it.
    """

    alpha: Correspondence
    m: int
    n: int
    sign: str
    certificate: CertifyOutcome
    parameter: str

    @cached_property
    def correspondence(self) -> Correspondence:
        """The :func:`blended_family` that :attr:`certificate` certifies."""
        return blended_family(self.alpha, self.m, self.n, self.sign)

    @property
    def certified(self) -> bool:
        return self.certificate.certified

    @property
    def rank(self) -> int | None:
        return self.certificate.rank


def _torus_feet(alpha: Correspondence) -> tuple[str, str]:
    return (
        detect_torus_coordinate(alpha.source),
        detect_torus_coordinate(alpha.target),
    )


def _forget_torus_feet(alpha: Correspondence) -> tuple[Correspondence, str, str]:
    """``alpha`` with the torus factors stripped from its feet (each piece
    keeps its ring and relations), and the two torus coordinates."""
    src_t, tgt_t = _torus_feet(alpha)
    source = strip_coordinates(alpha.source, [src_t])
    target = strip_coordinates(alpha.target, [tgt_t])
    pieces = tuple(rebuild_piece(p, p.ring, {}, source, target) for p in alpha.pieces)
    return Correspondence(source, target, pieces), src_t, tgt_t


class _Cuts(NamedTuple):
    """The parameter ``s`` and the torus images ``main`` and ``aux`` a
    piece's cuts are made of, in one ring."""

    s: Polynomial
    main: Polynomial
    aux: Polynomial

    def blend(self, m: int, n: int, sign: str) -> Polynomial:
        """The relation of the ``(m, n, sign)`` family in this ring."""
        return blend_value(self.s, *(cut_value(k, sign, self.main, self.aux) for k in (n, m)))


@dataclass(frozen=True)
class _FamilyParts:
    """What every blended family of one span shares: the source with its
    torus factor traded for the parameter line, the target without its
    torus factor, the parameter's name, and each piece moved into its ring
    extended by the parameter, with its cuts there."""

    source: AffineScheme
    target: AffineScheme
    parameter: str
    pieces: tuple[tuple[SpanPiece, _Cuts], ...]

    @cached_property
    def layouts(self) -> tuple[tuple[PolynomialRing, dict[str, str], list[Polynomial]], ...]:
        """Each moved piece's certificate layout over :attr:`source`, as
        :func:`~flatspan.spans.piece_over_base` gives it (the combined ring,
        the rename onto it, the relations), made once, when a family is
        first certified."""
        return tuple(piece_over_base(moved, self.source) for moved, _ in self.pieces)


@lru_cache(maxsize=4)
def _family_parts(alpha: Correspondence) -> _FamilyParts:
    """The parts every blended family of ``alpha`` shares.  A function of
    ``alpha`` alone that charges no budget, kept for the last four spans
    asked for: :func:`verify_compat` asks for two composites around
    ``alpha``'s own family, so a caller that then certifies that family
    again still finds ``alpha``'s parts."""
    bare, src_t, tgt_t = _forget_torus_feet(alpha)
    _, (s_name,) = bare.source.ring.adjoin([PARAMETER])
    family, pvars = cross(bare, affine_line(bare.source.field, s_name), PARAMETER)
    pieces = []
    for piece, moved, pvar in zip(alpha.pieces, family.pieces, pvars):
        ring = moved.ring
        main, aux = piece.src(src_t).map_ring(ring), piece.tgt(tgt_t).map_ring(ring)
        pieces.append((moved, _Cuts(ring.var(pvar), main, aux)))
    return _FamilyParts(family.source, family.target, s_name, tuple(pieces))


def blended_family(alpha: Correspondence, m: int, n: int, sign: str) -> Correspondence:
    """Blend the m-th and n-th cut loci of the middle into one family.

    ``alpha`` must run between torus-augmented schemes.  The middle gains
    the relation ``blend(m, n)`` in a fresh parameter; the source trades
    its torus factor for the parameter line, and the target forgets its
    torus factor.  Specializing the parameter to 1 recovers the n-th cut,
    0 the m-th (see :func:`restrict_parameter`).  Nothing is certified;
    the parameter's name is :attr:`FamilyReport.parameter`.

    Everything but the blend relation depends on ``alpha`` alone, charges
    no budget and is built once per span (:func:`_family_parts`, which
    keeps the last four spans), so the families of one span differ only in
    the relation appended here.
    """
    parts = _family_parts(alpha)
    source, target = parts.source, parts.target
    pieces = tuple(
        rebuild_piece(moved, moved.ring, {}, source, target, [cuts.blend(m, n, sign)])
        for moved, cuts in parts.pieces
    )
    return Correspondence(source, target, pieces)


def cancel_family(
    alpha: Correspondence, m: int, n: int, sign: str, *, budget: Budget | None = None
) -> FamilyReport:
    """Certify the :func:`blended_family` of ``alpha`` without building it.

    Each piece is laid out once per span (:attr:`_FamilyParts.layouts`).
    The blend, made as :func:`blended_family` makes it and renamed into
    the combined ring, goes right after the piece's own relations, where
    :func:`~flatspan.spans.piece_over_base` puts it for the family's piece.
    The outcome and the budget charged are those of
    :func:`~flatspan.spans.certify_finite_flat` on the family.
    """
    parts = _family_parts(alpha)
    layouts = []
    for (moved, cuts), (ring, rename, relations) in zip(parts.pieces, parts.layouts):
        own = len(moved.relations)
        blend = cuts.blend(m, n, sign).map_ring(ring, rename)
        layouts.append((ring, [*relations[:own], blend, *relations[own:]]))
    outcome = certify_laid_out(layouts, parts.source, budget or Budget())
    return FamilyReport(alpha, m, n, sign, outcome, parts.parameter)


def cancel_slice(alpha: Correspondence, n: int, sign: str) -> Correspondence:
    """Cut the middle along the n-th torus cut locus, dropping both torus
    feet."""
    bare, src_t, tgt_t = _forget_torus_feet(alpha)
    pieces = []
    for p in alpha.pieces:
        cut = cut_value(n, sign, p.src(src_t), p.tgt(tgt_t))
        pieces.append(rebuild_piece(p, p.ring, {}, bare.source, bare.target, [cut]))
    return Correspondence(bare.source, bare.target, tuple(pieces))


def restrict_parameter(corr: Correspondence, name: str, value) -> Correspondence:
    """Specialize a free source coordinate to a constant and drop it.

    The coordinate must map to a bare variable of each middle, as the
    families built here arrange.
    """
    source = corr.source
    if name not in source.ring.names:
        raise CancellationError(f"{name!r} is not a source coordinate")
    new_source = strip_coordinates(source, [name])
    pieces = []
    for piece in corr.pieces:
        image = piece.src(name)
        pvar = None
        for v in piece.ring.names:
            if image == piece.ring.var(v):
                pvar = v
                break
        if pvar is None:
            raise CancellationError(
                f"source coordinate {name!r} does not map to a bare middle variable"
            )
        small = piece.ring.drop([pvar])
        pieces.append(
            rebuild_piece(piece, small, {pvar: small.const(value)}, new_source, corr.target)
        )
    return Correspondence(new_source, corr.target, tuple(pieces))


# ---------------------------------------------------------------------------
# filtration search


@dataclass(frozen=True)
class FiltrationEntry:
    m: int
    n: int
    sign: str
    status: str
    rank: int | None


@dataclass(frozen=True)
class FiltrationReport:
    """Result of the box search for a fully certified index.

    ``index`` is the least ``i`` such that every ``(m, n, sign)`` with
    ``i <= m, n <= window`` certifies, or None if no such ``i`` exists;
    ``blocking`` then holds a failing triple (on success, one that rules
    out ``index - 1``).  ``entries`` lists all ``2 * window**2`` triples,
    ``m`` outermost, then ``n``, then the sign; an entry with ``m > n``
    carries the status and rank certified for its mirror ``(n, m, sign)``
    (see :func:`filtration_index`).  The two bound reports certify
    flatness of every family in the window uniformly, one per sign.
    """

    index: int | None
    window: int
    entries: tuple[FiltrationEntry, ...]
    blocking: tuple[int, int, str] | None
    bound_plus: BoundReport
    bound_minus: BoundReport

    @property
    def found(self) -> bool:
        return self.index is not None


def filtration_index(
    alpha: Correspondence,
    *,
    window: int,
    budget: Budget | None = None,
) -> FiltrationReport:
    """Search for the least index whose upper box certifies entirely.

    Every triple ``(m, n, sign)`` of the window is decided, so the index
    is minimal regardless of search order.  Only the families with
    ``m <= n`` are certified: ``blend(n, m)`` is ``blend(m, n)`` with
    ``s -> 1 - s``, so the ``(n, m, sign)`` family is the pullback of the
    ``(m, n, sign)`` family along that automorphism of the parameter line.
    It sends each monomial to plus or minus itself plus terms dividing it,
    so it keeps every leading monomial of the fiber-order basis, the
    staircase and the torsion test (the base relations do not involve
    ``s``); each ``m > n`` entry copies status and rank from its mirror.
    The attached uniform bounds witness flatness of all the blended
    middles: the plus families have the shape ``1 - t**k (f1 + f2 t**r)``
    with ``f1 = -s`` and ``f2 = -(1 - s)``, and the minus families divide
    by the (unit) target coordinate to reach the same shape.
    """
    if window < 1:
        raise InputError("window must be at least 1")
    budget = budget or Budget()
    _certified(alpha, budget, "filtration search")
    decided: dict[tuple[int, int, str], FiltrationEntry] = {}
    for m in range(1, window + 1):
        for n in range(1, window + 1):
            for sign in ("+", "-"):
                if m > n:
                    decided[m, n, sign] = replace(decided[n, m, sign], m=m, n=n)
                    continue
                out = cancel_family(alpha, m, n, sign, budget=budget).certificate
                decided[m, n, sign] = FiltrationEntry(m, n, sign, out.status, out.rank)
    entries = list(decided.values())
    failing = [(e.m, e.n, e.sign) for e in entries if e.status != "certified"]

    # a failing triple rules out every index up to min(m, n)
    index = max((min(m, n) for m, n, _ in failing), default=0) + 1
    if index > window:
        index = None
    floor = index - 1 if index else window
    blocking = next((f for f in failing if min(f[0], f[1]) >= floor), None)

    _single_piece(alpha, "parameter extension")
    _, (s_name,) = alpha.source.ring.adjoin([PARAMETER])
    extended, (pvar,) = cross(alpha, affine_line(alpha.source.field, s_name), PARAMETER)
    piece = extended.pieces[0]
    s = piece.ring.var(pvar)
    one = piece.ring.one()
    _, tgt_t = _torus_feet(alpha)
    t2_inv = alpha.pieces[0].tgt(companion_name(tgt_t)).map_ring(piece.ring)
    outcome = _certified(extended, budget, "valuation bound")
    bound_plus = bound_from_values(extended, outcome, [("f1", -s), ("f2", -(one - s))], budget)
    bound_minus = bound_from_values(
        extended, outcome, [("f1", -(s * t2_inv)), ("f2", -((one - s) * t2_inv))], budget
    )
    return FiltrationReport(index, window, tuple(entries), blocking, bound_plus, bound_minus)


# ---------------------------------------------------------------------------
# naturality


@dataclass(frozen=True)
class CompatReport:
    """Both naturality sides, and the first span's blended family."""

    push_ok: bool
    pull_ok: bool
    family: FamilyReport
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.push_ok and self.pull_ok


def _require_free_names(*corrs: Correspondence) -> None:
    for corr in corrs:
        for piece in corr.pieces:
            if PARAMETER in piece.ring.names:
                raise CancellationError(f"parameter name {PARAMETER!r} already used by a middle")
        if PARAMETER in corr.source.ring.names or PARAMETER in corr.target.ring.names:
            raise CancellationError(f"parameter name {PARAMETER!r} already used by a foot")


def verify_compat(
    alpha: Correspondence,
    beta: Correspondence,
    gamma: Correspondence,
    m: int,
    n: int,
    sign: str,
    *,
    budget: Budget | None = None,
) -> CompatReport:
    """Naturality of the blended family in both feet.

    Checks that blending after postcomposition with ``gamma`` (crossed
    with the torus) matches postcomposing the blended family, and the
    analogous statement for precomposition with ``beta`` (crossed with
    the parameter line).  The comparison sides are built with
    :func:`blended_family` and compared as presentations after collapsing
    the glue variables the constructions identify, so equality is on the
    nose, not up to unverified isomorphism.  Only the reported family of
    ``alpha`` itself is certified.
    """
    budget = budget or Budget()
    apiece = _single_piece(alpha, "naturality check")
    _single_piece(beta, "naturality check")
    _single_piece(gamma, "naturality check")
    _require_free_names(alpha, beta, gamma)
    src_t, tgt_t = _torus_feet(alpha)
    details = []

    def blended_through(outer: Correspondence, after: bool):
        """Blend ``alpha`` composed with ``outer`` crossed with the torus on
        the shared foot (``outer`` after ``alpha`` when ``after``, before it
        otherwise); the glue pair collapses onto ``alpha``'s leg there."""
        foot, leg = (tgt_t, apiece.tgt) if after else (src_t, apiece.src)
        crossed, (w,) = cross(outer, torus(outer.source.field, foot), "w", on_target=True)
        if not set(crossed.pieces[0].ring.names).isdisjoint(apiece.ring.names):
            spans = "first and third" if after else "second and first"
            raise CancellationError(
                f"middle variable names collide between the {spans} spans; rename them apart"
            )
        composite = compose(alpha, crossed) if after else compose(crossed, alpha)
        lhs = blended_family(composite, m, n, sign)
        ring = lhs.pieces[0].ring
        glue = {
            w: leg(foot).map_ring(ring),
            companion_name(w): leg(companion_name(foot)).map_ring(ring),
        }
        return lhs, glue

    lhs, push_collapse = blended_through(gamma, after=True)
    family = cancel_family(alpha, m, n, sign, budget=budget)
    rhs = compose(family.correspondence, gamma)
    push_ok, why = collapsed_equal(lhs, push_collapse, rhs, {}, budget)
    if not push_ok:
        details.append(f"target side: {why}")

    lhs2, pull_collapse = blended_through(beta, after=False)
    line = affine_line(beta.source.field, family.parameter)
    beta_line, (sb,) = cross(beta, line, "sb", on_target=True)
    rhs2 = compose(beta_line, family.correspondence)
    # no middle or foot uses PARAMETER, so composition leaves it unrenamed
    rhs_collapse = {sb: rhs2.pieces[0].ring.var(PARAMETER)}
    pull_ok, why = collapsed_equal(lhs2, pull_collapse, rhs2, rhs_collapse, budget)
    if not pull_ok:
        details.append(f"source side: {why}")

    return CompatReport(push_ok, pull_ok, family, "; ".join(details))


# ---------------------------------------------------------------------------
# the end-to-end verifier


def torus_identity(field) -> Correspondence:
    """The identity correspondence of the one-dimensional torus in ``t``."""
    return identity_span(torus(field, "t"))


def unit_collapse(field) -> Correspondence:
    """The self-correspondence of the torus in ``t`` that factors through
    the unit point."""
    G = torus(field, "t")
    one = G.ring.one()
    return graph_span(G, G, {"t": one, "t_inv": one})


@dataclass(frozen=True)
class SubCheck:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class CancellationReport:
    """Outcome of the five-part slice-identity verification at one level."""

    n: int
    field_name: str
    checks: tuple[SubCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[SubCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def _ideal_span(field, relations: list[Polynomial], ring: PolynomialRing) -> Correspondence:
    pt = point(field)
    piece = make_piece(ring, relations, {}, {}, pt, pt)
    return Correspondence(pt, pt, (piece,))


def verify_cancellation(
    n: int, field=None, *, budget: Budget | None = None
) -> CancellationReport:
    """Machine check of the slice identities at level ``n``.

    Five independent sub-checks: the two signed cuts of the unit-factor
    correspondence agree; the blended homotopy middle is finite free of
    rank ``n`` over the parameter line; its endpoints are the plus cut
    and the split union of the origin with the minus cut (with ranks
    ``1`` and ``n - 1``); and the plus cut does not meet the origin, so
    restricting it to the torus loses nothing.  Failures are reported,
    never patched over.
    """
    if field is None:
        field = QQ
    budget = budget or Budget()
    checks = []

    def check(name: str, ok: bool, why: str) -> None:
        checks.append(SubCheck(name, ok, "" if ok else why))

    # (a) both signed cuts of the unit-factor correspondence coincide
    p_span = unit_collapse(field)
    plus = cancel_slice(p_span, n, "+")
    minus = cancel_slice(p_span, n, "-")
    check(
        "unit-target-cuts-agree",
        equals(plus, minus, budget=budget),
        "the signed cuts of the unit-factor span differ",
    )

    # (b) the blended homotopy middle is finite free of rank n over the line
    line = affine_line(field, "s")
    hring = PolynomialRing(field, ("t", "s"))
    t, s = hring.var("t"), hring.var("s")
    homotopy_rel = t**n + t * s + hring.one() - s
    hpiece = make_piece(hring, [homotopy_rel], {"s": s}, {}, line, point(field))
    homotopy = Correspondence(line, point(field), (hpiece,))
    hout = certify_finite_flat(homotopy, budget=budget)
    check(
        "homotopy-middle-free",
        hout.certified and hout.rank == n,
        f"certification says {hout.status} (rank {hout.rank}): {hout.detail}",
    )

    # (c) the parameter-0 endpoint is the plus cut on the affine line
    tring = PolynomialRing(field, ("t",))
    tv = tring.var("t")
    at_zero = restrict_parameter(homotopy, "s", 0)
    plus_cut = _ideal_span(field, [tv**n + tring.one()], tring)
    check(
        "endpoint-zero-is-plus-cut",
        equals(at_zero, plus_cut, budget=budget),
        "the parameter-0 endpoint is not the plus cut",
    )

    # (d) the parameter-1 endpoint splits off the origin, with ranks (n-1)+1
    minus_poly = tv**n + tv
    origin = groebner_basis([tv], budget=budget)
    away = saturate([minus_poly], tv, budget=budget)
    comaximal = is_unit_ideal(groebner_basis(list(origin) + list(away), budget=budget))
    recombined = ideals_equal(
        ideal_intersection(origin, away, budget=budget), [minus_poly], budget=budget
    )
    at_one = restrict_parameter(homotopy, "s", 1)
    minus_span = _ideal_span(field, [minus_poly], tring)
    endpoint_ok = equals(at_one, minus_span, budget=budget)
    origin_rank = degree(_ideal_span(field, [tv], tring), budget=budget)
    away_rank = degree(_ideal_span(field, list(away), tring), budget=budget)
    torus_rank = degree(cancel_slice(torus_identity(field), n, "-"), budget=budget)
    check(
        "endpoint-one-splits-origin",
        endpoint_ok
        and comaximal
        and recombined
        and origin_rank == 1
        and away_rank == (n - 1 if n >= 2 else 0)
        and torus_rank == away_rank
        and away_rank + origin_rank == n,
        f"split data: endpoint={endpoint_ok} comaximal={comaximal} "
        f"recombined={recombined} ranks={away_rank}+{origin_rank} "
        f"torus side={torus_rank}",
    )

    # (e) the plus cut misses the origin, so the torus sees all of it
    unchanged = ideals_equal(
        saturate([tv**n + tring.one()], tv, budget=budget),
        [tv**n + tring.one()],
        budget=budget,
    )
    full_rank = degree(plus_cut, budget=budget)
    torus_plus = degree(cancel_slice(torus_identity(field), n, "+"), budget=budget)
    check(
        "plus-cut-misses-origin",
        unchanged and full_rank == n and torus_plus == n,
        f"saturation unchanged={unchanged}, ranks {full_rank} vs {torus_plus}",
    )

    return CancellationReport(n, field_name(field), tuple(checks))
