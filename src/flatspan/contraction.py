"""Contracting a correspondence away from an interpolation locus.

The input is a correspondence ``alpha`` from Y into a product of punctured
lines X, together with interpolation data on X: a weight function w on
X x A^1 that is identically one at parameter zero, and a coordinate map f
that restores the identity at parameter one while sending parameter zero
to a chosen base point.  Pulling the vanishing locus of w back through the
middle of ``alpha`` and pushing it down to Y x A^1 produces a closed locus
that the construction must avoid; its complement carries a restricted
middle which, composed with f, interpolates between ``alpha`` and the
constant correspondence at the base point.  The one datum is the
standard one of :func:`standard_contraction_data`: straight-line segments
from each coordinate to the base point 1, with its hypotheses checked
symbolically once per ``(n, field)``.

Everything is presented by ideals.  The pushforward along the middle is
computed by variable elimination, which is sound here because a certified
middle is finite over the source, so images of closed sets are closed.
The complement is presented as a cover by standard open charts, one per
generator of the image ideal, and every chart carries its own
finite-local-freeness certificate: the input crossed with the parameter
line, restricted to the open set of a generator (``spans.restrict_to_open``).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache, reduce
from types import MappingProxyType

from .budget import Budget, InputError
from .fields import QQ, Field
from .groebner import (
    DivisorTable,
    eliminate,
    groebner_basis,
    ideal_intersection,
    is_unit_ideal,
    modular_inverse,
)
from .modules import CertifyOutcome
from .poly import Polynomial, PolynomialRing, companion_name
from .schemes import AffineScheme, affine_line, torus, torus_power
from .spans import (
    Correspondence,
    SpanError,
    certify_finite_flat,
    cross,
    equals,
    piece_over_base,
    rebuild_piece,
    restrict_to_open,
)


class ContractionError(InputError):
    pass


# ---------------------------------------------------------------------------
# interpolation data


@dataclass(frozen=True)
class ContractionDatum:
    """Base scheme, base point, weight function and coordinate flow.

    ``base_point`` maps every coordinate of the scheme to its value;
    ``f_images`` and ``cofactors`` map the primary (inverted) coordinates.
    ``w`` and the entries of ``f_images``/``cofactors`` live in a ring on
    the scheme's coordinates plus the parameter ``u_name``; ``cofactors``
    holds w divided by the matching coordinate image.  The one datum is
    the standard one of :func:`standard_contraction_data`, whose
    hypotheses are checked symbolically once per ``(n, field)``; its three
    maps are read-only, so the checked datum can be shared.
    """

    scheme: AffineScheme
    base_point: Mapping[str, object]
    u_name: str
    w: Polynomial
    f_images: Mapping[str, Polynomial]
    cofactors: Mapping[str, Polynomial]

    @property
    def u_ring(self) -> PolynomialRing:
        return self.w.ring

    @property
    def primary(self) -> tuple[str, ...]:
        ring = self.scheme.ring
        return tuple(v for v in ring.names if v in ring.inverted)


def base_point_ideal(datum: ContractionDatum) -> tuple[Polynomial, ...]:
    """Generators of the ideal of the base point inside the coordinate
    ring of the scheme (one per primary coordinate)."""
    ring = datum.scheme.ring
    return tuple(
        ring.var(name) - ring.const(datum.base_point[name]) for name in datum.primary
    )


def _check_datum(datum: ContractionDatum, budget: Budget) -> None:
    """Check the contraction's hypotheses symbolically: the weight is one
    at parameter 0 and a unit along the base point, and the flow of each
    primary coordinate restores it at parameter 1, reaches the base point
    at parameter 0 and fixes it, with cofactor times image the weight."""
    ring = datum.scheme.ring
    uring = datum.u_ring
    uname = datum.u_name
    point = datum.base_point

    base_table = DivisorTable(
        uring, groebner_basis([r.map_ring(uring) for r in datum.scheme.relations], budget=budget)
    )

    def reduces_to_zero(p: Polynomial) -> bool:
        return base_table.reduce(p, budget).is_zero()

    at_zero = datum.w.substitute({uname: uring.const(0)}, uring)
    if not reduces_to_zero(at_zero - uring.one()):
        raise ContractionError("weight function is not identically one at parameter 0")

    at_point = datum.w.substitute(
        {v: uring.const(point[v]) for v in ring.names}, uring
    )
    if not at_point.is_constant() or at_point.is_zero():
        raise ContractionError("weight function is not a unit along the base point")

    for name in datum.primary:
        img = datum.f_images[name]
        at_one = img.substitute({uname: uring.const(1)}, uring)
        if not reduces_to_zero(at_one - uring.var(name)):
            raise ContractionError(
                f"coordinate flow does not restore {name!r} at parameter 1"
            )
        origin = img.substitute({uname: uring.const(0)}, uring)
        if not reduces_to_zero(origin - uring.const(point[name])):
            raise ContractionError(
                f"coordinate flow does not reach the base point in {name!r} "
                "at parameter 0"
            )
        fixed = img.substitute({v: uring.const(point[v]) for v in ring.names}, uring)
        if fixed != uring.const(point[name]):
            raise ContractionError(
                f"coordinate flow moves the base point in {name!r}"
            )
        if not reduces_to_zero(img * datum.cofactors[name] - datum.w):
            raise ContractionError(
                f"stored cofactor for {name!r} does not multiply back to the "
                "weight function"
            )


@lru_cache(maxsize=16, typed=True)
def standard_contraction_data(n: int, field: Field = QQ) -> ContractionDatum:
    """Interpolation data on a product of ``n`` punctured lines.

    The weight is the product of the straight-line segments u*t_i + (1-u)
    joining each coordinate to 1, the coordinate flow rescales along the
    same segments, and the base point puts every coordinate, companions
    included, at 1.  This is the only datum: its hypotheses are verified
    symbolically before it is returned, once per ``(n, field)`` (the
    field's type included), and it is then shared: the checks charge no
    budget step, so no caller's budget misses a charge.
    """
    if n < 1:
        raise ContractionError("need at least one coordinate")
    scheme = torus(field, "t") if n == 1 else torus_power(field, n)
    primary = [v for v in scheme.ring.names if v in scheme.ring.inverted]
    uring, (u_name,) = scheme.ring.adjoin(["u"])
    u = uring.var(u_name)
    segments = {v: u * uring.var(v) + uring.one() - u for v in primary}
    w = uring.one()
    for v in primary:
        w = w * segments[v]
    cofactors = {}
    for v in primary:
        cof = uring.one()
        for other in primary:
            if other != v:
                cof = cof * segments[other]
        cofactors[v] = cof
    point = {v: field.one for v in primary + [companion_name(v) for v in primary]}
    datum = ContractionDatum(
        scheme,
        MappingProxyType(point),
        u_name,
        w,
        MappingProxyType(segments),
        MappingProxyType(cofactors),
    )
    _check_datum(datum, Budget())
    return datum


# ---------------------------------------------------------------------------
# the contraction itself


@dataclass(frozen=True)
class ContractedChart:
    """One standard open chart of the complement, with its restricted
    middle presented as a correspondence into the original target."""

    generator: Polynomial
    correspondence: Correspondence
    certificate: CertifyOutcome
    u_names: tuple[str, ...]
    loc_names: tuple[str, ...]


@dataclass(frozen=True)
class ContractedCorrespondence:
    """Result of contracting a correspondence along interpolation data.

    ``source_ideal`` cuts out the locus in (source) x A^1 that the
    restricted middle must avoid; ``charts`` cover its complement.  The
    ``chain`` records every ideal along the construction for reporting,
    and the red-flag booleans confirm that the avoided locus misses the
    parameter values 0 and 1.
    """

    source_ideal: tuple[Polynomial, ...]
    u_name: str
    charts: tuple[ContractedChart, ...]
    chain: tuple[tuple[str, tuple[Polynomial, ...]], ...]
    avoids_zero: bool
    avoids_one: bool
    rank: int | None

    @property
    def ok(self) -> bool:
        return self.avoids_zero and self.avoids_one and self.rank is not None


def _weight_images(
    piece,
    datum: ContractionDatum,
    ring: PolynomialRing,
    u_var: Polynomial,
    rename: dict[str, str] | None = None,
) -> dict[str, Polynomial]:
    """Images that pull the datum's functions back to ``ring``: the piece's
    target legs (renamed by ``rename``) for the scheme coordinates and
    ``u_var`` for the parameter."""
    images = {v: piece.tgt(v).map_ring(ring, rename) for v in datum.scheme.ring.names}
    images[datum.u_name] = u_var
    return images


def _image_on_source(
    alpha: Correspondence,
    datum: ContractionDatum,
    source_u: str,
    target_ring: PolynomialRing,
    budget: Budget,
) -> tuple[list[Polynomial], list[Polynomial]]:
    """Eliminate the middle variables from the pulled-back weight locus,
    one piece at a time, and intersect the per-piece images.  Also returns
    the pulled-back weight of each piece."""
    source = alpha.source
    per_piece: list[list[Polynomial]] = []
    pulled_record: list[Polynomial] = []
    for piece in alpha.pieces:
        combined, rename, relations = piece_over_base(piece, source, target_ring)
        images = _weight_images(piece, datum, combined, combined.var(source_u), rename)
        weight = datum.w.substitute(images, combined)
        pulled_record.append(weight)
        image = eliminate(relations + [weight], list(rename.values()), budget=budget)
        per_piece.append([p.map_ring(target_ring) for p in image])
    if not per_piece:
        return [target_ring.one()], pulled_record
    merged = reduce(
        lambda a, b: ideal_intersection(a, b, budget=budget), per_piece
    )
    ambient = [r.map_ring(target_ring) for r in source.relations]
    table = DivisorTable(target_ring, groebner_basis(ambient, budget=budget))
    full = groebner_basis(merged + ambient, budget=budget)
    candidates = [b for b in full if not table.reduce(b, budget).is_zero()]
    # keep a minimal generating set modulo the source, preferring short
    # low-degree representatives so reports stay readable; the table holds
    # the reduced basis of kept + ambient, completed again only when a kept
    # candidate changes it and another candidate is left to test
    candidates.sort(key=lambda p: (len(p.terms()), p.total_degree(), str(p)))
    kept: list[Polynomial] = []
    for i, candidate in enumerate(candidates, 1):
        if not table.reduce(candidate, budget).is_zero():
            kept.append(candidate)
            if i < len(candidates):
                table = DivisorTable(target_ring, groebner_basis(kept + ambient, budget=budget))
    return kept, pulled_record


def _build_chart(
    lined: Correspondence,
    u_names: tuple[str, ...],
    datum: ContractionDatum,
    generator: Polynomial,
    budget: Budget,
) -> ContractedChart:
    """The input crossed with the parameter line (``lined``, each piece's
    copy named in ``u_names``) on ``D(generator)``, target legs flowed."""

    def flowed(i: int, ring: PolynomialRing, relations: list[Polynomial]) -> dict[str, Polynomial]:
        images = _weight_images(lined.pieces[i], datum, ring, ring.var(u_names[i]))
        weight = datum.w.substitute(images, ring)

        # the generator lies in (relations, weight), so the weight is a unit
        # wherever the generator is; no inverse means the chart piece is empty
        reciprocal = modular_inverse(weight, relations, budget=budget)
        if reciprocal is None:
            reciprocal = ring.zero()

        tgt = {}
        for name in datum.primary:
            tgt[name] = datum.f_images[name].substitute(images, ring)
            tgt[companion_name(name)] = datum.cofactors[name].substitute(images, ring) * reciprocal
        return tgt

    corr, loc_names = restrict_to_open(lined, generator, flowed)
    certificate = certify_finite_flat(corr, budget=budget)
    return ContractedChart(generator, corr, certificate, u_names, loc_names)


def contract(
    alpha: Correspondence, datum: ContractionDatum, budget: Budget | None = None
) -> ContractedCorrespondence:
    """Restrict the middle of ``alpha`` away from the pulled-back weight
    locus and flow its target leg along the interpolation data.

    The input must target the datum's scheme and carry a finite-local-
    freeness certificate.  The avoided locus is pushed down to the source
    line by elimination; its complement is covered by one chart per ideal
    generator, and each chart's restricted middle is re-certified (the
    rank must agree with the input).  Failure of the parameter values 0
    or 1 to stay inside the complement is reported, never suppressed.
    """
    budget = budget or Budget()
    if alpha.target != datum.scheme:
        raise ContractionError(
            "correspondence target does not match the interpolation scheme"
        )
    before = certify_finite_flat(alpha, budget=budget)
    if not before.certified:
        raise ContractionError(
            "contraction needs a certified finite locally free input; got "
            f"status {before.status!r}"
        )
    source = alpha.source
    _, (source_u,) = source.ring.adjoin([datum.u_name])
    lined, u_names = cross(alpha, affine_line(source.field, source_u), source_u)
    on_line = lined.source.ring
    image, pulled = _image_on_source(alpha, datum, source_u, on_line, budget)

    u = on_line.var(source_u)
    ambient = [r.map_ring(on_line) for r in source.relations]
    avoids_zero = is_unit_ideal(
        groebner_basis(image + ambient + [u], budget=budget)
    )
    avoids_one = is_unit_ideal(
        groebner_basis(image + ambient + [u - on_line.one()], budget=budget)
    )

    charts = tuple(_build_chart(lined, u_names, datum, g, budget) for g in image)
    # every chart must certify with the input's rank, and some chart must exist
    ranks = {chart.certificate.rank for chart in charts}
    rank = before.rank if ranks == {before.rank} else None

    chain = (
        ("weight-locus", (datum.w,)),
        ("middle-pullback", tuple(pulled)),
        ("source-image", tuple(image)),
        ("complement-cover", tuple(image)),
        (
            "restricted-middle",
            tuple(
                rel
                for chart in charts
                for piece in chart.correspondence.pieces
                for rel in piece.relations
            ),
        ),
    )
    return ContractedCorrespondence(
        tuple(image),
        source_u,
        charts,
        chain,
        avoids_zero,
        avoids_one,
        rank,
    )


# ---------------------------------------------------------------------------
# endpoint behaviour


@dataclass(frozen=True)
class EndpointSlice:
    value: int
    matches_input: bool
    lands_on_base_point: bool


@dataclass(frozen=True)
class EndpointReport:
    """Dichotomy of the two parameter endpoints of a contraction.

    One endpoint should reproduce the input correspondence and the other
    should factor through the base point; ``identity_at`` records which
    parameter value carried the input (the construction fixes no preferred
    labelling, so it is reported rather than normalized).  Both endpoints
    may match the input, as they do when the input already lands on the
    base point.
    """

    slices: tuple[EndpointSlice, ...]
    dichotomy: bool
    identity_at: int | None
    base_point_ideal: tuple[Polynomial, ...]
    detail: str = ""


def _slice_chart(
    chart: ContractedChart,
    value: int,
    alpha: Correspondence,
    datum: ContractionDatum,
) -> tuple[Correspondence, Correspondence]:
    """Restrict a chart to one endpoint of the parameter.

    The chart's localizing function is evaluated at the endpoint; when it
    stays a nonzero constant the slice lives over the original source,
    otherwise over the source localized at the evaluated function.
    Returns the slice and ``alpha`` base-changed to the slice's source.
    """
    source = alpha.source
    uname = [v for v in chart.generator.ring.names if v not in source.ring.names][0]
    shrunk = chart.generator.substitute({uname: source.ring.const(value)}, source.ring)
    constant_gen = shrunk.is_constant()
    if constant_gen:
        if shrunk.is_zero():
            raise ContractionError(
                "chart function vanishes identically at an endpoint"
            )
        aux_image_value = source.field.inv(shrunk.constant_value())
    else:
        alpha, _ = restrict_to_open(alpha, shrunk)
        aux = alpha.source.ring.names[-1]  # the reciprocal localize appends
    pieces = []
    for piece, u2, lg in zip(chart.correspondence.pieces, chart.u_names, chart.loc_names):
        small = piece.ring.drop([u2, lg] if constant_gen else [u2])
        images = {u2: small.const(value)}
        if constant_gen:
            images[lg] = small.const(aux_image_value)
        src = {} if constant_gen else {aux: small.var(lg)}
        pieces.append(rebuild_piece(piece, small, images, alpha.source, datum.scheme, src=src))
    return Correspondence(alpha.source, datum.scheme, tuple(pieces)), alpha


def _lands_on_base_point(
    sliced: Correspondence, datum: ContractionDatum, budget: Budget
) -> bool:
    for piece in sliced.pieces:
        table = DivisorTable(piece.ring, groebner_basis(list(piece.relations), budget=budget))
        for name in datum.scheme.ring.names:
            gap = piece.tgt(name) - piece.ring.const(datum.base_point[name])
            if not table.reduce(gap, budget).is_zero():
                return False
    return True


def _matches_input(
    sliced: Correspondence, alpha: Correspondence, budget: Budget
) -> bool:
    """Compare an endpoint slice with the input base-changed to its source."""
    try:
        return equals(sliced, alpha, budget=budget)
    except SpanError:
        return False


def verify_contraction_endpoints(
    alpha: Correspondence,
    datum: ContractionDatum,
    contracted: ContractedCorrespondence,
    budget: Budget | None = None,
) -> EndpointReport:
    """Check the endpoint dichotomy of ``contracted``, the contraction of
    ``alpha`` along ``datum``.

    Each chart is restricted to parameter values 0 and 1; one slice must
    equal the input correspondence and the other must send every target
    coordinate to the base point.  The identity endpoint is 1 when slice 1
    matches the input and slice 0 either lands on the base point or does
    not match; otherwise it is 0 when slice 0 matches, and there is none
    when neither does.  Which endpoint plays which role is reported, not
    assumed.  All charts must agree.
    """
    budget = budget or Budget()
    roles = ([], [])  # (matches the input, lands on the base point) per chart, at 0 and 1
    for value, pairs in enumerate(roles):
        for chart in contracted.charts:
            sliced, base_changed = _slice_chart(chart, value, alpha, datum)
            pairs.append(
                (
                    _matches_input(sliced, base_changed, budget),
                    _lands_on_base_point(sliced, datum, budget),
                )
            )
    consistent = all(len(set(pairs)) <= 1 for pairs in roles)
    (eq0, land0), (eq1, land1) = (pairs[0] if pairs else (False, False) for pairs in roles)
    slices = (EndpointSlice(0, eq0, land0), EndpointSlice(1, eq1, land1))
    if eq1 and (land0 or not eq0):
        identity_at = 1
        dichotomy = land0
    elif eq0:
        identity_at = 0
        dichotomy = land1
    else:
        identity_at = None
        dichotomy = False
    dichotomy = dichotomy and consistent and bool(contracted.charts)
    detail = ""
    if not consistent:
        detail = "charts disagree about the endpoint behaviour"
    elif not contracted.charts:
        detail = "no chart covers the complement"
    elif not dichotomy:
        detail = (
            f"endpoint 0 (matches={eq0}, base point={land0}); "
            f"endpoint 1 (matches={eq1}, base point={land1})"
        )
    return EndpointReport(
        slices,
        dichotomy,
        identity_at,
        base_point_ideal(datum),
        detail,
    )
