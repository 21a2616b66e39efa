"""Finite-flat correspondences between affine schemes.

A correspondence from X to Y is a formal disjoint union of *pieces*; each
piece is a middle algebra presented over the ground field, together with
structure maps to X and Y given by polynomial images of the coordinate
variables.  Addition concatenates pieces, composition takes fiber products
pairwise, and tensoring pairs them.  :func:`cross` and
:func:`restrict_to_open` are the one way to adjoin a coordinate to every piece.

Certification asks whether the middle is finite locally free over the
source, and answers with an explicit monomial basis and multiplication
matrices when it is.  Equality is checked at the level of canonical
presentations (reduced Groebner bases plus normal forms of the structure
maps); it does not search for ring isomorphisms beyond variable matching
by name or by position.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, replace
from itertools import product as iproduct

from .budget import Budget, InputError
from .groebner import DivisorTable, elimination_basis, groebner_basis, spolynomial_pairs_reduce
from .modules import (
    CertifyOutcome,
    PieceCertificate,
    PresentationError,
    analyze_module,
    classify_basis,
)
from .poly import Polynomial, PolynomialRing, companion_name
from .schemes import AffineScheme, localize
from .schemes import product as scheme_product


class SpanError(InputError):
    pass


class IncomparableSpans(SpanError):
    """Raised when two presentations have no canonical variable matching."""


@dataclass(frozen=True)
class SpanPiece:
    """One connected summand of a correspondence middle."""

    ring: PolynomialRing
    relations: tuple[Polynomial, ...]
    src_map: tuple[tuple[str, Polynomial], ...]
    tgt_map: tuple[tuple[str, Polynomial], ...]

    def src(self, name: str) -> Polynomial:
        for key, img in self.src_map:
            if key == name:
                return img
        raise KeyError(name)

    def tgt(self, name: str) -> Polynomial:
        for key, img in self.tgt_map:
            if key == name:
                return img
        raise KeyError(name)


@dataclass(frozen=True)
class Correspondence:
    source: AffineScheme
    target: AffineScheme
    pieces: tuple[SpanPiece, ...]

    def __post_init__(self):
        for piece in self.pieces:
            src_names = tuple(k for k, _ in piece.src_map)
            tgt_names = tuple(k for k, _ in piece.tgt_map)
            if src_names != self.source.ring.names:
                raise SpanError(
                    f"piece source map covers {src_names}, expected {self.source.ring.names}"
                )
            if tgt_names != self.target.ring.names:
                raise SpanError(
                    f"piece target map covers {tgt_names}, expected {self.target.ring.names}"
                )
            for _, img in piece.src_map + piece.tgt_map:
                if img.ring != piece.ring:
                    raise SpanError("structure map image lives outside the piece ring")


def _legs(side: str, images: Mapping[str, Polynomial], foot: AffineScheme):
    """``images`` as a leg onto ``foot``, in the order of its coordinates,
    which it must name exactly, or a :class:`SpanError` naming ``side``."""
    names = foot.ring.names
    if len(images) != len(names) or not all(v in images for v in names):
        problems = [f"has no image of {v!r}" for v in names if v not in images] + [
            f"names {v!r}, not a coordinate of its foot" for v in images if v not in names
        ]
        raise SpanError(f"{side} map " + " and ".join(problems))
    return tuple((v, images[v]) for v in names)


def make_piece(
    ring: PolynomialRing,
    relations: Sequence[Polynomial],
    src_images: Mapping[str, Polynomial],
    tgt_images: Mapping[str, Polynomial],
    source: AffineScheme,
    target: AffineScheme,
) -> SpanPiece:
    """The one checked way to build a piece: its legs must give exactly one
    image per coordinate of ``source`` and ``target``."""
    return SpanPiece(
        ring,
        tuple(relations),
        _legs("source", src_images, source),
        _legs("target", tgt_images, target),
    )


def rebuild_piece(
    piece: SpanPiece,
    ring: PolynomialRing,
    images: Mapping[str, Polynomial],
    source: AffineScheme,
    target: AffineScheme,
    extra: Sequence[Polynomial] = (),
    src: Mapping[str, Polynomial] | None = None,
    tgt: Mapping[str, Polynomial] | None = None,
) -> SpanPiece:
    """Rewrite a piece into ``ring``, substituting ``images`` (elements of
    ``ring``) for the piece variables they name.

    Every other piece variable keeps its name, so with no images this is
    ``map_ring(ring)``, and nothing is moved when ``ring`` is the piece's
    own.  The relations are moved in order and followed by ``extra``.  Each
    leg coordinate of ``source``/``target`` that ``src``/``tgt`` does not
    name keeps the moved image of the piece's own leg, a leg of a
    coordinate the new foot lacks is dropped, and :func:`make_piece` checks
    the legs against the feet.
    """
    same = not images and ring is piece.ring

    def moved_legs(old, foot: AffineScheme, override) -> dict[str, Polynomial]:
        out = dict(override or {})
        for k, p in old:
            if k in foot.ring.names and k not in out:
                out[k] = p if same else p.substitute(images, ring)
        return out

    return make_piece(
        ring,
        [r if same else r.substitute(images, ring) for r in piece.relations] + list(extra),
        moved_legs(piece.src_map, source, src),
        moved_legs(piece.tgt_map, target, tgt),
        source,
        target,
    )


def identity_span(scheme: AffineScheme) -> Correspondence:
    ident = {v: scheme.ring.var(v) for v in scheme.ring.names}
    piece = make_piece(scheme.ring, list(scheme.relations), ident, ident, scheme, scheme)
    return Correspondence(scheme, scheme, (piece,))


def graph_span(
    source: AffineScheme, target: AffineScheme, images: dict[str, Polynomial]
) -> Correspondence:
    """The graph of the morphism sending target coordinates to ``images``."""
    ident = {v: source.ring.var(v) for v in source.ring.names}
    piece = make_piece(source.ring, list(source.relations), ident, images, source, target)
    corr = Correspondence(source, target, (piece,))
    validate_correspondence(corr)
    return corr


def add(left: Correspondence, right: Correspondence) -> Correspondence:
    if left.source != right.source or left.target != right.target:
        raise SpanError("can only add correspondences with matching source and target")
    return Correspondence(left.source, left.target, left.pieces + right.pieces)


def validate_correspondence(corr: Correspondence, budget: Budget | None = None) -> None:
    """Check that both structure maps kill the defining relations."""
    for index, piece in enumerate(corr.pieces):
        table = DivisorTable(piece.ring, groebner_basis(list(piece.relations), budget=budget))
        for scheme, images in (
            (corr.source, dict(piece.src_map)),
            (corr.target, dict(piece.tgt_map)),
        ):
            for rel in scheme.relations:
                pulled = rel.substitute(
                    {v: images[v] for v in scheme.ring.names}, piece.ring
                )
                if not table.reduce(pulled, budget).is_zero():
                    raise SpanError(
                        f"piece {index}: structure map does not respect relation {rel!r}"
                    )


# ---------------------------------------------------------------------------
# piece-level canonicalization


def _linear_solutions(relations: list[Polynomial]) -> tuple[str, Polynomial] | None:
    """Find a relation of the form c*v - p with p free of v and c a unit."""
    for rel in relations:
        for exp, coeff in rel.terms().items():
            if sum(exp) != 1:
                continue
            v_index = exp.index(1)
            name = rel.ring.names[v_index]
            if any(e[v_index] != 0 for e in rel.terms() if e != exp):
                continue
            rest = rel - Polynomial(rel.ring, {exp: coeff})
            image = rest.scale(rel.ring.field.neg(rel.ring.field.inv(coeff)))
            return name, image
    return None


def _eliminate_linear(piece: SpanPiece) -> SpanPiece:
    """Drop every variable some relation solves linearly, substituting its
    solution into the other relations and the legs."""
    ring = piece.ring
    relations = list(piece.relations)
    src, tgt = piece.src_map, piece.tgt_map
    while True:
        hit = _linear_solutions(relations)
        if hit is None:
            break
        name, image = hit
        ring = ring.drop([name])
        images = {name: image.map_ring(ring)}
        substituted = (r.substitute(images, ring) for r in relations)
        relations = [r for r in substituted if not r.is_zero()]
        src = tuple((k, p.substitute(images, ring)) for k, p in src)
        tgt = tuple((k, p.substitute(images, ring)) for k, p in tgt)
    return SpanPiece(ring, tuple(relations), src, tgt)


def _canonical(
    piece: SpanPiece,
    ring: PolynomialRing,
    rename: Mapping[str, str],
    budget: Budget | None,
    complete: bool = True,
) -> SpanPiece:
    """``piece`` moved into ``ring`` through ``rename``, its relations replaced
    by their reduced Groebner basis (unique for the order) and its legs by
    normal forms.  With ``complete`` false the moved relations are taken as
    that basis, which they must already be, as a collapsed piece's are in
    its own ring (:func:`collapse_variables`)."""
    relations = [r.map_ring(ring, rename) for r in piece.relations]
    table = DivisorTable(ring, groebner_basis(relations, budget=budget) if complete else relations)
    src, tgt = (
        tuple((k, table.reduce(p.map_ring(ring, rename), budget)) for k, p in legs)
        for legs in (piece.src_map, piece.tgt_map)
    )
    return SpanPiece(ring, table.basis, src, tgt)


def simplify_piece(piece: SpanPiece, budget: Budget | None = None) -> SpanPiece:
    """Eliminate linearly-solved variables, then canonicalize, so equal
    quotients built along different routes print and compare identically."""
    piece = _eliminate_linear(piece)
    return _canonical(piece, piece.ring, {}, budget)


def simplify(corr: Correspondence, budget: Budget | None = None) -> Correspondence:
    return replace(
        corr, pieces=tuple(simplify_piece(p, budget=budget) for p in corr.pieces)
    )


# ---------------------------------------------------------------------------
# composition and tensor


def _glue(
    a: SpanPiece, b: SpanPiece
) -> tuple[PolynomialRing, dict[str, str], list[Polynomial]]:
    """The merged ring of two pieces, the rename importing ``b`` into it,
    and the relations of ``a`` followed by the imported relations of ``b``."""
    ring, fresh = a.ring.adjoin(b.ring.names, b.ring.inverted)
    rename = dict(zip(b.ring.names, fresh))
    relations = [r.map_ring(ring) for r in a.relations]
    return ring, rename, relations + [r.map_ring(ring, rename) for r in b.relations]


def compose(left: Correspondence, right: Correspondence) -> Correspondence:
    """The correspondence ``X -> W`` obtained by fiber product over the middle.

    ``left`` runs ``X -> Y`` and ``right`` runs ``Y -> W``; each pair of
    pieces glues along the shared copy of Y.  The glued presentation is
    returned as-is — both ways of associating a triple build the same
    relation set, which keeps composition associative on the nose; run
    :func:`simplify` to shrink the middles.
    """
    if left.target != right.source:
        raise SpanError("composition needs left.target == right.source")
    middle = left.target
    pieces = []
    for a, b in iproduct(left.pieces, right.pieces):
        ring, rename, relations = _glue(a, b)
        for y in middle.ring.names:
            relations.append(a.tgt(y).map_ring(ring) - b.src(y).map_ring(ring, rename))
        src = {k: a.src(k).map_ring(ring) for k in left.source.ring.names}
        tgt = {k: b.tgt(k).map_ring(ring, rename) for k in right.target.ring.names}
        pieces.append(make_piece(ring, relations, src, tgt, left.source, right.target))
    return Correspondence(left.source, right.target, tuple(pieces))


def external_tensor(left: Correspondence, right: Correspondence) -> Correspondence:
    """Product correspondence on product schemes (variables must not clash)."""
    source = scheme_product(left.source, right.source)
    target = scheme_product(left.target, right.target)
    pieces = []
    for a, b in iproduct(left.pieces, right.pieces):
        ring, rename, relations = _glue(a, b)
        src = {k: a.src(k).map_ring(ring) for k in left.source.ring.names}
        src.update({k: b.src(k).map_ring(ring, rename) for k in right.source.ring.names})
        tgt = {k: a.tgt(k).map_ring(ring) for k in left.target.ring.names}
        tgt.update({k: b.tgt(k).map_ring(ring, rename) for k in right.target.ring.names})
        pieces.append(make_piece(ring, relations, src, tgt, source, target))
    return Correspondence(source, target, tuple(pieces))


def cross(
    corr: Correspondence, factor: AffineScheme, stem: str, on_target: bool = False
) -> tuple[Correspondence, tuple[str, ...]]:
    """Cross the source of ``corr`` (and its target when ``on_target``) with
    ``factor``, a line or a torus in one coordinate.  Each piece adjoins a
    fresh copy of the coordinate named from ``stem`` (a torus copy with its
    companion and unit relation, after the moved relations), which the new
    legs carry; unlike :func:`external_tensor`, the copy is not named after
    the factor.  Returns the span and each piece's copy."""
    source = scheme_product(corr.source, factor)
    target = scheme_product(corr.target, factor) if on_target else corr.target
    # a line has one coordinate, a torus its coordinate and companion
    copies = (stem, companion_name(stem))[: factor.ring.nvars]
    pieces, names = [], []
    for piece in corr.pieces:
        ring, fresh = piece.ring.adjoin(copies, copies[: len(factor.ring.inverted)])
        rename = dict(zip(factor.ring.names, fresh))
        legs = {v: ring.var(copy) for v, copy in rename.items()}
        unit = [r.map_ring(ring, rename) for r in factor.relations]
        tgt = legs if on_target else None
        pieces.append(rebuild_piece(piece, ring, {}, source, target, unit, src=legs, tgt=tgt))
        names.append(fresh[0])
    return Correspondence(source, target, tuple(pieces)), tuple(names)


def restrict_to_open(
    corr: Correspondence,
    g: Polynomial,
    flow: Callable[[int, PolynomialRing, list[Polynomial]], Mapping[str, Polynomial]] | None = None,
) -> tuple[Correspondence, tuple[str, ...]]:
    """Restrict ``corr`` to ``D(g)`` of its source (:func:`~flatspan.schemes.localize`).
    Each piece adjoins the reciprocal of ``g`` pulled back along its source
    leg, named after the localized source's new coordinate, with its unit
    relation after the moved relations and carried by the new source leg.
    Its target legs are moved too, unless ``flow`` is given: then piece
    ``i``'s target legs are ``flow(i, ring, relations)``, built in its new
    ring from its new relations, and the old ones are never moved.  Returns
    the span and each piece's reciprocal."""
    source, aux = localize(corr.source, g)
    pieces, names = [], []
    for i, piece in enumerate(corr.pieces):
        ring, (name,) = piece.ring.adjoin([aux])
        legs = {v: piece.src(v).map_ring(ring) for v in corr.source.ring.names}
        relations = [r.map_ring(ring) for r in piece.relations]
        relations.append(g.substitute(legs, ring) * ring.var(name) - ring.one())
        legs[aux] = ring.var(name)
        if flow is None:
            tgt = {v: piece.tgt(v).map_ring(ring) for v in corr.target.ring.names}
        else:
            tgt = flow(i, ring, relations)
        pieces.append(make_piece(ring, relations, legs, tgt, source, corr.target))
        names.append(name)
    return Correspondence(source, corr.target, tuple(pieces)), tuple(names)


# ---------------------------------------------------------------------------
# equality of presentations


def _pieces_equal(a: SpanPiece, b: SpanPiece, budget: Budget | None) -> bool:
    """Whether ``b``, canonicalized in ``a``'s ring, equals ``a``, which must
    already be canonical.  Variables match by name when the name sets agree,
    else by position; different variable counts raise IncomparableSpans."""
    if len(a.ring.names) != len(b.ring.names):
        raise IncomparableSpans(
            f"middles have {len(a.ring.names)} and {len(b.ring.names)} variables; "
            "no canonical matching is declared"
        )
    names = a.ring.names
    rename = {} if sorted(names) == sorted(b.ring.names) else dict(zip(b.ring.names, names))
    return a == _canonical(b, a.ring, rename, budget)


def _piece_sort_key(piece: SpanPiece):
    return (
        len(piece.ring.names),
        len(piece.relations),
        tuple(sorted(str(r.terms()) for r in piece.relations)),
        tuple(str(img.terms()) for _, img in piece.src_map),
        tuple(str(img.terms()) for _, img in piece.tgt_map),
    )


def equals(left: Correspondence, right: Correspondence, budget: Budget | None = None) -> bool:
    """Presentation-level equality after canonical simplification.

    Left pieces are simplified and sorted; each right piece loses its
    linearly solved variables and is completed in the ring of the left piece
    it is matched against (greedily).  Single-piece middles with different
    variable counts raise :class:`IncomparableSpans`.  A ``False`` here means
    the canonical presentations differ; exotic isomorphisms are out of scope.
    """
    if left.source != right.source or left.target != right.target:
        return False
    a = [simplify_piece(p, budget=budget) for p in left.pieces]
    b = [_eliminate_linear(p) for p in right.pieces]
    if len(a) != len(b):
        return False
    a.sort(key=_piece_sort_key)
    remaining = list(b)
    for piece in a:
        for i, other in enumerate(remaining):
            try:
                if _pieces_equal(piece, other, budget):
                    remaining.pop(i)
                    break
            except IncomparableSpans:
                if len(a) == 1:
                    raise
                continue
        else:
            return False
    return True


def collapsed_equal(
    left: Correspondence,
    left_collapse: Mapping[str, Polynomial],
    right: Correspondence,
    right_collapse: Mapping[str, Polynomial],
    budget: Budget | None = None,
) -> tuple[bool, str]:
    """Collapse the given middle variables of both single-piece sides (the
    quotients are unchanged) and compare the canonical presentations.

    A collapsed piece's relations already are the reduced basis of its ring
    (:func:`collapse_variables`), so only its legs are reduced; when both
    sides were collapsed into one ring they are compared as they stand, and
    otherwise the right side is completed in the left one's ring."""
    if left.source != right.source or left.target != right.target:
        return False, "the two sides have different feet"
    lp = collapse_variables(left, [left_collapse], budget=budget).pieces[0]
    rp = collapse_variables(right, [right_collapse], budget=budget).pieces[0]
    canonical = _canonical(lp, lp.ring, {}, budget, complete=not left_collapse)
    if right_collapse and rp.ring == lp.ring:
        equal = canonical == _canonical(rp, rp.ring, {}, budget, complete=False)
    else:
        equal = _pieces_equal(canonical, rp, budget)
    if equal:
        return True, ""
    return False, "canonical presentations differ"


# ---------------------------------------------------------------------------
# certification


def certify_finite_flat(corr: Correspondence, budget: Budget | None = None) -> CertifyOutcome:
    """Certify the middle finite locally free over the source, piecewise.

    The certificate is a monomial staircase basis per piece plus the
    multiplication matrices of every fiber variable; each piece is laid
    out over the source (:func:`piece_over_base`) only when the pieces
    before it certify, and :func:`certify_laid_out` classifies it.
    """
    layouts = (piece_over_base(piece, corr.source) for piece in corr.pieces)
    return certify_laid_out(((ring, rels) for ring, _, rels in layouts), corr.source, budget)


def certify_laid_out(
    layouts: Iterable[tuple[PolynomialRing, list[Polynomial]]],
    base: AffineScheme,
    budget: Budget | None = None,
) -> CertifyOutcome:
    """Certify pieces laid out over ``base``, in order: each is a combined
    ring and the piece's defining relations there, as
    :func:`piece_over_base` gives them.  The fiber block is the combined
    ring's variables before ``base``'s.  The first piece that fails gives
    the outcome, with ``piece {index}: `` in front of its detail, and later
    pieces are not read."""
    certs = []
    for index, (ring, relations) in enumerate(layouts):
        split = ring.nvars - base.ring.nvars
        outcome = analyze_module(
            ring, split, relations, base.ring, list(base.relations), budget=budget
        )
        if not outcome.certified:
            return replace(outcome, detail=f"piece {index}: {outcome.detail}")
        certs += outcome.pieces
    return CertifyOutcome("certified", tuple(certs))


def degree(corr: Correspondence, budget: Budget | None = None) -> int:
    """Total rank of the middle over the source; requires certification."""
    outcome = certify_finite_flat(corr, budget=budget)
    if not outcome.certified:
        raise SpanError(f"degree undefined: {outcome.status} ({outcome.detail})")
    return outcome.rank


def recheck_certificate(
    corr: Correspondence, outcome: CertifyOutcome, budget: Budget | None = None
) -> bool:
    """Confirm a stored certificate; the source's base basis is the one
    completion run here.

    The stored ring and split must be the ones certification derives from
    the piece and the source (:func:`piece_over_base`).  The stored basis
    must pass the S-pair criterion and reduce the piece's defining
    relations to zero.  Then it is classified the way certification
    classifies it (:func:`~flatspan.modules.classify_basis`) over the
    source's reduced basis, which must certify the piece with exactly the
    stored certificate, base basis included.
    """
    if not outcome.certified or len(corr.pieces) != len(outcome.pieces):
        return False
    base_basis = tuple(groebner_basis(list(corr.source.relations), budget=budget))
    for piece, cert in zip(corr.pieces, outcome.pieces):
        combined, _, relations = piece_over_base(piece, corr.source)
        if (cert.ring, cert.split) != (combined, len(piece.ring.names)):
            return False
        table = cert.table
        if not spolynomial_pairs_reduce(table.basis, cert.order, budget=budget):
            return False
        for rel in relations:
            if not table.reduce(rel, budget).is_zero():
                return False
        try:
            derived = classify_basis(table, cert.split, corr.source.ring, base_basis, budget)
        except PresentationError:
            return False
        if derived.pieces != (cert,):
            return False
    return True


def collapse_variables(
    corr: Correspondence,
    images: Sequence[Mapping[str, Polynomial]],
    budget: Budget | None = None,
) -> Correspondence:
    """Drop middle variables that the relations identify with polynomials
    in the remaining ones.

    ``images`` holds one mapping per piece, from each doomed variable to
    its claimed replacement.  Each piece with a mapping is completed once,
    in the block order with the doomed variables leading
    (:func:`~flatspan.groebner.elimination_basis`).  Every claim
    ``v - image`` is checked against that basis by normal form before
    anything is removed, so the quotient is untouched, and the basis
    elements free of doomed variables become the new relations: the
    generators :func:`~flatspan.groebner.eliminate` returns.  The basis is
    reduced in a block order whose tail block is degree-reverse-lex, so
    those elements, in the order kept, are the reduced degree-reverse-lex
    basis of the collapsed piece's ring (Elimination Theorem): what
    :func:`~flatspan.groebner.groebner_basis` returns for them.
    :func:`collapsed_equal` relies on this and does not complete a
    collapsed piece again.  Raises :class:`SpanError`, before any Groebner
    work, when a doomed name is not a variable of its piece or an image uses
    a doomed variable, and when a claim fails.
    """
    if len(images) != len(corr.pieces):
        raise SpanError("need one collapse mapping per piece")
    for piece, mapping in zip(corr.pieces, images):
        for name, image in mapping.items():
            if name not in piece.ring.names:
                raise SpanError(f"cannot collapse {name!r}: not a variable of the piece")
            if image.variables() & mapping.keys():
                raise SpanError(f"cannot collapse {name!r}: its image uses a collapsed variable")
    pieces = []
    for piece, mapping in zip(corr.pieces, images):
        if not mapping:
            pieces.append(piece)
            continue
        ring = piece.ring
        drop = list(mapping)
        work, order, basis = elimination_basis(ring, piece.relations, drop, budget)
        table = DivisorTable(work, basis, order)
        for name, image in mapping.items():
            if not table.reduce((ring.var(name) - image).map_ring(work), budget).is_zero():
                raise SpanError(
                    f"cannot collapse {name!r}: the relations do not identify "
                    "it with the claimed image"
                )
        small = ring.drop(drop)
        relations = [g.map_ring(small) for g in basis if not (g.variables() & mapping.keys())]
        moved = {name: image.map_ring(small) for name, image in mapping.items()}
        src = {v: piece.src(v).substitute(moved, small) for v in corr.source.ring.names}
        tgt = {v: piece.tgt(v).substitute(moved, small) for v in corr.target.ring.names}
        pieces.append(make_piece(small, relations, src, tgt, corr.source, corr.target))
    return Correspondence(corr.source, corr.target, tuple(pieces))


def lift_into_certificate(
    piece: SpanPiece, cert: PieceCertificate, value: Polynomial
) -> Polynomial:
    """Rewrite a polynomial on the piece in the certificate's combined ring.

    Piece variables map positionally onto the fiber block of the
    certificate ring, so lifted values can be reduced against the stored
    basis alongside the base coordinates.
    """
    return value.map_ring(cert.ring, dict(zip(piece.ring.names, cert.ring.names)))


def piece_over_base(
    piece: SpanPiece, base: AffineScheme, ring: PolynomialRing | None = None
) -> tuple[PolynomialRing, dict[str, str], list[Polynomial]]:
    """A certificate's layout: ``ring`` (``base``'s own unless given) with the
    piece's variables adjoined and moved to the front, in order; the rename
    of the piece's variables onto them; and the defining relations of the
    piece over ``base``, rebuilt there: the piece's relations in order, then
    ``base``'s, then one identification of each base coordinate with its
    source leg."""
    merged, fresh = (ring or base.ring).adjoin(piece.ring.names, piece.ring.inverted)
    combined = merged.leading(fresh)
    rename = dict(zip(piece.ring.names, fresh))
    relations = [r.map_ring(combined, rename) for r in piece.relations]
    relations += [r.map_ring(combined) for r in base.relations]
    for v in base.ring.names:
        relations.append(combined.var(v) - piece.src(v).map_ring(combined, rename))
    return combined, rename, relations
