"""Scheme constructors and the correspondence algebra."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings, strategies as st

import flatspan.groebner
import flatspan.spans
from flatspan.budget import Budget
from flatspan.fields import GF, QQ
from flatspan.poly import Polynomial, PolynomialRing, companion_name
from flatspan.polyparse import parse_polynomial
from flatspan.schemes import (
    AffineScheme,
    affine_line,
    detect_torus_coordinate,
    localize,
    point,
    product,
    strip_coordinates,
    torus,
    torus_power,
)
from flatspan.spans import (
    Correspondence,
    IncomparableSpans,
    SpanError,
    SpanPiece,
    add,
    certify_finite_flat,
    compose,
    degree,
    equals,
    external_tensor,
    graph_span,
    identity_span,
    make_piece,
    rebuild_piece,
    recheck_certificate,
    simplify,
    validate_correspondence,
)


def sqrt_cover(name="t", target_name="x"):
    """Degree-two cover of the line: the transpose of t -> t^2."""
    src = affine_line(QQ, target_name)
    tgt = affine_line(QQ, name)
    ring = PolynomialRing(QQ, (name,))
    piece = make_piece(
        ring,
        [],
        {target_name: ring.var(name) ** 2},
        {name: ring.var(name)},
        src,
        tgt,
    )
    return Correspondence(src, tgt, (piece,))


def torus_squaring(name="t"):
    """The squaring endomorphism of the punctured line, as a graph."""
    gm = torus(QQ, name)
    inv = f"{name}_inv"
    images = {
        name: gm.ring.var(name) ** 2,
        inv: gm.ring.var(inv) ** 2,
    }
    return graph_span(gm, gm, images)


def torus_power_cover(k: int, name="t"):
    """Transpose of t -> t^k on the punctured line: rank k over the source."""
    gm = torus(QQ, name)
    inv = f"{name}_inv"
    ring = gm.ring
    piece = make_piece(
        ring,
        list(gm.relations),
        {name: ring.var(name) ** k, inv: ring.var(inv) ** k},
        {name: ring.var(name), inv: ring.var(inv)},
        gm,
        gm,
    )
    return Correspondence(gm, gm, (piece,))


# ---------------------------------------------------------------------------
# schemes


def test_scheme_constructors():
    pt = point(QQ)
    assert pt.ring.names == ()
    line = affine_line(QQ, "x")
    assert line.ring.names == ("x",) and line.relations == ()
    gm = torus(QQ, "t")
    assert gm.ring.names == ("t", "t_inv")
    assert [str(r) for r in gm.relations] == ["t*t_inv - 1"]
    assert detect_torus_coordinate(gm) == "t"


def test_product_requires_disjoint_names():
    with pytest.raises(ValueError):
        product(affine_line(QQ, "x"), affine_line(QQ, "x"))
    both = product(affine_line(QQ, "x"), torus(QQ, "t"))
    assert both.ring.names == ("x", "t", "t_inv")
    assert len(both.relations) == 1


def test_torus_power_and_strip():
    g2 = torus_power(QQ, 2)
    assert g2.ring.names == ("t1", "t1_inv", "t2", "t2_inv")
    stripped = strip_coordinates(g2, ["t2"])
    assert stripped.ring.names == ("t1", "t1_inv")
    assert len(stripped.relations) == 1


@pytest.mark.parametrize("n", [1, 2, 5, 9])
@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_torus_power_is_the_chained_product_of_tori(field, n):
    chained = torus(field, "t1")
    for i in range(2, n + 1):
        chained = product(chained, torus(field, f"t{i}"))
    built = torus_power(field, n)
    assert built == chained
    assert [r.items_sorted() for r in built.relations] == [
        r.items_sorted() for r in chained.relations
    ]


def test_strip_refuses_entangled_coordinates():
    line2 = product(affine_line(QQ, "x"), affine_line(QQ, "y"))
    tied = AffineScheme(
        line2.ring, (parse_polynomial("x - y", line2.ring),)
    )
    with pytest.raises(ValueError):
        strip_coordinates(tied, ["y"])


def test_localize_adds_inverse_variable():
    line = affine_line(QQ, "x")
    opened, aux = localize(line, parse_polynomial("x^2 + 1", line.ring))
    assert aux in opened.ring.names
    assert any(aux in str(r) for r in opened.relations)


# ---------------------------------------------------------------------------
# certification and degree


def test_identity_span_has_degree_one():
    gm = torus(QQ)
    ident = identity_span(gm)
    out = certify_finite_flat(ident)
    assert out.certified and out.rank == 1
    assert degree(ident) == 1


def test_sqrt_cover_certifies_rank_two_with_basis():
    cover = sqrt_cover()
    out = certify_finite_flat(cover)
    assert out.certified and out.rank == 2
    cert = out.pieces[0]
    assert cert.labels == ("1", "t")
    names = [name for name, _ in cert.matrices]
    assert names == ["t"]


def test_torus_power_cover_degrees():
    for k in (1, 2, 3):
        assert degree(torus_power_cover(k)) == k


def test_graph_span_has_degree_one():
    assert degree(torus_squaring()) == 1


@pytest.mark.parametrize(
    "src, tgt, message",
    [
        ({}, {"x": "y"}, "source map has no image of 'x'"),
        ({"x": "y", "z": "1"}, {"x": "y"}, "source map names 'z', not a coordinate of its foot"),
        (
            {"x": "y"},
            {"z": "y"},
            "target map has no image of 'x' and names 'z', not a coordinate of its foot",
        ),
    ],
    ids=["missing", "unknown", "both"],
)
def test_make_piece_takes_one_image_per_foot_coordinate(src, tgt, message):
    line = affine_line(QQ, "x")
    ring = PolynomialRing(QQ, ("y",))
    src, tgt = ({k: parse_polynomial(v, ring) for k, v in legs.items()} for legs in (src, tgt))
    with pytest.raises(SpanError) as caught:
        make_piece(ring, [], src, tgt, line, line)
    assert str(caught.value) == message


def test_graph_span_images_go_through_the_leg_check():
    gm = torus(QQ, "t")
    with pytest.raises(SpanError, match="^target map has no image of 't_inv'$"):
        graph_span(gm, gm, {"t": gm.ring.var("t") ** 2})


def test_rebuild_piece_checks_its_override_legs():
    line = affine_line(QQ, "x")
    ring = PolynomialRing(QQ, ("y",))
    y = ring.var("y")
    piece = make_piece(ring, [y * y], {"x": y}, {"x": y}, line, line)
    with pytest.raises(SpanError, match="^source map names 'z', not a coordinate of its foot$"):
        rebuild_piece(piece, ring, {}, line, line, src={"z": y})
    # the piece's target is a point, the new one a line: nothing to keep
    onto_point = rebuild_piece(piece, ring, {}, line, point(QQ))
    with pytest.raises(SpanError, match="^target map has no image of 'x'$"):
        rebuild_piece(onto_point, ring, {}, line, line)


def test_rebuild_piece_in_its_own_ring_moves_nothing():
    """With no images and the piece's own ring, the relations and legs are
    the piece's own objects, followed by the extra relations; a leg of a
    coordinate the new foot lacks is dropped."""
    line, pt = affine_line(QQ, "x"), point(QQ)
    ring = PolynomialRing(QQ, ("y",))
    y = ring.var("y")
    piece = make_piece(ring, [y * y], {"x": y}, {"x": y + ring.one()}, line, line)
    rebuilt = rebuild_piece(piece, ring, {}, line, pt, [y**3])
    assert rebuilt.relations == (y * y, y**3) and rebuilt.relations[0] is piece.relations[0]
    assert rebuilt.src_map[0][1] is piece.src_map[0][1]
    assert rebuilt.tgt_map == ()
    moved = rebuild_piece(piece, PolynomialRing(QQ, ("y",)), {}, line, line)
    assert moved == piece and moved.relations[0] is not piece.relations[0]


def test_certify_detects_non_finite_middle():
    line = affine_line(QQ, "x")
    ring = PolynomialRing(QQ, ("t",))
    piece = make_piece(
        ring,
        [],
        {"x": ring.var("t") ** 2},
        {"x": ring.var("t")},
        line,
        line,
    )
    bad = Correspondence(line, line, (piece, piece))
    out = certify_finite_flat(bad)
    assert out.certified and out.rank == 4

    # an unconstrained extra coordinate leaves a whole line in each fiber
    plane = PolynomialRing(QQ, ("t", "u"))
    fat_piece = make_piece(
        plane,
        [],
        {"x": plane.var("t") ** 2},
        {"x": plane.var("t")},
        line,
        line,
    )
    dangling = Correspondence(line, line, (fat_piece,))
    out = certify_finite_flat(dangling)
    assert out.status == "not_finite"
    assert "u" in out.detail


def test_certify_detects_torsion_middle():
    line = affine_line(QQ, "x")
    pt_ring = PolynomialRing(QQ, ())
    piece = make_piece(
        pt_ring, [], {"x": pt_ring.one()}, {"x": pt_ring.zero()}, line, line
    )
    skew = Correspondence(line, line, (piece,))
    out = certify_finite_flat(skew)
    assert out.status == "not_locally_free"
    with pytest.raises(SpanError):
        degree(skew)


def test_empty_span_certifies_rank_zero():
    line = affine_line(QQ, "x")
    assert degree(Correspondence(line, line, ())) == 0


def test_validate_rejects_bad_structure_map():
    gm = torus(QQ)
    line = affine_line(QQ, "x")
    piece = make_piece(
        line.ring,
        [],
        {"x": line.ring.var("x")},
        {"t": line.ring.var("x"), "t_inv": line.ring.zero()},
        line,
        gm,
    )
    bad = Correspondence(line, gm, (piece,))
    with pytest.raises(SpanError):
        validate_correspondence(bad)


# ---------------------------------------------------------------------------
# algebra: add, compose, tensor


def test_add_concatenates_and_degree_is_additive():
    a, b = torus_power_cover(2), torus_power_cover(3)
    total = add(a, b)
    assert len(total.pieces) == 2
    assert degree(total) == 5


def test_add_requires_matching_ends():
    with pytest.raises(SpanError):
        add(torus_power_cover(2), sqrt_cover())


def test_compose_with_identity_is_identity():
    alpha = torus_squaring()
    gm = alpha.source
    left = compose(identity_span(gm), alpha)
    right = compose(alpha, identity_span(gm))
    assert equals(left, alpha)
    assert equals(right, alpha)
    assert equals(left, right)


def test_compose_multiplies_covers():
    two, three = torus_power_cover(2), torus_power_cover(3)
    six = compose(two, three)
    assert degree(six) == 6
    assert equals(six, torus_power_cover(6))
    assert equals(compose(three, two), six)


def test_compose_respects_addition():
    one, two = torus_power_cover(1), torus_power_cover(2)
    three = add(one, two)
    alpha = torus_squaring()
    lhs = compose(alpha, three)
    rhs = add(compose(alpha, one), compose(alpha, two))
    assert equals(lhs, rhs)


def test_composition_is_associative():
    a = torus_squaring()
    b = torus_power_cover(2)
    c = torus_power_cover(3)
    left = compose(compose(a, b), c)
    right = compose(a, compose(b, c))
    assert equals(left, right)


def test_external_tensor_multiplies_degrees():
    a = torus_power_cover(2, "t")
    b = torus_power_cover(3, "u")
    both = external_tensor(a, b)
    assert both.source.ring.names == ("t", "t_inv", "u", "u_inv")
    assert degree(both) == 6


def test_adjoin_renames_a_companion_listed_before_its_stem():
    left = PolynomialRing(QQ, ("t", "t_inv", "x", "w", "w2"), frozenset(["t"]))
    right = PolynomialRing(QQ, ("t_inv", "x", "t"), frozenset(["t"]))
    merged, fresh = left.adjoin(right.names, right.inverted)
    assert dict(zip(right.names, fresh)) == {"t_inv": "t2_inv", "x": "x2", "t": "t2"}
    assert merged.names == left.names + ("t2_inv", "x2", "t2")
    assert merged.inverted == frozenset(["t", "t2"])


# names that clash, names already numbered, and a plain name that looks like
# a numbered companion
_POOL = ("x", "x2", "x22", "t", "t2", "t2_inv", "t3", "s")


def _draw_ring(data) -> PolynomialRing:
    """A ring over names from :data:`_POOL`; each stem is plain or inverted
    with its companion, and a companion may come before its stem."""
    names, inverted = [], set()
    for name in data.draw(st.lists(st.sampled_from(_POOL), unique=True, max_size=5)):
        pair = not name.endswith("_inv") and data.draw(st.booleans())
        group = [name, companion_name(name)] if pair else [name]
        if all(v not in names for v in group):
            names += group
            if pair:
                inverted.add(name)
    return PolynomialRing(QQ, tuple(data.draw(st.permutations(names))), frozenset(inverted))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_adjoin_names_every_variable_as_the_reference_merge_does(data):
    """``adjoin`` gives each variable the name, and the ring the inverted
    set, of the merge that named adjoined variables before it."""
    from oracles import _merge_rings

    left, right = _draw_ring(data), _draw_ring(data)
    merged, rename = _merge_rings(left, right)
    ring, fresh = left.adjoin(right.names, right.inverted)
    assert fresh == tuple(rename[v] for v in right.names)
    assert ring == merged


# ---------------------------------------------------------------------------
# equality semantics


def test_equals_matches_renamed_middles_positionally():
    a = sqrt_cover()
    ring = PolynomialRing(QQ, ("w",))
    piece = make_piece(
        ring,
        [],
        {"x": ring.var("w") ** 2},
        {"t": ring.var("w")},
        a.source,
        a.target,
    )
    b = Correspondence(a.source, a.target, (piece,))
    assert equals(a, b)


def test_equals_distinguishes_different_maps():
    assert not equals(torus_power_cover(2), torus_power_cover(3))


def test_equals_raises_on_incomparable_middles():
    line = affine_line(QQ, "x")
    one_var = sqrt_cover()
    ring = PolynomialRing(QQ, ("u", "v"))
    rel = parse_polynomial("v^2 - u^3", ring)
    piece = make_piece(
        ring,
        [rel],
        {"x": ring.var("u")},
        {"t": ring.var("v")},
        one_var.source,
        one_var.target,
    )
    cuspy = Correspondence(one_var.source, one_var.target, (piece,))
    with pytest.raises(IncomparableSpans):
        equals(one_var, cuspy)


def test_simplify_eliminates_linear_variables():
    line = affine_line(QQ, "x")
    ring = PolynomialRing(QQ, ("a", "b"))
    rels = [parse_polynomial("b - a^2", ring)]
    piece = make_piece(
        ring,
        rels,
        {"x": ring.var("b")},
        {"x": ring.var("a")},
        line,
        line,
    )
    slim = simplify(Correspondence(line, line, (piece,)))
    assert slim.pieces[0].ring.names == ("a",)
    assert str(slim.pieces[0].src("x")) == "a^2"


def test_dual_number_composite_has_rank_four():
    pt = point(QQ)
    ring = PolynomialRing(QQ, ("a",))
    piece = make_piece(
        ring, [parse_polynomial("a^2", ring)], {}, {}, pt, pt
    )
    thick = Correspondence(pt, pt, (piece,))
    assert degree(thick) == 2
    squared = compose(thick, thick)
    assert degree(squared) == 4
    assert len(squared.pieces[0].ring.names) == 2


def test_degree_of_cut_loci_in_the_torus():
    # t^4 + 1 keeps all four roots; t^3 + t loses the origin to saturation
    gm = torus(QQ)
    pt = point(QQ)

    def locus(text):
        ring = gm.ring
        rels = list(gm.relations) + [parse_polynomial(text, ring)]
        piece = make_piece(ring, rels, {}, dict(t=ring.var("t"), t_inv=ring.var("t_inv")), pt, gm)
        return Correspondence(pt, gm, (piece,))

    assert degree(locus("t^4 + 1")) == 4
    assert degree(locus("t^3 + t")) == 2


def test_equals_sees_through_generator_changes():
    line2 = product(affine_line(QQ, "x"), affine_line(QQ, "y"))
    pt = point(QQ)

    def span_with(rel_texts):
        ring = line2.ring
        rels = [parse_polynomial(s, ring) for s in rel_texts]
        images = {"x": ring.var("x"), "y": ring.var("y")}
        piece = make_piece(ring, rels, {}, images, pt, line2)
        return Correspondence(pt, line2, (piece,))

    assert equals(span_with(["x", "y"]), span_with(["x + y", "y"]))
    assert not equals(span_with(["x", "y"]), span_with(["x - 1", "y"]))


# ---------------------------------------------------------------------------
# certificates and rechecking


def test_recheck_accepts_fresh_certificate():
    cover = torus_power_cover(3)
    out = certify_finite_flat(cover)
    assert recheck_certificate(cover, out)


def test_recheck_rejects_tampered_staircase():
    from dataclasses import replace

    cover = torus_power_cover(2)
    out = certify_finite_flat(cover)
    cert = out.pieces[0]
    fat = replace(cert, staircase=cert.staircase + ((7, 0),))
    forged = replace(out, pieces=(fat,))
    assert not recheck_certificate(cover, forged)


def _root_cover():
    """A cover of A^1_x with source x -> y^2 and target x -> y: rank 2 with
    staircase {1, y} and one matrix, for y."""
    line = affine_line(QQ, "x")
    ring = PolynomialRing(QQ, ("y",))
    y = ring.var("y")
    piece = make_piece(ring, [], {"x": y * y}, {"x": y}, line, line)
    cover = Correspondence(line, line, (piece,))
    out = certify_finite_flat(cover)
    assert out.rank == 2 and len(out.pieces[0].matrices) == 1
    return cover, out


@pytest.mark.parametrize("staircase", [((0,),), ()], ids=["one", "empty"])
def test_recheck_rejects_an_incomplete_staircase(staircase):
    from dataclasses import replace

    cover, out = _root_cover()
    thin = replace(out.pieces[0], staircase=staircase, matrices=())
    assert not recheck_certificate(cover, replace(out, pieces=(thin,)))


def test_recheck_rejects_a_missing_matrix():
    from dataclasses import replace

    cover, out = _root_cover()
    bare = replace(out.pieces[0], matrices=())
    assert not recheck_certificate(cover, replace(out, pieces=(bare,)))


def _recheck_stored(span, out, edit):
    """Recheck a certify pass carrying ``out``'s block after ``edit``
    changes its stored outcome in place; returns the findings."""
    import json

    from flatspan.reports import Report, envelope_json, finite_flat_block, input_digest, recheck_envelope

    block = json.loads(json.dumps(finite_flat_block(span, out)))
    edit(block["outcome"])
    report = Report("c", "certify", ("a",), {}, "pass", certificates=[block])
    return recheck_envelope(envelope_json([report], input_digest("x")))[1]


def test_recheck_rejects_a_rank_the_pieces_do_not_add_up_to():
    """The stored outcome rank restates the total staircase size."""
    cover, out = _root_cover()
    assert out.rank == 2
    assert _recheck_stored(cover, out, lambda o: None) == ["recheck: 1 report(s) agree"]
    assert _recheck_stored(cover, out, lambda o: o.update(rank=5)) == [
        "c: certificate could not be rebuilt: stored rank 5 is not 2"
    ]


def test_recheck_rejects_a_foreign_base_basis():
    """The stored base basis (x - 1) claims the source is the point x = 1."""
    from dataclasses import replace

    cover, out = _root_cover()
    x = PolynomialRing(QQ, ("x",)).var("x")
    moved = replace(out.pieces[0], base_groebner=(x - x.ring.one(),))
    assert not recheck_certificate(cover, replace(out, pieces=(moved,)))


def test_recheck_rejects_labels_the_staircase_does_not_carry():
    cover, out = _root_cover()
    assert out.pieces[0].labels == ("1", "y")
    assert _recheck_stored(cover, out, lambda o: o["pieces"][0].update(labels=["7"])) == [
        "c: certificate could not be rebuilt: stored labels ['7'] is not ['1', 'y']"
    ]


def test_recheck_rejects_a_mixed_lead():
    """k[y, z]/(y^2, y*z) over A^1_x along x -> z: the lead x*y mixes fiber
    and base (y is x-torsion), so certification is inconclusive.  A forged
    rank-2 certificate on the staircase {1, y} recomputes its matrices."""
    from flatspan.groebner import DivisorTable, groebner_basis
    from flatspan.modules import multiplication_matrix_from
    from flatspan.orders import fiber_order
    from flatspan.spans import CertifyOutcome, PieceCertificate

    line = affine_line(QQ, "x")
    ring = PolynomialRing(QQ, ("y", "z"))
    y, z = ring.var("y"), ring.var("z")
    span = Correspondence(line, line, (make_piece(ring, [y * y, y * z], {"x": z}, {"x": z}, line, line),))
    assert certify_finite_flat(span).status == "inconclusive"
    combined = PolynomialRing(QQ, ("y", "z", "x"))
    gens = [parse_polynomial(t, combined) for t in ("y^2", "y*z", "x - z")]
    basis = groebner_basis(gens, fiber_order(3, 2))
    stair = [(0, 0), (1, 0)]
    table = DivisorTable(combined, basis, fiber_order(3, 2))
    matrices = tuple((v, multiplication_matrix_from(table, 2, combined.var(v), stair)) for v in "yz")
    cert = PieceCertificate(combined, 2, tuple(basis), tuple(stair), matrices, ())
    assert not recheck_certificate(span, CertifyOutcome("certified", (cert,)))


def test_recheck_rejects_a_staircase_over_the_unit_ideal():
    from dataclasses import replace

    line = affine_line(QQ, "x")
    ring = PolynomialRing(QQ, ("y",))
    y = ring.var("y")
    empty = Correspondence(line, line, (make_piece(ring, [ring.one()], {"x": y}, {"x": y}, line, line),))
    out = certify_finite_flat(empty)
    assert out.rank == 0 and recheck_certificate(empty, out)
    cert = out.pieces[0]
    zero = PolynomialRing(QQ, ("x",)).zero()
    forged = replace(
        cert,
        groebner=cert.groebner + (cert.ring.var("y"),),
        staircase=((0,),),
        matrices=(("y", ((zero,),)),),
    )
    assert not recheck_certificate(empty, replace(out, pieces=(forged,)))


def test_recheck_rejects_foreign_relations():
    two, three = torus_power_cover(2), torus_power_cover(3)
    out = certify_finite_flat(two)
    assert not recheck_certificate(three, out)


def _failing_span(kind):
    """A span over a line whose certification fails with ``kind``."""
    line, pt = affine_line(QQ, "x"), point(QQ)
    if kind == "not_locally_free":  # A^1 and the origin over A^1_x
        y = PolynomialRing(QQ, ("y",)).var("y")
        pieces = [make_piece(y.ring, rels, {"x": y}, {}, line, pt) for rels in ([], [y])]
        return Correspondence(line, pt, tuple(pieces))
    if kind == "not_finite":  # (1 + u)*t + (1 - u) has no fiber at u = -1
        line = affine_line(QQ, "s")
        ring = PolynomialRing(QQ, ("t", "u"))
        rels, legs = ["u*t + t - u + 1"], {"s": ring.var("u")}
    else:
        ring = PolynomialRing(QQ, ("t", "y"))
        rels, legs = ["t^3", "y*t^2"], {"x": ring.var("y")}
    piece = make_piece(ring, [parse_polynomial(r, ring) for r in rels], legs, {}, line, pt)
    return Correspondence(line, pt, (piece,))


@pytest.mark.parametrize(
    "kind, detail, witness",
    [
        (
            "not_locally_free",
            "piece 1: base element (x) vanishes on the middle but not on the source",
            ["x"],
        ),
        ("not_finite", "piece 0: no monomial bound in direction t", []),
        ("inconclusive", "piece 0: a fiber leading coefficient involves base variables", []),
    ],
    ids=["not-locally-free", "not-finite", "inconclusive"],
)
def test_certification_failures_name_their_piece_and_witness(kind, detail, witness):
    out = certify_finite_flat(_failing_span(kind))
    assert (out.status, out.detail, out.rank, out.pieces) == (kind, detail, None, ())
    assert [str(w) for w in out.witness] == witness


def test_recheck_rejects_tampered_fitting_ideals():
    """A free piece's Fitting ideals below and at its rank are 0 and (1)."""
    cover, out = _root_cover()
    for key, value, free in (("fitting_at", [], ["1"]), ("fitting_below", ["1"], [])):
        assert _recheck_stored(cover, out, lambda o: o["pieces"][0].update({key: value})) == [
            f"c: certificate could not be rebuilt: stored {key} {value!r} is not {free!r}"
        ]


def test_recheck_rejects_a_certificate_of_a_torsion_module():
    """k[y]/(y) over A^1_x along x -> y is the origin, which x annihilates.
    The true reduced basis [x, y] has the pure lead y, no mixed lead and
    the staircase {1}; only the torsion test sees that x kills the middle."""
    from oracles import enumerated_recheck, leads_certificate

    line, pt = affine_line(QQ, "x"), point(QQ)
    y = PolynomialRing(QQ, ("y",)).var("y")
    span = Correspondence(line, pt, (make_piece(y.ring, [y], {"x": y}, {}, line, pt),))
    assert certify_finite_flat(span).status == "not_locally_free"
    forged = leads_certificate(span)
    (cert,) = forged.pieces
    assert sorted(str(g) for g in cert.groebner) == ["x", "y"]
    assert (cert.staircase, cert.labels, forged.rank) == (((0,),), ("1",), 1)
    assert [(v, [[str(e) for e in row] for row in m]) for v, m in cert.matrices] == [("y", [["0"]])]
    assert enumerated_recheck(span, forged)
    assert not recheck_certificate(span, forged)


def _tampers(out):
    """Single-field edits of a genuine certificate's first piece."""
    from dataclasses import replace

    cert = out.pieces[0]
    base = cert.ring.drop(cert.ring.names[: cert.split])
    edits = [
        dict(staircase=cert.staircase + ((7,) * cert.split,)),
        dict(staircase=cert.staircase[:-1]),
        dict(matrices=cert.matrices[1:]),
        dict(base_groebner=cert.base_groebner + (base.one() + base.one(),)),
        dict(groebner=cert.groebner[1:]),
        dict(groebner=(cert.groebner[0] + cert.ring.one(),) + cert.groebner[1:]),
    ]
    if cert.matrices:
        name, rows = cert.matrices[0]
        bumped = ((rows[0][0] + base.one(),) + rows[0][1:],) + rows[1:]
        edits.append(dict(matrices=((name, bumped),) + cert.matrices[1:]))
    return [replace(out, pieces=(replace(cert, **edit),) + out.pieces[1:]) for edit in edits]


def _assert_rejects_what_the_enumerated_recheck_rejects(span, out):
    from oracles import enumerated_recheck

    for forged in _tampers(out):
        if not enumerated_recheck(span, forged):
            assert not recheck_certificate(span, forged)


def test_recheck_rejects_every_tamper_the_enumerated_recheck_rejects():
    for span in (torus_power_cover(2), _root_cover()[0]):
        out = certify_finite_flat(span)
        assert recheck_certificate(span, out)
        _assert_rejects_what_the_enumerated_recheck_rejects(span, out)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_recheck_accepts_a_leads_certificate_exactly_when_certification_does(data):
    """Single-piece spans over a line or a torus with one or two fiber
    variables, each with a monic relation, and perhaps one more relation.
    The certificate built from the true basis and its pure leads rechecks
    exactly when certification certifies, and then it is certification's."""
    from oracles import leads_certificate

    field = data.draw(st.sampled_from([QQ, GF(5)]))
    base = data.draw(st.sampled_from([affine_line(field, "x"), torus(field, "t")]))
    fiber = data.draw(st.sampled_from([("y",), ("y", "z")]))
    ring = PolynomialRing(field, base.ring.names + fiber, base.ring.inverted)
    coord = base.ring.names[0]
    relations = list(base.relations)
    for v in fiber:
        power = data.draw(st.integers(1, 2))
        lower = _draw_poly(data.draw, ring, (v, coord))
        lower = Polynomial(ring, {e: c for e, c in lower.terms().items() if e[ring.index(v)] < power})
        relations.append(ring.var(v) ** power + lower)
    extra = data.draw(st.sampled_from(["none", "drawn", "annihilator"]))
    if extra == "drawn":
        relations.append(_draw_poly(data.draw, ring, (fiber[-1], coord)))
    elif extra == "annihilator":  # torsion, or a mixed lead y*x^k when no base element follows
        relations.append(ring.var("y") * ring.var(coord) ** data.draw(st.integers(1, 2)))
    legs = {n: ring.var(n) for n in base.ring.names}
    span = Correspondence(base, point(field), (make_piece(ring, relations, legs, {}, base, point(field)),))
    forged = leads_certificate(span)
    assume(forged is not None)
    out = certify_finite_flat(span)
    assert recheck_certificate(span, forged) == out.certified
    if out.certified:
        assert forged == out
        _assert_rejects_what_the_enumerated_recheck_rejects(span, out)


def test_collapse_variables_removes_an_identified_variable():
    from flatspan.spans import collapse_variables

    G = torus(QQ, "t")
    ring = PolynomialRing(QQ, ("t", "t_inv", "v"), frozenset(["t"]))
    t, ti, v = ring.var("t"), ring.var("t_inv"), ring.var("v")
    rels = [t * ti - ring.one(), v - t * t]
    ident = {"t": t, "t_inv": ti}
    piece = make_piece(ring, rels, ident, ident, G, G)
    fat = Correspondence(G, G, (piece,))
    thin = collapse_variables(fat, [{"v": t * t}])
    assert thin.pieces[0].ring.names == ("t", "t_inv")
    assert equals(thin, identity_span(G))


def test_collapse_variables_rejects_wrong_claims():
    from flatspan.spans import collapse_variables

    G = torus(QQ, "t")
    ring = PolynomialRing(QQ, ("t", "t_inv", "v"), frozenset(["t"]))
    t, ti, v = ring.var("t"), ring.var("t_inv"), ring.var("v")
    rels = [t * ti - ring.one(), v - t * t]
    ident = {"t": t, "t_inv": ti}
    piece = make_piece(ring, rels, ident, ident, G, G)
    fat = Correspondence(G, G, (piece,))
    with pytest.raises(SpanError, match="collapse"):
        collapse_variables(fat, [{"v": t}])


def test_collapse_variables_takes_one_mapping_per_piece():
    from flatspan.spans import collapse_variables

    G = torus(QQ, "t")
    ring = PolynomialRing(QQ, ("t", "t_inv", "v"), frozenset(["t"]))
    t, ti, v = ring.var("t"), ring.var("t_inv"), ring.var("v")
    ident = {"t": t, "t_inv": ti}
    one = make_piece(ring, [t * ti - ring.one(), v - t], ident, ident, G, G)
    two = make_piece(ring, [t * ti - ring.one(), v - ti], ident, ident, G, G)
    fat = Correspondence(G, G, (one, two))
    thin = collapse_variables(fat, [{"v": t}, {"v": ti}])
    assert all(p.ring.names == ("t", "t_inv") for p in thin.pieces)
    with pytest.raises(SpanError, match="per piece"):
        collapse_variables(fat, [{"v": t}])


def _chain_span():
    """One piece over the torus with ``v = u`` and ``u = t^2``."""
    G = torus(QQ, "t")
    ring = PolynomialRing(QQ, ("t", "t_inv", "u", "v"), frozenset(["t"]))
    t, ti, u, v = (ring.var(n) for n in ring.names)
    ident = {"t": t, "t_inv": ti}
    piece = make_piece(ring, [t * ti - ring.one(), v - u, u - t * t], ident, ident, G, G)
    return Correspondence(G, G, (piece,)), ring


def test_collapse_variables_rejects_a_bad_mapping_before_any_groebner_work(monkeypatch):
    from flatspan.spans import collapse_variables

    fat, ring = _chain_span()
    t, u = ring.var("t"), ring.var("u")

    def no_completion(*args, **kwargs):
        raise AssertionError("a completion ran before the mapping was checked")

    for module in (flatspan.spans, flatspan.groebner):
        monkeypatch.setattr(module, "groebner_basis", no_completion)
    with pytest.raises(SpanError, match="image uses a collapsed variable"):
        collapse_variables(fat, [{"v": u, "u": t * t}])
    with pytest.raises(SpanError, match="not a variable of the piece"):
        collapse_variables(fat, [{"zz": t}])


def test_collapse_variables_completes_each_piece_once(monkeypatch):
    from flatspan.spans import collapse_variables

    fat, ring = _chain_span()
    t = ring.var("t")
    calls = []
    for module in (flatspan.spans, flatspan.groebner):
        original = module.groebner_basis

        def counting(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "groebner_basis", counting)
    thin = collapse_variables(fat, [{"v": t * t, "u": t * t}])
    assert len(calls) == 1
    assert thin.pieces[0].ring.names == ("t", "t_inv")
    assert equals(thin, identity_span(torus(QQ, "t")))


_small = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3))


def _draw_poly(draw, ring, names):
    """A sum of at most three terms in the two variables ``names``."""
    total = ring.zero()
    a, b = (ring.index(n) for n in names)
    for i, j, c in draw(st.lists(_small, max_size=3)):
        exp = [0] * ring.nvars
        exp[a], exp[b] = i, j
        total = total + Polynomial(ring, {tuple(exp): ring.field.one}).scale(c)
    return total


@st.composite
def collapse_claims(draw):
    """A one-piece span over the torus whose relations identify ``u`` with
    some ``g(t, t_inv)`` and ``v`` with some ``f(t, u)``, perhaps cut down
    by one more relation in ``t``, and a mapping that collapses ``u``, ``v``
    or both, each claim perhaps false."""
    field = draw(st.sampled_from([QQ, GF(5)]))
    G, line = torus(field, "t"), affine_line(field, "x")
    ring = PolynomialRing(field, ("t", "t_inv", "u", "v"), frozenset(["t"]))
    t, ti, u, v = (ring.var(n) for n in ring.names)
    g = _draw_poly(draw, ring, ("t", "t_inv"))
    f = _draw_poly(draw, ring, ("t", "u"))
    relations = [t * ti - ring.one(), u - g, v - f]
    if draw(st.booleans()):
        relations.append(_draw_poly(draw, ring, ("t", "t_inv")))
    piece = make_piece(ring, relations, {"t": t, "t_inv": ti}, {"x": u + v}, G, line)
    corr = Correspondence(G, line, (piece,))
    doomed = draw(st.sampled_from([("u",), ("v",), ("u", "v")]))
    # no image may use a doomed variable: when u goes too, v's image is f(t, g)
    truths = {"u": g, "v": f.substitute({"u": g}, ring) if "u" in doomed else f}
    mapping = {}
    for name in doomed:
        image = truths[name]
        if draw(st.booleans()):
            image = image + _draw_poly(draw, ring, ("t", "t_inv"))  # perhaps a false claim
        mapping[name] = image
    return corr, mapping


@settings(max_examples=40, deadline=None)
@given(collapse_claims())
def test_one_basis_collapse_matches_the_two_basis_collapse(claims):
    """Same rings, relations (term order included) and maps as checking the
    claims in degree-reverse-lex and then eliminating, and a SpanError on
    exactly the same claims."""
    from flatspan.spans import collapse_variables
    from oracles import two_basis_collapse

    corr, mapping = claims
    try:
        want = two_basis_collapse(corr, [mapping], Budget())
    except SpanError:
        with pytest.raises(SpanError, match="do not identify"):
            collapse_variables(corr, [mapping])
        return
    got = collapse_variables(corr, [mapping])
    assert got == want
    assert [list(r.terms().items()) for r in got.pieces[0].relations] == [
        list(r.terms().items()) for r in want.pieces[0].relations
    ]


@settings(max_examples=60, deadline=None)
@given(collapse_claims())
def test_collapsed_relations_are_the_reduced_basis_of_their_ring(claims):
    """``collapsed_equal`` takes a collapsed piece's relations as its
    canonical basis; this is why it may."""
    from flatspan.spans import collapse_variables
    from oracles import completes_to_itself

    corr, mapping = claims
    try:
        piece = collapse_variables(corr, [mapping]).pieces[0]
    except SpanError:
        return  # a false claim collapses nothing
    assert completes_to_itself(piece)


def test_single_piece_equals_completes_each_side_once(monkeypatch):
    calls = []
    original = flatspan.spans.groebner_basis

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(flatspan.spans, "groebner_basis", counting)
    assert equals(torus_power_cover(3), torus_power_cover(3))
    assert len(calls) == 2


def _draw_middle(data, field):
    """Ring, relations and target image of a torus-to-line piece with one or
    two middle variables beyond ``t, t_inv``."""
    extra = data.draw(st.sampled_from([("u",), ("u", "v")]))
    ring = PolynomialRing(field, ("t", "t_inv") + extra, frozenset(["t"]))
    relations = [ring.var("t") * ring.var("t_inv") - ring.one()]
    for pair in [("t", "u"), extra[-2:]][: len(extra)]:
        relations.append(_draw_poly(data.draw, ring, pair))
    return ring, relations, ring.var(extra[-1]) + _draw_poly(data.draw, ring, (extra[-1], "t"))


def _variant(data, field, middle):
    """``middle`` presented again: the same ideal and image written another
    way, its variables renamed, its inverted-variable marks dropped, or an
    unrelated middle."""
    ring, relations, image = middle
    kind = data.draw(st.sampled_from(["same", "renamed", "unmarked", "unrelated"]))
    if kind == "unrelated":
        return _draw_middle(data, field)
    if kind == "same":
        scale = data.draw(st.integers(1, 4))
        unit = relations[0] * ring.var(ring.names[-1])
        return ring, [r.scale(scale) for r in reversed(relations)], image + unit
    if kind == "renamed":
        moved = PolynomialRing(field, ("t", "t_inv", "p", "q")[: ring.nvars], ring.inverted)
    else:
        moved = PolynomialRing(field, ring.names)
    rename = dict(zip(ring.names, moved.names))
    return moved, [r.map_ring(moved, rename) for r in relations], image.map_ring(moved, rename)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_equals_matches_the_twice_canonicalized_comparison(data):
    """The same verdict as simplifying both sides and completing every
    compared pair again without marks, or IncomparableSpans on the same
    draws."""
    from oracles import payload_equals

    field = data.draw(st.sampled_from([QQ, GF(5), GF(7)]))
    G, line = torus(field, "t"), affine_line(field, "x")

    def span(middles):
        pieces = []
        for ring, relations, image in middles:
            legs = {"t": ring.var("t"), "t_inv": ring.var("t_inv")}
            pieces.append(make_piece(ring, relations, legs, {"x": image}, G, line))
        return Correspondence(G, line, tuple(pieces))

    middles = [_draw_middle(data, field) for _ in range(data.draw(st.integers(1, 2)))]
    others = [_variant(data, field, m) for m in middles]
    if data.draw(st.booleans()):
        others.reverse()
    left, right = span(middles), span(others)
    try:
        want = payload_equals(left, right, Budget())
    except IncomparableSpans:
        with pytest.raises(IncomparableSpans):
            equals(left, right, Budget())
        return
    assert equals(left, right, Budget()) == want
