"""Blended families, valuation bounds, filtration search, naturality."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from flatspan.budget import Budget, BudgetExhausted
from flatspan.cancellation import (
    BoundReport,
    CancellationError,
    blend_value,
    blended_family,
    cancel_family,
    cancel_slice,
    cut_value,
    filtration_index,
    flatness_bound,
    flatness_bound_ext,
    restrict_parameter,
    shifted_slice,
    slice_locus,
    torus_identity,
    unit_collapse,
    verify_cancellation,
    verify_compat,
)
from flatspan.fields import GF, QQ
from flatspan.groebner import groebner_basis
from flatspan.modules import CertifyOutcome, PieceCertificate
from flatspan.poly import PolynomialRing, companion_name
from flatspan.polyparse import parse_polynomial
from flatspan.reports import finite_flat_block
from flatspan.schemes import affine_line, point, product, torus
from flatspan.spans import (
    Correspondence,
    SpanError,
    SpanPiece,
    add,
    certify_finite_flat,
    collapse_variables,
    compose,
    cross,
    degree,
    equals,
    graph_span,
    make_piece,
    piece_over_base,
    restrict_to_open,
)
from oracles import blended_family_from_scratch, full_box_filtration


def ring_of(names, field=QQ, inverted=()):
    return PolynomialRing(field, tuple(names), frozenset(inverted))


def laurent_base(field=QQ):
    """The middle Spec k[x][t, 1/t] seen over X = A^1 x Gm itself."""
    X = product(affine_line(field, "x"), torus(field, "t"))
    ring = ring_of(["x", "t", "t_inv"], field, inverted=["t"])
    rel = [parse_polynomial("t*t_inv - 1", ring)]
    src = {v: ring.var(v) for v in ring.names}
    piece = make_piece(ring, rel, src, {}, X, point(field))
    return Correspondence(X, point(field), (piece,)), ring


def double_triple_cover(field=QQ):
    """Rank-2 torus self-correspondence: src t -> u^2, tgt t -> u^3."""
    G = torus(field, "t")
    ring = ring_of(["u", "u_inv"], field, inverted=["u"])
    u, ui = ring.var("u"), ring.var("u_inv")
    piece = make_piece(
        ring,
        [u * ui - ring.one()],
        {"t": u**2, "t_inv": ui**2},
        {"t": u**3, "t_inv": ui**3},
        G,
        G,
    )
    return Correspondence(G, G, (piece,))


def point_span(relation_text, names, field=QQ):
    ring = ring_of(names, field)
    rel = parse_polynomial(relation_text, ring)
    piece = make_piece(ring, [rel], {}, {}, point(field), point(field))
    return Correspondence(point(field), point(field), (piece,))


# ---------------------------------------------------------------------------
# cut and blend polynomials


def test_cut_polynomial_shapes():
    ring = ring_of(["t", "u"])
    plus = cut_value(3, "+", ring.var("t"))
    minus = cut_value(3, "-", ring.var("t"), ring.var("u"))
    assert str(plus) == "t^3 + 1"
    assert str(minus) == "t^3 + u"


def test_cut_polynomial_rejects_bad_input():
    ring = ring_of(["t"])
    with pytest.raises(ValueError):
        cut_value(0, "+", ring.var("t"))
    with pytest.raises(ValueError):
        cut_value(2, "*", ring.var("t"))
    with pytest.raises(ValueError):
        cut_value(2, "-", ring.var("t"))


def blend_of(m, n, sign, blend, main, aux=None):
    """The blend of the m-th and n-th cuts of ``main`` (and ``aux``)."""
    return blend_value(blend, cut_value(n, sign, main, aux), cut_value(m, sign, main, aux))


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=5),
    n=st.integers(min_value=1, max_value=5),
    sign=st.sampled_from(["+", "-"]),
    value=st.integers(min_value=-3, max_value=3),
)
def test_blend_interpolates_between_the_two_cuts(m, n, sign, value):
    ring = ring_of(["s", "t", "u"])
    blend = blend_of(m, n, sign, ring.var("s"), ring.var("t"), ring.var("u"))
    small = ring_of(["t", "u"])
    c = QQ.from_int(value)
    at_c = blend.substitute({"s": small.const(c)}, small)
    cut_n = cut_value(n, sign, small.var("t"), small.var("u"))
    cut_m = cut_value(m, sign, small.var("t"), small.var("u"))
    expected = cut_n.scale(c) + cut_m.scale(QQ.sub(QQ.one, c))
    assert at_c == expected
    assert blend.substitute({"s": small.one()}, small) == cut_n
    assert blend.substitute({"s": small.zero()}, small) == cut_m


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_blend_agrees_with_its_factored_form(m, n, sign):
    # the shape tail + t^k * (interpolant), k = min(m, n), that the
    # valuation bound reads off the blend
    ring = ring_of(["s", "t", "u"])
    s, t, u = ring.var("s"), ring.var("t"), ring.var("u")
    one = ring.one()
    k = min(m, n)
    tail = one if sign == "+" else u
    factored = t**k * (s * t ** (n - k) + (one - s) * t ** (m - k)) + tail
    assert blend_of(m, n, sign, s, t, u) == factored


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_mirrored_blend_is_the_blend_at_one_minus_s(m, n, sign):
    ring = ring_of(["s", "t", "u"])
    s, t, u = ring.var("s"), ring.var("t"), ring.var("u")
    flipped = blend_of(m, n, sign, s, t, u).substitute({"s": ring.one() - s}, ring)
    assert blend_of(n, m, sign, s, t, u) == flipped


def test_factored_blend_pulls_out_the_lower_exponent():
    ring = ring_of(["s", "t"])
    s, t = ring.var("s"), ring.var("t")
    one = ring.one()
    # lower exponent 2, gap 1 and gap 2
    assert blend_of(3, 2, "+", s, t) == t**2 * (s + (one - s) * t) + one
    assert blend_of(4, 2, "+", s, t) == t**2 * (s + (one - s) * t**2) + one


# ---------------------------------------------------------------------------
# valuation bounds


def test_bound_for_inverse_square_weight_is_two():
    Z, ring = laurent_base()
    f = parse_polynomial("x*t_inv^2", ring)
    report = flatness_bound(Z, f)
    assert report.n_bound == 2
    assert min(e.valuation for e in report.entries) == -2
    assert report.torus_var == "t"
    [entry] = report.entries
    assert entry.label == "f" and (entry.row, entry.col) == (0, 0)
    assert str(entry.value) == "x*t_inv^2"


def test_bound_for_constant_weight_is_zero():
    Z, ring = laurent_base()
    report = flatness_bound(Z, ring.const(5))
    assert report.n_bound == 0
    assert min(e.valuation for e in report.entries) == 0


@pytest.mark.parametrize(
    "weight,expected",
    [("x*t_inv^2", 2), ("x*t_inv", 1), ("x^2*t_inv^3", 3), ("t + x", 0)],
)
def test_bound_is_minimal_for_its_matrix(weight, expected):
    Z, ring = laurent_base()
    report = flatness_bound(Z, parse_polynomial(weight, ring))
    assert report.n_bound == expected
    assert not report.admits(report.n_bound)
    assert report.admits(report.n_bound + 1)


def test_bound_requires_certified_finite_input():
    field = QQ
    X = product(affine_line(field, "x"), torus(field, "t"))
    ring = ring_of(["x", "t", "t_inv", "v"], inverted=["t"])
    rel = [parse_polynomial("t*t_inv - 1", ring)]
    src = {v: ring.var(v) for v in ("x", "t", "t_inv")}
    piece = make_piece(ring, rel, src, {}, X, point(field))
    wild = Correspondence(X, point(field), (piece,))
    with pytest.raises(CancellationError):
        flatness_bound(wild, ring.var("x"))


# ---------------------------------------------------------------------------
# slices


def test_slice_at_the_bound_exposes_a_torsion_witness():
    Z, ring = laurent_base()
    f = parse_polynomial("x*t_inv^2", ring)
    report = slice_locus(Z, f, 2)
    assert report.verdict == "not-flat"
    assert [str(w) for w in report.witness] == ["x - 1"]


def test_slice_above_the_bound_is_flat_by_certificate():
    Z, ring = laurent_base()
    f = parse_polynomial("x*t_inv^2", ring)
    for n in (3, 4):
        report = slice_locus(Z, f, n)
        assert report.verdict == "flat-by-certificate"
        assert report.bound is not None and report.bound.n_bound == 2
        assert report.certificate.status == "not_finite"


def test_slice_below_the_bound_can_be_inconclusive():
    Z, ring = laurent_base()
    f = parse_polynomial("x*t_inv^2", ring)
    report = slice_locus(Z, f, 1)
    assert report.verdict == "inconclusive"
    assert report.bound is not None and not report.bound.admits(1)


def test_slices_of_constant_weight_certify_every_rank():
    Z, ring = laurent_base()
    for n in (1, 2, 3, 4):
        report = slice_locus(Z, ring.const(5), n)
        assert report.verdict == "certified-flf"
        assert report.rank == n


@pytest.mark.parametrize(
    "weight,n,witness",
    [("x*t_inv", 1, ["x - 1"]), ("x^2*t_inv^3", 3, ["x^2 - 1"])],
)
def test_other_weights_expose_their_own_witnesses(weight, n, witness):
    Z, ring = laurent_base()
    report = slice_locus(Z, parse_polynomial(weight, ring), n)
    assert report.verdict == "not-flat"
    assert [str(w) for w in report.witness] == witness


def test_monic_mixed_weight_certifies_directly():
    Z, ring = laurent_base()
    f = parse_polynomial("t + x", ring)
    for n, rank in [(1, 2), (2, 3)]:
        report = slice_locus(Z, f, n)
        assert report.verdict == "certified-flf"
        assert report.rank == rank


def test_extended_bound_covers_all_shift_combinations():
    Z, ring = laurent_base()
    f1 = parse_polynomial("x*t_inv", ring)
    f2 = ring.one()
    report = flatness_bound_ext(Z, f1, f2)
    assert report.n_bound == 1
    assert sorted({e.label for e in report.entries}) == ["f1", "f2"]
    for n in (2, 3):
        for a in (0, 1, 2):
            for b in (0, 1, 2):
                sliced = shifted_slice(Z, f1, f2, a, b, n)
                assert sliced.verdict in ("certified-flf", "flat-by-certificate")


def test_unshifted_combination_degenerates_to_the_plain_slice():
    Z, ring = laurent_base()
    f1 = parse_polynomial("x*t_inv", ring)
    f2 = ring.one()
    combined = slice_locus(Z, f1 + f2, 2)
    shifted = shifted_slice(Z, f1, f2, 0, 0, 2)
    assert equals(shifted.correspondence, combined.correspondence)
    assert shifted.verdict == combined.verdict


def test_extended_bound_of_constants_is_zero():
    Z, ring = laurent_base()
    report = flatness_bound_ext(Z, ring.const(2), ring.const(3))
    assert report.n_bound == 0
    sliced = shifted_slice(Z, ring.const(2), ring.const(3), 0, 0, 1)
    assert sliced.verdict == "certified-flf" and sliced.rank == 1


# ---------------------------------------------------------------------------
# blended families


def test_diagonal_families_of_the_identity_are_free():
    idG = torus_identity(QQ)
    for n in (1, 2, 3, 4, 5):
        fam = cancel_family(idG, n, n, "+")
        assert fam.certified and fam.rank == n
        middle = groebner_basis(list(fam.correspondence.pieces[0].relations))
        assert all(fam.parameter not in g.variables() for g in middle)


def test_family_endpoints_specialize_to_the_cuts():
    idG = torus_identity(QQ)
    for sign in ("+", "-"):
        fam = cancel_family(idG, 3, 2, sign)
        at_one = restrict_parameter(fam.correspondence, fam.parameter, 1)
        at_zero = restrict_parameter(fam.correspondence, fam.parameter, 0)
        assert equals(at_one, cancel_slice(idG, 2, sign))
        assert equals(at_zero, cancel_slice(idG, 3, sign))


def test_off_diagonal_family_keeps_its_negative_verdict():
    fam = cancel_family(torus_identity(QQ), 3, 2, "+")
    assert not fam.certified
    assert fam.certificate.status == "not_finite"
    assert "direction" in fam.certificate.detail


def test_unit_collapse_families_agree_for_both_signs():
    p = unit_collapse(QQ)
    for n in (2, 3):
        plus = cancel_family(p, n, n, "+")
        minus = cancel_family(p, n, n, "-")
        assert plus.certified and plus.rank == n
        assert equals(plus.correspondence, minus.correspondence)


def test_minus_cut_of_the_identity_drops_exactly_one_rank():
    idG = torus_identity(QQ)
    for n in (1, 2, 3, 4, 5):
        assert degree(cancel_slice(idG, n, "+")) == n
    for n in (2, 3, 4, 5):
        assert degree(cancel_slice(idG, n, "-")) == n - 1


def test_restrict_parameter_validates_its_coordinate():
    fam = cancel_family(torus_identity(QQ), 2, 2, "+")
    with pytest.raises(CancellationError):
        restrict_parameter(fam.correspondence, "nope", 1)


def presentation(corr):
    """Ring names, inverted names, relations and both legs, one line per piece."""
    return [
        " | ".join(
            [
                ", ".join(piece.ring.names),
                ", ".join(sorted(piece.ring.inverted)),
                "; ".join(str(r) for r in piece.relations),
                "; ".join(f"{k}: {v}" for k, v in piece.src_map),
                "; ".join(f"{k}: {v}" for k, v in piece.tgt_map),
            ]
        )
        for piece in corr.pieces
    ]


REWRITES = {
    "blended_family": lambda a: blended_family(a, 2, 3, "-"),
    "cancel_family": lambda a: cancel_family(a, 2, 3, "-").correspondence,
    "cancel_slice": lambda a: cancel_slice(a, 3, "-"),
    "restrict_parameter": lambda a: restrict_parameter(
        cancel_family(a, 2, 3, "+").correspondence, "s", 1
    ),
    "torus_extension": lambda a: cross(a, torus(QQ, "g"), "w", on_target=True)[0],
    "line_extension": lambda a: cross(a, affine_line(QQ, "x"), "sb", on_target=True)[0],
    "cross": lambda a: cross(a, affine_line(QQ, "s"), "s")[0],
    "restrict_to_open": lambda a: restrict_to_open(a, parse_polynomial("t + 1", a.source.ring))[0],
    "slice_locus": lambda a: slice_locus(a, a.pieces[0].ring.const(2), 2).correspondence,
}

FROZEN_PRESENTATIONS = {
    ("identity", "blended_family"): "t, t_inv, s | t | t*t_inv - 1; t^3*s - t^2*s + t^2 + t | s: s | ",
    ("identity", "cancel_family"): "t, t_inv, s | t | t*t_inv - 1; t^3*s - t^2*s + t^2 + t | s: s | ",
    ("identity", "cancel_slice"): "t, t_inv | t | t*t_inv - 1; t^3 + t |  | ",
    ("identity", "restrict_parameter"): "t, t_inv | t | t*t_inv - 1; t^3 + 1 |  | ",
    ("identity", "torus_extension"): (
        "t, t_inv, w, w_inv | t, w | t*t_inv - 1; w*w_inv - 1"
        " | t: t; t_inv: t_inv; g: w; g_inv: w_inv | t: t; t_inv: t_inv; g: w; g_inv: w_inv"
    ),
    ("identity", "line_extension"): (
        "t, t_inv, sb | t | t*t_inv - 1 | t: t; t_inv: t_inv; x: sb | t: t; t_inv: t_inv; x: sb"
    ),
    ("identity", "slice_locus"): "t, t_inv | t | t*t_inv - 1; -2*t^2 + 1 |  | t: t; t_inv: t_inv",
    ("identity", "cross"): "t, t_inv, s | t | t*t_inv - 1 | t: t; t_inv: t_inv; s: s | t: t; t_inv: t_inv",
    ("identity", "restrict_to_open"): (
        "t, t_inv, lg | t | t*t_inv - 1; t*lg + lg - 1"
        " | t: t; t_inv: t_inv; lg: lg | t: t; t_inv: t_inv"
    ),
    ("cover", "blended_family"): "u, u_inv, s | u | u*u_inv - 1; u^6*s - u^4*s + u^4 + u^3 | s: s | ",
    ("cover", "cancel_family"): "u, u_inv, s | u | u*u_inv - 1; u^6*s - u^4*s + u^4 + u^3 | s: s | ",
    ("cover", "cancel_slice"): "u, u_inv | u | u*u_inv - 1; u^6 + u^3 |  | ",
    ("cover", "restrict_parameter"): "u, u_inv | u | u*u_inv - 1; u^6 + 1 |  | ",
    ("cover", "torus_extension"): (
        "u, u_inv, w, w_inv | u, w | u*u_inv - 1; w*w_inv - 1"
        " | t: u^2; t_inv: u_inv^2; g: w; g_inv: w_inv | t: u^3; t_inv: u_inv^3; g: w; g_inv: w_inv"
    ),
    ("cover", "line_extension"): (
        "u, u_inv, sb | u | u*u_inv - 1"
        " | t: u^2; t_inv: u_inv^2; x: sb | t: u^3; t_inv: u_inv^3; x: sb"
    ),
    ("cover", "slice_locus"): "u, u_inv | u | u*u_inv - 1; -2*u^4 + 1 |  | t: u^3; t_inv: u_inv^3",
    ("cover", "cross"): (
        "u, u_inv, s | u | u*u_inv - 1 | t: u^2; t_inv: u_inv^2; s: s | t: u^3; t_inv: u_inv^3"
    ),
    ("cover", "restrict_to_open"): (
        "u, u_inv, lg | u | u*u_inv - 1; u^2*lg + lg - 1"
        " | t: u^2; t_inv: u_inv^2; lg: lg | t: u^3; t_inv: u_inv^3"
    ),
}


@pytest.mark.parametrize("alpha_name,routine", sorted(FROZEN_PRESENTATIONS))
def test_rewritten_presentations_are_frozen(alpha_name, routine):
    alpha = {"identity": lambda: torus_identity(QQ), "cover": double_triple_cover}[alpha_name]()
    assert presentation(REWRITES[routine](alpha)) == [
        FROZEN_PRESENTATIONS[(alpha_name, routine)]
    ]


def blend_span(kind, field, k, c):
    """A torus self-span: the graph of ``t -> c*t^k``, the degree-k cover
    with source ``t = c*u^k`` and target ``t = u``, or the span through the
    point ``t = c``.  Each call builds a new, equal span."""
    G = torus(field, "t")
    cv = field.from_int(c)
    if kind == "graph":
        r = G.ring
        images = {
            "t": r.const(cv) * r.var("t") ** k,
            "t_inv": r.const(field.inv(cv)) * r.var("t_inv") ** k,
        }
        return graph_span(G, G, images)
    if kind == "cover":
        ring = ring_of(["u", "u_inv"], field, inverted=["u"])
        u, ui = ring.var("u"), ring.var("u_inv")
        src = {"t": ring.const(cv) * u**k, "t_inv": ring.const(field.inv(cv)) * ui**k}
        tgt = {"t": u, "t_inv": ui}
    else:
        ring = ring_of(["t", "t_inv"], field, inverted=["t"])
        src = {"t": ring.var("t"), "t_inv": ring.var("t_inv")}
        tgt = {"t": ring.const(cv), "t_inv": ring.const(field.inv(cv))}
    unit = ring.var(ring.names[0]) * ring.var(ring.names[1]) - ring.one()
    return Correspondence(G, G, (make_piece(ring, [unit], src, tgt, G, G),))


span_specs = st.tuples(
    st.sampled_from(["graph", "cover", "unit"]),
    st.sampled_from([QQ, GF(5), GF(7)]),
    st.integers(1, 3),
    st.sampled_from([-3, -2, -1, 1, 2, 3]),
)


@settings(max_examples=30, deadline=None)
@given(
    specs=st.tuples(span_specs, span_specs),
    calls=st.lists(
        st.tuples(
            st.sampled_from(["first", "second", "first rebuilt"]),
            st.integers(1, 5),
            st.integers(1, 5),
            st.sampled_from(["+", "-"]),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_families_from_shared_parts_equal_families_from_scratch(specs, calls):
    """Cold, warm, evicted and equal-but-rebuilt spans all give the family
    built from scratch, and the same certificate bytes."""
    import flatspan.cancellation as cancellation

    spans = {"first": blend_span(*specs[0]), "second": blend_span(*specs[1])}
    cancellation._family_parts.cache_clear()
    for which, m, n, sign in calls:
        alpha = blend_span(*specs[0]) if which == "first rebuilt" else spans[which]
        expected, parameter = blended_family_from_scratch(alpha, m, n, sign)
        assert blended_family(alpha, m, n, sign) == expected
        fam = cancel_family(alpha, m, n, sign)
        assert fam.parameter == parameter
        block = finite_flat_block(fam.correspondence, fam.certificate)
        oracle = finite_flat_block(expected, certify_finite_flat(expected))
        assert json.dumps(block, sort_keys=True) == json.dumps(oracle, sort_keys=True)


def layout_span(kind, field, k, c):
    """The spans :func:`blend_span` makes, a cover composed with a square
    graph, and a two-piece span: the zero middle, whose families all
    certify, beside a cover, which decides and numbers its piece 1."""
    if kind == "composite":
        return compose(blend_span("cover", field, k, c), blend_span("graph", field, 2, 1))
    if kind == "two pieces":
        return add(empty_torus_span(field), blend_span("cover", field, k, c))
    return blend_span(kind, field, k, c)


def certified_within(certify, limit=None):
    """The outcome and the steps charged, or where the budget ran out."""
    budget = Budget(limit) if limit else Budget()
    try:
        return certify(budget), budget.used
    except BudgetExhausted as err:
        return "exhausted", err.phase, budget.used


@settings(max_examples=60, deadline=None)
@given(
    spec=st.tuples(
        st.sampled_from(["graph", "cover", "unit", "composite", "two pieces"]),
        st.sampled_from([QQ, GF(5), GF(7)]),
        st.integers(1, 3),
        st.sampled_from([-2, -1, 1, 2, 3]),
    ),
    m=st.integers(1, 3),
    n=st.integers(1, 3),
    sign=st.sampled_from(["+", "-"]),
)
def test_families_certified_from_the_span_layout_equal_certified_families(spec, m, n, sign):
    """Certifying a family from its span's shared layout gives the outcome,
    the steps and, under every smaller budget, the exhausted phase that
    certifying the built family gives."""
    alpha = layout_span(*spec)
    family = blended_family(alpha, m, n, sign)

    def from_layout(budget):
        return cancel_family(alpha, m, n, sign, budget=budget).certificate

    def from_family(budget):
        return certify_finite_flat(family, budget=budget)

    expected = certified_within(from_family)
    assert certified_within(from_layout) == expected
    for limit in range(1, expected[-1] + 1):
        assert certified_within(from_layout, limit) == certified_within(from_family, limit)


def test_filtration_builds_no_family_span(monkeypatch):
    """The search reads only each family's status and rank, so it certifies
    from the span's layout and never builds a family span."""
    import flatspan.cancellation as cancellation

    expected = filtration_index(double_triple_cover(), window=3)

    def refused(*args):
        raise AssertionError("the search built a family span")

    monkeypatch.setattr(cancellation, "blended_family", refused)
    assert filtration_index(double_triple_cover(), window=3) == expected


def test_filtration_builds_the_family_parts_once(monkeypatch):
    import flatspan.cancellation as cancellation

    original = cancellation.strip_coordinates
    calls = []

    def counted(scheme, names):
        calls.append(tuple(names))
        return original(scheme, names)

    cancellation._family_parts.cache_clear()
    monkeypatch.setattr(cancellation, "strip_coordinates", counted)
    filtration_index(torus_identity(QQ), window=3)
    # the source and the target, once for all 12 certified families
    assert calls == [("t",), ("t",)]


# ---------------------------------------------------------------------------
# filtration search


def test_filtration_of_the_identity_settles_on_the_diagonal():
    report = filtration_index(torus_identity(QQ), window=3)
    assert report.found and report.index == 3
    assert report.blocking == (2, 3, "+")
    assert len(report.entries) == 3 * 3 * 2
    certified = {
        (e.m, e.n, e.sign): e.rank for e in report.entries if e.status == "certified"
    }
    assert certified == {
        (1, 1, "+"): 1,
        (1, 1, "-"): 0,
        (2, 2, "+"): 2,
        (2, 2, "-"): 1,
        (3, 3, "+"): 3,
        (3, 3, "-"): 2,
    }
    assert report.bound_plus.n_bound == 0
    assert report.bound_minus.n_bound == 1


def test_filtration_index_one_has_no_blocking_triple():
    report = filtration_index(torus_identity(QQ), window=1)
    assert (report.index, report.blocking) == (1, None)


def test_filtration_index_is_minimal_over_the_reported_entries():
    report = filtration_index(unit_collapse(QQ), window=3)
    ok = {(e.m, e.n, e.sign): e.status == "certified" for e in report.entries}

    def box(i):
        return all(
            ok[(m, n, s)]
            for m in range(i, report.window + 1)
            for n in range(i, report.window + 1)
            for s in ("+", "-")
        )

    smallest = next(
        (i for i in range(1, report.window + 1) if box(i)), None
    )
    assert report.index == smallest == 3


def torus_power_graph(field, k):
    """The graph of ``t -> t**k`` on the torus."""
    G = torus(field, "t")
    r = G.ring
    return graph_span(G, G, {"t": r.var("t") ** k, "t_inv": r.var("t_inv") ** k})


def torus_negated_power_graph(field, k):
    """The graph of ``t -> -t**k`` on the torus."""
    G = torus(field, "t")
    r = G.ring
    return graph_span(G, G, {"t": -(r.var("t") ** k), "t_inv": -(r.var("t_inv") ** k)})


@pytest.mark.parametrize("k", [1, 2])
def test_a_filtration_with_no_certified_level_has_no_index(k):
    """The graph of ``t -> -t**k`` fails its ``(k, k, -)`` family, so no
    level of window ``k`` certifies entirely: no index, and that family
    blocks."""
    report = filtration_index(torus_negated_power_graph(QQ, k), window=k)
    assert (report.index, report.found) == (None, False)
    assert report.blocking == (k, k, "-")
    status = {(e.m, e.n, e.sign): e.status for e in report.entries}
    assert status[k, k, "-"] == "not_finite"


def empty_torus_span(field):
    """A torus self-span with the zero ring as middle: rank 0, so every
    family certifies, off the diagonal too."""
    G = torus(field, "t")
    ring = ring_of(["t", "t_inv"], field, inverted=["t"])
    ident = {v: ring.var(v) for v in ring.names}
    rels = [ring.var("t") * ring.var("t_inv") - ring.one(), ring.one()]
    return Correspondence(G, G, (make_piece(ring, rels, ident, ident, G, G),))


FILTRATION_SPANS = {
    "empty": empty_torus_span,
    "identity": torus_identity,
    "unit": unit_collapse,
    "square": lambda field: torus_power_graph(field, 2),
    "cube": lambda field: torus_power_graph(field, 3),
    "dtc": double_triple_cover,
}


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
@pytest.mark.parametrize("name", sorted(FILTRATION_SPANS))
def test_filtration_equals_the_full_box_search(name, field):
    alpha = FILTRATION_SPANS[name](field)
    for window in range(1, 5):
        report = filtration_index(alpha, window=window)
        oracle = full_box_filtration(alpha, window=window)
        assert report.index == oracle.index
        assert report.window == oracle.window == window
        assert report.blocking == oracle.blocking
        assert report.entries == oracle.entries
        assert len(report.entries) == 2 * window**2
        assert report.bound_plus == oracle.bound_plus
        assert report.bound_minus == oracle.bound_minus


def test_filtration_certifies_each_mirror_pair_once(monkeypatch):
    import flatspan.cancellation as cancellation

    original = cancellation.cancel_family
    calls = []

    def labelled(alpha, m, n, sign, *, budget=None):
        # a real family with a fake outcome whose rank names its own triple
        calls.append((m, n, sign))
        fam = original(alpha, m, n, sign, budget=budget)
        rank = 100 * m + 10 * n + (sign == "+")
        stub = PieceCertificate(alpha.source.ring, 0, (), ((),) * rank, (), ())
        return replace(fam, certificate=CertifyOutcome("certified", (stub,)))

    monkeypatch.setattr(cancellation, "cancel_family", labelled)
    report = filtration_index(torus_identity(QQ), window=3)
    assert calls == [(m, n, s) for m in (1, 2, 3) for n in range(m, 4) for s in ("+", "-")]
    for e in report.entries:
        low, high = sorted((e.m, e.n))
        assert (e.status, e.rank) == ("certified", 100 * low + 10 * high + (e.sign == "+"))


def test_filtration_budget_runs_out_or_changes_nothing():
    alpha = torus_identity(QQ)
    unlimited, full_box = Budget(), Budget()
    expected = filtration_index(alpha, window=3, budget=unlimited)
    full_box_filtration(alpha, window=3, budget=full_box)
    # the mirror families are copied, not certified
    assert (unlimited.used, full_box.used) == (175, 285)
    assert unlimited.used < full_box.used
    outcomes = set()
    for limit in [*range(1, unlimited.used, 25), unlimited.used - 1, unlimited.used]:
        try:
            report = filtration_index(alpha, window=3, budget=Budget(limit))
        except BudgetExhausted:
            outcomes.add("exhausted")
            continue
        assert report == expected, limit
        outcomes.add("same")
    assert outcomes == {"exhausted", "same"}


@st.composite
def torus_self_spans(draw):
    """Single-piece torus self-spans: middle ``u`` with source
    ``t = c*u**k`` and target ``t = d*u**a``, sometimes cut down by one
    more monic relation in ``u``."""
    field = draw(st.sampled_from([QQ, GF(5), GF(7)]))
    k, a = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    nonzero = st.sampled_from([-3, -2, -1, 1, 2, 3])
    c, d = field.from_int(draw(nonzero)), field.from_int(draw(nonzero))
    G = torus(field, "t")
    ring = ring_of(["u", "u_inv"], field, inverted=["u"])
    u, ui = ring.var("u"), ring.var("u_inv")
    relations = [u * ui - ring.one()]
    if draw(st.booleans()):
        tail = ring.const(field.from_int(draw(st.integers(-2, 2))))
        relations.append(u ** draw(st.integers(1, 3)) + tail)
    src = {"t": ring.const(c) * u**k, "t_inv": ring.const(field.inv(c)) * ui**k}
    tgt = {"t": ring.const(d) * u**a, "t_inv": ring.const(field.inv(d)) * ui**a}
    return Correspondence(G, G, (make_piece(ring, relations, src, tgt, G, G),))


@settings(max_examples=40, deadline=None)
@given(
    alpha=torus_self_spans(),
    m=st.integers(1, 3),
    n=st.integers(1, 3),
    sign=st.sampled_from(["+", "-"]),
)
def test_mirrored_families_certify_alike(alpha, m, n, sign):
    out = cancel_family(alpha, m, n, sign).certificate
    mirror = cancel_family(alpha, n, m, sign).certificate
    assert (out.status, out.rank) == (mirror.status, mirror.rank)
    if out.certified:
        assert [c.staircase for c in out.pieces] == [c.staircase for c in mirror.pieces]


def test_filtration_requires_certified_input():
    field = QQ
    G = torus(field, "t")
    ring = ring_of(["u", "u_inv", "v"], inverted=["u"])
    u, ui = ring.var("u"), ring.var("u_inv")
    piece = make_piece(
        ring,
        [u * ui - ring.one()],
        {"t": u, "t_inv": ui},
        {"t": u, "t_inv": ui},
        G,
        G,
    )
    wild = Correspondence(G, G, (piece,))
    with pytest.raises(CancellationError):
        filtration_index(wild, window=2)


# ---------------------------------------------------------------------------
# naturality


@pytest.mark.parametrize("m,n,sign", [(2, 2, "+"), (3, 2, "-"), (1, 4, "+")])
def test_families_commute_with_both_feet(m, n, sign):
    alpha = double_triple_cover()
    beta = point_span("b^2 - 2", ["b"])
    gamma = point_span("c^2", ["c"])
    report = verify_compat(alpha, beta, gamma, m, n, sign)
    assert report.push_ok and report.pull_ok, report.detail


def test_families_commute_for_the_unit_collapse():
    beta = point_span("b^2 - 2", ["b"])
    gamma = point_span("c^3 - c", ["c"])
    report = verify_compat(unit_collapse(QQ), beta, gamma, 2, 3, "+")
    assert report.ok


def test_compat_certifies_only_the_reported_family(monkeypatch):
    """One certification runs, and it lays out the reported family's own
    pieces over that family's source."""
    import flatspan.cancellation as cancellation

    original = cancellation.certify_laid_out
    certified = []

    def counting(layouts, base, budget=None):
        layouts = list(layouts)
        certified.append((layouts, base))
        return original(layouts, base, budget)

    def refused(corr, **kwargs):
        raise AssertionError("a span was certified outside the family path")

    monkeypatch.setattr(cancellation, "certify_laid_out", counting)
    monkeypatch.setattr(cancellation, "certify_finite_flat", refused)
    beta = point_span("b^2 - 2", ["b"])
    gamma = point_span("c^2", ["c"])
    report = verify_compat(double_triple_cover(), beta, gamma, 2, 2, "+")
    assert report.ok, report.detail
    family = report.family.correspondence
    laid_out = [piece_over_base(p, family.source) for p in family.pieces]
    assert certified == [([(ring, rels) for ring, _, rels in laid_out], family.source)]


def test_compat_rejects_colliding_middle_names():
    alpha = double_triple_cover()
    beta = point_span("b^2 - 2", ["b"])
    clash = point_span("u^2", ["u"])  # reuses alpha's middle variable
    with pytest.raises(CancellationError):
        verify_compat(alpha, beta, clash, 2, 2, "+")


@pytest.mark.parametrize(
    "beta_name,gamma_name,spans",
    [("b", "t", "first and third"), ("t", "c", "second and first")],
)
def test_compat_names_the_colliding_spans(beta_name, gamma_name, spans):
    beta = point_span(f"{beta_name}^2 - 2", [beta_name])
    gamma = point_span(f"{gamma_name}^2", [gamma_name])
    with pytest.raises(CancellationError) as err:
        verify_compat(torus_identity(QQ), beta, gamma, 2, 2, "+")
    assert str(err.value) == (
        f"middle variable names collide between the {spans} spans; rename them apart"
    )


def random_point(name, coeffs, field):
    """The point-to-point span with middle ``k[v]/(v^d + c_{d-1} v^{d-1} + ... + c_0)``."""
    ring = ring_of([name], field)
    v = ring.var(name)
    rel = v ** len(coeffs)
    for i, c in enumerate(coeffs):
        rel = rel + ring.const(field.from_int(c)) * v**i
    piece = make_piece(ring, [rel], {}, {}, point(field), point(field))
    return Correspondence(point(field), point(field), (piece,))


@st.composite
def naturality_draws(draw):
    """``(alpha, beta, gamma, m, n, sign)`` as gate criterion 5 draws them,
    over QQ, GF(5) or GF(7)."""
    field = draw(st.sampled_from([QQ, GF(5), GF(7)]))
    alpha = draw(st.sampled_from([double_triple_cover, unit_collapse, torus_identity]))(field)
    coeffs = st.integers(2, 3).flatmap(lambda d: st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    beta, gamma = random_point("b", draw(coeffs), field), random_point("c", draw(coeffs), field)
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return alpha, beta, gamma, m, n, draw(st.sampled_from(["+", "-"]))


def recorded(module, name, args_of, draw):
    """Run :func:`verify_compat` on ``draw`` while recording ``args_of`` of
    the arguments and result of each call of ``module.name``."""
    calls = []
    original = getattr(module, name)

    def recording(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(args_of(args, out))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, name, recording)
        report = verify_compat(*draw)
    return report, calls


@settings(max_examples=30, deadline=None)
@given(naturality_draws())
def test_naturality_collapses_leave_their_rings_reduced_bases(draw):
    """Each piece ``verify_compat`` collapses (both sides of the source
    comparison and the left side of the target one) has relations that are
    the reduced degree-reverse-lex basis of its ring."""
    import flatspan.spans as spans
    from oracles import completes_to_itself

    def collapsed(args, out):
        return [p for p, mapping in zip(out.pieces, args[1]) if mapping]

    report, calls = recorded(spans, "collapse_variables", collapsed, draw)
    assert report.ok, report.detail
    pieces = [p for found in calls for p in found]
    assert len(pieces) == 3
    assert all(completes_to_itself(p) for p in pieces)


def _moved_piece(corr, mapping, ring, rename):
    """``corr``'s one piece and a collapse mapping moved into ``ring``
    through ``rename``."""
    piece = corr.pieces[0]
    moved = SpanPiece(
        ring,
        tuple(r.map_ring(ring, rename) for r in piece.relations),
        tuple((k, p.map_ring(ring, rename)) for k, p in piece.src_map),
        tuple((k, p.map_ring(ring, rename)) for k, p in piece.tgt_map),
    )
    images = {rename.get(v, v): p.map_ring(ring, rename) for v, p in mapping.items()}
    return replace(corr, pieces=(moved,)), images


def tampered(corr, mapping, how, draw):
    """``corr`` (one piece) and its collapse mapping after tampering ``how``."""
    piece = corr.pieces[0]
    ring = piece.ring
    if how == "extra relation":
        v = draw(st.sampled_from(ring.names))
        extra = ring.var(v) ** draw(st.integers(1, 2)) - ring.const(draw(st.integers(-2, 2)))
        return replace(corr, pieces=(replace(piece, relations=piece.relations + (extra,)),)), mapping
    if how == "edited leg":
        legs = draw(st.sampled_from([k for k in ("src_map", "tgt_map") if getattr(piece, k)]))
        items = list(getattr(piece, legs))
        i = draw(st.integers(0, len(items) - 1))
        bump = ring.var(draw(st.sampled_from(ring.names))) if draw(st.booleans()) else ring.one()
        items[i] = (items[i][0], items[i][1] + bump)
        return replace(corr, pieces=(replace(piece, **{legs: tuple(items)}),)), mapping
    if how == "extra variable":
        wider, _ = ring.adjoin(["z"])
        return _moved_piece(corr, mapping, wider, {})
    if how == "renamed ring":
        companions = {companion_name(v) for v in ring.inverted}
        v = draw(st.sampled_from([v for v in ring.names if v not in companions]))
        rename = {v: v + "9"}
        if v in ring.inverted:
            rename[companion_name(v)] = companion_name(v + "9")
        inverted = frozenset(rename.get(x, x) for x in ring.inverted)
        names = tuple(rename.get(x, x) for x in ring.names)
        return _moved_piece(corr, mapping, PolynomialRing(ring.field, names, inverted), rename)
    # reordered ring
    names = tuple(draw(st.permutations(ring.names)))
    return _moved_piece(corr, mapping, PolynomialRing(ring.field, names, ring.inverted), {})


def _compared(equal, *args):
    try:
        return equal(*args, Budget())
    except SpanError as err:
        return type(err).__name__, str(err)


TAMPERS = ["none", "extra relation", "edited leg", "extra variable", "renamed ring", "reordered ring"]


def unreduced(corr, mapping):
    """``corr`` collapsed through ``mapping``, its relations traded for a
    generating set of the same ideal that is no reduced basis."""
    piece = collapse_variables(corr, [mapping]).pieces[0]
    two = piece.ring.const(2)
    relations = tuple(two * r for r in piece.relations) + (sum(piece.relations, piece.ring.zero()),)
    return replace(corr, pieces=(replace(piece, relations=relations),))


@settings(max_examples=30, deadline=None)
@given(naturality_draws(), st.lists(st.sampled_from(TAMPERS), min_size=1, max_size=3), st.data())
def test_collapsed_comparison_matches_completing_both_sides(draw, tampers, data):
    """On both sides of gate-style draws, as built and with the right side
    tampered, ``collapsed_equal`` gives the verdict and detail of completing
    both collapsed sides again, and raises ``IncomparableSpans`` in the same
    cases.  So it does where one side has nothing to collapse and is
    presented by relations that are no reduced basis."""
    import flatspan.cancellation as cancellation
    from oracles import twice_completed_equal

    _, calls = recorded(cancellation, "collapsed_equal", lambda args, out: args[:4], draw)
    assert len(calls) == 2
    for left, left_collapse, right, right_collapse in calls:
        plain = unreduced(left, left_collapse)
        cases = [(plain, {}, right, right_collapse), (left, left_collapse, plain, {})]
        for how in tampers:
            if how != "none":
                right, right_collapse = tampered(right, right_collapse, how, data.draw)
            cases.append((left, left_collapse, right, right_collapse))
        for args in cases:
            want = _compared(twice_completed_equal, *args)
            assert _compared(cancellation.collapsed_equal, *args) == want


def _counting_completions(patch):
    """Count ``groebner_basis`` calls made through any module of the library."""
    import sys

    import flatspan.groebner

    original = flatspan.groebner.groebner_basis
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("flatspan") and getattr(module, "groebner_basis", None) is original:
            patch.setattr(module, "groebner_basis", counting)
    return calls


def test_compat_completes_three_times_fewer_than_completing_both_sides(monkeypatch):
    """One fixed draw: the target side no longer completes its collapsed
    left piece, and the source side neither of its two collapsed pieces."""
    import flatspan.cancellation as cancellation
    from oracles import twice_completed_equal

    draw = (double_triple_cover(), point_span("b^2 - 2", ["b"]), point_span("c^2", ["c"]), 2, 2, "+")
    calls = _counting_completions(monkeypatch)
    assert verify_compat(*draw).ok
    now = len(calls)
    calls.clear()
    monkeypatch.setattr(cancellation, "collapsed_equal", twice_completed_equal)
    assert verify_compat(*draw).ok
    assert (now, len(calls)) == (6, 9)


def test_compat_then_its_family_builds_alpha_parts_once(monkeypatch):
    """``verify_compat`` blends two composites around ``alpha``'s own family,
    and the kept parts still hold ``alpha``'s, with its one layout, when its
    family is certified again, as a passing check's certificate is."""
    import flatspan.cancellation as cancellation

    alpha = double_triple_cover()
    original_strip, original_layout = cancellation.strip_coordinates, cancellation.piece_over_base
    stripped, laid_out = [], []

    def counted(scheme, names):
        stripped.append(scheme)
        return original_strip(scheme, names)

    def laid(piece, base, ring=None):
        laid_out.append(piece)
        return original_layout(piece, base, ring)

    cancellation._family_parts.cache_clear()
    monkeypatch.setattr(cancellation, "strip_coordinates", counted)
    monkeypatch.setattr(cancellation, "piece_over_base", laid)
    report = verify_compat(alpha, point_span("b^2 - 2", ["b"]), point_span("c^2", ["c"]), 2, 3, "-")
    again = cancel_family(alpha, 2, 3, "-")
    assert again.certificate == report.family.certificate
    # the two composites' parts and alpha's, built once each, strip two
    # feet apiece; building alpha's twice would make 8
    assert len(stripped) == 6
    # alpha's one piece is laid out once for both certifications, and the
    # composites, which are only blended, never are
    assert len(laid_out) == 1
    info = cancellation._family_parts.cache_info()
    # the misses are the two composites and alpha; the hits are the family
    # span verify_compat composes and the second certification
    assert (info.hits, info.misses) == (2, 3)


# ---------------------------------------------------------------------------
# the end-to-end verifier


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_slice_identities_hold_from_level_two_up(n):
    report = verify_cancellation(n)
    assert report.ok, [c.name for c in report.failures()]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_slice_identities_hold_over_a_prime_field(n):
    report = verify_cancellation(n, GF(5))
    assert report.ok, [c.name for c in report.failures()]


def test_level_one_reports_the_degenerate_homotopy():
    report = verify_cancellation(1)
    assert not report.ok
    failing = [c.name for c in report.failures()]
    assert failing == ["homotopy-middle-free"]
    [bad] = report.failures()
    assert "not_finite" in bad.detail
    passing = [c.name for c in report.checks if c.ok]
    assert passing == [
        "unit-target-cuts-agree",
        "endpoint-zero-is-plus-cut",
        "endpoint-one-splits-origin",
        "plus-cut-misses-origin",
    ]


def test_verifier_reports_are_stable_in_shape():
    report = verify_cancellation(3)
    assert report.field_name == "QQ"
    assert [c.name for c in report.checks] == [
        "unit-target-cuts-agree",
        "homotopy-middle-free",
        "endpoint-zero-is-plus-cut",
        "endpoint-one-splits-origin",
        "plus-cut-misses-origin",
    ]
