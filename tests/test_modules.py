"""Staircase module classification and Fitting-ideal checks."""

from __future__ import annotations

from flatspan.fields import GF, QQ
from flatspan.modules import (
    ModulePresentation,
    analyze_module,
    fitting_ideal,
    multiplication_matrix,
    staircase_labels,
)
from flatspan.groebner import is_unit_ideal
from flatspan.poly import PolynomialRing
from flatspan.polyparse import parse_polynomial


def ring_of(names, field=QQ, inverted=()):
    return PolynomialRing(field, tuple(names), frozenset(inverted))


def locally_free_of_rank(pres, r):
    """Fitting criterion: locally free of constant rank r iff
    Fitt_{r-1} = 0 and Fitt_r = (1)."""
    return fitting_ideal(pres, r - 1) == [] and is_unit_ideal(fitting_ideal(pres, r))


def test_square_root_cover_is_free_rank_two():
    ring = ring_of(["t", "x"])
    base = ring_of(["x"])
    rel = parse_polynomial("t^2 - x", ring)
    out = analyze_module(ring, 1, [rel], base, [])
    assert out.status == "certified"
    cert = out.pieces[0]
    assert cert.staircase == ((0,), (1,))
    assert staircase_labels(cert.ring.names[: cert.split], cert.staircase) == ("1", "t")
    mt = dict(cert.matrices)["t"]
    x = base.var("x")
    assert mt == ((base.zero(), base.one()), (x, base.zero()))


def test_unit_circle_of_order_eight_is_rank_four_over_the_point():
    ring = ring_of(["t", "t_inv"], inverted=["t"])
    base = ring_of([])
    rels = [
        parse_polynomial("t*t_inv - 1", ring),
        parse_polynomial("t^4 + 1", ring),
    ]
    out = analyze_module(ring, 2, rels, base, [])
    assert out.status == "certified"
    assert out.rank == 4
    cert = out.pieces[0]
    labels = staircase_labels(cert.ring.names[: cert.split], cert.staircase)
    assert labels == ("1", "t_inv", "t", "t_inv^2")
    lead_monomials = sorted(str(g) for g in cert.groebner)
    assert lead_monomials == ["t*t_inv - 1", "t^2 + t_inv^2", "t_inv^3 + t"]


def test_point_on_the_line_is_torsion():
    base = ring_of(["x"])
    rel = parse_polynomial("x - 1", base)
    out = analyze_module(base, 0, [rel], base, [])
    assert out.status == "not_locally_free"
    assert out.witness == (rel,)


def test_glued_point_over_the_line_is_torsion():
    ring = ring_of(["t", "x"])
    base = ring_of(["x"])
    rels = [parse_polynomial("t - 1", ring), parse_polynomial("x*t", ring)]
    out = analyze_module(ring, 1, rels, base, [])
    assert out.status == "not_locally_free"
    assert [str(w) for w in out.witness] == ["x"]


def test_pencil_degenerating_at_minus_one_is_not_finite():
    # (1+s)*t + (1-s): generically one root, but the fiber at s = -1 is empty
    ring = ring_of(["t", "s"])
    base = ring_of(["s"])
    rel = parse_polynomial("s*t + t - s + 1", ring)
    out = analyze_module(ring, 1, [rel], base, [])
    assert out.status == "not_finite"
    assert out.detail == "no monomial bound in direction t"


def test_inverted_coordinate_without_unit_relation_is_not_finite():
    ring = ring_of(["t", "x"])
    base = ring_of(["x"])
    rel = parse_polynomial("x*t - 1", ring)
    out = analyze_module(ring, 1, [rel], base, [])
    assert out.status == "not_finite"


def test_mixed_leading_terms_stay_inconclusive():
    ring = ring_of(["t", "x"])
    base = ring_of(["x"])
    rels = [parse_polynomial("t^3", ring), parse_polynomial("x*t^2", ring)]
    out = analyze_module(ring, 1, rels, base, [])
    assert out.status == "inconclusive"


def test_empty_scheme_is_the_zero_module():
    ring = ring_of(["t", "x"])
    base = ring_of(["x"])
    rels = [parse_polynomial("t", ring), parse_polynomial("t - 1", ring)]
    out = analyze_module(ring, 1, rels, base, [])
    assert out.status == "certified"
    assert out.rank == 0


def test_monic_quadratic_with_parameter():
    ring = ring_of(["t", "s"])
    base = ring_of(["s"])
    rel = parse_polynomial("t^2 + t*s + 1 - s", ring)
    out = analyze_module(ring, 1, [rel], base, [])
    assert out.status == "certified"
    assert out.rank == 2
    mt = dict(out.pieces[0].matrices)["t"]
    s = base.var("s")
    assert mt[0] == (base.zero(), base.one())
    assert mt[1] == (s - base.one(), -s)


def test_multiplication_matrix_of_general_element():
    ring = ring_of(["t", "x"])
    base = ring_of(["x"])
    rel = parse_polynomial("t^2 - x", ring)
    out = analyze_module(ring, 1, [rel], base, [])
    elt = parse_polynomial("t + 3", ring)
    mat = multiplication_matrix(out.pieces[0], elt)
    three = base.const(3)
    x = base.var("x")
    assert mat == ((three, base.one()), (x, three))


def test_mod_p_analysis_matches_characteristic():
    F5 = GF(5)
    ring = ring_of(["t", "x"], field=F5)
    base = ring_of(["x"], field=F5)
    rel = parse_polynomial("t^5 - x", ring)
    out = analyze_module(ring, 1, [rel], base, [])
    assert out.status == "certified"
    assert out.rank == 5


def test_fitting_ideals_of_a_free_presentation():
    base = ring_of(["x"])
    pres = ModulePresentation(base, ("a", "b"), ())
    assert fitting_ideal(pres, 2) == [base.one()]
    assert fitting_ideal(pres, 1) == []
    assert locally_free_of_rank(pres, 2)
    assert not locally_free_of_rank(pres, 1)


def test_fitting_ideals_of_a_diagonal_matrix():
    base = ring_of(["x"])
    x = base.var("x")
    pres = ModulePresentation(base, ("a", "b"), ((x, base.zero()), (base.zero(), x)))
    assert [str(g) for g in fitting_ideal(pres, 0)] == ["x^2"]
    assert [str(g) for g in fitting_ideal(pres, 1)] == ["x"]
    assert is_unit_ideal(fitting_ideal(pres, 2))
    assert not any(locally_free_of_rank(pres, r) for r in (0, 1, 2))


def test_free_analysis_round_trips_through_fitting_criterion():
    ring = ring_of(["t", "s"])
    base = ring_of(["s"])
    rel = parse_polynomial("t^3 + s*t + s^2 - 4", ring)
    out = analyze_module(ring, 1, [rel], base, [])
    assert out.status == "certified" and out.rank == 3
    pres = ModulePresentation(base, out.pieces[0].labels, ())
    assert locally_free_of_rank(pres, 3)
    assert not locally_free_of_rank(pres, 2)


def test_the_base_basis_is_packed_only_for_a_torsion_test(monkeypatch):
    """``classify_basis`` builds a division table of the base basis only
    when a base-only element needs the torsion test."""
    import flatspan.modules as modules

    original = modules.DivisorTable
    rings = []

    def counted(ring, *args):
        rings.append(ring)
        return original(ring, *args)

    monkeypatch.setattr(modules, "DivisorTable", counted)
    ring, base = ring_of(["t", "x"]), ring_of(["x"])
    free = analyze_module(ring, 1, [parse_polynomial("t^2 - x", ring)], base, [])
    assert free.status == "certified" and rings == [ring]
    rings.clear()
    torsion = [parse_polynomial("t - 1", ring), parse_polynomial("x", ring)]
    out = analyze_module(ring, 1, torsion, base, [])
    assert out.status == "not_locally_free" and rings == [ring, base]
