"""Contraction of certified correspondences along interpolation data."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from pathlib import Path

import pytest

import flatspan
from flatspan.budget import Budget
from flatspan.cli import main
from flatspan.contraction import (
    ContractionError,
    _slice_chart,
    base_point_ideal,
    contract,
    standard_contraction_data,
    verify_contraction_endpoints,
)
from flatspan.fields import GF, QQ
from flatspan.groebner import ideals_equal
from flatspan.poly import PolynomialRing
from flatspan.reports import correspondence_to_json, outcome_to_json
from flatspan.schemes import affine_line, point, torus, torus_power
from flatspan.spans import (
    Correspondence,
    SpanPiece,
    add,
    identity_span,
    make_piece,
    validate_correspondence,
)
from oracles import chart_from_scratch, slice_from_scratch


def punctured_line():
    return torus(QQ, "t")


def rational_point(a):
    """The correspondence pt <- pt -> (A1 minus 0) hitting the value a."""
    target = punctured_line()
    ring = PolynomialRing(QQ, ())
    value = QQ.from_fraction(a, 1) if isinstance(a, int) else a
    images = {"t": ring.const(value), "t_inv": ring.const(QQ.inv(value))}
    piece = make_piece(ring, [], {}, images, point(QQ), target)
    return Correspondence(point(QQ), target, (piece,))


def sqrt_two_span():
    """Rank-2 span over a point whose middle adjoins a square root of 2."""
    target = punctured_line()
    ring = PolynomialRing(QQ, ("z",))
    z = ring.var("z")
    images = {"t": z, "t_inv": ring.const(Fraction(1, 2)) * z}
    piece = make_piece(ring, [z * z - ring.const(2)], {}, images, point(QQ), target)
    return Correspondence(point(QQ), target, (piece,))


def square_root_cover():
    """Rank-2 span over the punctured line taking square roots."""
    target = punctured_line()
    middle = torus(QQ, "w")
    ring = middle.ring
    w, wi = ring.var("w"), ring.var("w_inv")
    src = {"t": w * w, "t_inv": wi * wi}
    tgt = {"t": w, "t_inv": wi}
    piece = make_piece(ring, list(middle.relations), src, tgt, target, target)
    return Correspondence(target, target, (piece,))


def plane_point(a, b):
    target = torus_power(QQ, 2)
    ring = PolynomialRing(QQ, ())
    va = QQ.from_fraction(a, 1) if isinstance(a, int) else a
    vb = QQ.from_fraction(b, 1) if isinstance(b, int) else b
    images = {
        "t1": ring.const(va),
        "t1_inv": ring.const(QQ.inv(va)),
        "t2": ring.const(vb),
        "t2_inv": ring.const(QQ.inv(vb)),
    }
    piece = make_piece(ring, [], {}, images, point(QQ), target)
    return Correspondence(point(QQ), target, (piece,))


# ---------------------------------------------------------------------------
# interpolation data


def test_standard_data_on_one_coordinate():
    datum = standard_contraction_data(1)
    assert datum.primary == ("t",)
    assert str(datum.w) == "t*u - u + 1"
    assert str(datum.f_images["t"]) == "t*u - u + 1"
    assert str(datum.cofactors["t"]) == "1"


def test_standard_data_on_two_coordinates():
    datum = standard_contraction_data(2)
    assert datum.primary == ("t1", "t2")
    assert (
        str(datum.w)
        == "t1*t2*u^2 - t1*u^2 - t2*u^2 + t1*u + t2*u + u^2 - 2*u + 1"
    )


def test_standard_data_builds_for_small_ranks():
    for n in range(1, 5):
        datum = standard_contraction_data(n)
        assert len(datum.primary) == n
        assert datum.u_name == "u"
        assert set(datum.u_ring.names) == set(datum.scheme.ring.names) | {"u"}


def test_standard_data_rejects_zero_coordinates():
    with pytest.raises(ContractionError):
        standard_contraction_data(0)


def test_base_point_sits_at_one():
    datum = standard_contraction_data(1)
    assert [str(g) for g in base_point_ideal(datum)] == ["t - 1"]
    datum2 = standard_contraction_data(2)
    assert [str(g) for g in base_point_ideal(datum2)] == ["t1 - 1", "t2 - 1"]


def _broken(**fields):
    """The standard datum on one coordinate with ``fields`` replaced."""
    return replace(standard_contraction_data(1), **fields)


def _raises_on_check(datum, message):
    with pytest.raises(ContractionError, match=message):
        flatspan.contraction._check_datum(datum, Budget())


def test_weight_must_be_one_at_parameter_zero():
    uring = standard_contraction_data(1).u_ring
    _raises_on_check(_broken(w=uring.var("u") * uring.var("t")), "parameter 0")


def test_weight_must_be_a_unit_along_the_base_point():
    uring = standard_contraction_data(1).u_ring
    # one at parameter 0, but 1 - u at the base point
    _raises_on_check(_broken(w=uring.one() - uring.var("u")), "unit along the base point")


def test_flow_must_restore_coordinates_at_parameter_one():
    uring = standard_contraction_data(1).u_ring
    u, t = uring.var("u"), uring.var("t")
    _raises_on_check(_broken(f_images={"t": u * t * t + uring.one() - u}), "restore")


def test_flow_must_reach_the_base_point_at_parameter_zero():
    uring = standard_contraction_data(1).u_ring
    u, t = uring.var("u"), uring.var("t")
    # restores t at 1, but sits at 2 at parameter 0
    image = u * t + uring.const(2) * (uring.one() - u)
    _raises_on_check(_broken(f_images={"t": image}), "reach the base point in 't'")


def test_flow_must_fix_the_base_point():
    uring = standard_contraction_data(1).u_ring
    u, t = uring.var("u"), uring.var("t")
    # t at parameter 1 and 1 at parameter 0, but 1 - u + u^2 at the base point
    image = u * t + uring.one() - u + u * (u - uring.one())
    _raises_on_check(_broken(f_images={"t": image}), "moves the base point in 't'")


def test_cofactors_must_multiply_back_to_the_weight():
    uring = standard_contraction_data(1).u_ring
    _raises_on_check(_broken(cofactors={"t": uring.var("u")}), "cofactor")


@pytest.mark.parametrize("field", [QQ, GF(7), GF(101)], ids=["QQ", "GF7", "GF101"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_shared_standard_datum_charges_no_step(n, field):
    """Checking the standard datum's hypotheses spends nothing, which is
    what lets one checked datum per (n, field) serve every caller: no
    caller's budget misses a charge."""
    datum = standard_contraction_data(n, field)
    budget = Budget()
    flatspan.contraction._check_datum(datum, budget)
    assert budget.used == 0
    assert standard_contraction_data(n, field) is datum


def test_the_shared_standard_datum_is_read_only():
    datum = standard_contraction_data(1)
    for table in (datum.base_point, datum.f_images, datum.cofactors):
        with pytest.raises(TypeError):
            table["t"] = datum.w
    with pytest.raises(FrozenInstanceError):
        datum.w = datum.u_ring.one()
    assert str(datum.f_images["t"]) == "t*u - u + 1"


def test_a_run_builds_the_standard_datum_once(monkeypatch, tmp_path, capsys):
    """A document's ``contract`` and ``verify-contraction`` checks share one
    datum, built and checked once."""
    checked = []
    original = flatspan.contraction._check_datum

    def counted(datum, budget):
        checked.append(datum)
        return original(datum, budget)

    standard_contraction_data.cache_clear()
    monkeypatch.setattr(flatspan.contraction, "_check_datum", counted)
    doc = tmp_path / "on-base-point.fsw"
    doc.write_text(ON_BASE_POINT, encoding="utf-8")
    assert main(["run", str(doc)]) == 0
    capsys.readouterr()
    assert len(checked) == 1


# ---------------------------------------------------------------------------
# the avoided locus


def test_identity_contraction_locus():
    alpha = identity_span(punctured_line())
    datum = standard_contraction_data(1)
    result = contract(alpha, datum)
    assert [str(g) for g in result.source_ideal] == ["t*u - u + 1"]
    assert result.avoids_zero and result.avoids_one
    assert result.rank == 1
    assert len(result.charts) == 1
    assert result.charts[0].certificate.certified


def test_rational_point_two_locus():
    result = contract(rational_point(2), standard_contraction_data(1))
    assert [str(g) for g in result.source_ideal] == ["u + 1"]
    ring = result.source_ideal[0].ring
    u = ring.var("u")
    in_segment_form = QQ_const(ring, 2) * u + ring.one() - u
    assert ideals_equal(list(result.source_ideal), [in_segment_form])


def QQ_const(ring, a):
    return ring.const(QQ.from_fraction(a, 1) if isinstance(a, int) else a)


@pytest.mark.parametrize(
    "value, locus",
    [(3, "u + 1/2"), (Fraction(1, 2), "u - 2"), (-1, "u - 1/2")],
)
def test_other_rational_point_loci(value, locus):
    result = contract(rational_point(value), standard_contraction_data(1))
    assert [str(g) for g in result.source_ideal] == [locus]
    assert result.avoids_zero and result.avoids_one


def test_quadratic_point_locus():
    result = contract(sqrt_two_span(), standard_contraction_data(1))
    assert [str(g) for g in result.source_ideal] == ["u^2 + 2*u - 1"]
    ring = result.source_ideal[0].ring
    u = ring.var("u")
    one = ring.one()
    segment_form = ring.const(2) * u * u - (one - u) * (one - u)
    assert ideals_equal(list(result.source_ideal), [segment_form])
    assert result.rank == 2


def test_quadratic_chart_avoids_a_reciprocal_variable():
    result = contract(sqrt_two_span(), standard_contraction_data(1))
    assert result.charts[0].correspondence.pieces[0].ring.names == ("z", "u", "lg")
    assert result.charts[0].certificate.rank == 2


def test_square_root_cover_locus():
    result = contract(square_root_cover(), standard_contraction_data(1))
    assert [str(g) for g in result.source_ideal] == ["t*u^2 - u^2 + 2*u - 1"]
    assert result.rank == 2
    assert result.avoids_zero and result.avoids_one


def test_sum_of_points_shares_one_chart():
    pair = add(rational_point(2), rational_point(3))
    result = contract(pair, standard_contraction_data(1))
    assert [str(g) for g in result.source_ideal] == ["u^2 + 3/2*u + 1/2"]
    assert len(result.charts) == 1
    assert len(result.charts[0].correspondence.pieces) == 2
    assert result.rank == 2


def test_plane_point_locus():
    result = contract(plane_point(2, 3), standard_contraction_data(2))
    assert [str(g) for g in result.source_ideal] == ["u^2 + 3/2*u + 1/2"]
    assert result.rank == 1


def test_identity_on_the_square_pulls_back_the_weight():
    datum = standard_contraction_data(2)
    alpha = identity_span(datum.scheme)
    result = contract(alpha, datum)
    ring = result.source_ideal[0].ring
    assert ideals_equal(list(result.source_ideal), [datum.w.map_ring(ring)])
    assert result.rank == 1


def test_chain_reports_every_stage():
    result = contract(rational_point(2), standard_contraction_data(1))
    labels = [label for label, _ in result.chain]
    assert labels == [
        "weight-locus",
        "middle-pullback",
        "source-image",
        "complement-cover",
        "restricted-middle",
    ]
    stages = dict(result.chain)
    assert stages["source-image"] == result.source_ideal
    assert [str(g) for g in stages["middle-pullback"]] == ["u + 1"]


def test_contract_requires_a_certificate():
    target = punctured_line()
    ring = PolynomialRing(QQ, ("v",))
    images = {"t": ring.const(2), "t_inv": ring.const(Fraction(1, 2))}
    loose = Correspondence(
        point(QQ), target, (make_piece(ring, [], {}, images, point(QQ), target),)
    )
    with pytest.raises(ContractionError, match="certified"):
        contract(loose, standard_contraction_data(1))


def test_contract_requires_matching_target():
    with pytest.raises(ContractionError, match="target"):
        contract(identity_span(point(QQ)), standard_contraction_data(1))


TWO_UNITS = """\
workspace two-units
field QQ
scheme G = torus t
span w : G -> G {
  piece {
    vars t, t_inv, t2, t2_inv
    rels t*t_inv - 1, t2*t2_inv - 1, t2 - t
    source t: t, t_inv: t_inv
    target t: t2, t_inv: t2_inv
  }
}
check k = contract w
"""


def test_contract_report_does_not_depend_on_the_hash_seed(tmp_path):
    # the middle has two inverted variables, so renaming them in set order
    # would let the string hash seed pick the pulled-back weight's names
    path = tmp_path / "two-units.fsw"
    path.write_text(TWO_UNITS, encoding="utf-8")
    src = str(Path(flatspan.__file__).resolve().parent.parent)
    script = (
        "import sys; from flatspan.cli import main; "
        f"sys.exit(main(['run', {str(path)!r}, '--format', 'structured']))"
    )
    envelopes = []
    for seed in ("0", "3"):
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath)
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert run.returncode == 0, run.stderr
        envelope = json.loads(run.stdout)
        for report in envelope["reports"]:
            report.pop("timing_ms")
        envelopes.append(envelope)
    assert envelopes[0] == envelopes[1]


# ---------------------------------------------------------------------------
# endpoint dichotomy


def pool_member(name):
    if name == "identity":
        return identity_span(punctured_line())
    if name == "point-2":
        return rational_point(2)
    if name == "point-3":
        return rational_point(3)
    if name == "point-half":
        return rational_point(Fraction(1, 2))
    if name == "sqrt-two":
        return sqrt_two_span()
    if name == "cover":
        return square_root_cover()
    raise KeyError(name)


POOL = ["identity", "point-2", "point-3", "point-half", "sqrt-two", "cover"]


@pytest.mark.parametrize("name", POOL)
def test_endpoint_dichotomy_on_the_pool(name):
    alpha = pool_member(name)
    validate_correspondence(alpha)
    datum = standard_contraction_data(1)
    result = contract(alpha, datum)
    assert result.avoids_zero and result.avoids_one
    report = verify_contraction_endpoints(alpha, datum, result)
    assert report.dichotomy, report.detail
    assert report.identity_at == 1
    zero, one = report.slices
    assert zero.value == 0 and one.value == 1
    assert zero.lands_on_base_point and not zero.matches_input
    assert one.matches_input and not one.lands_on_base_point


def test_a_span_on_the_base_point_has_its_identity_at_one():
    # both endpoints reproduce the input, and endpoint 0 also lands on the
    # base point, so the dichotomy holds with the identity at 1
    alpha = rational_point(1)
    datum = standard_contraction_data(1)
    result = contract(alpha, datum)
    assert result.ok and result.rank == 1
    report = verify_contraction_endpoints(alpha, datum, result)
    assert (report.dichotomy, report.identity_at) == (True, 1), report.detail
    zero, one = report.slices
    assert zero.matches_input and zero.lands_on_base_point
    assert one.matches_input and one.lands_on_base_point


ON_BASE_POINT = """\
workspace on-base-point
field QQ
scheme G = torus t
scheme P = point
span one : P -> G {
  piece {
    target t: 1, t_inv: 1
  }
}
check k = contract one
check v = verify-contraction one
"""


def test_a_span_on_the_base_point_passes_verify_contraction(tmp_path, capsys):
    doc = tmp_path / "on-base-point.fsw"
    doc.write_text(ON_BASE_POINT, encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["run", str(doc), "--format", "structured", "--out", str(out)]) == 0
    reports = {r["name"]: r for r in json.loads(out.read_text(encoding="utf-8"))["reports"]}
    assert [reports[k]["verdict"] for k in ("k", "v")] == ["pass", "pass"]
    assert reports["v"]["data"]["identity-at"] == 1
    assert main(["run", str(doc), "--recheck", str(out)]) == 0
    capsys.readouterr()


def test_endpoint_report_names_the_base_point_ideal():
    alpha = rational_point(2)
    datum = standard_contraction_data(1)
    report = verify_contraction_endpoints(alpha, datum, contract(alpha, datum))
    assert [str(g) for g in report.base_point_ideal] == ["t - 1"]


def test_endpoints_on_a_sum_of_points():
    pair = add(rational_point(2), rational_point(3))
    datum = standard_contraction_data(1)
    report = verify_contraction_endpoints(pair, datum, contract(pair, datum))
    assert report.dichotomy
    assert report.identity_at == 1


def test_endpoints_on_the_square():
    alpha = plane_point(2, 3)
    datum = standard_contraction_data(2)
    report = verify_contraction_endpoints(alpha, datum, contract(alpha, datum))
    assert report.dichotomy
    assert report.identity_at == 1


def test_cover_endpoint_uses_a_localized_comparison():
    # at parameter 1 the chart function specializes to t, which is not a
    # unit constant, so the slice is compared over the localized source
    alpha = square_root_cover()
    datum = standard_contraction_data(1)
    result = contract(alpha, datum)
    chart = result.charts[0]
    at_one = chart.generator.substitute(
        {"u": chart.generator.ring.const(1)}, chart.generator.ring
    )
    assert not at_one.is_constant()
    report = verify_contraction_endpoints(alpha, datum, result)
    assert report.dichotomy
    assert report.identity_at == 1


# ---------------------------------------------------------------------------
# frozen chart and slice presentations


def empty_middle():
    """Identity legs on G over a middle whose relations generate the unit
    ideal; the chart piece is the zero ring, so the pulled weight has no
    inverse to rewrite and zero stands in for it."""
    target = punctured_line()
    ring = target.ring
    t, ti = ring.var("t"), ring.var("t_inv")
    ident = {"t": t, "t_inv": ti}
    piece = make_piece(ring, [t * ti - ring.one(), ring.one()], ident, ident, target, target)
    return Correspondence(target, target, (piece,))


def presentation(corr):
    # zero relations are inert (every Groebner call drops them), so they
    # are left out of the comparison
    return [
        (
            piece.ring.names,
            sorted(piece.ring.inverted),
            [str(r) for r in piece.relations if not r.is_zero()],
            {k: str(v) for k, v in piece.src_map},
            {k: str(v) for k, v in piece.tgt_map},
        )
        for piece in corr.pieces
    ]


FROZEN = {
    "empty": (
        [
            (
                ("t", "t_inv", "u", "lg"),
                ["t"],
                ["t*t_inv - 1", "1", "lg - 1"],
                {"t": "t", "t_inv": "t_inv", "u": "u", "lg": "lg"},
                {"t": "t*u - u + 1", "t_inv": "0"},
            )
        ],
        [
            (("t", "t_inv"), ["t"], ["t*t_inv - 1", "1"], {"t": "t", "t_inv": "t_inv"}, {"t": "1", "t_inv": "0"}),
            (("t", "t_inv"), ["t"], ["t*t_inv - 1", "1"], {"t": "t", "t_inv": "t_inv"}, {"t": "t", "t_inv": "0"}),
        ],
        (True, True, True, True),
    ),
    "identity": (
        [
            (
                ("t", "t_inv", "u", "lg"),
                ["t"],
                ["t*t_inv - 1", "t*u*lg - u*lg + lg - 1"],
                {"t": "t", "t_inv": "t_inv", "u": "u", "lg": "lg"},
                {"t": "t*u - u + 1", "t_inv": "lg"},
            )
        ],
        [
            (
                ("t", "t_inv"),
                ["t"],
                ["t*t_inv - 1"],
                {"t": "t", "t_inv": "t_inv"},
                {"t": "1", "t_inv": "1"},
            ),
            # the chart function specializes to t at parameter 1, so this
            # slice lives over the source localized at t
            (
                ("t", "t_inv", "lg"),
                ["t"],
                ["t*t_inv - 1", "t*lg - 1"],
                {"t": "t", "t_inv": "t_inv", "lg": "lg"},
                {"t": "t", "t_inv": "lg"},
            ),
        ],
        (False, True, True, False),
    ),
    "point-2": (
        [(("u", "lg"), [], ["u*lg + lg - 1"], {"u": "u", "lg": "lg"}, {"t": "u + 1", "t_inv": "lg"})],
        [
            ((), [], [], {}, {"t": "1", "t_inv": "1"}),
            ((), [], [], {}, {"t": "2", "t_inv": "1/2"}),
        ],
        (False, True, True, False),
    ),
    "sqrt-two": (
        [
            (
                ("z", "u", "lg"),
                [],
                ["z^2 - 2", "u^2*lg + 2*u*lg - lg - 1"],
                {"u": "u", "lg": "lg"},
                {"t": "z*u - u + 1", "t_inv": "z*u*lg + u*lg - lg"},
            )
        ],
        [
            (("z",), [], ["z^2 - 2"], {}, {"t": "1", "t_inv": "1"}),
            (("z",), [], ["z^2 - 2"], {}, {"t": "z", "t_inv": "1/2*z"}),
        ],
        (False, True, True, False),
    ),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_chart_and_slice_presentations_are_frozen(monkeypatch, name):
    alpha = empty_middle() if name == "empty" else pool_member(name)
    datum = standard_contraction_data(1)
    result = contract(alpha, datum)
    charts, slices, roles = FROZEN[name]
    assert len(result.charts) == 1
    assert presentation(result.charts[0].correspondence) == charts

    seen = []
    lands = flatspan.contraction._lands_on_base_point

    def spy(sliced, datum, budget):
        seen.append(sliced)
        return lands(sliced, datum, budget)

    monkeypatch.setattr(flatspan.contraction, "_lands_on_base_point", spy)
    report = verify_contraction_endpoints(alpha, datum, result)
    assert [presentation(s)[0] for s in seen] == slices
    zero, one = report.slices
    assert (zero.matches_input, zero.lands_on_base_point, one.matches_input, one.lands_on_base_point) == roles


# ---------------------------------------------------------------------------
# chart legs


def empty_point(a):
    """A piece over the point whose relations generate the unit ideal, with
    target legs at the value a."""
    target = punctured_line()
    ring = PolynomialRing(QQ, ())
    value = QQ.from_int(a)
    images = {"t": ring.const(value), "t_inv": ring.const(QQ.inv(value))}
    piece = make_piece(ring, [ring.one()], {}, images, point(QQ), target)
    return Correspondence(point(QQ), target, (piece,))


@pytest.mark.parametrize("name", POOL + ["empty", "point-2-plus-empty"])
def test_chart_legs_respect_both_schemes(name):
    if name == "empty":
        alpha = empty_middle()
    elif name == "point-2-plus-empty":
        alpha = add(rational_point(2), empty_point(3))
    else:
        alpha = pool_member(name)
    result = contract(alpha, standard_contraction_data(1))
    assert result.charts
    for chart in result.charts:
        validate_correspondence(chart.correspondence)


def test_a_chart_builds_each_piece_once(monkeypatch):
    """Each chart piece is made once, with the flowed target legs: the
    input's own target legs are never moved onto the chart only to be
    replaced."""
    import flatspan.contraction as contraction

    made, building = [], []
    init, build, certify = SpanPiece.__init__, contraction._build_chart, contraction.certify_finite_flat

    def counted_init(self, *args, **kwargs):
        if building:
            made.append(self)
        init(self, *args, **kwargs)

    def counted_build(lined, *args):
        building.append(lined)
        return build(lined, *args)

    def certify_unwatched(corr, budget=None):
        building.clear()
        return certify(corr, budget=budget)

    monkeypatch.setattr(SpanPiece, "__init__", counted_init)
    monkeypatch.setattr(contraction, "_build_chart", counted_build)
    monkeypatch.setattr(contraction, "certify_finite_flat", certify_unwatched)
    result = contract(add(rational_point(2), sqrt_two_span()), standard_contraction_data(1))
    assert result.charts
    assert len(made) == 2 * len(result.charts)


@pytest.mark.parametrize(
    "alpha, rank, dichotomy, identity_at",
    [
        (empty_middle(), 0, True, 1),
        (add(rational_point(2), empty_point(3)), 1, True, 1),
    ],
    ids=["empty", "point-2-plus-empty"],
)
def test_empty_pieces_keep_their_verdicts(alpha, rank, dichotomy, identity_at):
    datum = standard_contraction_data(1)
    result = contract(alpha, datum)
    assert result.ok and result.rank == rank
    report = verify_contraction_endpoints(alpha, datum, result)
    assert (report.dichotomy, report.identity_at) == (dichotomy, identity_at)


# ---------------------------------------------------------------------------
# charts and slices against a one-step construction


def line_named_lg():
    """The identity of the line in ``lg`` with its target at ``t = 2``, so
    the source crossed with the parameter line has a coordinate ``lg``."""
    ring = PolynomialRing(QQ, ("y",))
    images = {"t": ring.const(QQ.from_int(2)), "t_inv": ring.const(QQ.from_fraction(1, 2))}
    source = affine_line(QQ, "lg")
    piece = make_piece(ring, [], {"lg": ring.var("y")}, images, source, punctured_line())
    return Correspondence(source, punctured_line(), (piece,))


COMPARED = {
    **{name: (pool_member, 1) for name in POOL},
    "empty": (lambda _: empty_middle(), 1),
    "sum-of-points": (lambda _: add(rational_point(2), rational_point(3)), 1),
    "point-2-plus-empty": (lambda _: add(rational_point(2), empty_point(3)), 1),
    "plane-point": (lambda _: plane_point(2, 3), 2),
    "square-identity": (lambda _: identity_span(torus_power(QQ, 2)), 2),
}


def test_charts_and_slices_match_the_one_step_construction():
    """Every chart, endpoint slice and base-changed input equals, as JSON,
    the one built piece by piece in a single step, over one- and
    two-coordinate targets and multi-piece spans, at constant and at
    localized endpoint functions."""
    paths = set()
    for name, (make, n) in COMPARED.items():
        alpha, datum = make(name), standard_contraction_data(n)
        result = contract(alpha, datum)
        assert result.charts, name
        for chart in result.charts:
            ref = chart_from_scratch(alpha, datum, chart.generator, result.u_name)
            assert correspondence_to_json(chart.correspondence) == correspondence_to_json(
                ref.correspondence
            ), name
            assert outcome_to_json(chart.certificate) == outcome_to_json(ref.certificate), name
            assert (chart.u_names, chart.loc_names) == (ref.u_names, ref.loc_names), name
            for value in (0, 1):
                got = _slice_chart(chart, value, alpha, datum)
                want = slice_from_scratch(chart, value, alpha, datum)
                assert [correspondence_to_json(c) for c in got] == [
                    correspondence_to_json(c) for c in want
                ], (name, value)
                paths.add(got[1] is alpha)
    assert paths == {True, False}  # constant and localized endpoint functions


def test_a_chart_reciprocal_is_named_after_the_localized_coordinate():
    """When the source crossed with the parameter line already has an
    ``lg``, the chart's reciprocal takes the localized source's fresh name
    ``lg2``, as an endpoint slice's does; verdict and rank are those of the
    chart that names it ``lg``."""
    alpha, datum = line_named_lg(), standard_contraction_data(1)
    result = contract(alpha, datum)
    assert result.ok and result.rank == 1
    (chart,) = result.charts
    ref = chart_from_scratch(alpha, datum, chart.generator, result.u_name)
    new, old = chart.correspondence.pieces[0], ref.correspondence.pieces[0]
    assert chart.correspondence.source.ring.names == ("lg", "u", "lg2")
    assert (new.ring.names, old.ring.names) == (("y", "u", "lg2"), ("y", "u", "lg"))
    assert (chart.loc_names, ref.loc_names) == (("lg2",), ("lg",))
    rename = {"lg": "lg2"}
    assert [r.map_ring(new.ring, rename) for r in old.relations] == list(new.relations)
    for mine, theirs in ((new.src_map, old.src_map), (new.tgt_map, old.tgt_map)):
        assert mine == tuple((k, p.map_ring(new.ring, rename)) for k, p in theirs)
    assert chart.certificate.status == ref.certificate.status == "certified"
    assert chart.certificate.rank == ref.certificate.rank == 1
    report = verify_contraction_endpoints(alpha, datum, result)
    assert (report.dichotomy, report.identity_at) == (True, 1), report.detail
