"""Serialization and re-validation of verification reports."""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from flatspan.budget import BudgetExhausted
from flatspan.cancellation import flatness_bound, torus_identity
from flatspan.fields import GF, QQ
from flatspan.polyparse import parse_polynomial
from flatspan.reports import (
    EXIT_CODES,
    Report,
    ReportError,
    block_from_json,
    bound_block,
    bound_data,
    certificate_from_json,
    certificate_to_json,
    correspondence_from_json,
    correspondence_to_json,
    envelope_json,
    finite_flat_block,
    input_digest,
    load_envelope,
    outcome_from_json,
    outcome_to_json,
    recheck_envelope,
    render_text,
)
from flatspan.schemes import torus
from flatspan.spans import add, certify_finite_flat, graph_span, identity_span


def square_pair(field=QQ):
    """Identity plus the squaring graph on the punctured line; rank 2."""
    G = torus(field, "t")
    images = {
        "t": parse_polynomial("t^2", G.ring),
        "t_inv": parse_polynomial("t_inv^2", G.ring),
    }
    return add(identity_span(G), graph_span(G, G, images))


def roundtrip(value, to_json, from_json):
    return from_json(json.loads(json.dumps(to_json(value))))


def test_correspondence_survives_json_roundtrip():
    alpha = square_pair()
    assert roundtrip(alpha, correspondence_to_json, correspondence_from_json) == alpha


def test_certified_outcome_survives_json_roundtrip():
    alpha = square_pair()
    outcome = certify_finite_flat(alpha)
    assert outcome.certified
    assert roundtrip(outcome, outcome_to_json, outcome_from_json) == outcome


def test_certificate_matrices_keep_their_base_ring():
    alpha = square_pair(GF(5))
    cert = certify_finite_flat(alpha).pieces[0]
    back = certificate_from_json(json.loads(json.dumps(certificate_to_json(cert))))
    assert back == cert
    (_, rows) = back.matrices[0]
    assert rows[0][0].ring.names == alpha.source.ring.names


def test_malformed_polynomial_in_stored_report_is_reported():
    alpha = square_pair()
    data = correspondence_to_json(alpha)
    data["pieces"][0]["relations"][0] = "t*("
    with pytest.raises(ReportError, match="does not parse"):
        correspondence_from_json(data)


def test_finite_flat_block_rechecks_green():
    alpha = square_pair()
    outcome = certify_finite_flat(alpha)
    report = Report("c", "certify", ("a",), {}, "pass", certificates=[
        finite_flat_block(alpha, outcome)
    ])
    payload = json.loads(json.dumps(envelope_json([report], input_digest("x"))))
    ok, messages = recheck_envelope(payload)
    assert ok, messages


def test_recheck_without_a_limit_gives_each_block_one_budget(monkeypatch):
    import flatspan.reports as reports
    from flatspan.budget import DEFAULT_STEPS, Budget

    seen = []

    def recording(corr, outcome, budget=None):
        seen.append(budget)
        return True

    monkeypatch.setattr(reports, "recheck_certificate", recording)
    alpha = square_pair()
    block = finite_flat_block(alpha, certify_finite_flat(alpha))
    report = Report("c", "certify", ("a",), {"rank": 2}, "pass", certificates=[block])
    payload = json.loads(json.dumps(envelope_json([report], input_digest("x"))))
    ok, messages = recheck_envelope(payload)
    assert ok, messages
    [budget] = seen
    assert isinstance(budget, Budget) and budget.limit == DEFAULT_STEPS


def test_tampered_basis_is_caught_by_recheck():
    alpha = square_pair()
    outcome = certify_finite_flat(alpha)
    report = Report("c", "certify", ("a",), {}, "pass", certificates=[
        finite_flat_block(alpha, outcome)
    ])
    payload = json.loads(json.dumps(envelope_json([report], input_digest("x"))))
    block = payload["reports"][0]["certificates"][0]
    block["outcome"]["pieces"][0]["basis"][0] = "t - 7"
    ok, messages = recheck_envelope(payload)
    assert not ok
    assert any("fails re-validation" in m for m in messages)


def test_tampered_staircase_is_caught_by_recheck():
    alpha = square_pair()
    outcome = certify_finite_flat(alpha)
    report = Report("c", "certify", ("a",), {}, "pass", certificates=[
        finite_flat_block(alpha, outcome)
    ])
    payload = json.loads(json.dumps(envelope_json([report], input_digest("x"))))
    block = payload["reports"][0]["certificates"][0]
    block["outcome"]["pieces"][0]["staircase"].append([9])
    ok, _ = recheck_envelope(payload)
    assert not ok


def test_bound_block_roundtrips_and_rechecks():
    ident = torus_identity(QQ)
    f = parse_polynomial("t*t_inv^2", ident.pieces[0].ring)
    rep = flatness_bound(ident, f)
    assert rep.n_bound == 1
    # a bound pass carries the finite-flat certificate its bound is read
    # from, and the data the check writes of the bound
    blocks = [finite_flat_block(ident, certify_finite_flat(ident)), bound_block(rep)]
    report = Report(
        "b", "bound", ("a",), {"f": "t*t_inv^2"}, "pass", data=bound_data(rep), certificates=blocks
    )
    payload = json.loads(json.dumps(envelope_json([report], input_digest("x"))))
    ok, messages = recheck_envelope(payload)
    assert ok, messages


def test_bound_block_with_wrong_valuation_is_caught():
    ident = torus_identity(QQ)
    f = parse_polynomial("t*t_inv^2", ident.pieces[0].ring)
    rep = flatness_bound(ident, f)
    report = Report("b", "bound", ("a",), {}, "pass", certificates=[bound_block(rep)])
    payload = json.loads(json.dumps(envelope_json([report], input_digest("x"))))
    payload["reports"][0]["certificates"][0]["entries"][0]["valuation"] = 3
    ok, messages = recheck_envelope(payload)
    assert not ok
    assert any("recomputed -1" in m for m in messages)


def test_a_bound_block_without_entries_names_no_ring():
    """A bound with no entries is written with a null ring, so a stored ring
    there is no block a check could have written."""
    ident = torus_identity(QQ)
    block = bound_block(flatness_bound(ident, ident.pieces[0].ring.zero()))
    assert (block["ring"], block["entries"]) == (None, [])
    block["ring"] = {"field": "Fp:5", "names": ["q"], "inverted": []}
    with pytest.raises(ReportError, match="stored ring .* is not None"):
        block_from_json(block)


def test_exit_codes_follow_verdicts_exactly():
    assert EXIT_CODES == {"pass": 0, "fail": 1, "error": 2, "inconclusive": 3}
    for verdict, code in EXIT_CODES.items():
        assert Report("r", "certify", (), {}, verdict).exit_code == code


def test_envelope_exit_code_is_the_maximum_report_code():
    reports = [
        Report("a", "certify", (), {}, "pass"),
        Report("b", "certify", (), {}, "fail"),
    ]
    assert envelope_json(reports, input_digest(""))["exit_code"] == 1


def test_mismatched_exit_code_is_flagged():
    payload = envelope_json([Report("a", "certify", (), {}, "fail")], input_digest(""))
    payload["reports"][0]["exit_code"] = 0
    ok, messages = recheck_envelope(payload)
    assert not ok
    assert any("does not follow" in m for m in messages)


def test_digest_comparison_against_workspace_text():
    payload = envelope_json([], input_digest("canonical text"))
    ok, _ = recheck_envelope(payload, workspace_text="canonical text")
    assert ok
    ok, messages = recheck_envelope(payload, workspace_text="different")
    assert not ok
    assert any("digest" in m for m in messages)


def test_unknown_certificate_kind_is_rejected():
    report = Report("a", "certify", (), {}, "pass", certificates=[{"kind": "magic"}])
    ok, messages = recheck_envelope(envelope_json([report], input_digest("")))
    assert not ok
    assert any("unknown certificate kind" in m for m in messages)


def test_load_envelope_rejects_bad_json():
    with pytest.raises(ReportError, match="valid JSON"):
        load_envelope("{nope")
    with pytest.raises(ReportError, match="JSON object"):
        load_envelope("[1, 2]")


def test_render_text_leads_with_verdict_and_name():
    report = Report("c1", "certify", ("alpha",), {}, "pass",
                    detail="finite free of rank 2", timing_ms=3,
                    data={"rank": 2, "witness": ["x - 1"]})
    text = render_text(report)
    assert text.splitlines()[0] == "[pass] c1 certify alpha -- finite free of rank 2 (3 ms)"
    assert "    rank: 2" in text
    assert "    witness: x - 1" in text


def test_render_text_skips_nested_machine_payload():
    alpha = square_pair()
    report = Report("c", "compose", ("a", "b"), {}, "pass",
                    data={"result": correspondence_to_json(alpha), "pieces": 2})
    text = render_text(report)
    assert "result" not in text
    assert "pieces: 2" in text


def test_input_digest_is_prefixed_sha256():
    digest = input_digest("abc")
    assert digest.startswith("sha256:")
    assert len(digest) == len("sha256:") + 64


@lru_cache(maxsize=1)
def _shipped_envelopes() -> tuple[tuple[str, str], ...]:
    """The canonical text and the JSON envelope of each shipped workspace."""
    from flatspan.cli import execute_check
    from flatspan.workspace import parse_workspace, print_workspace

    found = []
    for path in sorted((Path(__file__).resolve().parent.parent / "workspaces").glob("*.fsw")):
        doc = parse_workspace(path.read_text(encoding="utf-8"))
        canonical = print_workspace(doc)
        reports = [execute_check(doc, req) for req in doc.checks]
        found.append((canonical, json.dumps(envelope_json(reports, input_digest(canonical)))))
    return tuple(found)


def _paths(node, path=()):
    """The path of every value inside ``node`` but a report's timing."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        if key != "timing_ms":
            yield path + (key,)
            yield from _paths(value, path + (key,))


def _tampered(value):
    """One edit of a stored value: an integer moved by -1, +1 or +2, a text
    with a term, a factor, an exponent or a letter appended, a list
    emptied, or any value replaced by null, a string, an int, [] or {}."""
    replaced = st.sampled_from([None, "x", 7, [], {}])
    if isinstance(value, int):
        return st.one_of(st.sampled_from([value - 1, value + 1, value + 2]), replaced)
    if isinstance(value, str):
        return st.one_of(st.sampled_from([value + s for s in (" + 1", "*2", "^2", "x")]), replaced)
    if isinstance(value, list):
        return st.one_of(st.just([]), replaced)
    return replaced


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_recheck_of_a_tampered_envelope_agrees_finds_or_runs_out(data):
    """Recheck of a shipped envelope with one value edited returns agreement
    or findings, or runs out of budget; any other exception is a bug."""
    canonical, text = data.draw(st.sampled_from(_shipped_envelopes()))
    payload = json.loads(text)
    *path, key = data.draw(st.sampled_from(list(_paths(payload))))
    parent = payload
    for step in path:
        parent = parent[step]
    parent[key] = data.draw(_tampered(parent[key]))
    workspace_text = data.draw(st.sampled_from([canonical, None]))
    try:
        ok, messages = recheck_envelope(payload, workspace_text=workspace_text, budget_limit=10**5)
    except BudgetExhausted:
        return
    assert messages and ok == (len(messages) == 1 and messages[0].endswith(" report(s) agree"))
