"""Workspace document parsing, diagnostics, and canonical printing."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from flatspan.workspace import WorkspaceError, parse_workspace, print_workspace

WORKSPACE_DIR = Path(__file__).resolve().parent.parent / "workspaces"

MINIMAL = """\
field QQ
scheme G = torus t
"""

SPAN_DOC = """\
workspace demo
field QQ
scheme G = torus t
span idg : G -> G {
  piece {
    vars t, t_inv
    rels t*t_inv - 1
    source t: t, t_inv: t_inv
    target t: t, t_inv: t_inv
  }
}
check c1 = certify idg
"""


def test_minimal_document_declares_field_and_scheme():
    doc = parse_workspace(MINIMAL)
    assert doc.field_text == "QQ"
    assert list(doc.schemes) == ["G"]
    assert doc.schemes["G"].ring.names == ("t", "t_inv")


def test_span_document_builds_a_validated_correspondence():
    doc = parse_workspace(SPAN_DOC)
    corr = doc.spans["idg"]
    assert len(corr.pieces) == 1
    assert corr.source is doc.schemes["G"]
    (check,) = doc.checks
    assert (check.command, check.operands) == ("certify", ("idg",))


def test_comments_and_blank_lines_are_ignored():
    doc = parse_workspace("# header\n\nfield QQ  # trailing\n\nscheme G = torus t\n")
    assert "G" in doc.schemes


def test_prime_field_declaration():
    doc = parse_workspace("field Fp 5\nscheme G = torus t\n")
    assert doc.field_text == "Fp 5"
    assert doc.field.p == 5


def test_dangling_scheme_reference_is_diagnosed_with_its_name():
    with pytest.raises(WorkspaceError, match="'H'"):
        parse_workspace("field QQ\nscheme G = torus t\nscheme X = product G H\n")


def test_dangling_span_operand_is_diagnosed():
    with pytest.raises(WorkspaceError, match="unresolved span"):
        parse_workspace(MINIMAL + "check c = certify ghost\n")


def test_duplicate_name_is_rejected():
    text = MINIMAL + "scheme G = point\n"
    with pytest.raises(WorkspaceError, match="line 3"):
        parse_workspace(text)


def test_forward_references_are_rejected():
    text = "field QQ\nscheme X = product G H\nscheme G = torus t\nscheme H = torus u\n"
    with pytest.raises(WorkspaceError, match="line 2"):
        parse_workspace(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("field QQ\nscheme G = torus^0\n", "line 2: torus^0 needs at least one factor"),
        ("field Fp 1\nscheme G = torus t\n", "line 1: 1 is not prime"),
        ("# header\nfield Fp 6\n", "line 2: 6 is not prime"),
    ],
    ids=["torus-power-zero", "field-one", "field-composite"],
)
def test_bad_field_or_scheme_arguments_report_their_line(text, message):
    with pytest.raises(WorkspaceError, match=re.escape(message)):
        parse_workspace(text)


def test_field_must_come_first():
    with pytest.raises(WorkspaceError):
        parse_workspace("scheme G = torus t\nfield QQ\n")


def test_unknown_command_is_diagnosed():
    with pytest.raises(WorkspaceError, match="unknown command"):
        parse_workspace(MINIMAL + "check c = frobnicate G\n")


def test_missing_required_argument_is_diagnosed():
    doc_text = SPAN_DOC.replace("check c1 = certify idg", "check c1 = cancel idg m: 1")
    with pytest.raises(WorkspaceError, match="needs argument"):
        parse_workspace(doc_text)


def test_bad_polynomial_reports_line_number():
    broken = SPAN_DOC.replace("rels t*t_inv - 1", "rels t*t_inv -")
    with pytest.raises(WorkspaceError, match="line 7"):
        parse_workspace(broken)


def test_sign_argument_is_validated():
    doc_text = SPAN_DOC.replace(
        "check c1 = certify idg", "check c1 = cancel idg m: 1 n: 1 sign: x"
    )
    with pytest.raises(WorkspaceError, match="sign"):
        parse_workspace(doc_text)


def test_operand_count_is_enforced():
    doc_text = SPAN_DOC.replace("check c1 = certify idg", "check c1 = compose idg")
    with pytest.raises(WorkspaceError, match="takes 2"):
        parse_workspace(doc_text)


def test_piece_map_mismatch_points_at_the_span():
    broken = SPAN_DOC.replace("source t: t, t_inv: t_inv\n    ", "")
    with pytest.raises(WorkspaceError, match="piece maps"):
        parse_workspace(broken)


def test_check_arguments_are_canonicalized():
    doc_text = SPAN_DOC.replace(
        "check c1 = certify idg", "check c1 = cancel idg n: 2 sign: + m: 007"
    )
    doc = parse_workspace(doc_text)
    (check,) = doc.checks
    assert check.args == (("m", "7"), ("n", "2"), ("sign", "+"))


def test_polynomial_arguments_are_canonicalized():
    doc_text = SPAN_DOC.replace(
        "check c1 = certify idg", "check c1 = bound idg f: t_inv*t_inv +0"
    )
    doc = parse_workspace(doc_text)
    assert doc.checks[0].arg("f") == "t_inv^2"


def test_print_then_parse_is_identity_on_fresh_documents():
    doc = parse_workspace(SPAN_DOC)
    canonical = print_workspace(doc)
    assert print_workspace(parse_workspace(canonical)) == canonical


@pytest.mark.parametrize(
    "name",
    sorted(p.name for p in WORKSPACE_DIR.glob("*.fsw")),
)
def test_shipped_documents_are_in_canonical_form(name):
    text = (WORKSPACE_DIR / name).read_text(encoding="utf-8")
    assert print_workspace(parse_workspace(text)) == text


def test_at_least_five_documents_are_shipped():
    assert len(list(WORKSPACE_DIR.glob("*.fsw"))) >= 5
