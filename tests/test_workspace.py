"""Workspace document parsing, diagnostics, and canonical printing."""

from __future__ import annotations

import re
import time
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
        # a strong pseudoprime to the bases 2, 3, 5 and 7
        ("field Fp 3215031751\n", "line 1: 3215031751 is not prime"),
        (
            "field Fp 3317044064679887385961981\n",
            "line 1: 3317044064679887385961981 is too large; a prime field needs p below "
            "3317044064679887385961981",
        ),
        ("field Fp " + "7" * 5000 + "\n", "line 1: " + "7" * 5000 + " is too large"),
    ],
    ids=[
        "torus-power-zero",
        "field-one",
        "field-composite",
        "field-pseudoprime",
        "field-huge",
        "field-past-int-parsing",
    ],
)
def test_bad_field_or_scheme_arguments_report_their_line(text, message):
    with pytest.raises(WorkspaceError, match=re.escape(message)):
        parse_workspace(text)


@pytest.mark.parametrize(
    "text",
    ["field Fp 2305843009213693951\n", "field QQ\nscheme G = torus^200\n"],
    ids=["mersenne-61", "torus-200"],
)
def test_large_fields_and_torus_powers_parse_quickly(text):
    start = time.perf_counter()
    doc = parse_workspace(text)
    assert time.perf_counter() - start < 1.0
    assert print_workspace(doc) == text


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


LINE_DOC = """\
field QQ
scheme L = line x
span f : L -> L {
  piece {
    vars x
    source x: x
    target x: x
  }
}
"""


@pytest.mark.parametrize(
    "old, new, message",
    [
        (
            "source x: x",
            "source x: x, bogus: 2*x",
            "line 4: piece maps do not match the feet: "
            "source map names 'bogus', not a coordinate of its foot",
        ),
        ("source x: x", "source x: 2*x, x: x", "line 6: duplicate source entry for 'x'"),
        (
            "    target x: x\n",
            "",
            "line 4: piece maps do not match the feet: target map has no image of 'x'",
        ),
    ],
    ids=["unknown", "duplicate", "missing"],
)
def test_a_leg_gives_one_entry_per_coordinate_of_its_foot(old, new, message):
    """An entry for a coordinate the foot lacks, or a second entry for one
    coordinate, is an error rather than dropped or overwritten, and a
    missing coordinate is named with its side."""
    assert parse_workspace(LINE_DOC).spans["f"]
    with pytest.raises(WorkspaceError) as caught:
        parse_workspace(LINE_DOC.replace(old, new))
    assert str(caught.value) == message


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


# one check line appended to SPAN_DOC (line 12): its canonical print, or the
# error it raises
CHECK_LINES = [
    ("cancel idg n: 2 sign: + m: 007", "check c = cancel idg m: 7 n: 2 sign: +"),
    ("slice idg f: t n: 3 f2: t_inv b: 2 a: 1", "check c = slice idg f: t n: 3 f2: t_inv a: 1 b: 2"),
    ("bound idg f:  t+t", "check c = bound idg f: 2*t"),
    ("bound idg f:t", "line 12: bound takes 1 span operand(s), got 2"),
    ("filtration idg window:", "line 12: filtration takes 1 span operand(s), got 2"),
    ("slice idg f: n: 3", "line 12: missing value for argument 'f'"),
    ("bound idg f: t: 3", "line 12: missing value for argument 'f'"),
    ("cancel idg m: 1 n: 1 n: 2 sign: +", "line 12: duplicate argument 'n'"),
    ("cancel idg m: 1 sign: + q: 3", "line 12: cancel does not take argument 'q'"),
    ("cancel idg m: 1 sign: +", "line 12: cancel needs argument 'n'"),
    ("compose idg idg idg", "line 12: compose takes 2 span operand(s), got 3"),
    ("compose idg", "line 12: compose takes 2 span operand(s), got 1"),
    ("certify", "line 12: certify takes 1 span operand(s), got 0"),
    ("verify-cancellation Z n: 3", "line 12: verify-cancellation takes 0 span operand(s), got 1"),
    ("verify-cancellation n: 3", "check c = verify-cancellation n: 3"),
    ("cancel idg m: 1\tn: 1 sign: +", "check c = cancel idg m: 1 n: 1 sign: +"),
    ("cancel idg m:\t1 n: 1 sign: +", "check c = cancel idg m: 1 n: 1 sign: +"),
    ("cancel\tidg m: 1 n: 1 sign: +", "check c = cancel idg m: 1 n: 1 sign: +"),
    ("cancel-slice idg n: -0 sign: -", "check c = cancel-slice idg n: 0 sign: -"),
    ("frobnicate idg", "line 12: unknown command 'frobnicate'"),
    ("certify nope", "line 12: unresolved span reference 'nope'"),
    ("", "line 12: expected: check NAME = COMMAND ..."),
]


@pytest.mark.parametrize("line, expected", CHECK_LINES)
def test_check_lines_print_canonically_or_fail_with_their_message(line, expected):
    text = SPAN_DOC.replace("check c1 = certify idg", f"check c = {line}")
    try:
        printed = print_workspace(parse_workspace(text)).splitlines()[-1]
    except WorkspaceError as err:
        printed = str(err)
    assert printed == expected
