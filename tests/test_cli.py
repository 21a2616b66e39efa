"""Command-line behaviour: verdicts, exit codes, formats, re-checking."""

from __future__ import annotations

import hashlib
import itertools
import json
import re
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from flatspan.cli import main

ROOT = Path(__file__).resolve().parent.parent
WORKSPACES = ROOT / "workspaces"
SCHEMA = json.loads((ROOT / "docs" / "report-schema.json").read_text(encoding="utf-8"))


def workspace(name: str) -> str:
    return str(WORKSPACES / f"{name}.fsw")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def structured(capsys, tmp_path, name, *extra):
    out = tmp_path / "report.json"
    code = main(["run", workspace(name), "--format", "structured", "--out", str(out), *extra])
    capsys.readouterr()
    return code, json.loads(out.read_text(encoding="utf-8")), out


ALL_GREEN = [
    "span-algebra",
    "valuation-bounds",
    "cancel-families",
    "level3-verifier",
    "contraction-basics",
    "mod5-cuts",
]


@pytest.mark.parametrize("name", ALL_GREEN)
def test_green_workspaces_pass_with_exit_zero(capsys, name):
    code, out, _ = run_cli(capsys, "run", workspace(name))
    assert code == 0
    assert "[fail]" not in out and "[error]" not in out
    assert "[pass]" in out


def test_forced_failure_workspace_exits_one(capsys):
    code, out, _ = run_cli(capsys, "run", workspace("failing-checks"))
    assert code == 1
    assert out.count("[fail]") == 2
    assert "no monomial bound" in out


def test_forced_budget_exhaustion_exits_three(capsys):
    code, out, _ = run_cli(capsys, "run", workspace("level3-verifier"), "--budget", "40")
    assert code == 3
    assert "[inconclusive]" in out
    assert "budget" in out


def test_filtration_out_of_budget_is_inconclusive(capsys):
    code, out, _ = run_cli(capsys, "run", workspace("cancel-families"), "--budget", "40")
    assert code == 3
    assert out.count("[pass]") == 4
    assert "[inconclusive] ix filtration idg -- step budget of 40 exhausted" in out


def test_missing_workspace_file_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, "run", str(WORKSPACES / "no-such.fsw"))
    assert code == 2
    assert "error:" in err


def test_workspace_syntax_error_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.fsw"
    bad.write_text("field QQ\nscheme G = torus\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "BIN"],
        ["run", workspace("span-algebra"), "--recheck", "BIN"],
        ["certify", "--workspace", "BIN", "--corr", "x"],
    ],
    ids=["workspace", "recheck", "single-command"],
)
def test_a_file_that_is_not_utf8_is_an_input_error(capsys, tmp_path, argv):
    binary = tmp_path / "bin.fsw"
    binary.write_bytes(b"\xff\xfe bad")
    code, out, err = run_cli(capsys, *(str(binary) if a == "BIN" else a for a in argv))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {binary} is not UTF-8 text: ")


@pytest.mark.parametrize(
    "text, message",
    [
        ("field QQ\nscheme G = torus^0\n", "line 2: torus^0 needs at least one factor"),
        ("field Fp 1\n", "line 1: 1 is not prime"),
        ("field Fp 3317044064679887385961981\n", "line 1: 3317044064679887385961981 is too large"),
        ("field Fp " + "7" * 5000 + "\n", "line 1: "),
    ],
    ids=["torus-power-zero", "field-one", "field-huge", "field-past-int-parsing"],
)
def test_bad_field_or_scheme_argument_is_an_input_error(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.fsw"
    bad.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(bad))
    assert code == 2
    assert message in err and "Traceback" not in err + out


def test_unresolved_operand_is_an_error_verdict(capsys, tmp_path):
    """A single command resolves its operands as its check line does: an
    unknown span name is an input error, before any report is written."""
    out_file = tmp_path / "report.txt"
    code, out, err = run_cli(
        capsys, "certify", "--workspace", workspace("span-algebra"), "--corr", "ghost",
        "--out", str(out_file),
    )
    assert code == 2
    assert err == "error: unresolved span reference 'ghost'\n"
    assert out == "" and not out_file.exists()


@pytest.mark.parametrize("value", ["+2", "x"])
def test_integer_flags_follow_the_workspace_rule(capsys, value):
    code, out, err = run_cli(
        capsys, "cancel-slice", "--workspace", workspace("cancel-families"), "--corr", "idg",
        "--sign", "-", "--n", value,
    )
    assert code == 2
    assert out == "" and err == "error: argument 'n' must be an integer\n"


@pytest.mark.parametrize("path", ["workspace", "single-command"])
def test_an_integer_past_the_parsing_limit_is_an_input_error(capsys, tmp_path, path):
    digits = "7" * 5000
    if path == "workspace":
        doc = tmp_path / "huge.fsw"
        doc.write_text(f"field QQ\ncheck v = verify-cancellation n: {digits}\n", encoding="utf-8")
        argv = ["run", str(doc)]
    else:
        argv = ["verify-cancellation", "--n", digits]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.endswith("argument 'n' is too large\n")


@pytest.mark.parametrize("name", ALL_GREEN + ["failing-checks"])
def test_structured_reports_validate_against_the_shipped_schema(capsys, tmp_path, name):
    _, payload, _ = structured(capsys, tmp_path, name)
    jsonschema.validate(payload, SCHEMA)


@pytest.mark.parametrize("name", ALL_GREEN + ["failing-checks"])
def test_text_and_structured_verdicts_agree(capsys, tmp_path, name):
    text_code, out, _ = run_cli(capsys, "run", workspace(name))
    text_verdicts = [
        line.split("]")[0].lstrip("[") for line in out.splitlines() if line.startswith("[")
    ]
    json_code, payload, _ = structured(capsys, tmp_path, name)
    assert [r["verdict"] for r in payload["reports"]] == text_verdicts
    assert json_code == text_code == payload["exit_code"]


@pytest.mark.parametrize("name", ALL_GREEN + ["failing-checks"])
def test_recheck_agrees_with_every_stored_report(capsys, tmp_path, name):
    _, _, out = structured(capsys, tmp_path, name)
    code, text, _ = run_cli(capsys, "run", workspace(name), "--recheck", str(out))
    assert code == 0
    assert "agree" in text


# per shipped workspace: the exit code of ``run --format structured`` and the
# sha256 of its envelope, indented as written, with every timing_ms set to 0.
# A change that means to alter envelope bytes updates these and says so.
SHIPPED_ENVELOPES = {
    "cancel-families": (0, "8677d15e3a3e61c3ce2302cb0170cdca51ca5c9cf73af4617a3e0484fb29bd4f"),
    "contraction-basics": (0, "59e4296411eeca1d093cc8c9f9338d7dd82711e6ecd913148a213abcddce1a08"),
    "failing-checks": (1, "889d58e75da421613675af71d0900bdbfdd7527f07b750e3abfa9bc19cc8c4d4"),
    "level3-verifier": (0, "8f297ed3ea8d21a68b12d5e0634ccf45acf054bfcd02139d2ed768f1d508c1be"),
    "mod5-cuts": (0, "009f4524d9eecfa487f1a07ed0ecab92232e31189f0b87452f17cc4ae10a56e4"),
    "span-algebra": (0, "356577a8bb09a5042b789301f373442254bbfaa290be93451dd1fcec30894afe"),
    "valuation-bounds": (0, "ddeb9c23e7ba41509db0d7507e8dd154c6d4a82f76f70166c9efe16848befe7a"),
}


@pytest.mark.parametrize("name", sorted(path.stem for path in WORKSPACES.glob("*.fsw")))
def test_shipped_envelopes_are_pinned(capsys, tmp_path, name):
    code, payload, _ = structured(capsys, tmp_path, name)
    for report in payload["reports"]:
        report["timing_ms"] = 0
    digest = hashlib.sha256(json.dumps(payload, indent=2).encode("utf-8")).hexdigest()
    assert (code, digest) == SHIPPED_ENVELOPES[name]


def test_recheck_catches_a_tampered_certificate(capsys, tmp_path):
    _, payload, out = structured(capsys, tmp_path, "valuation-bounds")
    for report in payload["reports"]:
        for block in report["certificates"]:
            if block["kind"] == "finite-flat":
                block["outcome"]["pieces"][0]["basis"][0] = "t - 7"
    out.write_text(json.dumps(payload), encoding="utf-8")
    code, text, _ = run_cli(capsys, "run", workspace("valuation-bounds"), "--recheck", str(out))
    assert code == 1
    assert "fails re-validation" in text


def test_recheck_that_runs_out_of_budget_is_inconclusive(capsys, tmp_path):
    _, _, out = structured(capsys, tmp_path, "span-algebra")
    argv = ("run", workspace("span-algebra"), "--recheck", str(out), "--budget", "3")
    code, text, err = run_cli(capsys, *argv)
    assert code == 3
    assert len(text.splitlines()) == 1
    assert text.startswith("recheck: inconclusive: step budget of 3 exhausted during ")
    assert "Traceback" not in err


def _set(key, value):
    return lambda report: report["data"].__setitem__(key, value)


@pytest.mark.parametrize(
    "name, check, tamper",
    [
        ("valuation-bounds", "s2", _set("rank", 7)),
        ("valuation-bounds", "b1", _set("bound", 0)),
        ("valuation-bounds", "b3", _set("bound", 0)),
        ("valuation-bounds", "s1", _set("bound", 0)),
        ("span-algebra", "c5", _set("degree", 5)),
        ("span-algebra", "c4", lambda report: report["certificates"].clear()),
    ],
    ids=["rank", "bound-b1", "bound-b3", "bound-s1", "degree", "no-certificate"],
)
def test_recheck_ties_each_claim_to_its_certificates(capsys, tmp_path, name, check, tamper):
    """Each tamper leaves every certificate intact and changes only what
    the report claims, or drops the certificate behind the claim."""
    _, payload, out = structured(capsys, tmp_path, name)
    [report] = [r for r in payload["reports"] if r["name"] == check]
    assert report["verdict"] == "pass"
    tamper(report)
    out.write_text(json.dumps(payload), encoding="utf-8")
    code, text, _ = run_cli(capsys, "run", workspace(name), "--recheck", str(out))
    assert code == 1
    assert f"{check}: claims " in text and "agree" not in text


def _flip_to_pass(payload):
    for report in payload["reports"]:
        assert report["verdict"] == "fail"
        report["verdict"], report["exit_code"] = "pass", 0
    payload["exit_code"] = 0


def _drop_filtration_bounds(payload):
    [report] = [r for r in payload["reports"] if r["command"] == "filtration"]
    assert report["verdict"] == "pass" and "bound" not in report["data"]
    report["certificates"].clear()


@pytest.mark.parametrize(
    "name, tamper, findings",
    [
        (
            "failing-checks",
            _flip_to_pass,
            [
                "f1: a certify pass carries no finite-flat certificate",
                "f2: a degree pass carries no finite-flat certificate",
            ],
        ),
        (
            "cancel-families",
            _drop_filtration_bounds,
            ["ix: a filtration pass carries no valuation-bound certificate"],
        ),
    ],
    ids=["flipped-fails", "filtration-without-bounds"],
)
def test_recheck_demands_the_certificate_a_pass_of_its_command_makes(
    capsys, tmp_path, name, tamper, findings
):
    """Each tamper claims a pass whose data restates no rank, degree or
    bound, and leaves it without the certificate its command makes."""
    _, payload, out = structured(capsys, tmp_path, name)
    tamper(payload)
    out.write_text(json.dumps(payload), encoding="utf-8")
    code, text, _ = run_cli(capsys, "run", workspace(name), "--recheck", str(out))
    assert code == 1 and "agree" not in text
    for finding in findings:
        assert finding in text


def _flip_to_compose(payload):
    """Both fails of failing-checks claim a pass of compose, a command
    whose pass carries no certificate."""
    _flip_to_pass(payload)
    for report in payload["reports"]:
        report["command"] = "compose"


def _widen_window(payload):
    [report] = [r for r in payload["reports"] if r["command"] == "filtration"]
    assert report["request"]["args"] == {"window": "2"}
    report["request"]["args"]["window"] = "3"


@pytest.mark.parametrize(
    "name, tamper, culprits",
    [
        ("failing-checks", _flip_to_compose, ["f1", "f2"]),
        ("cancel-families", _widen_window, ["ix"]),
    ],
    ids=["fails-as-compose", "filtration-window"],
)
def test_recheck_binds_each_report_to_its_check(capsys, tmp_path, name, tamper, culprits):
    from flatspan.reports import recheck_envelope

    _, payload, out = structured(capsys, tmp_path, name)
    tamper(payload)
    findings = [f"{check}: answers no check of the workspace" for check in culprits]
    text = Path(workspace(name)).read_text(encoding="utf-8")
    assert recheck_envelope(payload, workspace_text=text) == (False, findings)
    out.write_text(json.dumps(payload), encoding="utf-8")
    code, printed, _ = run_cli(capsys, "run", workspace(name), "--recheck", str(out))
    assert (code, printed.splitlines()) == (1, findings)


def test_a_single_command_envelope_answers_no_check_of_its_workspace(capsys, tmp_path):
    """``certify --workspace`` reports a check named after its command, which
    the workspace does not declare, so ``run --recheck`` rejects it."""
    out = tmp_path / "single.json"
    argv = ["certify", "--workspace", workspace("span-algebra"), "--corr", "idg"]
    assert main([*argv, "--format", "structured", "--out", str(out)]) == 0
    capsys.readouterr()
    code, text, _ = run_cli(capsys, "run", workspace("span-algebra"), "--recheck", str(out))
    assert (code, text.splitlines()) == (1, ["certify: answers no check of the workspace"])


def test_recheck_without_a_workspace_needs_a_known_command_and_a_sound_request(
    capsys, tmp_path
):
    from flatspan.reports import recheck_envelope

    _, payload, _ = structured(capsys, tmp_path, "span-algebra")
    first, second, third, fourth = payload["reports"][:4]
    first["command"] = "frobnicate"
    second["request"] = 5
    third["request"]["args"] = ["n"]
    fourth["request"]["operands"] = [7]
    ok, messages = recheck_envelope(payload)
    assert not ok
    assert messages == [
        "c1: unknown command 'frobnicate'",
        "c2: request 5 is malformed",
        "c3: request {'operands': ['idg', 'squ'], 'args': ['n']} is malformed",
        "c4: request {'operands': [7], 'args': {}} is malformed",
    ]


COMPAT_DOC = """workspace compat
field QQ
scheme G = torus t
scheme P = point
span idg : G -> G {
  piece {
    vars t, t_inv
    rels t*t_inv - 1
    source t: t, t_inv: t_inv
    target t: t, t_inv: t_inv
  }
}
span beta : P -> P {
  piece {
    vars b
    rels b^2 + 1
  }
}
span gamma : P -> P {
  piece {
    vars c
    rels c^2 - 2*c
  }
}
check n1 = verify-compat idg beta gamma m: 2 n: 2 sign: +
"""


def test_verify_compat_carries_the_family_certificate():
    from flatspan.cancellation import cancel_family
    from flatspan.cli import execute_check
    from flatspan.reports import finite_flat_block
    from flatspan.workspace import parse_workspace

    doc = parse_workspace(COMPAT_DOC)
    report = execute_check(doc, doc.checks[0])
    assert report.verdict == "pass"
    fam = cancel_family(doc.spans["idg"], 2, 2, "+")
    assert fam.certified
    assert report.certificates == [finite_flat_block(fam.correspondence, fam.certificate)]


def _first_block(payload, kind):
    for report in payload["reports"]:
        for block in report["certificates"]:
            if block["kind"] == kind and block.get("entries", True):
                return report, block
    raise AssertionError(f"no {kind} certificate")


def _reports_not_a_list(payload):
    payload["reports"] = 5


def _report_not_an_object(payload):
    payload["reports"] = ["a"]


def _certificate_not_an_object(payload):
    report, _ = _first_block(payload, "finite-flat")
    report["certificates"][0] = 5


def _data_not_an_object(payload):
    payload["reports"][0]["data"] = [1]


def _valuation_ring_missing(payload):
    _, block = _first_block(payload, "valuation-bound")
    block["ring"] = None


@pytest.mark.parametrize(
    "tamper",
    [
        _reports_not_a_list,
        _report_not_an_object,
        _certificate_not_an_object,
        _data_not_an_object,
        _valuation_ring_missing,
    ],
)
def test_recheck_reports_a_malformed_envelope_as_a_finding(capsys, tmp_path, tamper):
    _, payload, out = structured(capsys, tmp_path, "valuation-bounds")
    tamper(payload)
    out.write_text(json.dumps(payload), encoding="utf-8")
    code, text, err = run_cli(capsys, "run", workspace("valuation-bounds"), "--recheck", str(out))
    assert code == 1
    assert "agree" not in text and "Traceback" not in err
    assert "not a list" in text or "not an object" in text


def test_recheck_catches_a_workspace_mismatch(capsys, tmp_path):
    _, _, out = structured(capsys, tmp_path, "valuation-bounds")
    code, text, _ = run_cli(capsys, "run", workspace("span-algebra"), "--recheck", str(out))
    assert code == 1
    assert "digest" in text


TORSION_DOC = """workspace torsion
field QQ
scheme L = line x
scheme P = point
span pt : L -> P {
  piece {
    vars y
    rels y
    source x: y
  }
}
check c = certify pt
"""


def test_recheck_rejects_a_flipped_torsion_verdict(capsys, tmp_path):
    """The failing ``certify pt`` flipped to a rank-1 pass that carries the
    certificate read off the true basis [x, y]: staircase {1}, matrix 0."""
    from oracles import leads_certificate

    from flatspan.reports import finite_flat_block, recheck_envelope
    from flatspan.workspace import parse_workspace, print_workspace

    doc = tmp_path / "torsion.fsw"
    doc.write_text(TORSION_DOC, encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["run", str(doc), "--format", "structured", "--out", str(out)]) == 1
    capsys.readouterr()
    payload = json.loads(out.read_text(encoding="utf-8"))
    (report,) = payload["reports"]
    assert report["detail"].startswith("not locally free: piece 0: base element (x)")
    parsed = parse_workspace(TORSION_DOC)
    forged = leads_certificate(parsed.spans["pt"])
    block = finite_flat_block(parsed.spans["pt"], forged)
    assert block["outcome"]["pieces"][0]["matrices"] == {"y": [["0"]]}
    report.update(verdict="pass", exit_code=0, data={"rank": 1}, certificates=[block])
    payload["exit_code"] = 0
    payload = json.loads(json.dumps(payload))
    ok, messages = recheck_envelope(payload, workspace_text=print_workspace(parsed))
    assert not ok
    assert messages == ["c: stored finite-flat certificate fails re-validation"]


DEEP = "(" * 400 + "1" + ")" * 400


@pytest.mark.parametrize(
    "old, new, line",
    [
        ("rels t*t_inv - 1", "rels t*t_inv - " + DEEP, 10),
        ("check b2 = bound Z f: 3", "check b2 = bound Z f: " + DEEP, 15),
    ],
    ids=["rels", "check-f"],
)
def test_a_deeply_nested_polynomial_is_an_input_error(capsys, tmp_path, old, new, line):
    doc = tmp_path / "deep.fsw"
    text = Path(workspace("valuation-bounds")).read_text(encoding="utf-8")
    doc.write_text(text.replace(old, new), encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(doc))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: line {line}: bad polynomial '")
    assert err.endswith("': parentheses nest deeper than 100\n")


def test_recheck_of_a_deeply_nested_report_is_an_input_error(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000, encoding="utf-8")
    code, out, err = run_cli(capsys, "run", workspace("valuation-bounds"), "--recheck", str(deep))
    assert (code, out, err) == (2, "", "error: report nests too deeply to read\n")


def test_recheck_reports_a_deeply_nested_certificate_polynomial(capsys, tmp_path):
    _, payload, out = structured(capsys, tmp_path, "valuation-bounds")
    payload["reports"][0]["certificates"][0]["outcome"]["pieces"][0]["basis"][0] = DEEP
    out.write_text(json.dumps(payload), encoding="utf-8")
    code, text, err = run_cli(capsys, "run", workspace("valuation-bounds"), "--recheck", str(out))
    assert (code, err) == (1, "")
    assert "b1: certificate could not be rebuilt: stored polynomial" in text
    assert "parentheses nest deeper than 100" in text and "agree" not in text


LONG = "7" * 5000  # past the interpreter's 4300-digit limit for int()
OVERFLOW = "x^2147483647*x"  # every exponent in range, their product past the cap


@pytest.mark.parametrize(
    "new, message",
    [
        ("rels x - " + LONG, "integer literal longer than 4300 digits"),
        ("rels x^" + LONG, f"exponent {LONG} exceeds 2147483647"),
        (f"rels t*t_inv - 1 + {OVERFLOW}", "exponent 2147483648 exceeds 2147483647"),
    ],
    ids=["literal", "exponent", "overflow"],
)
def test_an_overlong_integer_in_a_document_is_an_input_error(capsys, tmp_path, new, message):
    doc = tmp_path / "long.fsw"
    text = Path(workspace("valuation-bounds")).read_text(encoding="utf-8")
    doc.write_text(text.replace("rels t*t_inv - 1", new), encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(doc))
    assert (code, out) == (2, "")
    assert err == f"error: line 10: bad polynomial {new[5:]!r}: {message}\n"


@pytest.mark.parametrize("power", ["(3)^1000000*x", "(3*x)^250000", "(1/3)^2147483647"])
def test_a_long_power_of_a_parenthesized_number_is_an_input_error(capsys, tmp_path, power):
    doc = tmp_path / "power.fsw"
    new = f"rels t*t_inv - 1 + {power}"
    text = Path(workspace("valuation-bounds")).read_text(encoding="utf-8")
    doc.write_text(text.replace("rels t*t_inv - 1", new), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "run", str(doc))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    message = "power of a number longer than 4300 digits"
    assert err == f"error: line 10: bad polynomial {new[5:]!r}: {message}\n"
    code, out, err = run_cli(
        capsys, "bound", "--workspace", workspace("valuation-bounds"), "--corr", "Z", "--f", power
    )
    assert (code, out, err) == (2, "", f"error: bad polynomial {power!r}: {message}\n")


BIG_COEFFICIENT = """workspace big
field QQ
scheme L = line x
span S : L -> L {
  piece {
    vars x, y
    rels REL
    source x: x
    target x: y
  }
}
check c = certify S
"""
NINES = "9" * 4300  # the longest literal the parser reads


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize(
    "rel",
    ["y - 10^3000*10^3000", f"y - {NINES}*x - x", "y - (10^3000)*(10^3000)"],
    ids=["product", "sum", "parenthesized"],
)
def test_a_coefficient_past_the_literal_length_is_an_input_error(capsys, tmp_path, rel, fmt):
    """A product or sum whose QQ coefficient passes 4300 digits is refused
    while the document is read, where it used to be parsed and then fail
    to print with a ``ValueError`` traceback."""
    doc = tmp_path / "big.fsw"
    doc.write_text(BIG_COEFFICIENT.replace("REL", rel), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "run", str(doc), "--format", fmt)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: line 7: bad polynomial {rel!r}: coefficient longer than 4300 digits\n"


def test_a_literal_at_the_length_limit_parses_prints_and_rechecks(capsys, tmp_path):
    doc = tmp_path / "long.fsw"
    doc.write_text(BIG_COEFFICIENT.replace("REL", f"y - {NINES}*x"), encoding="utf-8")
    out = tmp_path / "long.json"
    code, text, err = run_cli(capsys, "run", str(doc), "--format", "structured", "--out", str(out))
    assert (code, text, err) == (0, "", "")
    assert f"-{NINES}*x + y" in out.read_text(encoding="utf-8")
    code, text, err = run_cli(capsys, "run", str(doc), "--recheck", str(out))
    assert (code, text, err) == (0, "recheck: 1 report(s) agree\n", "")


def test_an_overlong_integer_in_a_flag_is_an_input_error(capsys):
    f = "x*t_inv + " + LONG
    code, out, err = run_cli(
        capsys, "bound", "--workspace", workspace("valuation-bounds"), "--corr", "Z", "--f", f
    )
    assert (code, out) == (2, "")
    assert err == f"error: bad polynomial {f!r}: integer literal longer than 4300 digits\n"


def test_an_exponent_overflow_in_a_flag_is_an_input_error(capsys):
    code, out, err = run_cli(
        capsys, "bound", "--workspace", workspace("valuation-bounds"), "--corr", "Z", "--f", OVERFLOW
    )
    assert (code, out) == (2, "")
    assert err == f"error: bad polynomial {OVERFLOW!r}: exponent 2147483648 exceeds 2147483647\n"


def test_recheck_of_a_report_with_an_overlong_integer_is_an_input_error(capsys, tmp_path):
    _, payload, out = structured(capsys, tmp_path, "span-algebra")
    text = json.dumps(payload).replace('"exit_code": 0', '"exit_code": ' + LONG, 1)
    out.write_text(text, encoding="utf-8")
    code, text, err = run_cli(capsys, "run", workspace("span-algebra"), "--recheck", str(out))
    assert (code, text, err) == (2, "", "error: report holds an integer too long to read\n")


def test_recheck_names_an_overlong_integer_in_a_certificate_polynomial(capsys, tmp_path):
    _, payload, out = structured(capsys, tmp_path, "valuation-bounds")
    payload["reports"][0]["certificates"][0]["outcome"]["pieces"][0]["basis"][0] = LONG
    out.write_text(json.dumps(payload), encoding="utf-8")
    code, text, err = run_cli(capsys, "run", workspace("valuation-bounds"), "--recheck", str(out))
    assert (code, err) == (1, "")
    assert "b1: certificate could not be rebuilt: stored polynomial" in text
    assert "integer literal longer than 4300 digits" in text and "agree" not in text


def test_recheck_names_an_exponent_overflow_in_a_certificate_polynomial(capsys, tmp_path):
    _, payload, out = structured(capsys, tmp_path, "valuation-bounds")
    payload["reports"][0]["certificates"][0]["outcome"]["pieces"][0]["basis"][0] = OVERFLOW
    out.write_text(json.dumps(payload), encoding="utf-8")
    code, text, err = run_cli(capsys, "run", workspace("valuation-bounds"), "--recheck", str(out))
    assert (code, err) == (1, "")
    assert "b1: certificate could not be rebuilt: stored polynomial" in text
    assert "exponent 2147483648 exceeds 2147483647 (line 1, col 14)" in text
    assert "agree" not in text


def test_recheck_of_malformed_report_is_an_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    code, _, err = run_cli(capsys, "run", workspace("span-algebra"), "--recheck", str(bad))
    assert code == 2
    assert "error:" in err


def test_only_flag_restricts_to_named_checks(capsys, tmp_path):
    _, payload, _ = structured(capsys, tmp_path, "span-algebra", "--only", "c4")
    assert [r["name"] for r in payload["reports"]] == ["c4"]


def test_only_flag_rejects_unknown_names(capsys):
    code, _, err = run_cli(
        capsys, "run", workspace("span-algebra"), "--only", "nope"
    )
    assert code == 2
    assert "nope" in err


def test_report_order_matches_request_order(capsys, tmp_path):
    _, payload, _ = structured(capsys, tmp_path, "span-algebra")
    assert [r["name"] for r in payload["reports"]] == ["c1", "c2", "c3", "c4", "c5", "c6"]


def test_bound_example_reports_the_documented_bound(capsys):
    code, out, _ = run_cli(
        capsys,
        "bound",
        "--workspace",
        workspace("valuation-bounds"),
        "--corr",
        "Z",
        "--f",
        "x*t_inv^2",
    )
    assert code == 0
    assert "bound: 2" in out
    assert "valuation -2" in out


@pytest.mark.parametrize("check", ["b1", "b2", "b3"])
def test_bound_certifies_its_span_once(capsys, monkeypatch, check):
    import flatspan.cancellation as cancellation
    import flatspan.cli as cli

    original = cli.certify_finite_flat
    calls = []

    def counting(corr, **kwargs):
        calls.append(corr)
        return original(corr, **kwargs)

    monkeypatch.setattr(cli, "certify_finite_flat", counting)
    monkeypatch.setattr(cancellation, "certify_finite_flat", counting)
    code, out, _ = run_cli(capsys, "run", workspace("valuation-bounds"), "--only", check)
    assert code == 0 and "[pass]" in out
    assert len(calls) == 1


def test_filtration_settling_at_level_one_passes(capsys, tmp_path):
    doc = tmp_path / "window-one.fsw"
    text = Path(workspace("cancel-families")).read_text(encoding="utf-8")
    doc.write_text(text.replace("window: 2", "window: 1"), encoding="utf-8")
    out = tmp_path / "report.json"
    code = main(["run", str(doc), "--only", "ix", "--format", "structured", "--out", str(out)])
    capsys.readouterr()
    [report] = json.loads(out.read_text(encoding="utf-8"))["reports"]
    assert code == 0 and report["verdict"] == "pass"
    assert report["data"]["index"] == 1 and "blocking" not in report["data"]


@pytest.mark.parametrize("path", ["workspace", "single-command"])
def test_slice_takes_a_and_b_only_with_f2(capsys, tmp_path, path):
    if path == "workspace":
        doc = tmp_path / "slice-shift.fsw"
        text = Path(workspace("valuation-bounds")).read_text(encoding="utf-8")
        doc.write_text(text + "check s9 = slice Z f: x n: 2 a: 5\n", encoding="utf-8")
        argv = ["run", str(doc), "--only", "s9"]
    else:
        argv = ["slice", "--workspace", workspace("valuation-bounds"), "--corr", "Z"]
        argv += ["--f", "x", "--n", "2", "--a", "5"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2
    assert "[error]" in out and "slice takes a and b only with f2" in out


def test_missing_torus_coordinate_states_the_requirement(capsys, tmp_path):
    doc = tmp_path / "no-torus.fsw"
    doc.write_text(
        """workspace no-torus
field QQ
scheme L = line x
scheme P = point
span Z : L -> P {
  piece {
    vars x
    rels x
    source x: x
  }
}
check c = cancel Z m: 1 n: 1 sign: +
""",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "run", str(doc))
    assert code == 2
    assert "[error]" in out
    assert "scheme has 0 inverted coordinates []; expected exactly one" in out
    assert "specify" not in out


def test_single_certify_pass_and_fail(capsys):
    code, out, _ = run_cli(
        capsys, "certify", "--workspace", workspace("span-algebra"), "--corr", "idg"
    )
    assert code == 0 and "rank: 1" in out
    code, out, _ = run_cli(
        capsys, "certify", "--workspace", workspace("failing-checks"), "--corr", "hyper"
    )
    assert code == 1
    assert "not finite" in out


def test_standalone_level_verifier_over_both_fields(capsys):
    code, out, _ = run_cli(capsys, "verify-cancellation", "--n", "3")
    assert code == 0
    assert out.count(": ok") == 5
    code, out, _ = run_cli(capsys, "verify-cancellation", "--n", "2", "--field", "Fp:5")
    assert code == 0


@pytest.mark.parametrize("digits", ["7" * 30, "7" * 5000], ids=["30-digits", "5000-digits"])
def test_a_field_tag_too_large_is_an_input_error(capsys, digits):
    code, out, err = run_cli(capsys, "verify-cancellation", "--n", "2", "--field", "Fp:" + digits)
    assert code == 2
    assert err.startswith(f"error: {digits} is too large") and "Traceback" not in err + out


def test_operands_work_positionally_and_by_flag(capsys):
    code_a, out_a, _ = run_cli(
        capsys, "compose", "--workspace", workspace("span-algebra"), "sq", "cube"
    )
    code_b, out_b, _ = run_cli(
        capsys,
        "compose",
        "--workspace",
        workspace("span-algebra"),
        "--corr",
        "sq",
        "--corr",
        "cube",
    )
    assert code_a == code_b == 0

    def head(out):
        # the first line ends in the check's wall time, which varies per run
        return re.sub(r" \(\d+ ms\)$", "", out.splitlines()[0])

    assert head(out_a) == head(out_b)


def test_missing_required_flag_is_an_input_error(capsys):
    code, _, err = run_cli(
        capsys, "cancel", "--workspace", workspace("cancel-families"), "--corr", "idg",
        "--m", "1", "--n", "1"
    )
    assert code == 2
    assert "--sign" in err


def test_span_commands_require_a_workspace(capsys):
    code, _, err = run_cli(capsys, "certify", "--corr", "idg")
    assert code == 2
    assert "--workspace" in err or "workspace" in err


def test_out_flag_writes_the_text_report_to_a_file(capsys, tmp_path):
    out = tmp_path / "report.txt"
    code = main(["run", workspace("level3-verifier"), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert "[pass] main verify-cancellation" in out.read_text(encoding="utf-8")


def test_envelope_echoes_the_request(capsys, tmp_path):
    _, payload, _ = structured(capsys, tmp_path, "cancel-families")
    first = payload["reports"][0]
    assert first["request"] == {"operands": ["idg"], "args": {"m": "1", "n": "1", "sign": "+"}}
    assert payload["tool"] == "flatspan"
    assert payload["input_digest"].startswith("sha256:")


@pytest.mark.parametrize(
    "argv",
    [
        ["run", workspace("span-algebra"), "--budget", "0"],
        ["certify", "--workspace", workspace("span-algebra"), "--corr", "idg", "--budget", "-5"],
    ],
)
def test_nonpositive_budget_is_an_input_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1 and "--budget" in err
    assert "Traceback" not in err


def test_single_command_echo_is_normalized_as_in_a_batch(capsys, tmp_path):
    out = tmp_path / "single.json"
    code = main(
        [
            "bound", "--workspace", workspace("valuation-bounds"), "Z",
            "--f", "t_inv^2*x", "--format", "structured", "--out", str(out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    single = json.loads(out.read_text(encoding="utf-8"))
    _, batch, _ = structured(capsys, tmp_path, "valuation-bounds")
    echoes = [r["request"] for r in batch["reports"] if r["command"] == "bound"]
    assert single["input_digest"] == batch["input_digest"]
    assert single["reports"][0]["request"] == {"operands": ["Z"], "args": {"f": "x*t_inv^2"}}
    assert single["reports"][0]["request"] in echoes
    for name in ALL_GREEN + ["failing-checks"]:
        _, batch, _ = structured(capsys, tmp_path, name, "--budget", "1")
        for report in batch["reports"]:
            request = report["request"]
            flags = [f"--{key}={value}" for key, value in request["args"].items()]
            main(
                [
                    report["command"], "--workspace", workspace(name), *request["operands"],
                    *flags, "--budget", "1", "--format", "structured", "--out", str(out),
                ]
            )
            capsys.readouterr()
            single = json.loads(out.read_text(encoding="utf-8"))
            assert single["input_digest"] == batch["input_digest"], (name, report["name"])
            assert single["reports"][0]["request"] == request, (name, report["name"])


def test_window_is_only_a_filtration_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(
            ["certify", "--workspace", workspace("span-algebra"), "--corr", "idg", "--window", "3"]
        )
    assert exit_info.value.code == 2
    assert "--window" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exit_info:
        main(["run", workspace("cancel-families"), "--window", "3"])
    assert exit_info.value.code == 2
    assert "--window" in capsys.readouterr().err
    code, out, _ = run_cli(
        capsys, "filtration", "--workspace", workspace("cancel-families"), "--corr", "idg",
        "--window", "2",
    )
    assert code == 0
    assert "window: 2" in out


def test_bad_window_is_rejected_before_any_work(capsys):
    code, out, _ = run_cli(
        capsys, "filtration", "--workspace", workspace("cancel-families"), "--corr", "idg",
        "--window", "0", "--budget", "1",
    )
    assert code == 2
    assert out.count("[error]") == 1 and "[inconclusive]" not in out
    assert "window must be at least 1" in out


def test_an_exponent_over_the_cap_is_an_error_report(tmp_path, capsys):
    """An exponent past 2^31 - 1 is a bad request: that check reports an
    error with exit 2 and the other checks of the batch still report."""
    text = (WORKSPACES / "cancel-families.fsw").read_text(encoding="utf-8")
    text += "".join(
        f"check big{i} = {request}\n"
        for i, request in enumerate(
            [
                "cancel-slice idg n: 3000000000 sign: +",
                "cancel idg m: 1 n: 3000000000 sign: +",
                "slice idg f: t n: 3000000000",
            ]
        )
    )
    doc = tmp_path / "big.fsw"
    doc.write_text(text, encoding="utf-8")
    code, out, _ = run_cli(capsys, "run", str(doc))
    assert code == 2
    assert out.count("[error] big") == 3 and out.count("exceeds 2147483647") == 3
    assert out.count("[pass]") == 5
    code, out, _ = run_cli(capsys, "verify-cancellation", "--n", "3000000000")
    assert code == 2
    assert "[error]" in out and "exceeds 2147483647" in out


def test_every_command_has_a_handler():
    from flatspan.cli import HANDLERS
    from flatspan.reports import COMMANDS

    assert set(COMMANDS) == set(HANDLERS)


def _handler_runs(text):
    """Every check of a workspace run through its handler with a fresh
    budget: ``(check name, budget, certificate blocks)`` per check."""
    from flatspan.budget import Budget
    from flatspan.cli import HANDLERS
    from flatspan.workspace import parse_workspace

    doc = parse_workspace(text)
    for req in doc.checks:
        budget = Budget()
        certificates = HANDLERS[req.command](doc, req, budget)[3]
        yield req.name, budget, certificates


# Budget.used of every shipped check, recorded before the Groebner kernel
# packed its monomials: a change that moves one moves where a budgeted run
# of that check runs out, and with it an inconclusive report.
SHIPPED_STEPS = {
    ("cancel-families", "f1"): 6,
    ("cancel-families", "f2"): 9,
    ("cancel-families", "r1"): 10,
    ("cancel-families", "r2"): 8,
    ("cancel-families", "ix"): 81,
    ("contraction-basics", "k1"): 82,
    ("contraction-basics", "k2"): 94,
    ("contraction-basics", "k3"): 17,
    ("contraction-basics", "k4"): 48,
    ("failing-checks", "f1"): 3,
    ("failing-checks", "f2"): 3,
    ("level3-verifier", "main"): 58,
    ("mod5-cuts", "c1"): 9,
    ("mod5-cuts", "r1"): 10,
    ("mod5-cuts", "v1"): 52,
    ("span-algebra", "c1"): 20,
    ("span-algebra", "c2"): 5,
    ("span-algebra", "c3"): 5,
    ("span-algebra", "c4"): 9,
    ("span-algebra", "c5"): 9,
    ("span-algebra", "c6"): 8,
    ("valuation-bounds", "b1"): 13,
    ("valuation-bounds", "b2"): 10,
    ("valuation-bounds", "b3"): 12,
    ("valuation-bounds", "s1"): 24,
    ("valuation-bounds", "s2"): 21,
    ("valuation-bounds", "s3"): 28,
}


def test_shipped_checks_spend_their_pinned_steps():
    used = {}
    for path in sorted(WORKSPACES.glob("*.fsw")):
        for name, budget, _ in _handler_runs(path.read_text(encoding="utf-8")):
            used[path.stem, name] = budget.used
    assert used == SHIPPED_STEPS


def _source_points(source, count=3):
    """``count`` rational points of ``source`` with nonzero coordinates.
    Coordinates take values in ring order, except that one a relation
    determines linearly (an inverse, a localizing variable) is solved for.
    A point off the source or with a zero coordinate is skipped."""
    ring, field = source.ring, source.ring.field
    fractions = ((2, 1), (3, 1), (-1, 1), (1, 2), (-3, 2))
    values = [v for v in (field.from_fraction(n, d) for n, d in fractions) if v]
    zero = (0,) * ring.nvars
    points = []
    for shift in range(4 * count):
        at, free = {}, itertools.islice(itertools.cycle(values), shift, None)
        while len(at) < ring.nvars:
            constants = {v: ring.const(a) for v, a in at.items()}
            for rel in source.relations:
                rest = rel.substitute(constants, ring) if constants else rel
                if len(rest.variables()) == 1 and rest.total_degree() == 1:
                    (v,) = rest.variables()
                    terms = rest.terms()
                    slope = terms[tuple(int(name == v) for name in ring.names)]
                    at[v] = field.neg(field.mul(terms.get(zero, field.zero), field.inv(slope)))
                    break
            else:
                at[next(v for v in ring.names if v not in at)] = next(free)
        constants = {v: ring.const(a) for v, a in at.items()}
        on_source = all(rel.substitute(constants, ring).is_zero() for rel in source.relations)
        if on_source and all(at.values()):
            points.append(at)
        if len(points) == count:
            return points
    raise AssertionError(f"fewer than {count} points found on {source}")


@pytest.mark.parametrize(
    "text",
    [pytest.param(p.read_text(encoding="utf-8"), id=p.stem) for p in sorted(WORKSPACES.glob("*.fsw"))]
    + [pytest.param(TORSION_DOC, id="torsion")],
)
def test_certified_blocks_have_their_rank_as_fiber_dimension(text):
    """A middle finite free of rank r over its source has an r-dimensional
    fiber over every rational point, which ``fiber_dimension`` computes
    apart from certification.  The torsion document certifies nothing; a
    certification without its torsion test would pass it with rank 1,
    while the fiber over every point ``x != 0`` is empty."""
    from oracles import fiber_dimension

    from flatspan.reports import correspondence_from_json, outcome_from_json

    for name, _, certificates in _handler_runs(text):
        for block in certificates:
            if block["kind"] != "finite-flat":
                continue
            corr = correspondence_from_json(block["span"])
            rank = outcome_from_json(block["outcome"]).rank
            for at in _source_points(corr.source):
                assert fiber_dimension(corr, at) == rank, (name, at)


# ---------------------------------------------------------------------------
# exit codes follow exception types


ERRORS_DOC = """workspace errors
field QQ
scheme L = line x
scheme G = torus t
scheme X = product L G
scheme P = point
span Z : X -> P {
  piece {
    vars x, t, t_inv
    rels t*t_inv - 1
    source x: x, t: t, t_inv: t_inv
  }
}
span idg : G -> G {
  piece {
    vars t, t_inv
    rels t*t_inv - 1
    source t: t, t_inv: t_inv
    target t: t, t_inv: t_inv
  }
}
span zl : L -> P {
  piece {
    vars x, y
    rels y^2 - x
    source x: x
  }
}
"""

NO_TORUS = "scheme has 0 inverted coordinates []; expected exactly one"
SHARED_NAMES = "product factors share variable names ['t', 't_inv']"


@pytest.mark.parametrize(
    "request_text, message",
    [
        ("slice Z f: x n: 2 f2: 1 a: -1", "shift exponents must be nonnegative"),
        ("cancel-slice idg n: 0 sign: +", "cut exponent must be at least 1"),
        ("cancel idg m: 0 n: 1 sign: +", "cut exponent must be at least 1"),
        ("verify-cancellation n: 0", "cut exponent must be at least 1"),
        ("slice Z f: x n: -3", "negative power; use the companion of an inverted name"),
        ("filtration idg window: -2", "window must be at least 1"),
        ("tensor idg idg", SHARED_NAMES),
        ("verify-compat idg zl idg m: 1 n: 1 sign: +", SHARED_NAMES),
        ("bound zl f: y", NO_TORUS),
        ("cancel zl m: 1 n: 1 sign: +", NO_TORUS),
        ("slice zl f: y n: 2", NO_TORUS),
        ("filtration zl", NO_TORUS),
        ("cancel-slice zl n: 2 sign: +", NO_TORUS),
        ("compose Z idg", "composition needs left.target == right.source"),
        ("contract zl", "contraction expects the span to target a punctured-line power"),
    ],
)
def test_a_bad_request_is_an_error_report_and_the_batch_goes_on(
    capsys, tmp_path, request_text, message
):
    """Each request raises an input error inside its handler: its report
    says ``[error]`` with the error's message, the next check still runs,
    and the batch exits 2."""
    doc = tmp_path / "errors.fsw"
    doc.write_text(ERRORS_DOC + f"check e = {request_text}\ncheck ok = certify idg\n", "utf-8")
    code, out, err = run_cli(capsys, "run", str(doc))
    head = " ".join(re.split(r" \w+: ", request_text)[0].split())
    lines = [re.sub(r"\(\d+ ms\)$", "(ms)", line) for line in out.splitlines()]
    assert (code, err) == (2, "")
    assert lines[0] == f"[error] e {head} -- {message} (ms)"
    assert lines[1].startswith("[pass] ok certify idg -- finite free of rank 1")


def _raise_a_bug(*args, **kwargs):
    raise ValueError("a library bug")


def test_a_library_bug_in_a_check_propagates(monkeypatch):
    """A builtin error out of a handler is a bug: it is raised, never an
    error verdict with exit 2."""
    import flatspan.cli

    monkeypatch.setattr(flatspan.cli, "certify_finite_flat", _raise_a_bug)
    with pytest.raises(ValueError, match="a library bug"):
        main(["certify", "--workspace", workspace("span-algebra"), "--corr", "idg"])


def test_a_library_bug_in_a_recheck_propagates(capsys, tmp_path, monkeypatch):
    """A builtin error out of a certificate's recheck is a bug, never a
    finding with exit 1."""
    import flatspan.reports

    _, _, out = structured(capsys, tmp_path, "span-algebra")
    monkeypatch.setattr(flatspan.reports, "recheck_certificate", _raise_a_bug)
    with pytest.raises(ValueError, match="a library bug"):
        main(["run", workspace("span-algebra"), "--recheck", str(out)])


@pytest.mark.parametrize(
    "argv",
    [
        ["run", workspace("span-algebra")],
        ["run", workspace("span-algebra"), "--format", "structured"],
        ["certify", "--workspace", workspace("span-algebra"), "--corr", "idg"],
    ],
    ids=["run", "structured", "single"],
)
def test_a_budget_spent_while_a_document_loads_is_inconclusive(capsys, monkeypatch, argv):
    """Each span of a document is validated as it is read, under a budget
    of its own; running out there is one ``inconclusive:`` line and exit 3,
    never a traceback."""
    import flatspan.workspace
    from flatspan.budget import BudgetExhausted

    def spent(corr):
        raise BudgetExhausted(1000000, "basis")

    monkeypatch.setattr(flatspan.workspace, "validate_correspondence", spent)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "inconclusive: step budget of 1000000 exhausted during basis\n"


NEGATED_SQUARE = """workspace neg
field QQ
scheme G = torus t
span neg : G -> G {
  piece {
    vars t, t_inv
    rels t*t_inv - 1
    source t: t, t_inv: t_inv
    target t: -t^2, t_inv: -t_inv^2
  }
}
check ix = filtration neg window: 2
"""


def test_a_filtration_with_no_certified_level_fails_and_rechecks(capsys, tmp_path):
    doc = tmp_path / "neg.fsw"
    doc.write_text(NEGATED_SQUARE, encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(doc))
    assert (code, err) == (1, "")
    head = re.sub(r"\(\d+ ms\)$", "(ms)", out.splitlines()[0])
    assert head == "[fail] ix filtration neg -- no fully certified level within window 2 (ms)"
    assert "    blocking: 2,2,-" in out.splitlines()
    report = tmp_path / "neg.json"
    assert main(["run", str(doc), "--format", "structured", "--out", str(report)]) == 1
    code, out, err = run_cli(capsys, "run", str(doc), "--recheck", str(report))
    assert (code, out, err) == (0, "recheck: 1 report(s) agree\n", "")


def _zero_entry(block):
    block["entries"][0].update(value="0", valuation=None)


def _foreign_torus_variable(block):
    block["torus_var"] = "u"


def _piece_over_another_field(block):
    block["span"]["pieces"][0]["ring"]["field"] = "Fp:5"


@pytest.mark.parametrize(
    "kind, tamper, message",
    [
        ("valuation-bound", _zero_entry, "entry f[0,0] is zero"),
        (
            "valuation-bound",
            _foreign_torus_variable,
            "torus variable 'u' is not an inverted variable of the ring",
        ),
        ("finite-flat", _piece_over_another_field, "stored span has rings over different fields"),
    ],
    ids=["zero-entry", "foreign-torus-variable", "piece-over-another-field"],
)
def test_recheck_names_a_block_it_cannot_read(capsys, tmp_path, kind, tamper, message):
    """Each tamper leaves a block that no check could have written; recheck
    names what is wrong with it and exits 1."""
    _, payload, out = structured(capsys, tmp_path, "valuation-bounds")
    [report] = [r for r in payload["reports"] if r["name"] == "b1"]
    [block] = [b for b in report["certificates"] if b["kind"] == kind]
    tamper(block)
    out.write_text(json.dumps(payload), encoding="utf-8")
    code, text, err = run_cli(capsys, "run", workspace("valuation-bounds"), "--recheck", str(out))
    assert (code, err) == (1, "")
    assert text.splitlines() == [f"b1: certificate could not be rebuilt: {message}"]


def test_recheck_catches_a_stray_leg(capsys, tmp_path):
    """A stored piece whose source map names a coordinate its foot lacks is
    no span a check could have written, so it is a finding, not dropped."""
    _, payload, out = structured(capsys, tmp_path, "cancel-families")
    [report] = [r for r in payload["reports"] if r["name"] == "f1"]
    [block] = [b for b in report["certificates"] if b["kind"] == "finite-flat"]
    block["span"]["pieces"][0]["source"]["bogus"] = "1"
    out.write_text(json.dumps(payload), encoding="utf-8")
    code, text, err = run_cli(capsys, "run", workspace("cancel-families"), "--recheck", str(out))
    assert (code, err) == (1, "")
    assert text.splitlines() == [
        "f1: certificate could not be rebuilt: "
        "source map names 'bogus', not a coordinate of its foot"
    ]


def test_recheck_refuses_a_key_given_twice(capsys, tmp_path):
    """A stored leg map with two images of one coordinate is no envelope a
    run writes: reading it is an input error, not a last entry that wins."""
    _, payload, out = structured(capsys, tmp_path, "cancel-families")
    [report] = [r for r in payload["reports"] if r["name"] == "f1"]
    [block] = [b for b in report["certificates"] if b["kind"] == "finite-flat"]
    block["span"]["pieces"][0]["source"] = {"s": "twice"}
    text = json.dumps(payload).replace('{"s": "twice"}', '{"s": "s + 7", "s": "s"}')
    assert text.count('"s": "s + 7"') == 1
    out.write_text(text, encoding="utf-8")
    code, text, err = run_cli(capsys, "run", workspace("cancel-families"), "--recheck", str(out))
    assert (code, text) == (2, "")
    assert err == "error: report repeats the key 's' in one object\n"


def test_recheck_reads_each_piece_rank(capsys, tmp_path):
    """A piece certificate's stored rank must be its staircase size."""
    _, payload, out = structured(capsys, tmp_path, "cancel-families")
    [report] = [r for r in payload["reports"] if r["name"] == "f1"]
    [block] = [b for b in report["certificates"] if b["kind"] == "finite-flat"]
    [piece] = block["outcome"]["pieces"]
    assert piece["rank"] == 1
    piece["rank"] = 2
    out.write_text(json.dumps(payload), encoding="utf-8")
    code, text, err = run_cli(capsys, "run", workspace("cancel-families"), "--recheck", str(out))
    assert (code, err) == (1, "")
    assert text.splitlines() == [
        "f1: certificate could not be rebuilt: piece rank 2 is not its staircase size 1"
    ]


def test_recheck_derives_the_certificate_ring(capsys, tmp_path):
    """A certificate's ring is the one certification builds from the piece
    and the source, so fiber variables renamed consistently through the
    stored ring, basis and matrices are a finding, not a layout trusted."""
    _, payload, out = structured(capsys, tmp_path, "cancel-families")
    [report] = [r for r in payload["reports"] if r["name"] == "f1"]
    [block] = [b for b in report["certificates"] if b["kind"] == "finite-flat"]
    [piece] = block["outcome"]["pieces"]
    assert piece["ring"] == {"field": "QQ", "names": ["t", "t_inv", "s2", "s"], "inverted": ["t"]}
    renamed = {"t": "a", "t_inv": "a_inv", "s2": "b"}

    def rename(text):
        return re.sub(r"[A-Za-z_]\w*", lambda m: renamed.get(m[0], m[0]), text)

    piece["ring"]["names"] = [renamed.get(v, v) for v in piece["ring"]["names"]]
    piece["ring"]["inverted"] = ["a"]
    piece["basis"] = [rename(g) for g in piece["basis"]]
    piece["matrices"] = {renamed[v]: rows for v, rows in piece["matrices"].items()}
    out.write_text(json.dumps(payload), encoding="utf-8")
    code, text, err = run_cli(capsys, "run", workspace("cancel-families"), "--recheck", str(out))
    assert (code, err) == (1, "")
    assert text.splitlines() == ["f1: stored finite-flat certificate fails re-validation"]


def test_a_torus_power_past_the_digit_limit_is_an_input_error(capsys, tmp_path):
    """The power is refused before ``int()``, which would raise a builtin
    error on more than 4300 digits."""
    doc = tmp_path / "power.fsw"
    doc.write_text("field QQ\nscheme G = torus^" + LONG + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(doc))
    assert (code, out, err) == (2, "", "error: line 2: torus power longer than 4300 digits\n")


def _leaves(node, path=()):
    """The path of each leaf of a JSON value: a scalar or an empty list or
    object."""
    if isinstance(node, (dict, list)) and node:
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from _leaves(value, path + (key,))
    else:
        yield path


def _edited(value):
    """Another value of a leaf: a number plus one, a text with ``" + 1"``
    appended (so a polynomial stays one), an empty list holding ``"1"``."""
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + " + 1"
    return ["1"]


@pytest.mark.parametrize(
    "name, check, kind, part",
    [
        ("cancel-families", "f1", "finite-flat", "outcome"),
        ("valuation-bounds", "b1", "valuation-bound", None),
    ],
    ids=["f1-outcome", "b1-valuation-bound"],
)
def test_recheck_checks_every_leaf_of_a_certificate_block(capsys, tmp_path, name, check, kind, part):
    """Each leaf of the block (of its outcome, for a finite-flat one),
    edited alone, makes ``run --recheck`` exit 1.  An edit that parses back
    to the same value would be no tamper, and ``_edited`` makes none."""
    _, payload, out = structured(capsys, tmp_path, name, "--only", check)
    [block] = [b for b in payload["reports"][0]["certificates"] if b["kind"] == kind]
    root = block[part] if part else block
    agreeing = []
    for path in list(_leaves(root)):
        *steps, last = path
        parent = root
        for step in steps:
            parent = parent[step]
        original, parent[last] = parent[last], _edited(parent[last])
        out.write_text(json.dumps(payload), encoding="utf-8")
        code, text, err = run_cli(capsys, "run", workspace(name), "--recheck", str(out))
        parent[last] = original
        assert code in (0, 1) and err == "", (path, text)
        if code == 0:
            agreeing.append((check, *path))
    assert agreeing == []


def _b1_bound(payload):
    """``b1``'s report and its valuation-bound block."""
    [report] = [r for r in payload["reports"] if r["name"] == "b1"]
    [block] = [b for b in report["certificates"] if b["kind"] == "valuation-bound"]
    return report, block


def _set_ring(key, value):
    return lambda payload: _b1_bound(payload)[1]["ring"].__setitem__(key, value)


def _empty_bound(payload):
    """Gap (b) of ROADMAP item 1: no entries, and both bounds 0, with the
    null ring a block without entries is written with."""
    report, block = _b1_bound(payload)
    block["entries"], block["ring"], block["bound"], report["data"]["bound"] = [], None, 0, 0


def _data_line(payload):
    report, _ = _b1_bound(payload)
    report["data"]["entries"][0] = "f[0,0] valuation -2: x*t_inv^2 + 1"


def _data_torus_var(payload):
    _b1_bound(payload)[0]["data"]["torus_var"] = "x"


def _swapped_blocks(payload):
    _b1_bound(payload)[0]["certificates"].reverse()


@pytest.mark.parametrize(
    "tamper, finding",
    [
        (_set_ring("field", "Fp:5"), "stored valuation bound"),
        (_set_ring("names", ["x", "t", "t_inv", "y"]), "stored valuation bound"),
        (_empty_bound, "stored valuation bound"),
        (_data_line, "report data"),
        (_data_torus_var, "report data"),
        (_swapped_blocks, "a bound pass carries"),
    ],
    ids=["field", "extra-name", "emptied", "data-line", "data-torus-var", "swapped"],
)
def test_recheck_rederives_the_valuation_bound_of_a_bound_pass(capsys, tmp_path, tamper, finding):
    """Each tamper leaves ``b1``'s blocks readable, its finite-flat block
    intact and its claimed bound equal to its block's, but the valuation
    bound or the data is not what the request's ``f`` makes over the
    finite-flat block, or the blocks are not in the order the check
    writes them.  An entry's edited ``value``, ``row``, ``col`` or
    ``label`` is one of the leaf edits of
    :func:`test_recheck_checks_every_leaf_of_a_certificate_block`."""
    _, payload, out = structured(capsys, tmp_path, "valuation-bounds")
    tamper(payload)
    out.write_text(json.dumps(payload), encoding="utf-8")
    code, text, err = run_cli(capsys, "run", workspace("valuation-bounds"), "--recheck", str(out))
    assert (code, err) == (1, "")
    assert text.startswith(f"b1: {finding}") and "agree" not in text


@pytest.mark.parametrize(
    "args, message",
    [
        ({}, "'f'"),
        ({"f": "x*("}, "stored polynomial 'x*(' does not parse"),
        ({"f": "y"}, "stored polynomial 'y' does not parse"),
        ({"f": 3}, "expected string or bytes-like object"),
        ({"f": "x*t_inv^2", "f2": "x^"}, "stored polynomial 'x^' does not parse"),
    ],
    ids=["missing", "unparsable", "foreign-variable", "not-text", "bad-f2"],
)
def test_a_bound_that_cannot_be_rederived_is_a_finding(capsys, tmp_path, args, message):
    """Without the workspace to tie the request to, a bound request whose
    ``f`` is missing or does not parse in the piece ring is a finding."""
    from flatspan.reports import recheck_envelope

    _, payload, _ = structured(capsys, tmp_path, "valuation-bounds", "--only", "b1")
    payload["reports"][0]["request"]["args"] = args
    ok, messages = recheck_envelope(payload)
    assert not ok
    [line] = messages
    assert line.startswith(f"b1: the valuation bound could not be re-derived: {message}")


BIG_BASIS = """\
field QQ
scheme L = line x
span B : L -> L {
  piece {
    vars x, y, z
    rels y - 10^3000*x, z - 10^3000*y
    source x: x
    target x: z
  }
}
check c = certify B
"""
WRITE_RULE = "a coefficient longer than 4300 digits cannot be written"


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_a_certificate_past_the_digit_rule_is_an_error_report(capsys, tmp_path, fmt):
    """Every literal is within the parser's cap, but the reduced basis holds
    ``z - 10^6000*x``, which no report could write and no parse read back:
    the check ends as one error report that names the rule."""
    doc = tmp_path / "big.fsw"
    doc.write_text(BIG_BASIS, encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "run", str(doc), "--format", fmt)
    assert time.perf_counter() - start < 1
    assert (code, err) == (2, "")
    if fmt == "text":
        assert re.fullmatch(rf"\[error\] c certify B -- {WRITE_RULE} \(\d+ ms\)\n", out)
    else:
        [report] = json.loads(out)["reports"]
        assert (report["verdict"], report["detail"], report["certificates"]) == ("error", WRITE_RULE, [])


# the feet a generated span runs over: its coordinates, the relations among
# them, and a polynomial in them that a fiber relation may carry
BASES = {
    "point": ("point", [], [], "1"),
    "line": ("line x", ["x"], [], "x"),
    "torus": ("torus t", ["t", "t_inv"], ["t*t_inv - 1"], "t_inv"),
}


@st.composite
def big_spans(draw):
    """A single-piece span ``S -> S`` over a point, the x-line or a torus,
    identity on the foot, with one fiber variable ``y`` cut out by one
    relation: over QQ its coefficients reach about 10^1000, fractions
    included; over GF(32003) they are integers as long, reduced."""
    prime = draw(st.sampled_from([None, 32003]))
    foot, names, rels, carried = BASES[draw(st.sampled_from(sorted(BASES)))]
    bound = 10**1000
    degree, terms = draw(st.integers(1, 3)), []
    for power in range(degree, -1, -1):
        num = draw(st.integers(-bound, bound))
        den = 1 if prime else draw(st.one_of(st.just(1), st.integers(1, bound)))
        coefficient = str(num) if den == 1 else f"{num}/{den}"
        # the leading coefficient is a constant, so the fiber is finite
        factor = carried if power < degree and draw(st.booleans()) else "1"
        terms.append(f"({coefficient})*{factor}*y^{power}")
    legs = ", ".join(f"{v}: {v}" for v in names)
    piece = [f"    vars {', '.join(names + ['y'])}", f"    rels {', '.join(rels + [' + '.join(terms)])}"]
    if legs:
        piece += [f"    source {legs}", f"    target {legs}"]
    k, n, sign = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.sampled_from("+-"))
    return "\n".join(
        [
            f"field {'Fp ' + str(prime) if prime else 'QQ'}",
            f"scheme S = {foot}",
            "span a : S -> S {",
            "  piece {",
            *piece,
            "  }",
            "}",
            "check c1 = certify a",
            f"check c2 = bound a f: {carried}*y^{k}",
            f"check c3 = cancel-slice a n: {n} sign: {sign}",
            "check c4 = add a a",
            "",
        ]
    )


# y^11 is c^5*y on y^2 = c, past the rule when c has 1,000 digits
PAST_THE_RULE = f"""\
field QQ
scheme S = torus t
span a : S -> S {{
  piece {{
    vars t, t_inv, y
    rels t*t_inv - 1, y^2 - {7 * 10**999 + 1}
    source t: t, t_inv: t_inv
    target t: t, t_inv: t_inv
  }}
}}
check c1 = certify a
check c2 = bound a f: t_inv*y^11
check c3 = cancel-slice a n: 2 sign: -
check c4 = add a a
"""


@settings(max_examples=40, deadline=None)
@given(text=big_spans())
@example(text=PAST_THE_RULE)
def test_every_number_a_check_writes_reads_back(text):
    """Every report of ``certify``, ``bound``, ``cancel-slice`` and ``add``
    on a span with coefficients near the digit rule is either an error that
    names the rule, or its blocks and result read back to what was written;
    no check raises, and the envelope rechecks as agreeing."""
    from flatspan.cli import execute_check
    from flatspan.reports import (
        block_from_json,
        bound_block,
        correspondence_from_json,
        correspondence_to_json,
        envelope_json,
        finite_flat_block,
        input_digest,
        recheck_envelope,
    )
    from flatspan.workspace import parse_workspace, print_workspace

    doc = parse_workspace(text)
    reports = [execute_check(doc, req) for req in doc.checks]
    canonical = print_workspace(doc)
    envelope = json.loads(json.dumps(envelope_json(reports, input_digest(canonical))))
    for report in envelope["reports"]:
        if report["verdict"] == "error" and report["detail"] == WRITE_RULE:
            continue
        for block in report["certificates"]:
            read = block_from_json(block)
            written = finite_flat_block(*read) if block["kind"] == "finite-flat" else bound_block(read)
            assert written == block
        result = report["data"].get("result")
        if result is not None:
            assert correspondence_to_json(correspondence_from_json(result)) == result
    if text == PAST_THE_RULE:
        assert envelope["reports"][1]["detail"] == WRITE_RULE
    assert recheck_envelope(envelope, canonical) == (True, ["recheck: 4 report(s) agree"])
