"""Verification reports: check commands, serialization, digests, and re-checking.

A report envelope carries the tool version, a digest of the canonical
input, and one report per request.  Pass reports embed their supporting
data — presentations, Groebner bases, staircases, multiplication
matrices — so that ``recheck`` can confirm them later without running
the original pipeline again: stored bases are validated by S-pair
reduction, and the source's base basis is the one completion recheck
runs.

Recheck reads each stored request, result and certificate block once
through :func:`_read`, which makes a malformed one a :class:`ReportError`
and so a finding; an exception out of a check is a bug.  A stored leaf
that restates others (a piece's labels, Fitting ideals and rank, a
certified outcome's status, rank, detail and witness, a valuation and a
bound) is derived on reading and must equal the stored one.  A bound
pass's valuation bound and data are derived again from its request over
its finite-flat certificate, by the call and the rendering the check used.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

from . import __version__
from .budget import DEFAULT_STEPS, Budget, InputError
from .cancellation import BoundEntry, BoundReport, bound_from_values
from .fields import field_from_name, field_name
from .modules import CertifyOutcome, PieceCertificate, PresentationError
from .poly import Polynomial, PolynomialRing, laurent_valuation
from .polyparse import ParseError, format_polynomial, parse_polynomial
from .schemes import AffineScheme
from .spans import Correspondence, make_piece, recheck_certificate

SCHEMA_VERSION = 1
VERDICTS = ("pass", "fail", "inconclusive", "error")
EXIT_CODES = {"pass": 0, "fail": 1, "error": 2, "inconclusive": 3}


def input_digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


class ReportError(InputError):
    """A stored envelope, or a part of one, that cannot be read."""


# ---------------------------------------------------------------------------
# object <-> JSON


def ring_to_json(ring: PolynomialRing) -> dict:
    return {
        "field": field_name(ring.field),
        "names": list(ring.names),
        "inverted": sorted(ring.inverted),
    }


def ring_from_json(data: dict) -> PolynomialRing:
    if not isinstance(data, dict):
        raise ReportError(f"stored ring {data!r} is not an object")
    return PolynomialRing(
        field_from_name(data["field"]),
        tuple(data["names"]),
        frozenset(data["inverted"]),
    )


def _poly(text: str, ring: PolynomialRing) -> Polynomial:
    try:
        return parse_polynomial(text, ring)
    except ParseError as err:
        raise ReportError(f"stored polynomial {text!r} does not parse: {err}") from err


def scheme_to_json(scheme: AffineScheme) -> dict:
    return {
        "ring": ring_to_json(scheme.ring),
        "relations": [format_polynomial(r) for r in scheme.relations],
    }


def scheme_from_json(data: dict) -> AffineScheme:
    ring = ring_from_json(data["ring"])
    return AffineScheme(ring, tuple(_poly(t, ring) for t in data["relations"]))


def correspondence_to_json(corr: Correspondence) -> dict:
    pieces = []
    for piece in corr.pieces:
        pieces.append(
            {
                "ring": ring_to_json(piece.ring),
                "relations": [format_polynomial(r) for r in piece.relations],
                "source": {k: format_polynomial(v) for k, v in piece.src_map},
                "target": {k: format_polynomial(v) for k, v in piece.tgt_map},
            }
        )
    return {
        "source": scheme_to_json(corr.source),
        "target": scheme_to_json(corr.target),
        "pieces": pieces,
    }


def correspondence_from_json(data: dict) -> Correspondence:
    source = scheme_from_json(data["source"])
    target = scheme_from_json(data["target"])
    pieces = []
    for raw in data["pieces"]:
        ring = ring_from_json(raw["ring"])
        if ring.field != source.field:
            raise ReportError("stored span has rings over different fields")
        relations = [_poly(t, ring) for t in raw["relations"]]
        src = {k: _poly(v, ring) for k, v in raw["source"].items()}
        tgt = {k: _poly(v, ring) for k, v in raw["target"].items()}
        pieces.append(make_piece(ring, relations, src, tgt, source, target))
    return Correspondence(source, target, tuple(pieces))


def certificate_to_json(cert: PieceCertificate) -> dict:
    return {
        "ring": ring_to_json(cert.ring),
        "split": cert.split,
        "basis": [format_polynomial(g) for g in cert.groebner],
        "staircase": [list(e) for e in cert.staircase],
        "labels": list(cert.labels),
        "matrices": {
            var: [[format_polynomial(e) for e in row] for row in rows]
            for var, rows in cert.matrices
        },
        "base_basis": [format_polynomial(g) for g in cert.base_groebner],
        # the Fitting ideals below and at the rank, 0 and (1): a free
        # presentation has no relations
        "fitting_below": [],
        "fitting_at": ["1"],
        "rank": cert.rank,
    }


def _restated(
    data: dict, key: str, derived, finding: str = "stored {key} {stored!r} is not {derived!r}", **names
) -> None:
    """``data[key]`` restates what was read with it, so it must equal
    ``derived``; otherwise ``finding``, formatted with ``key``, ``stored``,
    ``derived`` and ``names``, is a :class:`ReportError`."""
    if data[key] != derived:
        raise ReportError(finding.format(key=key, stored=data[key], derived=derived, **names))


def certificate_from_json(data: dict) -> PieceCertificate:
    ring = ring_from_json(data["ring"])
    split = data["split"]
    base = PieceCertificate.base_of(ring, split)
    matrices = tuple(
        sorted(
            (var, tuple(tuple(_poly(e, base) for e in row) for row in rows))
            for var, rows in data["matrices"].items()
        )
    )
    cert = PieceCertificate(
        ring,
        split,
        tuple(_poly(t, ring) for t in data["basis"]),
        tuple(tuple(e) for e in data["staircase"]),
        matrices,
        tuple(_poly(t, base) for t in data["base_basis"]),
    )
    _restated(data, "rank", cert.rank, "piece rank {stored!r} is not its staircase size {derived}")
    _restated(data, "labels", list(cert.labels))
    _restated(data, "fitting_below", [])
    _restated(data, "fitting_at", ["1"])
    return cert


def outcome_to_json(outcome: CertifyOutcome) -> dict:
    return {
        "status": outcome.status,
        "rank": outcome.rank,
        "detail": outcome.detail,
        "witness": [format_polynomial(w) for w in outcome.witness],
        "pieces": [certificate_to_json(c) for c in outcome.pieces],
    }


def outcome_from_json(data: dict) -> CertifyOutcome:
    """A stored outcome, which a finite-flat block holds only certified:
    with no detail and no witness."""
    outcome = CertifyOutcome("certified", tuple(certificate_from_json(c) for c in data["pieces"]))
    for key, derived in (("status", "certified"), ("rank", outcome.rank), ("detail", ""), ("witness", [])):
        _restated(data, key, derived)
    return outcome


def finite_flat_block(corr: Correspondence, outcome: CertifyOutcome) -> dict:
    """Self-contained certificate: the presentation plus everything needed
    to confirm it without a fresh Groebner run."""
    return {
        "kind": "finite-flat",
        "span": correspondence_to_json(corr),
        "outcome": outcome_to_json(outcome),
    }


def bound_data(report: BoundReport) -> dict:
    """A bound pass's report data: the bound, the torus variable and one
    line per entry."""
    entries = [
        f"{e.label}[{e.row},{e.col}] valuation {e.valuation}: {format_polynomial(e.value)}"
        for e in report.entries
    ]
    return {"bound": report.n_bound, "torus_var": report.torus_var, "entries": entries}


def bound_block(report: BoundReport) -> dict:
    """Serialize a valuation-bound report; entries carry their own ring."""
    ring = report.entries[0].value.ring if report.entries else None
    return {
        "kind": "valuation-bound",
        "ring": ring_to_json(ring) if ring is not None else None,
        "torus_var": report.torus_var,
        "bound": report.n_bound,
        "entries": [
            {
                "label": e.label,
                "row": e.row,
                "col": e.col,
                "valuation": e.valuation,
                "value": format_polynomial(e.value),
            }
            for e in report.entries
        ],
    }


# ---------------------------------------------------------------------------
# reports


class Command(NamedTuple):
    """A check command's span operand count, its required and optional keys
    in canonical order, and the certificate kinds a pass carries one of."""

    operands: int
    required: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()
    carries: tuple[str, ...] = ()


# verify-compat carries nothing, since its pass has no certificate when the
# family is uncertified
COMMANDS = {
    "compose": Command(2),
    "add": Command(2),
    "tensor": Command(2),
    "certify": Command(1, carries=("finite-flat",)),
    "degree": Command(1, carries=("finite-flat",)),
    "bound": Command(1, ("f",), ("f2",), ("finite-flat",)),
    "slice": Command(1, ("f", "n"), ("f2", "a", "b"), ("finite-flat", "valuation-bound")),
    "cancel": Command(1, ("m", "n", "sign"), carries=("finite-flat",)),
    "cancel-slice": Command(1, ("n", "sign"), carries=("finite-flat",)),
    "filtration": Command(1, (), ("window",), ("valuation-bound",)),
    "verify-compat": Command(3, ("m", "n", "sign")),
    "verify-cancellation": Command(0, ("n",)),
    "contract": Command(1, carries=("finite-flat",)),
    "verify-contraction": Command(1, carries=("finite-flat",)),
}


def check_line(name: str, command: str, operands, args) -> str:
    """The workspace line of one check; ``args`` are key/value pairs."""
    keyed = (f"{key}: {value}" for key, value in args)
    return " ".join(["check", name, "=", command, *operands, *keyed])


@dataclass
class Report:
    name: str
    command: str
    operands: tuple[str, ...]
    args: dict[str, str]
    verdict: str
    detail: str = ""
    timing_ms: int = 0
    data: dict = dc_field(default_factory=dict)
    certificates: list[dict] = dc_field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.verdict]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "command": self.command,
            "request": {"operands": list(self.operands), "args": dict(self.args)},
            "verdict": self.verdict,
            "exit_code": self.exit_code,
            "detail": self.detail,
            "timing_ms": self.timing_ms,
            "data": self.data,
            "certificates": self.certificates,
        }


def envelope_json(reports: list[Report], digest: str) -> dict:
    code = max((r.exit_code for r in reports), default=0)
    return {
        "tool": "flatspan",
        "version": __version__,
        "schema_version": SCHEMA_VERSION,
        "input_digest": digest,
        "exit_code": code,
        "reports": [r.to_json() for r in reports],
    }


def render_text(report: Report) -> str:
    head = f"[{report.verdict}] {report.name} {report.command}"
    if report.operands:
        head += " " + " ".join(report.operands)
    if report.detail:
        head += f" -- {report.detail}"
    head += f" ({report.timing_ms} ms)"
    lines = [head]
    for key, value in report.data.items():
        if isinstance(value, dict) and any(
            isinstance(v, (list, dict)) for v in value.values()
        ):
            continue  # machine payload; the structured format carries it
        if isinstance(value, (list, tuple)):
            shown = ", ".join(str(v) for v in value)
        elif isinstance(value, dict):
            shown = "; ".join(f"{k}={v}" for k, v in value.items())
        else:
            shown = str(value)
        lines.append(f"    {key}: {shown}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# re-checking stored envelopes


def _read(reader, data):
    """``reader(data)``, where anything that malformed stored ``data`` makes
    the reader raise becomes a :class:`ReportError` with its message."""
    try:
        return reader(data)
    except (KeyError, TypeError, ValueError, AttributeError) as err:
        raise ReportError(str(err)) from err


def request_from_json(report: dict) -> tuple[str, str]:
    """A stored report's command and the check line its request makes."""
    request, command = report["request"], report["command"]
    line = check_line(report["name"], command, request["operands"], request["args"].items())
    return command, line


def bound_from_json(block: dict) -> BoundReport:
    """A valuation-bound block read back.  Entries must be nonzero
    polynomials of the block's ring and the torus variable an inverted
    variable of it, or no valuation is defined; each stored valuation, and
    the stored bound, must be the one the entries give.  A block with no
    entries is written with no ring."""
    tvar, entries = block["torus_var"], []
    if not block["entries"]:
        _restated(block, "ring", None)
    else:
        ring = ring_from_json(block["ring"])
        if tvar not in ring.inverted:
            raise ReportError(f"torus variable {tvar!r} is not an inverted variable of the ring")
        for entry in block["entries"]:
            label, row, col = entry["label"], entry["row"], entry["col"]
            value = _poly(entry["value"], ring)
            if value.is_zero():
                raise ReportError(f"entry {label}[{row},{col}] is zero")
            valuation = laurent_valuation(value, tvar)
            claim = "entry {at} claims valuation {stored}, recomputed {derived}"
            _restated(entry, "valuation", valuation, claim, at=f"{label}[{row},{col}]")
            entries.append(BoundEntry(label, row, col, valuation, value))
    report = BoundReport(tvar, tuple(entries))
    _restated(block, "bound", report.n_bound, "stored bound {stored} disagrees with entries")
    return report


def block_from_json(block: dict):
    """A finite-flat block as its span and outcome, or a valuation bound."""
    if block["kind"] == "finite-flat":
        return correspondence_from_json(block["span"]), outcome_from_json(block["outcome"])
    return bound_from_json(block)


# report data keys that restate a certificate: the block kind, and how to
# read the same value off such a block
_CLAIMS = {
    "rank": ("finite-flat", lambda block: block[1].rank),
    "degree": ("finite-flat", lambda block: block[1].rank),
    "bound": ("valuation-bound", lambda block: block.n_bound),
}


def _claim_findings(command: str, data: dict, blocks: list) -> list[str]:
    """A pass report must carry a certificate of a kind its command's
    ``carries`` names.  Its rank, degree or bound must equal that of every
    certificate of the matching kind it carries, and it must carry one.
    ``blocks`` pairs each block's kind with the block read back."""
    findings = []
    needed = COMMANDS[command].carries
    if needed and not any(kind in needed for kind, _ in blocks):
        findings.append(f"a {command} pass carries no {' or '.join(needed)} certificate")
    for key, (kind, carried) in _CLAIMS.items():
        if key not in data:
            continue
        values = [carried(block) for k, block in blocks if k == kind]
        if not values or any(v != data[key] for v in values):
            findings.append(f"claims {key} {data[key]!r}; {kind} certificates: {values}")
    return findings


def _bound_values(ring: PolynomialRing, args: dict) -> list[tuple[str, Polynomial]]:
    """A bound request's ``f`` (and ``f2``) in ``ring``, labelled as the
    check labels them."""
    f = _poly(args["f"], ring)
    if "f2" not in args:
        return [("f", f)]
    return [("f1", f), ("f2", _poly(args["f2"], ring))]


def _bound_findings(args: dict, data: dict, blocks: list, limit: int) -> list[str]:
    """A bound pass's valuation-bound block and data must be what
    :func:`~flatspan.cancellation.bound_from_values` makes of its request's
    ``f`` (and ``f2``), parsed in the piece ring of its finite-flat block,
    over that block under ``limit`` steps: the call the check wrote them
    with."""
    kinds = [kind for kind, _ in blocks]
    if kinds != ["finite-flat", "valuation-bound"] or len(blocks[0][1][0].pieces) != 1:
        return ["a bound pass carries a single-piece finite-flat block, then a valuation bound"]
    (_, (span, outcome)), (_, bound) = blocks
    try:
        labelled = _read(lambda a: _bound_values(span.pieces[0].ring, a), args)
        derived = bound_from_values(span, outcome, labelled, Budget(limit))
    except (InputError, PresentationError) as err:
        return [f"the valuation bound could not be re-derived: {err}"]
    findings = []
    if bound != derived:
        findings.append("stored valuation bound is not the one its request re-derives")
    if data != bound_data(derived):
        findings.append("report data is not what its re-derived valuation bound gives")
    return findings


def _report_findings(report: dict, lines: set[str] | None, limit: int) -> list[str]:
    """Why a stored report with a known verdict disagrees, or nothing.  It
    must answer a check, its result and certificate blocks must read back,
    each finite-flat block must recheck under ``limit`` steps, and a pass's
    claims must hold of its blocks (compared only when all of them read
    back).  A bound pass that agrees so far has its valuation bound
    re-derived."""
    try:
        command, line = _read(request_from_json, report)
    except ReportError:
        return [f"request {report.get('request')!r} is malformed"]
    if command not in COMMANDS:
        return [f"unknown command {command!r}"]
    if lines is not None and line not in lines:
        return ["answers no check of the workspace"]
    data, certificates = report.get("data", {}), report.get("certificates", [])
    if not isinstance(data, dict) or not isinstance(certificates, list):
        return ["'data' is not an object or 'certificates' is not a list"]
    findings, blocks = [], []
    if isinstance(data.get("result"), dict):
        try:
            _read(correspondence_from_json, data["result"])
        except ReportError as err:
            findings.append(f"stored result is not a valid presentation: {err}")
    for block in certificates:
        if not isinstance(block, dict):
            findings.append(f"certificate block {block!r} is not an object")
            continue
        kind = block.get("kind")
        if kind not in ("finite-flat", "valuation-bound"):
            findings.append(f"unknown certificate kind {kind!r}")
            continue
        try:
            read = _read(block_from_json, block)
        except ReportError as err:
            findings.append(f"certificate could not be rebuilt: {err}")
            continue
        if kind == "finite-flat" and not recheck_certificate(*read, budget=Budget(limit)):
            findings.append("stored finite-flat certificate fails re-validation")
        blocks.append((kind, read))
    if report["verdict"] == "pass" and len(blocks) == len(certificates):
        findings += _claim_findings(command, data, blocks)
    if command == "bound" and report["verdict"] == "pass" and not findings:
        findings += _bound_findings(report["request"]["args"], data, blocks, limit)
    return findings


def recheck_envelope(
    payload: dict,
    workspace_text: str | None = None,
    budget_limit: int = DEFAULT_STEPS,
) -> tuple[bool, list[str]]:
    """Re-validate a stored envelope.

    Checks the digest against the workspace (when one is supplied), the
    exit-code/verdict correspondence, that each report answers a check
    (a line of the workspace when one is supplied, else a known command),
    every embedded certificate (each under one budget of ``budget_limit``
    steps), that each pass carries the certificate kind its command needs,
    that each pass report's rank, degree or bound is the one its
    certificates carry, and that a bound pass's valuation bound is the one
    its request makes over its finite-flat certificate.  Returns overall
    agreement plus human-readable findings; a budget that runs out raises
    :class:`BudgetExhausted`.
    """
    keys = ("tool", "version", "schema_version", "input_digest", "exit_code", "reports")
    messages = [f"envelope is missing {key!r}" for key in keys if key not in payload]
    if payload.get("tool") not in (None, "flatspan"):
        messages.append(f"envelope was written by {payload.get('tool')!r}")
    if payload.get("schema_version") not in (None, SCHEMA_VERSION):
        messages.append(
            f"schema version {payload.get('schema_version')!r} is not {SCHEMA_VERSION}"
        )
    lines = None if workspace_text is None else set(workspace_text.splitlines())
    if workspace_text is not None and "input_digest" in payload:
        expected = input_digest(workspace_text)
        if payload["input_digest"] != expected:
            messages.append(
                "input digest does not match the workspace "
                f"({payload['input_digest']} vs {expected})"
            )
    reports = payload.get("reports", [])
    if not isinstance(reports, list):
        messages.append("envelope 'reports' is not a list")
        reports = []
    codes = []
    for index, report in enumerate(reports):
        if not isinstance(report, dict):
            messages.append(f"report {index} is not an object")
            continue
        where = report.get("name") or f"report {index}"
        verdict = report.get("verdict")
        if verdict not in VERDICTS:
            messages.append(f"{where}: unknown verdict {verdict!r}")
            continue
        codes.append(EXIT_CODES[verdict])
        if report.get("exit_code") != EXIT_CODES[verdict]:
            messages.append(
                f"{where}: exit code {report.get('exit_code')} does not follow "
                f"from verdict {verdict!r}"
            )
        findings = _report_findings(report, lines, budget_limit)
        messages += [f"{where}: {finding}" for finding in findings]
    if "exit_code" in payload and codes and payload["exit_code"] != max(codes):
        messages.append("envelope exit code does not match its reports")
    if messages:
        return False, messages
    return True, [f"recheck: {len(reports)} report(s) agree"]


def _unique_keys(pairs: list) -> dict:
    """A JSON object read back; a key given twice is an error, not a last
    entry that wins."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise ReportError(f"report repeats the key {key!r} in one object")
    return obj


def load_envelope(text: str) -> dict:
    try:
        payload = json.loads(text, object_pairs_hook=_unique_keys)
    except ReportError:  # a repeated key, which the ValueError clause would misname
        raise
    except json.JSONDecodeError as err:
        raise ReportError(f"report is not valid JSON: {err}") from err
    except RecursionError:
        raise ReportError("report nests too deeply to read") from None
    except ValueError:  # an integer past the interpreter's digit limit
        raise ReportError("report holds an integer too long to read") from None
    if not isinstance(payload, dict):
        raise ReportError("report envelope must be a JSON object")
    return payload
