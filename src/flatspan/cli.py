"""Batch verification front end.

``flatspan run workspace.fsw`` executes every check request in a
workspace document and prints one report per request; with
``--format structured`` the full envelope (request echoes, verdicts,
certificates, input digest) is emitted as JSON, to standard output or to
``--out FILE``.  Feeding a stored envelope back through
``flatspan run workspace.fsw --recheck report.json`` re-validates every
embedded certificate from its stored data alone.

Each command is also available directly, resolving names against a
workspace, e.g. ``flatspan certify --workspace w.fsw --corr alpha`` or
``flatspan bound --workspace w.fsw --corr Z --f "x*t_inv^2"``; the
level verifier needs no workspace at all:
``flatspan verify-cancellation --n 3 --field Fp:5``.

Exit codes depend on the verdict only: 0 pass, 1 fail, 2 input error,
3 inconclusive (budget exhausted or no certificate either way).  A batch
run exits with the numerically largest code among its reports.  A check
that raises :class:`~flatspan.budget.BudgetExhausted` is inconclusive and
one that raises :class:`~flatspan.budget.InputError` is an error; outside a
check, an ``InputError`` or ``OSError`` exits 2, and a ``BudgetExhausted``
(say, while a document's spans are validated) prints one ``inconclusive:``
line and exits 3.  Any other exception is a bug and a traceback, whatever
status the process exits with.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .budget import DEFAULT_STEPS, Budget, BudgetExhausted, InputError
from .cancellation import (
    bound_from_values,
    cancel_family,
    cancel_slice,
    filtration_index,
    shifted_slice,
    slice_locus,
    verify_cancellation,
    verify_compat,
)
from .contraction import (
    contract,
    standard_contraction_data,
    verify_contraction_endpoints,
)
from .fields import field_from_name
from .polyparse import format_polynomial, parse_polynomial
from .reports import (
    COMMANDS,
    Report,
    ReportError,
    bound_block,
    bound_data,
    correspondence_to_json,
    envelope_json,
    finite_flat_block,
    input_digest,
    load_envelope,
    recheck_envelope,
    render_text,
)
from .spans import (
    add,
    certify_finite_flat,
    compose,
    external_tensor,
    validate_correspondence,
)
from .workspace import (
    CheckRequest,
    WorkspaceDocument,
    WorkspaceError,
    check_request,
    parse_workspace,
    print_workspace,
)

def _span(doc: WorkspaceDocument, req: CheckRequest, index: int):
    return doc.spans[req.operands[index]]


def _middle_ring(corr, task: str):
    if len(corr.pieces) != 1:
        raise WorkspaceError(f"{task} needs a single-piece span")
    return corr.pieces[0].ring


def _certify_verdict(
    corr, outcome, extra=None, *, label="finite free of rank {}", key="rank", keep=False
):
    """The verdict, detail, data and certificates of one certification.

    A pass reports the rank under ``key`` followed by ``extra`` and
    carries the certificate; ``keep`` makes ``extra`` the data of a fail
    or inconclusive verdict too, in place of any torsion witness.
    """
    if outcome.certified:
        data = {key: outcome.rank, **(extra or {})}
        return "pass", label.format(outcome.rank), data, [finite_flat_block(corr, outcome)]
    data = dict(extra) if keep else {}
    if outcome.status == "inconclusive":
        return "inconclusive", outcome.detail, data, []
    if outcome.witness and not keep:
        data["witness"] = [format_polynomial(w) for w in outcome.witness]
    status = outcome.status.replace("_", " ")
    return "fail", f"{status}: {outcome.detail}", data, []


def _algebra(op):
    def handler(doc, req, budget):
        left = _span(doc, req, 0)
        right = _span(doc, req, 1)
        result = op(left, right)
        validate_correspondence(result, budget=budget)
        data = {
            "pieces": len(result.pieces),
            "source": list(result.source.ring.names),
            "target": list(result.target.ring.names),
            "result": correspondence_to_json(result),
        }
        return "pass", f"{len(result.pieces)} piece(s)", data, []

    return handler


def _h_certify(doc, req, budget):
    alpha = _span(doc, req, 0)
    outcome = certify_finite_flat(alpha, budget=budget)
    return _certify_verdict(alpha, outcome)


def _h_degree(doc, req, budget):
    alpha = _span(doc, req, 0)
    outcome = certify_finite_flat(alpha, budget=budget)
    return _certify_verdict(alpha, outcome, label="degree {}", key="degree")


def _h_bound(doc, req, budget):
    alpha = _span(doc, req, 0)
    ring = _middle_ring(alpha, "bound")
    f = parse_polynomial(req.arg("f"), ring)
    outcome = certify_finite_flat(alpha, budget=budget)
    if not outcome.certified:
        return _certify_verdict(alpha, outcome)
    f2_text = req.arg("f2")
    if f2_text is None:
        labelled = [("f", f)]
    else:
        labelled = [("f1", f), ("f2", parse_polynomial(f2_text, ring))]
    rep = bound_from_values(alpha, outcome, labelled, budget)
    certificates = [finite_flat_block(alpha, outcome), bound_block(rep)]
    return "pass", f"every exponent above {rep.n_bound} is admitted", bound_data(rep), certificates


def _h_slice(doc, req, budget):
    alpha = _span(doc, req, 0)
    ring = _middle_ring(alpha, "slice")
    f = parse_polynomial(req.arg("f"), ring)
    n = int(req.arg("n"))
    f2_text = req.arg("f2")
    if f2_text is None:
        if req.arg("a") is not None or req.arg("b") is not None:
            raise WorkspaceError("slice takes a and b only with f2")
        rep = slice_locus(alpha, f, n, budget=budget)
    else:
        f2 = parse_polynomial(f2_text, ring)
        a = int(req.arg("a", "0"))
        b = int(req.arg("b", "0"))
        rep = shifted_slice(alpha, f, f2, a, b, n, budget=budget)
    if rep.verdict == "certified-flf":
        data = {"slice-verdict": rep.verdict, "rank": rep.rank}
        return (
            "pass",
            f"finite free of rank {rep.rank}",
            data,
            [finite_flat_block(rep.correspondence, rep.certificate)],
        )
    if rep.verdict == "flat-by-certificate":
        data = {"slice-verdict": rep.verdict, "bound": rep.bound.n_bound}
        return (
            "pass",
            f"flat by valuation bound {rep.bound.n_bound}",
            data,
            [bound_block(rep.bound)],
        )
    if rep.verdict == "not-flat":
        data = {
            "slice-verdict": rep.verdict,
            "witness": [format_polynomial(w) for w in rep.witness],
        }
        return "fail", rep.certificate.detail, data, []
    data = {"slice-verdict": rep.verdict}
    if rep.bound is not None:
        data["bound"] = rep.bound.n_bound
    detail = rep.certificate.detail or "no certificate and the bound does not admit this exponent"
    return "inconclusive", detail, data, []


def _h_cancel(doc, req, budget):
    alpha = _span(doc, req, 0)
    m, n, sign = int(req.arg("m")), int(req.arg("n")), req.arg("sign")
    fam = cancel_family(alpha, m, n, sign, budget=budget)
    extra = {"parameter": fam.parameter, "indices": f"{m},{n}", "sign": sign}
    return _certify_verdict(
        fam.correspondence,
        fam.certificate,
        extra,
        label="blended family finite free of rank {}",
        keep=True,
    )


def _h_cancel_slice(doc, req, budget):
    alpha = _span(doc, req, 0)
    n, sign = int(req.arg("n")), req.arg("sign")
    corr = cancel_slice(alpha, n, sign)
    outcome = certify_finite_flat(corr, budget=budget)
    return _certify_verdict(corr, outcome, {"n": n, "sign": sign})


def _h_filtration(doc, req, budget):
    alpha = _span(doc, req, 0)
    size = int(req.arg("window", "8"))
    rep = filtration_index(alpha, window=size, budget=budget)
    certified = sum(1 for e in rep.entries if e.status == "certified")
    data = {"window": size, "families": len(rep.entries), "certified": certified}
    if rep.blocking is not None:
        data["blocking"] = "{},{},{}".format(*rep.blocking)
    certificates = [bound_block(rep.bound_plus), bound_block(rep.bound_minus)]
    if rep.found:
        data["index"] = rep.index
        return "pass", f"fully certified from level {rep.index}", data, certificates
    return "fail", f"no fully certified level within window {size}", data, certificates


def _h_verify_compat(doc, req, budget):
    first = _span(doc, req, 0)
    second = _span(doc, req, 1)
    third = _span(doc, req, 2)
    m, n, sign = int(req.arg("m")), int(req.arg("n")), req.arg("sign")
    rep = verify_compat(first, second, third, m, n, sign, budget=budget)
    data = {
        "target-side": "ok" if rep.push_ok else "mismatch",
        "source-side": "ok" if rep.pull_ok else "mismatch",
    }
    if not rep.ok:
        return "fail", rep.detail, data, []
    fam = rep.family
    certificates = (
        [finite_flat_block(fam.correspondence, fam.certificate)] if fam.certified else []
    )
    return "pass", "both naturality identities hold", data, certificates


def _h_verify_cancellation(doc, req, budget):
    n = int(req.arg("n"))
    rep = verify_cancellation(n, doc.field, budget=budget)
    data = {check.name: ("ok" if check.ok else check.detail) for check in rep.checks}
    if rep.ok:
        return "pass", f"all {len(rep.checks)} sub-checks hold at level {n}", data, []
    bad = rep.failures()
    return "fail", f"{len(bad)} of {len(rep.checks)} sub-checks fail", data, []


def _contracted(doc, req, budget):
    """Contract the operand along the standard datum of its target.

    Returns the span, the checked datum, the contraction and one
    finite-flat certificate block per chart.
    """
    alpha = _span(doc, req, 0)
    scheme = alpha.target
    primaries = [v for v in scheme.ring.names if v in scheme.ring.inverted]
    if not primaries:
        raise WorkspaceError(
            "contraction expects the span to target a punctured-line power"
        )
    n = len(primaries)
    datum = standard_contraction_data(n, scheme.ring.field)
    if datum.scheme != scheme:
        wanted = "t" if n == 1 else f"t1..t{n}"
        raise WorkspaceError(
            f"contraction expects target coordinates named {wanted} with inverses"
        )
    con = contract(alpha, datum, budget=budget)
    blocks = [finite_flat_block(chart.correspondence, chart.certificate) for chart in con.charts]
    return alpha, datum, con, blocks


def _h_contract(doc, req, budget):
    _, _, con, certificates = _contracted(doc, req, budget)
    data = {
        "avoided-locus": [format_polynomial(g) for g in con.source_ideal],
        "parameter": con.u_name,
        "charts": len(con.charts),
        "rank": con.rank,
        "avoids-zero": con.avoids_zero,
        "avoids-one": con.avoids_one,
        "chain": {
            label: [format_polynomial(p) for p in gens] for label, gens in con.chain
        },
    }
    if con.ok:
        detail = f"complement covered by {len(con.charts)} chart(s), rank {con.rank}"
        return "pass", detail, data, certificates
    problems = []
    if not con.avoids_zero:
        problems.append("the avoided locus meets parameter 0")
    if not con.avoids_one:
        problems.append("the avoided locus meets parameter 1")
    if con.rank is None:
        problems.append("a chart lost the input certificate")
    return "fail", "; ".join(problems), data, []


def _h_verify_contraction(doc, req, budget):
    alpha, datum, con, certificates = _contracted(doc, req, budget)
    rep = verify_contraction_endpoints(alpha, datum, con, budget=budget)
    data = {
        "identity-at": rep.identity_at,
        "base-point": [format_polynomial(g) for g in rep.base_point_ideal],
    }
    for piece in rep.slices:
        roles = []
        if piece.matches_input:
            roles.append("matches the input")
        if piece.lands_on_base_point:
            roles.append("lands on the base point")
        data[f"endpoint-{piece.value}"] = "; ".join(roles) or "neither role"
    if rep.dichotomy:
        detail = (
            f"identity at parameter {rep.identity_at}, "
            f"constant at {1 - rep.identity_at}"
        )
        return "pass", detail, data, certificates
    return "fail", rep.detail or "endpoint dichotomy violated", data, []


HANDLERS = {
    "compose": _algebra(compose),
    "add": _algebra(add),
    "tensor": _algebra(external_tensor),
    "certify": _h_certify,
    "degree": _h_degree,
    "bound": _h_bound,
    "slice": _h_slice,
    "cancel": _h_cancel,
    "cancel-slice": _h_cancel_slice,
    "filtration": _h_filtration,
    "verify-compat": _h_verify_compat,
    "verify-cancellation": _h_verify_cancellation,
    "contract": _h_contract,
    "verify-contraction": _h_verify_contraction,
}


def execute_check(
    doc: WorkspaceDocument,
    req: CheckRequest,
    budget_limit: int = DEFAULT_STEPS,
) -> Report:
    """Run one request; a spent budget or an :class:`InputError` is a verdict."""
    start = time.perf_counter()
    budget = Budget(budget_limit)
    try:
        verdict, detail, data, certificates = HANDLERS[req.command](doc, req, budget)
    except BudgetExhausted as err:
        verdict, detail, data, certificates = "inconclusive", str(err), {}, []
    except InputError as err:
        verdict, detail, data, certificates = "error", str(err), {}, []
    elapsed = int((time.perf_counter() - start) * 1000)
    return Report(
        req.name,
        req.command,
        req.operands,
        dict(req.args),
        verdict,
        detail,
        elapsed,
        data,
        certificates,
    )


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatspan",
        description="Certified correspondence calculus: run workspace checks "
        "and emit re-checkable reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p: argparse.ArgumentParser):
        p.add_argument(
            "--budget",
            type=int,
            default=DEFAULT_STEPS,
            help=f"reduction-step budget per request, positive (default {DEFAULT_STEPS})",
        )
        p.add_argument(
            "--format",
            choices=("text", "structured"),
            default="text",
            help="report rendering (structured = JSON envelope)",
        )
        p.add_argument("--out", metavar="FILE", help="also write the report here")

    runner = sub.add_parser("run", help="execute every check in a workspace document")
    runner.add_argument("workspace", help="workspace document to execute")
    runner.add_argument(
        "--only",
        action="append",
        metavar="NAME",
        help="restrict to the named check (repeatable)",
    )
    runner.add_argument(
        "--recheck",
        metavar="REPORT",
        help="re-validate a stored report envelope instead of recomputing",
    )
    shared(runner)

    for name, row in COMMANDS.items():
        p = sub.add_parser(name, help=f"run a single {name} request")
        p.add_argument("--workspace", help="workspace document declaring the operands")
        if row.operands:
            p.add_argument(
                "operands", nargs="*", metavar="SPAN", help="operand span names"
            )
            p.add_argument(
                "--corr",
                action="append",
                default=[],
                metavar="SPAN",
                help="operand span name (alternative to positionals)",
            )
        else:
            p.add_argument("--field", default="QQ", help="QQ or Fp:<p> (default QQ)")
        for key in row.required + row.optional:
            p.add_argument(f"--{key}")
        shared(p)
    return parser


def _emit(reports: list[Report], digest: str, args) -> None:
    if args.format == "structured":
        text = json.dumps(envelope_json(reports, digest), indent=2) + "\n"
    else:
        text = "\n".join(render_text(r) for r in reports) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _read_text(path: str, error: type[InputError]) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise error(f"{path} is not UTF-8 text: {err}") from err


def _load_document(path: str) -> tuple[WorkspaceDocument, str]:
    doc = parse_workspace(_read_text(path, WorkspaceError))
    return doc, print_workspace(doc)


def _run_batch(args) -> int:
    doc, canonical = _load_document(args.workspace)
    digest = input_digest(canonical)
    if args.recheck:
        payload = load_envelope(_read_text(args.recheck, ReportError))
        try:
            ok, messages = recheck_envelope(
                payload, workspace_text=canonical, budget_limit=args.budget
            )
        except BudgetExhausted as err:
            print(f"recheck: inconclusive: {err}")
            return 3
        for line in messages:
            print(line)
        return 0 if ok else 1
    checks = doc.checks
    if args.only:
        wanted = set(args.only)
        missing = wanted - {c.name for c in checks}
        if missing:
            raise WorkspaceError(f"no check named {sorted(missing)[0]!r}")
        checks = tuple(c for c in checks if c.name in wanted)
    reports = [execute_check(doc, req, args.budget) for req in checks]
    _emit(reports, digest, args)
    return max((r.exit_code for r in reports), default=0)


def _run_single(args) -> int:
    name = args.command
    row = COMMANDS[name]
    if args.workspace:
        doc, canonical = _load_document(args.workspace)
    elif row.operands:
        raise WorkspaceError(f"{name} needs --workspace to resolve span names")
    else:
        doc = WorkspaceDocument(field_text=args.field, field=field_from_name(args.field))
    operands = (*args.corr, *args.operands) if row.operands else ()
    keyed = [
        (key, getattr(args, key))
        for key in row.required + row.optional
        if getattr(args, key) is not None
    ]
    req = check_request(
        name, name, operands, keyed, doc.spans, missing="{command} requires --{key}"
    )
    if not args.workspace:
        canonical = name + "".join(f" {k}: {v}" for k, v in req.args) + f" field {args.field}"
    report = execute_check(doc, req, args.budget)
    _emit([report], input_digest(canonical), args)
    return report.exit_code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.budget < 1:
            raise WorkspaceError(f"--budget must be positive, got {args.budget}")
        if args.command == "run":
            return _run_batch(args)
        return _run_single(args)
    except (InputError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BudgetExhausted as err:
        print(f"inconclusive: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
