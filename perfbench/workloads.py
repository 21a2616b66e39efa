"""The three benchmark workloads: input generation, one op, and its check.

Every workload is a list of *classes*.  A class fixes the shape of an op
(which span family, which window, which document kind) and owns a fixed
*pool* of concrete instances that differ in field, prime and constants.
The pools do not depend on the seed, so ``reference.json`` can hold the
expected outcome of every instance.  The seed shuffles each pool and the
order inside each round; round ``r`` runs instance ``r`` of every class,
so every op in a run is a distinct input and every round has the same mix
of op shapes.  That keeps the cost of a round steady across seeds.

Ops call the library through module attributes (``cancellation.X``), never
through names bound here, so the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass
from typing import Callable
from pathlib import Path

import flatspan.budget as budget_mod
import flatspan.cancellation as cancellation
import flatspan.reports as reports
from flatspan.fields import GF, QQ
from flatspan.poly import PolynomialRing
from flatspan.schemes import point, torus
from flatspan.spans import Correspondence, compose, graph_span, make_piece

ROOT = Path(__file__).resolve().parent.parent
SEARCH_STEPS = 10**8  # the gate's budget for searches; no op may run out
PRIMES = tuple(p for p in range(11, 200) if all(p % d for d in range(2, p)))
# -1 is left out: for t -> -t^k the minus diagonal families are not
# finite, a different case from the one the hand-derived index rule covers
QQ_CONSTANTS = (1, 2, -2, 3, -3, 4, -4, 5, -5, 6, 7, 8)


@dataclass
class Op:
    key: str  # instance id, the key of its reference entry
    payload: dict


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def stripped(payload: dict) -> dict:
    """The envelope without its timing fields, which are the only parts
    of a report that may differ between two runs of the same input."""
    out = dict(payload)
    out["reports"] = [
        {k: v for k, v in r.items() if k != "timing_ms"} for r in payload["reports"]
    ]
    return out


def envelope_facts(payload: dict) -> dict:
    """Certificate count, and the size of the serialized envelope with
    timings removed, so that it repeats exactly."""
    return {
        "certificates": sum(len(r["certificates"]) for r in payload["reports"]),
        "envelope_bytes": len(json.dumps(stripped(payload)).encode("utf-8")),
    }


def envelope_text(rep_list, key: str) -> str:
    return json.dumps(reports.envelope_json(rep_list, reports.input_digest(key)))


def recheck(text: str) -> tuple[dict, bool, list[str]]:
    payload = reports.load_envelope(text)
    ok, messages = reports.recheck_envelope(payload)
    return payload, ok, messages


def field_of(tag: str):
    return QQ if tag == "QQ" else GF(int(tag.split(":")[1]))


# ---------------------------------------------------------------------------
# filtration: torus self-spans through the index search


def _ring(field, names, inverted=()):
    return PolynomialRing(field, tuple(names), frozenset(inverted))


def _const(field, ring, c):
    return ring.const(field.from_int(c))


def _inv_const(field, ring, c):
    return ring.const(field.inv(field.from_int(c)))


def torus_graph(field, k: int, c: int) -> Correspondence:
    """The graph of t -> c*t^k; the library's identity when k = c = 1."""
    if k == 1 and c == 1:
        return cancellation.torus_identity(field)
    gm = torus(field, "t")
    r = gm.ring
    images = {
        "t": _const(field, r, c) * r.var("t") ** k,
        "t_inv": _inv_const(field, r, c) * r.var("t_inv") ** k,
    }
    return graph_span(gm, gm, images)


def unit_span(field, c: int) -> Correspondence:
    """The torus self-span through the point t = c; ``unit_collapse`` at c = 1."""
    if c == 1:
        return cancellation.unit_collapse(field)
    gm = torus(field, "t")
    ring = _ring(field, ["t", "t_inv"], ["t"])
    rel = ring.var("t") * ring.var("t_inv") - ring.one()
    src = {"t": ring.var("t"), "t_inv": ring.var("t_inv")}
    tgt = {"t": _const(field, ring, c), "t_inv": _inv_const(field, ring, c)}
    return Correspondence(gm, gm, (make_piece(ring, [rel], src, tgt, gm, gm),))


def torus_cover(field, k: int, c: int, a: int = 1) -> Correspondence:
    """Middle u with source t = c*u^k and target t = u^a: a degree-k cover
    (a = 1) or the double/triple cover (k, a) = (2, 3)."""
    gm = torus(field, "t")
    ring = _ring(field, ["u", "u_inv"], ["u"])
    u, ui = ring.var("u"), ring.var("u_inv")
    src = {"t": _const(field, ring, c) * u**k, "t_inv": _inv_const(field, ring, c) * ui**k}
    tgt = {"t": u**a, "t_inv": ui**a}
    piece = make_piece(ring, [u * ui - ring.one()], src, tgt, gm, gm)
    return Correspondence(gm, gm, (piece,))


FILTRATION_KINDS = {
    # name: (constructor(field, c), rank of the span over its source)
    "graph1": (lambda f, c: torus_graph(f, 1, c), 1),
    "graph2": (lambda f, c: torus_graph(f, 2, c), 1),
    "graph3": (lambda f, c: torus_graph(f, 3, c), 1),
    "unit": (unit_span, 1),
    "cover2": (lambda f, c: torus_cover(f, 2, c), 2),
    "cover3": (lambda f, c: torus_cover(f, 3, c), 3),
    "dtc": (lambda f, c: torus_cover(f, 2, c, a=3), 2),
    "composite": (lambda f, c: compose(torus_cover(f, 2, c), torus_graph(f, 2, 1)), 2),
}

# (kind, window): one op over QQ and one over GF(p) per round; windows
# are weighted toward the small end so a 30 s run holds about 200 ops
FILTRATION_CLASSES = (
    ("graph1", 3), ("unit", 3), ("graph2", 3), ("cover2", 3), ("dtc", 3), ("composite", 3),
    ("graph1", 4), ("graph3", 4), ("cover2", 4), ("unit", 4),
    ("graph2", 5), ("cover3", 5), ("dtc", 5),
    ("graph1", 6), ("unit", 6),
)


def _filtration_pools() -> dict[str, list[str]]:
    qq = [f"QQ/c={c}" for c in QQ_CONSTANTS]
    fp = [f"Fp:{p}/c={c}" for p in PRIMES for c in (1, 2, 3)]
    pools = {}
    for kind, window in FILTRATION_CLASSES:
        base = f"filtration/{kind}/w={window}"
        pools[base + "/QQ"] = [f"{base}/{x}" for x in qq]
        pools[base + "/Fp"] = [f"{base}/{x}" for x in _spread(fp, len(qq), base)]
    return pools


def _spread(items: list, n: int, salt: str) -> list:
    """A fixed, seed-independent choice of n items."""
    return random.Random(salt).sample(items, n)


def _parse_key(key: str):
    _, kind, w, tag, c = key.split("/")
    return kind, int(w[2:]), field_of(tag), int(c[2:])


def filtration_op(key: str) -> Op:
    kind, window, field, c = _parse_key(key)
    make, degree = FILTRATION_KINDS[kind]
    payload = {"span": make(field, c), "window": window, "degree": degree}
    return Op(key, payload)


def filtration_run(op: Op) -> tuple[float, float, dict]:
    p = op.payload
    start = time.perf_counter()
    rep = cancellation.filtration_index(
        p["span"], window=p["window"], budget=budget_mod.Budget(SEARCH_STEPS)
    )
    certified = sum(1 for e in rep.entries if e.status == "certified")
    data = {"window": p["window"], "families": len(rep.entries), "certified": certified}
    if rep.blocking is not None:
        data["blocking"] = "{},{},{}".format(*rep.blocking)
    verdict, detail = "fail", "no fully certified level"
    if rep.found:
        data["index"] = rep.index
        verdict, detail = "pass", f"fully certified from level {rep.index}"
    blocks = [reports.bound_block(rep.bound_plus), reports.bound_block(rep.bound_minus)]
    report = reports.Report(
        "ix", "filtration", ("alpha",), {"window": str(p["window"])}, verdict, detail,
        0, data, blocks,
    )
    text = envelope_text([report], op.key)
    latency = time.perf_counter() - start
    start = time.perf_counter()
    payload, ok, messages = recheck(text)
    recheck_s = time.perf_counter() - start
    entries = [[e.m, e.n, e.sign, e.status, e.rank] for e in rep.entries]
    outcome = {
        "rep": rep,
        "recheck_ok": ok,
        "messages": messages,
        "digest": digest({"entries": entries, "envelope": stripped(payload)}),
        **envelope_facts(payload),
    }
    return latency, recheck_s, outcome


def filtration_check(op: Op, outcome: dict, reference: dict) -> str | None:
    """Hand-derived values first, then the recorded digest."""
    rep, w, degree = outcome["rep"], op.payload["window"], op.payload["degree"]
    if not outcome["recheck_ok"]:
        return "recheck rejected the envelope: " + "; ".join(outcome["messages"])
    # only the diagonal families certify, so the index is the window
    # itself and the first failure below it is (w - 1, w, +)
    if rep.index != w or rep.blocking != (w - 1, w, "+"):
        return f"index {rep.index} blocking {rep.blocking}, expected {w} and {(w - 1, w, '+')}"
    for e in rep.entries:
        if (e.status == "certified") != (e.m == e.n):
            return f"family {(e.m, e.n, e.sign)} is {e.status}"
        if e.m == e.n and e.sign == "+" and e.rank != e.n * degree:
            return f"plus family at level {e.n} has rank {e.rank}, expected {e.n * degree}"
    expected = reference.get(op.key)
    if expected is None:
        return "no reference entry"
    if outcome["digest"] != expected:
        return f"certificate digest {outcome['digest']} differs from reference {expected}"
    return None


# ---------------------------------------------------------------------------
# naturality: seeded verify_compat draws, built as the gate builds them


NATURALITY_ALPHAS = {
    "dtc": (lambda: torus_cover(QQ, 2, 1, a=3), 2),
    "unit": (lambda: cancellation.unit_collapse(QQ), 1),
    "identity": (lambda: cancellation.torus_identity(QQ), 1),
}
NATURALITY_CLASSES = tuple(
    (alpha, m, n, sign)
    for alpha in NATURALITY_ALPHAS
    for m in (1, 2, 3)
    for n in (1, 2, 3)
    for sign in "+-"
)


def point_span(name: str, coeffs: tuple[int, ...]) -> Correspondence:
    """The point-to-point span with middle k[v]/(v^d + c_{d-1} v^{d-1} + ...)."""
    ring = _ring(QQ, [name])
    v = ring.var(name)
    rel = v ** len(coeffs)
    for i, c in enumerate(coeffs):
        rel = rel + _const(QQ, ring, c) * v**i
    pt = point(QQ)
    return Correspondence(pt, pt, (make_piece(ring, [rel], {}, {}, pt, pt),))


def _random_point(rng: random.Random, degree: int) -> tuple[int, ...]:
    return tuple(rng.randint(-3, 3) for _ in range(degree))


def naturality_op(alpha: str, m: int, n: int, sign: str, beta, gamma) -> Op:
    key = f"naturality/{alpha}/{m},{n},{sign}/b={beta}/c={gamma}"
    make, degree = NATURALITY_ALPHAS[alpha]
    payload = {
        "alpha": make(),
        "beta": point_span("b", beta),
        "gamma": point_span("c", gamma),
        "m": m,
        "n": n,
        "sign": sign,
        "degree": degree,
    }
    return Op(key, payload)


def naturality_run(op: Op) -> tuple[float, float, dict]:
    p = op.payload
    start = time.perf_counter()
    budget = budget_mod.Budget(SEARCH_STEPS)
    rep = cancellation.verify_compat(
        p["alpha"], p["beta"], p["gamma"], p["m"], p["n"], p["sign"], budget=budget
    )
    # the certificate a passing verify-compat check carries
    fam = cancellation.cancel_family(p["alpha"], p["m"], p["n"], p["sign"], budget=budget)
    blocks = (
        [reports.finite_flat_block(fam.correspondence, fam.certificate)] if fam.certified else []
    )
    verdict = "pass" if rep.ok else "fail"
    data = {
        "target-side": "ok" if rep.push_ok else "mismatch",
        "source-side": "ok" if rep.pull_ok else "mismatch",
    }
    args = {"m": str(p["m"]), "n": str(p["n"]), "sign": p["sign"]}
    report = reports.Report(
        "nat", "verify-compat", ("alpha", "beta", "gamma"), args, verdict, rep.detail,
        0, data, blocks,
    )
    text = envelope_text([report], op.key)
    latency = time.perf_counter() - start
    start = time.perf_counter()
    payload, ok, messages = recheck(text)
    recheck_s = time.perf_counter() - start
    outcome = {
        "rep": rep,
        "fam": fam,
        "recheck_ok": ok,
        "messages": messages,
        **envelope_facts(payload),
    }
    return latency, recheck_s, outcome


def naturality_check(op: Op, outcome: dict, reference: dict) -> str | None:
    """Both identities hold on every draw (the theorem the gate checks);
    only diagonal families certify, the plus ones of rank n * deg(alpha)."""
    p, rep, fam = op.payload, outcome["rep"], outcome["fam"]
    if not rep.ok or rep.detail:
        return f"naturality fails: {rep.detail}"
    if not outcome["recheck_ok"]:
        return "recheck rejected the envelope: " + "; ".join(outcome["messages"])
    if fam.certified != (p["m"] == p["n"]):
        return f"family ({p['m']}, {p['n']}) is {fam.certificate.status}"
    if fam.certified and p["sign"] == "+" and fam.certificate.rank != p["n"] * p["degree"]:
        return f"plus family has rank {fam.certificate.rank}"
    return None


# ---------------------------------------------------------------------------
# cli-batch: generated workspace documents through the CLI's report path


def _scalar(tag: str, num: int, den: int = 1) -> str:
    """Constant num/den as polynomial text over the field."""
    if tag == "QQ":
        sign = "-" if num * den < 0 else ""
        num, den = abs(num), abs(den)
        return f"{sign}{num}" if den == 1 else f"{sign}{num}/{den}"
    p = int(tag.split(":")[1])
    return str(num * pow(den, p - 2, p) % p)


def _header(tag: str, name: str) -> str:
    field = "QQ" if tag == "QQ" else "Fp " + tag.split(":")[1]
    return f"workspace {name}\nfield {field}\n"


def _torus_span(name: str, tag: str, k: int = 1, c: int = 1, var: str = "t") -> str:
    scale = "" if c == 1 else _scalar(tag, c) + "*"
    inv = "" if c == 1 else _scalar(tag, 1, c) + "*"
    power = "" if k == 1 else f"^{k}"
    G = "G" if var == "t" else "H"
    return (
        f"span {name} : {G} -> {G} {{\n  piece {{\n    vars {var}, {var}_inv\n"
        f"    rels {var}*{var}_inv - 1\n"
        f"    source {var}: {var}, {var}_inv: {var}_inv\n"
        f"    target {var}: {scale}{var}{power}, {var}_inv: {inv}{var}_inv{power}\n"
        "  }\n}\n"
    )


def _point_span(name: str, var: str, rel: str) -> str:
    return f"span {name} : P -> P {{\n  piece {{\n    vars {var}\n    rels {rel}\n  }}\n}}\n"


def doc_algebra(tag, a, b, c):
    text = _header(tag, "algebra") + "scheme G = torus t\nscheme H = torus u\n"
    text += _torus_span("idg", tag) + _torus_span("ga", tag, a, c) + _torus_span("gb", tag, b)
    text += _torus_span("squ", tag, 2, 1, var="u")
    text += (
        "check c1 = compose ga gb\ncheck c2 = add idg ga\ncheck c3 = tensor idg squ\n"
        "check c4 = certify ga\ncheck c5 = degree gb\n"
    )
    return text, {"c1": 0, "c2": 0, "c3": 0, "c4": 0, "c5": 0}


def doc_families(tag, m, n, sign, c):
    text = _header(tag, "families") + "scheme G = torus t\n" + _torus_span("g", tag, 1, c)
    text += (
        f"check f1 = cancel g m: {m} n: {n} sign: {sign}\n"
        f"check r1 = cancel-slice g n: {n} sign: {sign}\n"
        "check ix = filtration g window: 2\n"
    )
    # off the diagonal the blended family is not finite over the line
    return text, {"f1": 0 if m == n else 1, "r1": 0, "ix": 0}


def doc_bounds(tag, a, c):
    text = _header(tag, "bounds")
    text += "scheme L = line x\nscheme G = torus t\nscheme X = product L G\nscheme P = point\n"
    text += (
        "span Z : X -> P {\n  piece {\n    vars x, t, t_inv\n    rels t*t_inv - 1\n"
        "    source x: x, t: t, t_inv: t_inv\n  }\n}\n"
    )
    f = f"x*t_inv^{a}" if a > 1 else "x*t_inv"
    text += (
        f"check b1 = bound Z f: {f}\n"
        f"check b2 = bound Z f: {f} f2: {_scalar(tag, c)}\n"
        f"check s1 = slice Z f: {f} n: {a + 1}\n"
    )
    return text, {"b1": 0, "b2": 0, "s1": 0}


def doc_verifier(tag, level, a, c):
    text = _header(tag, "verifier") + "scheme L = line x\nscheme P = point\n"
    power = f"x^{a}" if a > 1 else "x"
    text += (
        "span hyper : L -> P {\n  piece {\n    vars x, t\n"
        f"    rels {power}*t - {_scalar(tag, c)}\n    source x: x\n  }}\n}}\n"
        f"check v1 = verify-cancellation n: {level}\n"
        "check f1 = certify hyper\ncheck f2 = degree hyper\n"
    )
    # level 1 fails by design: t + t*s + 1 - s is not finite over the line;
    # the hyperbola x^a*t = c is not finite over the x-line either
    return text, {"v1": 1 if level == 1 else 0, "f1": 1, "f2": 1}


def doc_contraction(tag, d, c):
    text = _header(tag, "contraction") + "scheme G = torus t\nscheme P = point\n"
    text += _torus_span("g", tag, 1, d)
    text += (
        "span root : P -> G {\n  piece {\n    vars z\n"
        f"    rels z^2 - {_scalar(tag, c)}\n"
        f"    target t: z, t_inv: {_scalar(tag, 1, c)}*z\n  }}\n}}\n"
        "check k1 = contract g\ncheck k2 = verify-contraction root\n"
    )
    return text, {"k1": 0, "k2": 0}


def doc_compat(tag, m, sign, c0, b0):
    text = _header(tag, "compat") + "scheme G = torus t\nscheme P = point\n"
    text += _torus_span("idg", tag)
    text += _point_span("beta", "b", f"b^2 + {_scalar(tag, b0)}")
    text += _point_span("gamma", "c", f"c^2 - {_scalar(tag, c0)}*c")
    text += f"check n1 = verify-compat idg beta gamma m: {m} n: {m} sign: {sign}\n"
    return text, {"n1": 0}


def doc_exhaust(tag, level, k, c):
    text = _header(tag, "exhaust") + "scheme G = torus t\n" + _torus_span("g", tag, k, c)
    text += f"check v1 = verify-cancellation n: {level}\ncheck i1 = filtration g window: 3\n"
    return text, {"v1": 3, "i1": 3}


EXHAUST_STEPS = 40  # the gate's forced-exhaustion budget

# kind: (document function, parameter grid, step budget); the last
# parameter of every document function is a nonzero constant c, from
# CLI_QQ_CONSTANTS over QQ and from (1, 2, 3) over GF(p)
CLI_KINDS = {
    "algebra": (doc_algebra, [(a, b) for a in (2, 3) for b in (2, 3)], None),
    "families": (doc_families, [(m, n, s) for m in (1, 2) for n in (1, 2) for s in "+-"], None),
    "bounds": (doc_bounds, [(a,) for a in (1, 2, 3)], None),
    "verifier": (doc_verifier, [(level, a) for level in (1, 2, 3) for a in (1, 2)], None),
    "contraction": (doc_contraction, [(d,) for d in (1, 2, 3)], None),
    "compat": (doc_compat, [(m, s, c0) for m in (1, 2) for s in "+-" for c0 in (1, 2)], None),
    "exhaust": (doc_exhaust, [(level, k) for level in (2, 3) for k in (1, 2, 3)], EXHAUST_STEPS),
}
CLI_QQ_CONSTANTS = tuple(range(1, 61))
CLI_POOL = 150  # instances per kind and field type; caps the rounds of one run


def _cli_pools() -> dict[str, list[str]]:
    """Per kind, as many documents over QQ as over the prime fields."""
    pools = {}
    for kind, (_, grid, _) in CLI_KINDS.items():
        qq = [f"QQ/{_params(g, c)}" for g in grid for c in CLI_QQ_CONSTANTS]
        fp = [f"Fp:{p}/{_params(g, c)}" for p in PRIMES for g in grid for c in (1, 2, 3)]
        pools[f"cli/{kind}/QQ"] = [f"cli/{kind}/{x}" for x in _spread(qq, CLI_POOL, kind)]
        pools[f"cli/{kind}/Fp"] = [f"cli/{kind}/{x}" for x in _spread(fp, CLI_POOL, kind)]
    return pools


def _params(grid_point: tuple, c: int) -> str:
    return ",".join(map(str, grid_point + (c,)))


def shipped_keys() -> list[str]:
    return [f"cli/shipped/{p.name}" for p in sorted((ROOT / "workspaces").glob("*.fsw"))]


def cli_op(key: str) -> Op:
    _, kind, rest = key.split("/", 2)
    if kind == "shipped":
        text = (ROOT / "workspaces" / rest).read_text(encoding="utf-8")
        return Op(key, {"text": text, "steps": None, "expected": None})
    tag, params = rest.split("/")
    make, _, steps = CLI_KINDS[kind]
    values = tuple(p if p in "+-" else int(p) for p in params.split(","))
    text, expected = make(tag, *values)
    return Op(key, {"text": text, "steps": steps, "expected": expected})


def cli_run(op: Op) -> tuple[float, float, dict]:
    # imported here: the other workloads' timed phases run without the CLI loaded
    import flatspan.cli as cli
    import flatspan.workspace as workspace

    p = op.payload
    start = time.perf_counter()
    doc = workspace.parse_workspace(p["text"])
    canonical = workspace.print_workspace(doc)
    steps = p["steps"] or budget_mod.DEFAULT_STEPS
    rep_list = [cli.execute_check(doc, req, steps) for req in doc.checks]
    text = json.dumps(reports.envelope_json(rep_list, reports.input_digest(canonical)))
    latency = time.perf_counter() - start
    start = time.perf_counter()
    payload = reports.load_envelope(text)
    ok, messages = reports.recheck_envelope(payload, workspace_text=canonical)
    recheck_s = time.perf_counter() - start
    codes = {r["name"]: r["exit_code"] for r in payload["reports"]}
    outcome = {
        "recheck_ok": ok,
        "messages": messages,
        "codes": codes,
        "digest": digest(stripped(payload)),
        **envelope_facts(payload),
    }
    return latency, recheck_s, outcome


def cli_check(op: Op, outcome: dict, reference: dict) -> str | None:
    if not outcome["recheck_ok"]:
        return "recheck rejected the envelope: " + "; ".join(outcome["messages"])
    expected = op.payload["expected"]
    if expected is not None and outcome["codes"] != expected:
        return f"exit codes {outcome['codes']}, expected {expected}"
    recorded = reference.get(op.key)
    if recorded is None:
        return "no reference entry"
    if outcome["digest"] != recorded:
        return f"report digest {outcome['digest']} differs from reference {recorded}"
    return None


# ---------------------------------------------------------------------------
# schedules


@dataclass
class Workload:
    name: str
    modules: tuple[str, ...]  # what a fresh interpreter imports before the first op
    run: Callable[[Op], tuple[float, float, dict]]  # latency s, recheck s, outcome
    check: Callable[[Op, dict, dict], str | None]  # (op, outcome, reference) -> error


WORKLOADS = {
    "filtration": Workload(
        "filtration", ("flatspan.cancellation", "flatspan.reports"), filtration_run, filtration_check
    ),
    "naturality": Workload(
        "naturality", ("flatspan.cancellation", "flatspan.reports"), naturality_run, naturality_check
    ),
    "cli-batch": Workload("cli-batch", ("flatspan.cli",), cli_run, cli_check),
}


def rounds(workload: str, seed: int) -> list[Round]:
    """Every round the run for ``seed`` may execute, in order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "naturality":
        return _naturality_rounds(rng)
    pools = _filtration_pools() if workload == "filtration" else _cli_pools()
    make = filtration_op if workload == "filtration" else cli_op
    shuffled = {name: rng.sample(pool, len(pool)) for name, pool in pools.items()}
    count = min(len(pool) for pool in shuffled.values())
    out = []
    for r in range(count):
        keys = [pool[r] for pool in shuffled.values()]
        if workload == "cli-batch" and r == 0:
            keys += shipped_keys()
        rng.shuffle(keys)
        out.append(Round(make, keys))
    return out


NATURALITY_ROUNDS = 8
# degrees of beta and gamma; class j of round r takes entry (j + r) mod 4,
# so every round has the same number of each and the cost of a round holds
NATURALITY_DEGREES = ((2, 2), (2, 3), (3, 2), (3, 3))


def _naturality_rounds(rng: random.Random):
    seen = set()
    out = []
    for r in range(NATURALITY_ROUNDS):
        draws = []
        for j, (alpha, m, n, sign) in enumerate(NATURALITY_CLASSES):
            db, dg = NATURALITY_DEGREES[(j + r) % len(NATURALITY_DEGREES)]
            while True:
                draw = (alpha, m, n, sign, _random_point(rng, db), _random_point(rng, dg))
                if draw not in seen:
                    break
            seen.add(draw)
            draws.append(draw)
        rng.shuffle(draws)
        out.append(Round(lambda d: naturality_op(*d), draws))
    return out


class Round:
    """A round's op inputs; the ops are built when the round starts, outside
    any timing, since generating inputs is the benchmark's own work."""

    def __init__(self, make, items):
        self.make, self.items = make, items

    def build(self) -> list[Op]:
        return [self.make(item) for item in self.items]


def all_reference_keys() -> dict[str, list[str]]:
    """Every instance the generators can produce, by workload."""
    filt = [k for pool in _filtration_pools().values() for k in pool]
    cli = [k for pool in _cli_pools().values() for k in pool] + shipped_keys()
    return {"filtration": filt, "cli-batch": cli}
