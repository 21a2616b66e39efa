"""flatspan benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload filtration --seed 1 --seconds 30 --trace 0

Load is closed-loop from one process and one thread: each op starts when
the previous one returns.  With ``--trace 0`` the run measures the
end-to-end metrics for ``--seconds`` (whole rounds, at least MIN_OPS ops)
with no instrumentation; times are scaled to reference box speed (see
``calibrate.py``).  With ``--trace 1`` it runs a fixed list of ops
three times: once plain, for the overhead ratio, then twice traced; the
deterministic counts of the two traced passes must agree.  Every op is
checked against ``reference.json`` and hand-derived values.  The last line
of standard output is one JSON object; the exit code is 1 when any op
fails its check or a metric is missing, 2 on bad usage or when the
program's sources are absent.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import KERNEL_REF_S, Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_OPS = 110  # leaves at least ten samples beyond p90
SETUP_SPAWNS = 11
TRACE_ROUNDS = {"filtration": 1, "naturality": 1, "cli-batch": 10}
ORACLE_CALLS = 6


def spawn_import(modules: tuple[str, ...]) -> tuple[float, float]:
    """Wall time of a fresh interpreter importing ``modules``, and the
    import time it measures itself."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "start = time.perf_counter()\n"
        + "".join(f"import {m}\n" for m in modules)
        + "print(time.perf_counter() - start)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    return time.perf_counter() - start, float(done.stdout.strip())


def measure_setup(modules: tuple[str, ...], spawns: int) -> tuple[float, float]:
    """Medians of ``spawn_import`` over fresh interpreters, at reference speed."""
    clock = Clock()
    walls, imports = [], []
    for _ in range(spawns):
        mark = len(clock.samples) - 1
        wall, imported = spawn_import(modules)
        clock.sample()
        walls.append(wall * clock.scale(mark))
        imports.append(imported * clock.scale(mark))
    return statistics.median(walls), statistics.median(imports)


def execute(wl, op, reference):
    """Run one op and check it; an exception counts as a failed op."""
    try:
        latency, recheck_s, outcome = wl.run(op)
    except Exception as err:  # the run must go on and report the failure
        return None, None, None, f"{type(err).__name__}: {err}"
    error = wl.check(op, outcome, reference)
    # keep only counts, so results do not hold every op's objects alive
    summary = {k: outcome[k] for k in ("certificates", "envelope_bytes")}
    return latency, recheck_s, summary, error


def run_ops(wl, ops, reference, clock, run=execute):
    """Each op's (latency, recheck, outcome, error) with its times scaled to
    reference speed, and the op's wall time, measured and scaled."""
    marked = []
    for op in ops:
        mark = clock.mark()
        start = time.perf_counter()
        result = run(wl, op, reference)
        marked.append((mark, time.perf_counter() - start, result))
    clock.sample()
    out = []
    for mark, wall, (latency, recheck_s, outcome, error) in marked:
        k = clock.scale(mark)
        if latency is not None:
            latency, recheck_s = latency * k, recheck_s * k
        out.append(((latency, recheck_s, outcome, error), wall, wall * k))
    return out


def timed_phase(wl, rounds, reference, seconds):
    """Whole rounds until ``seconds`` have passed and MIN_OPS ops are done.
    Returns (key, latency, recheck, summary, error) per op, the rounds run,
    the measured seconds of ops, and the box's median speed."""
    clock = Clock()
    results = []
    raw = 0.0
    start = time.perf_counter()
    for count, rnd in enumerate(rounds, 1):
        ops = rnd.build()
        done = run_ops(wl, ops, reference, clock)
        results += [(op.key,) + result for op, (result, _, _) in zip(ops, done)]
        raw += sum(wall for _, wall, _ in done)
        if time.perf_counter() - start >= seconds and len(results) >= MIN_OPS:
            break
    speed = statistics.median(KERNEL_REF_S / s for s in clock.samples)
    return results, count, raw, speed


def oracle_check(wl, ops, seed) -> list[str]:
    """Re-run a seeded sample of ``ops`` with groebner_basis captured and
    check a sample of the reduced bases against the naive oracles and sympy."""
    import flatspan.groebner
    from oracle import check_basis

    from tracing import rebind

    original = flatspan.groebner.groebner_basis
    captured = []

    def capture(gens, order=None, budget=None, strategy="normal"):
        gens = list(gens)
        out = original(gens, order, budget, strategy)
        captured.append((gens, order, out))
        return out

    rng = random.Random(f"oracle:{seed}")
    errors = []
    checked = 0
    for op in rng.sample(ops, min(len(ops), 8)):
        rebind(original, capture)
        try:
            wl.run(op)
        finally:
            rebind(capture, original)
        small = [c for c in captured if c[2] and len(c[2]) <= 6 and c[2][0].ring.nvars <= 6]
        for gens, order, basis in rng.sample(small, min(len(small), ORACLE_CALLS - checked)):
            problem = check_basis(gens, order, basis)
            if problem:
                errors.append(f"{op.key}: {problem}")
            checked += 1
        captured.clear()
        if checked >= ORACLE_CALLS:
            break
    if not checked:
        errors.append("no Groebner call was small enough for the oracle")
    return errors


def median(values):
    return statistics.median(values) if values else None


def p90(values):
    if len(values) < 2:
        return None
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(wl, args, reference):
    from workloads import rounds

    setup_s, _ = measure_setup(wl.modules, SETUP_SPAWNS)
    results, count, raw_s, speed = timed_phase(
        wl, rounds(wl.name, args.seed), reference, args.seconds
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors = [(r[0], r[4]) for r in results if r[4]]
    oracle_errors = oracle_check(wl, rounds(wl.name, args.seed)[0].build(), args.seed)
    done = [r for r in results if r[1] is not None]
    latencies = [r[1] * 1000 for r in done]
    # an envelope without certificates rechecks only its structure
    rechecks = [r[2] * 1000 for r in done if r[3]["certificates"]]
    busy = sum(r[1] + r[2] for r in done)
    metrics = {
        "throughput_ops_s": (len(done) / busy if busy else None, "1/s"),
        "latency_ms.p50": (median(latencies), "ms"),
        "latency_ms.p90": (p90(latencies), "ms"),
        "recheck_ms.p50": (median(rechecks), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(
        f"{wl.name}: seed {args.seed}, {len(results)} ops in {count} rounds, "
        f"{raw_s:.2f} s of ops measured; the box ran at {speed:.2f} x reference speed"
    )
    print(f"error_rate {len(errors) / len(results):.4f} ({len(errors)} of {len(results)} ops)")
    return metrics, len(results), errors + [("oracle", e) for e in oracle_errors]


DETERMINISTIC = (".calls", "_steps", "terms_out", "envelope_bytes", "budget.steps")


def traced(wl, args, reference):
    from tracing import Tracer
    from workloads import rounds

    ops = [op for rnd in rounds(wl.name, args.seed)[: TRACE_ROUNDS[wl.name]] for op in rnd.build()]
    _, import_s = measure_setup(("flatspan.cli",), 3)

    clock = Clock()
    plain = run_ops(wl, ops, reference, clock)
    plain_s = sum(scaled for _, _, scaled in plain)

    tracer = Tracer()
    tracer.install()
    passes = []
    op_ids = {id(op): i for i, op in enumerate(ops)}

    def traced_op(wl, op, reference):
        tracer.op = op_ids[id(op)]
        return tracer.span("op", execute, wl, op, reference)

    try:
        for _ in range(2):
            tracer.reset()
            done = run_ops(wl, ops, reference, clock, run=traced_op)
            errors = [(op.key, r[3]) for op, (r, _, _) in zip(ops, done) if r[3]]
            layer = tracer.layer_metrics()
            # layer times at reference speed, like the end-to-end metrics
            k = sum(scaled for _, _, scaled in done) / sum(wall for _, wall, _ in done)
            for name in layer:
                if name.endswith("self_s"):
                    layer[name] *= k
            layer["reports.envelope_bytes"] = sum(
                r[2]["envelope_bytes"] for r, _, _ in done if not r[3]
            )
            errors += [("budget", e) for e in tracer.coverage_errors()]
            passes.append((layer, sum(scaled for _, _, scaled in done), errors))
            if len(passes) == 1:
                tracer.write(ROOT / ".perfbench" / f"trace-{wl.name}-{args.seed}.jsonl")
    finally:
        tracer.uninstall()

    (first, wall, errors), (second, _, more) = passes
    errors += [("plain", r[3]) for r, _, _ in plain if r[3]] + more
    for name, value in first.items():
        if name.endswith(DETERMINISTIC) and second[name] != value:
            errors.append(("determinism", f"{name}: {value} then {second[name]}"))
    first["cli.import_s"] = import_s
    first["trace.overhead_ratio"] = wall / plain_s
    print(f"{wl.name}: seed {args.seed}, {len(ops)} ops traced, {len(tracer.spans)} spans per pass")
    print(f"error_rate {len({k for k, _ in errors}) / len(ops):.4f}")
    return first, len(ops), errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "flatspan" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: the flatspan sources are not under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    reference = reference.get(wl.name, {})

    if args.trace:
        values, attempted, errors = traced(wl, args, reference)
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: (values.get(name), unit) for name, unit in wanted.items()}
    else:
        values, attempted, errors = end_to_end(wl, args, reference)
        metrics = {m["name"]: values.get(m["name"], (None, m["unit"])) for m in spec["end_to_end"]}
    errors += [("metrics", f"{n} missing") for n, (v, _) in metrics.items() if v is None]
    for where, message in errors[:20]:
        print(f"FAILED {where}: {message}", file=sys.stderr)
    failed_ops = len({where for where, _ in errors})
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": min(failed_ops, attempted),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value} {unit}")
    print(json.dumps(result))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
