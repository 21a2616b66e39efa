"""The benchmark's tracer names program functions and budget phases; keep
them in step with the program."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = _load_tracing()
    missing = [
        f"{name}: {getattr(owner, '__name__', owner)}.{attr}"
        for name, targets in tracing.TARGETS.items()
        for owner, attr in targets
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing


def test_every_budget_phase_is_traced():
    tracing = _load_tracing()
    spend = re.compile(r"\.spend\(\s*[^,()]+,\s*\"([^\"]+)\"")
    phases = {
        phase
        for path in (ROOT / "src" / "flatspan").glob("*.py")
        for phase in spend.findall(path.read_text(encoding="utf-8"))
    }
    assert phases
    assert phases <= set(tracing.PHASES)


def test_traced_budget_accounts_for_every_step():
    """The tracer's counting Budget subclass must keep working with the
    program's Budget: every step of an explicit budget lands in a phase."""
    import flatspan.budget
    import flatspan.spans
    from flatspan.fields import QQ
    from flatspan.schemes import torus

    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        G = torus(QQ)
        ring = G.ring
        square = {"t": ring.var("t") ** 2, "t_inv": ring.var("t_inv") ** 2}
        span = flatspan.spans.graph_span(G, G, square)
        budget = flatspan.budget.Budget(10**5)
        outcome = flatspan.spans.certify_finite_flat(span, budget=budget)
    finally:
        tracer.uninstall()
    assert outcome.certified
    assert budget.used > 0 and budget in tracer.budgets
    assert tracer.coverage_errors() == []
