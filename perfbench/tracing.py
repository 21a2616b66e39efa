"""Per-layer tracing from outside the program.

The tracer replaces each measured public function with a wrapper that
records a span (name, start, end, parent span, op id).  A wrapper is bound
under every name that any ``flatspan`` module holds for the original, so
calls from inside the library are covered, not only the benchmark's own.
``Budget`` is replaced the same way by a subclass that tallies every
charge by its phase.  Spans stay in memory; self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

import flatspan.budget
import flatspan.cancellation
import flatspan.cli
import flatspan.contraction
import flatspan.groebner
import flatspan.modules
import flatspan.polyparse
import flatspan.reports
import flatspan.spans
import flatspan.workspace
from flatspan.fields import field_name
from flatspan.orders import GrevLex
from flatspan.poly import Polynomial

# span name -> functions timed under it, as (owner, attribute)
TARGETS = {
    "groebner.basis": [(flatspan.groebner, "groebner_basis")],
    "groebner.normal_form": [(flatspan.groebner, "normal_form")],
    "groebner.recheck_pairs": [(flatspan.groebner, "spolynomial_pairs_reduce")],
    "groebner.elim": [
        (flatspan.groebner, name)
        for name in ("eliminate", "saturate", "ideal_intersection", "modular_inverse")
    ],
    "modules.analyze": [(flatspan.modules, "analyze_module")],
    "modules.matrix": [
        (flatspan.modules, "multiplication_matrix_from"),
        (flatspan.modules, "multiplication_matrix"),
    ],
    "modules.fitting": [(flatspan.modules, "fitting_ideal")],
    "spans.certify": [(flatspan.spans, "certify_finite_flat")],
    "spans.compose": [(flatspan.spans, "compose")],
    "spans.simplify": [(flatspan.spans, "simplify"), (flatspan.spans, "simplify_piece")],
    "spans.equals": [(flatspan.spans, "equals"), (flatspan.spans, "_pieces_equal")],
    "spans.collapse": [(flatspan.spans, "collapse_variables")],
    "spans.recheck_certificate": [(flatspan.spans, "recheck_certificate")],
    "poly.substitute": [(Polynomial, "substitute")],
    "poly.map_ring": [(Polynomial, "map_ring")],
    "cancellation.family": [(flatspan.cancellation, "cancel_family")],
    "cancellation.bound": [
        (flatspan.cancellation, "flatness_bound"),
        (flatspan.cancellation, "flatness_bound_ext"),
    ],
    "cancellation.compat": [(flatspan.cancellation, "verify_compat")],
    "cancellation.verifier": [(flatspan.cancellation, "verify_cancellation")],
    "contraction.contract": [(flatspan.contraction, "contract")],
    "contraction.endpoints": [(flatspan.contraction, "verify_contraction_endpoints")],
    "polyparse.parse": [(flatspan.polyparse, "parse_polynomial")],
    "workspace.parse": [(flatspan.workspace, "parse_workspace")],
    "cli.execute_check": [(flatspan.cli, "execute_check")],
    "reports.envelope": [(flatspan.reports, "envelope_json")],
    "reports.recheck": [(flatspan.reports, "recheck_envelope")],
}

PHASES = {
    "S-pair formation": "groebner.spair_steps",
    "polynomial reduction": "groebner.reduction_steps",
    "minor expansion": "modules.minor_steps",
}


def rebind(original, replacement) -> list[tuple[object, str]]:
    """Bind ``replacement`` under every name a flatspan module holds for
    ``original``; returns the (module, name) pairs it rebound."""
    bound = []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "flatspan":
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                bound.append((module, key))
    return bound


class Tracer:
    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.op = -1
        self.phases: Counter = Counter()
        self.budgets: list = []
        self.seen_bases: set = set()
        self.repeat_spans: set[int] = set()
        self.terms_out = 0
        self.family_certified = 0
        self.open_bases = 0
        self.stray_spair = 0

    # -- spans ---------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)

    def _wrap(self, name: str, fn):
        if name == "groebner.basis":
            return self._wrap_basis(fn)
        if name == "cancellation.family":

            def family(*args, **kwargs):
                result = self.span(name, fn, *args, **kwargs)
                self.family_certified += bool(result.certified)
                return result

            return family

        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def _wrap_basis(self, fn):
        def groebner_basis(gens, order=None, budget=None, strategy="normal"):
            gens = list(gens)
            live = [g for g in gens if not g.is_zero()]
            if live:
                ring = live[0].ring
                key = (
                    field_name(ring.field),
                    ring.names,
                    tuple(sorted(ring.inverted)),
                    order or GrevLex(ring.nvars),
                    tuple(tuple(sorted(g.terms().items())) for g in live),
                )
                if key in self.seen_bases:
                    self.repeat_spans.add(len(self.spans))
                self.seen_bases.add(key)
            self.open_bases += 1
            try:
                result = self.span("groebner.basis", fn, gens, order, budget, strategy)
            finally:
                self.open_bases -= 1
            self.terms_out += sum(len(g.terms()) for g in result)
            return result

        return groebner_basis

    # -- installation --------------------------------------------------

    def install(self):
        for name, targets in TARGETS.items():
            for owner, attr in targets:
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapper)
                    self._patches.append((owner, attr, original))
                else:
                    self._rebind(original, wrapper)
        self._install_budget()

    def _rebind(self, original, replacement):
        self._patches += [(m, key, original) for m, key in rebind(original, replacement)]

    def _install_budget(self):
        original = flatspan.budget.Budget
        tracer = self

        class CountingBudget(original):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer.budgets.append(self)

            def spend(self, n=1, context=None):
                phase = context or self.context
                tracer.phases[phase] += n
                if phase == "S-pair formation" and not tracer.open_bases:
                    tracer.stray_spair += n
                super().spend(n, context)

        self._rebind(original, CountingBudget)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------

    def coverage_errors(self) -> list[str]:
        """Budget tallies must account for every step every budget used."""
        errors = []
        used = sum(b.used for b in self.budgets)
        if sum(self.phases.values()) != used:
            errors.append(f"phase tallies sum to {sum(self.phases.values())}, budgets used {used}")
        unknown = set(self.phases) - set(PHASES)
        if unknown:
            errors.append(f"charges under unknown phases {sorted(unknown)}")
        if self.stray_spair:
            errors.append(f"{self.stray_spair} S-pair charges outside a groebner.basis span")
        return errors

    def layer_metrics(self) -> dict[str, float]:
        calls: Counter = Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        repeat_s = 0.0
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            own = (end - start) - child[idx]
            calls[name] += 1
            self_s[name] += own
            if idx in self.repeat_spans:
                repeat_s += own
        basis_calls = calls["groebner.basis"]
        out = {}
        for name in TARGETS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["groebner.basis.repeat_ratio"] = len(self.repeat_spans) / basis_calls if basis_calls else 0.0
        basis_self = self_s["groebner.basis"]
        out["groebner.basis.repeat_s_share"] = repeat_s / basis_self if basis_self else 0.0
        out["groebner.basis.terms_out"] = self.terms_out
        for phase, metric in PHASES.items():
            out[metric] = self.phases[phase]
        out["budget.steps"] = sum(b.used for b in self.budgets)
        family = calls["cancellation.family"]
        out["cancellation.family.certified_ratio"] = self.family_certified / family if family else 0.0
        return out

    def write(self, path):
        """Spans as JSON lines: index, name, start, end, parent index, op id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps([idx, name, round(start, 7), round(end, 7), parent, op]) + "\n")
