"""The benchmark's tracer names program functions and budget phases; keep
them in step with the program.  The program's modules import in layers, use
every name they import and share no private name, the grammar document's
command table is the program's, every memo is bounded, only ``fields``
imports ``fractions``, rings, pieces and block orders are made only where
listed and builtin errors are caught only where outside input is read."""

from __future__ import annotations

import ast
import importlib.util
import re
from collections import Counter
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


LAYERS = (
    "budget fields orders poly polyparse groebner modules schemes spans "
    "cancellation contraction reports workspace cli"
).split()


def test_modules_import_only_lower_layers():
    """Each module-level ``from .x import`` in ``src/flatspan`` names a
    module below the importer in :data:`LAYERS`."""
    source = ROOT / "src" / "flatspan"
    assert {path.stem for path in source.glob("*.py")} == set(LAYERS) | {"__init__"}
    upward = [
        f"{name} imports {target}"
        for name in LAYERS
        for target in re.findall(
            r"^from \.(\w+) import", (source / f"{name}.py").read_text(encoding="utf-8"), re.M
        )
        if LAYERS.index(target) >= LAYERS.index(name)
    ]
    assert not upward


def test_library_layers_load_without_the_front_ends():
    """Importing the computation and report layers must not load the
    workspace parser or the command line, which the benchmark's filtration
    and naturality workloads would otherwise pay for in their setup."""
    import os
    import subprocess
    import sys

    probe = (
        "import sys, flatspan.cancellation, flatspan.reports; "
        "print(sorted(m for m in ('flatspan.workspace', 'flatspan.cli') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.strip() == "[]"


def test_documented_command_table_is_the_program_table():
    from flatspan.reports import COMMANDS

    text = (ROOT / "docs" / "workspace-grammar.md").read_text(encoding="utf-8")
    section = text.split("## Commands", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0].startswith("`"):
            command, operands, required, optional = cells
            documented[command.strip("`")] = (
                int(operands),
                tuple(re.findall(r"`([^`]+)`", required)),
                tuple(re.findall(r"`([^`]+)`", optional)),
            )
    assert documented == {
        name: (row.operands, row.required, row.optional) for name, row in COMMANDS.items()
    }


# Names kept without a caller in the program or the benchmark, and why.
UNCALLED = {
    # the kernel tests compare every order against a tuple reference,
    # Lex included; no command picks a lexicographic order
    ("orders", "Lex"),
    # the console entry point, named in pyproject.toml
    ("cli", "main"),
}


def _identifiers(tree) -> Counter:
    """Every name, attribute, imported name and string constant in ``tree``
    (the tracer names its targets as strings)."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def test_every_library_name_has_a_caller():
    """Each module-level function and class of ``src/flatspan`` is named
    again outside its own definition, in the program or the benchmark."""
    paths = sorted((ROOT / "src" / "flatspan").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    used = sum((_identifiers(tree) for tree in trees.values()), Counter())
    uncalled = [
        f"{path.stem}.{node.name}"
        for path, tree in trees.items()
        if path.parent.name == "flatspan"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and (path.stem, node.name) not in UNCALLED
        and used[node.name] <= _identifiers(node)[node.name]
    ]
    assert not uncalled


def _identifier(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


# every memo of ``src/flatspan``, with its bound
MEMOS = {
    "orders._grevlex_weights": 64,
    "groebner._packing": 64,
    # a map_ring slot plan per (renamed source names, target names)
    "poly._slot_plan": 256,
    "polyparse.parse_polynomial": 256,
    # verify_compat asks for three spans' parts, alpha's second
    "cancellation._family_parts": 4,
    # a checked standard datum per (n, field): a document's contraction
    # checks share one, and a batch keeps QQ's and the recent primes'
    "contraction.standard_contraction_data": 16,
}


def test_every_memo_is_bounded():
    """Each ``lru_cache`` of ``src/flatspan`` decorates a function of
    :data:`MEMOS` with its explicit finite ``maxsize``, and
    ``functools.cache`` is not used, so no memo can grow with the number of
    inputs a process sees."""
    memos, unbounded = {}, []
    for module, tree in _library_trees():
        bounded = set()
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                if isinstance(dec, ast.Call) and _identifier(dec.func) == "lru_cache":
                    size = [k.value for k in dec.keywords if k.arg == "maxsize"] + dec.args[:1]
                    if len(size) == 1 and isinstance(size[0], ast.Constant):
                        if type(size[0].value) is int and size[0].value > 0:
                            memos[f"{module}.{node.name}"] = size[0].value
                            bounded.add(dec.func)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                unbounded += [f"{module}: imports cache" for a in node.names if a.name == "cache"]
            elif _identifier(node) == "lru_cache" and node not in bounded:
                unbounded.append(f"{module}:{node.lineno}")
            elif isinstance(node, ast.Attribute) and node.attr == "cache":
                if _identifier(node.value) == "functools":
                    unbounded.append(f"{module}:{node.lineno} functools.cache")
    assert not unbounded
    assert memos == MEMOS


def _owned(node, owner):
    """Each node under ``node`` with the dotted name of the innermost class
    or function around it."""
    for child in ast.iter_child_nodes(node):
        yield owner, child
        name = owner
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{owner}.{child.name}"
        yield from _owned(child, name)


def _callers(callee: str) -> list[str]:
    """The dotted name of the innermost class or function around each call
    of ``callee`` in ``src/flatspan``."""
    return [
        owner
        for module, tree in _library_trees()
        for owner, node in _owned(tree, module)
        if isinstance(node, ast.Call) and _identifier(node.func) == callee
    ]


def test_one_function_builds_a_check_request():
    """``workspace.check_request`` is the only code of ``src/flatspan`` that
    calls ``CheckRequest``, so a check line and a single command come out
    as the same canonical request."""
    assert _callers("CheckRequest") == ["workspace.check_request"]


# the functions of ``src/flatspan`` that call ``PolynomialRing``: the ring
# methods, the schemes and spans built from literal names, and the readers
# of input; every other ring comes from these, with variables added only by
# ``PolynomialRing.adjoin``
RING_BUILDERS = {
    "poly.PolynomialRing.adjoin",
    "poly.PolynomialRing.leading",
    "poly.PolynomialRing.drop",
    "schemes.point",
    "schemes.affine_line",
    "schemes.torus",
    "schemes.torus_power",
    "cancellation.verify_cancellation",
    "reports.ring_from_json",
    "workspace._Parser.parse_piece",
}


def test_rings_are_built_only_from_literal_names_or_input():
    """A variable is named, and a ring built, only where :data:`RING_BUILDERS`
    says, so ``adjoin`` alone picks the name of an adjoined variable."""
    assert set(_callers("PolynomialRing")) == RING_BUILDERS


# the functions of ``src/flatspan`` that call ``fiber_order``: completion with
# doomed variables leading, certification, and a certificate's own block
# order, which its division table and a recheck's S-pair test use
BLOCK_ORDERS = {
    "groebner.elimination_basis",
    "modules.analyze_module",
    "modules.PieceCertificate.order",
}


def test_block_orders_are_picked_only_where_listed():
    """``fiber_order`` is called only in :data:`BLOCK_ORDERS`, so a bound, a
    matrix and a recheck divide by the certificate's own table."""
    assert set(_callers("fiber_order")) == BLOCK_ORDERS


# the one function of ``src/flatspan`` that calls ``analyze_module``: the
# certification loop that a span's pieces and a blended family's laid-out
# pieces both run through, which numbers the pieces and sums their ranks
CERTIFICATION_LOOPS = ["spans.certify_laid_out"]


def test_modules_are_analyzed_only_by_the_certification_loop():
    """``analyze_module`` is called once, in :data:`CERTIFICATION_LOOPS`, so
    every certification, a blended family's too, reports its pieces the
    same way."""
    assert _callers("analyze_module") == CERTIFICATION_LOOPS


# the functions of ``src/flatspan`` that call ``SpanPiece``: the one checked
# builder, and the two rewrites that keep a piece's legs as they stand
PIECE_BUILDERS = {"spans.make_piece", "spans._eliminate_linear", "spans._canonical"}
PIECE_FIELDS = {"relations", "src_map", "tgt_map"}


def test_pieces_are_built_only_by_make_piece():
    """Every piece of ``src/flatspan`` comes from :data:`PIECE_BUILDERS`, so
    its legs are checked against its feet, and no ``replace`` outside
    ``spans`` edits a piece's relations or legs by hand."""
    assert set(_callers("SpanPiece")) == PIECE_BUILDERS
    edits = [
        f"{module}:{node.lineno}"
        for module, tree in _library_trees()
        if module != "spans"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and _identifier(node.func) == "replace"
        and PIECE_FIELDS & {k.arg for k in node.keywords}
    ]
    assert not edits


def test_the_standard_datum_is_the_only_contraction_datum():
    """``contraction.standard_contraction_data`` is the only code of
    ``src/flatspan`` that calls ``ContractionDatum``, so every datum a
    contraction sees is the standard one, its hypotheses checked."""
    assert _callers("ContractionDatum") == ["contraction.standard_contraction_data"]


def test_a_familys_cuts_are_made_once_per_piece():
    """``cancellation._family_parts`` is the only code of ``src/flatspan``
    that calls ``_Cuts``, in each moved piece's ring, so a family's blend is
    made there alone, for the family span and its certificate alike."""
    assert _callers("_Cuts") == ["cancellation._family_parts"]


# the functions of ``src/flatspan`` that read ``add`` off a field: the
# canonical constant, the one routine that sums terms, the product of two
# term dicts and the Groebner kernel's reduction loop
COEFFICIENT_ADDERS = {
    "poly.PolynomialRing.const",
    "poly.add_terms",
    "poly._product",
    "groebner._reduce_full",
}


def test_coefficients_are_added_only_where_listed():
    """``f.add``, ``field.add`` and ``<x>.field.add`` appear only in the
    functions of :data:`COEFFICIENT_ADDERS`, so a sum of polynomials, a
    substitution and a parsed sum all add their terms by ``poly.add_terms``."""
    adders = {
        owner
        for module, tree in _library_trees()
        for owner, node in _owned(tree, module)
        if isinstance(node, ast.Attribute)
        and node.attr == "add"
        and (
            (isinstance(node.value, ast.Name) and node.value.id in ("f", "field"))
            or (isinstance(node.value, ast.Attribute) and node.value.attr == "field")
        )
    }
    assert adders == COEFFICIENT_ADDERS


def _library_trees():
    for path in sorted((ROOT / "src" / "flatspan").glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def test_every_import_is_used():
    """Each name a ``src/flatspan`` module imports is named again in that
    module."""
    unused = []
    for module, tree in _library_trees():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{module}: {name}")
    assert not unused


def test_only_the_fields_module_imports_fractions():
    """``fields`` is the one home of ``Fraction``: every other module
    handles QQ elements through the field object, so none depends on how
    they are stored."""
    importers = [
        module
        for module, tree in _library_trees()
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and node.module == "fractions")
        or (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names))
    ]
    assert importers == ["fields"]


def test_no_private_name_crosses_a_module():
    """No ``src/flatspan`` module imports another's private name: a decision
    such as a certificate's ring layout stays behind the module that owns it."""
    found = [
        f"{module} imports {node.module}.{alias.name}"
        for module, tree in _library_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert not found


# the functions of ``src/flatspan`` where outside input is read and a builtin
# error it makes a reader raise becomes an input error
INPUT_BOUNDARIES = {
    # int() of an integer argument past the interpreter's digit limit
    "workspace.check_request",
    # json.loads of a report file
    "reports.load_envelope",
    # every reader of a stored request, result or certificate block
    "reports._read",
}
CATCH_ALLS = {"Exception", "BaseException", "ValueError", "TypeError", "KeyError", "AttributeError"}


def test_builtin_errors_are_caught_only_where_input_is_read():
    """A bare ``except``, or one naming a builtin error that a library bug
    raises, sits only in a function of :data:`INPUT_BOUNDARIES`, so a bug
    anywhere else propagates as a traceback instead of reading as bad input
    or as a tampered report."""
    catchers = []
    for module, tree in _library_trees():
        for owner, handler in _owned(tree, module):
            if not isinstance(handler, ast.ExceptHandler):
                continue
            types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            if handler.type is None or CATCH_ALLS & {_identifier(t) for t in types}:
                catchers.append(owner)
    assert set(catchers) == INPUT_BOUNDARIES
