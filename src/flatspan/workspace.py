"""Workspace documents: named schemes, spans, and check requests.

A document is line oriented; ``#`` starts a comment and blank lines are
ignored.  The statements are:

    workspace NAME                      (optional, at most once)
    field QQ                            (or: field Fp P)
    scheme NAME = point
    scheme NAME = line VAR
    scheme NAME = torus VAR
    scheme NAME = torus^N
    scheme NAME = product NAME NAME
    span NAME : NAME -> NAME {
      piece {
        vars a, b, b_inv
        rels POLY, POLY
        source COORD: POLY, ...
        target COORD: POLY, ...
      }
    }
    check NAME = COMMAND OPERAND... KEY: VALUE ...

Within a piece, listing both ``v`` and ``v_inv`` marks ``v`` as
invertible with ``v_inv`` as its companion.  Omitted ``vars``/``rels``/
``source``/``target`` lines mean empty.  Names live in one namespace,
must be declared before use, and may not be redeclared; after
resolution the document's meaning does not depend on declaration order.

``print_workspace`` emits the canonical form: declarations in original
order, polynomials in canonical text, arguments in the fixed per-command
order.  Parsing a canonical document and printing it again is the
identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field

from .budget import InputError
from .fields import MAX_DIGITS, Field, FieldError, field_from_name
from .poly import INVERSE_SUFFIX, PolynomialRing, companion_name
from .polyparse import ParseError, format_polynomial, parse_polynomial
from .reports import COMMANDS, check_line
from .schemes import AffineScheme, affine_line, point, product, torus, torus_power
from .spans import Correspondence, SpanError, make_piece, validate_correspondence


class WorkspaceError(InputError):
    def __init__(self, message: str, line: int | None = None):
        self.message = message
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


INT_KEYS = {"n", "m", "a", "b", "window"}
POLY_KEYS = {"f", "f2"}
SIGN_KEYS = {"sign"}


@dataclass(frozen=True)
class SchemeDecl:
    name: str
    kind: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class SpanDecl:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class CheckRequest:
    name: str
    command: str
    operands: tuple[str, ...]
    args: tuple[tuple[str, str], ...]
    line: int = 0

    def arg(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.args:
            if k == key:
                return v
        return default


@dataclass
class WorkspaceDocument:
    field_text: str
    field: Field
    name: str | None = None
    scheme_decls: tuple[SchemeDecl, ...] = ()
    span_decls: tuple[SpanDecl, ...] = ()
    schemes: dict[str, AffineScheme] = dc_field(default_factory=dict)
    spans: dict[str, Correspondence] = dc_field(default_factory=dict)
    checks: tuple[CheckRequest, ...] = ()


_WORKSPACE = re.compile(r"workspace\s+([A-Za-z_][\w-]*)\s*$")
_FIELD = re.compile(r"field\s+(QQ|Fp\s+\d+)\s*$")
_SCHEME = re.compile(r"scheme\s+([A-Za-z_]\w*)\s*=\s*(.+?)\s*$")
_SPAN = re.compile(
    r"span\s+([A-Za-z_]\w*)\s*:\s*([A-Za-z_]\w*)\s*->\s*([A-Za-z_]\w*)\s*\{\s*$"
)
_CHECK = re.compile(r"check\s+([A-Za-z_][\w-]*)\s*=\s*(.+?)\s*$")
_IDENT = re.compile(r"[A-Za-z_]\w*$")
_KEYED = re.compile(r"(?:^|\s)([A-Za-z_]\w*):(?=\s)")


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _split_list(text: str) -> list[str]:
    items = [part.strip() for part in text.split(",")]
    return [part for part in items if part]


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0
        self.doc_name: str | None = None
        self.field_text: str | None = None
        self.field: Field | None = None
        self.scheme_decls: list[SchemeDecl] = []
        self.span_decls: list[SpanDecl] = []
        self.schemes: dict[str, AffineScheme] = {}
        self.spans: dict[str, Correspondence] = {}
        self.checks: list[CheckRequest] = []
        self.taken: set[str] = set()

    # -- plumbing ------------------------------------------------------

    def error(self, message: str, line: int | None = None) -> WorkspaceError:
        return WorkspaceError(message, self.pos if line is None else line)

    def next_line(self) -> tuple[int, str] | None:
        while self.pos < len(self.lines):
            self.pos += 1
            stripped = _strip_comment(self.lines[self.pos - 1]).strip()
            if stripped:
                return self.pos, stripped
        return None

    def claim(self, name: str, line: int) -> None:
        if name in self.taken:
            raise self.error(f"duplicate name {name!r}", line)
        self.taken.add(name)

    def need_field(self, line: int) -> Field:
        if self.field is None:
            raise self.error("a field declaration must come first", line)
        return self.field

    # -- statements ----------------------------------------------------

    def parse(self) -> WorkspaceDocument:
        while True:
            item = self.next_line()
            if item is None:
                break
            line, text = item
            if text.startswith("workspace"):
                self.parse_header(line, text)
            elif text.startswith("field"):
                self.parse_field(line, text)
            elif text.startswith("scheme"):
                self.parse_scheme(line, text)
            elif text.startswith("span"):
                self.parse_span(line, text)
            elif text.startswith("check"):
                self.parse_check(line, text)
            else:
                raise self.error(f"unrecognized statement {text.split()[0]!r}", line)
        if self.field is None:
            raise self.error("document never declares a field")
        return WorkspaceDocument(
            self.field_text or "QQ",
            self.field,
            self.doc_name,
            tuple(self.scheme_decls),
            tuple(self.span_decls),
            self.schemes,
            self.spans,
            tuple(self.checks),
        )

    def parse_header(self, line: int, text: str) -> None:
        m = _WORKSPACE.match(text)
        if not m:
            raise self.error("expected: workspace NAME", line)
        if self.doc_name is not None:
            raise self.error("duplicate workspace header", line)
        self.doc_name = m.group(1)

    def parse_field(self, line: int, text: str) -> None:
        m = _FIELD.match(text)
        if not m:
            raise self.error("expected: field QQ, or: field Fp P", line)
        if self.field is not None:
            raise self.error("duplicate field declaration", line)
        spec = " ".join(m.group(1).split())
        self.field_text = spec
        try:
            self.field = field_from_name(spec)
        except FieldError as err:
            raise self.error(str(err), line) from err

    def parse_scheme(self, line: int, text: str) -> None:
        m = _SCHEME.match(text)
        if not m:
            raise self.error("expected: scheme NAME = KIND ...", line)
        name, rhs = m.group(1), m.group(2)
        field = self.need_field(line)
        self.claim(name, line)
        parts = rhs.split()
        kind = parts[0]
        args = tuple(parts[1:])
        power = re.match(r"torus\^(\d+)$", kind)
        if power and len(power.group(1)) > MAX_DIGITS:  # int() would refuse it
            raise self.error(f"torus power longer than {MAX_DIGITS} digits", line)
        if kind == "product" and len(args) == 2:
            factors = [self.lookup_scheme(a, line) for a in args]
        try:
            if kind == "point" and not args:
                built = point(field)
            elif kind == "line" and len(args) == 1 and _IDENT.match(args[0]):
                built = affine_line(field, args[0])
            elif kind == "torus" and len(args) == 1 and _IDENT.match(args[0]):
                built = torus(field, args[0])
            elif power and not args:
                built = torus_power(field, int(power.group(1)))
            elif kind == "product" and len(args) == 2:
                built = product(factors[0], factors[1])
            else:
                built = None
        except InputError as err:
            raise self.error(str(err), line) from err
        if built is None:
            raise self.error(f"unrecognized scheme form {rhs!r}", line)
        self.scheme_decls.append(SchemeDecl(name, kind, args))
        self.schemes[name] = built

    def lookup_scheme(self, name: str, line: int) -> AffineScheme:
        if name not in self.schemes:
            raise self.error(f"unresolved scheme reference {name!r}", line)
        return self.schemes[name]

    def parse_span(self, line: int, text: str) -> None:
        m = _SPAN.match(text)
        if not m:
            raise self.error("expected: span NAME : SOURCE -> TARGET {", line)
        name, src_name, tgt_name = m.groups()
        field = self.need_field(line)
        self.claim(name, line)
        source = self.lookup_scheme(src_name, line)
        target = self.lookup_scheme(tgt_name, line)
        pieces = []
        while True:
            item = self.next_line()
            if item is None:
                raise self.error("unterminated span block", line)
            inner_line, inner = item
            if inner == "}":
                break
            if inner == "piece {":
                pieces.append(self.parse_piece(inner_line, field, source, target))
            else:
                raise self.error("expected: piece {, or: }", inner_line)
        corr = Correspondence(source, target, tuple(pieces))
        try:
            validate_correspondence(corr)
        except SpanError as err:
            raise self.error(f"span {name!r}: {err}", line) from err
        self.span_decls.append(SpanDecl(name, src_name, tgt_name))
        self.spans[name] = corr

    def parse_piece(self, opened: int, field, source, target):
        names: tuple[str, ...] = ()
        rels_text: tuple[tuple[int, str], ...] = ()
        src_text: tuple[tuple[int, str, str], ...] = ()
        tgt_text: tuple[tuple[int, str, str], ...] = ()
        seen: set[str] = set()
        while True:
            item = self.next_line()
            if item is None:
                raise self.error("unterminated piece block", opened)
            line, text = item
            if text == "}":
                break
            keyword, _, rest = text.partition(" ")
            if keyword in seen:
                raise self.error(f"duplicate {keyword!r} line in piece", line)
            seen.add(keyword)
            if keyword == "vars":
                names = tuple(_split_list(rest))
                for v in names:
                    if not _IDENT.match(v):
                        raise self.error(f"bad variable name {v!r}", line)
                if len(set(names)) != len(names):
                    raise self.error("repeated variable name", line)
            elif keyword == "rels":
                rels_text = tuple((line, part) for part in _split_list(rest))
            elif keyword in ("source", "target"):
                entries, keys = [], set()
                for part in _split_list(rest):
                    key, colon, value = part.partition(":")
                    key, value = key.strip(), value.strip()
                    if not colon or not _IDENT.match(key) or not value:
                        raise self.error(
                            f"expected COORD: POLY entries, got {part!r}", line
                        )
                    if key in keys:
                        raise self.error(f"duplicate {keyword} entry for {key!r}", line)
                    keys.add(key)
                    entries.append((line, key, value))
                if keyword == "source":
                    src_text = tuple(entries)
                else:
                    tgt_text = tuple(entries)
            else:
                raise self.error(
                    f"unrecognized piece line {keyword!r} "
                    "(expected vars, rels, source, or target)",
                    line,
                )
        inverted = frozenset(
            v for v in names if companion_name(v) in names and not v.endswith(INVERSE_SUFFIX)
        )
        ring = PolynomialRing(field, names, inverted)
        relations = [_poly(text, ring, line) for line, text in rels_text]
        src = {key: _poly(text, ring, line) for line, key, text in src_text}
        tgt = {key: _poly(text, ring, line) for line, key, text in tgt_text}
        try:
            return make_piece(ring, relations, src, tgt, source, target)
        except SpanError as err:
            raise self.error(f"piece maps do not match the feet: {err}", opened)

    def parse_check(self, line: int, text: str) -> None:
        m = _CHECK.match(text)
        if not m:
            raise self.error("expected: check NAME = COMMAND ...", line)
        name, rest = m.groups()
        self.claim(name, line)
        command, *tail = rest.split(None, 1)
        head, *keyed = _KEYED.split(" ".join(tail))
        pairs = [(key, value.strip()) for key, value in zip(keyed[::2], keyed[1::2])]
        self.checks.append(
            check_request(name, command, tuple(head.split()), pairs, self.spans, line)
        )


def check_request(
    name: str,
    command: str,
    operands: tuple[str, ...],
    keyed: list[tuple[str, str]],
    spans: dict[str, Correspondence],
    line: int = 0,
    missing: str = "{command} needs argument {key!r}",
) -> CheckRequest:
    """The canonical request, checked against its row of :data:`COMMANDS`:
    a known command, its operand count, keys that it takes, each given
    once with a value, and operands that name spans in ``spans``.  Keys
    come out in canonical order and values canonical: integers minimized,
    signs checked, polynomials reformatted when the first operand is a
    single-piece span.  ``missing`` words the error for an absent
    required key."""
    row = COMMANDS.get(command)
    if row is None:
        raise WorkspaceError(f"unknown command {command!r}", line)
    if len(operands) != row.operands:
        raise WorkspaceError(
            f"{command} takes {row.operands} span operand(s), got {len(operands)}", line
        )
    given: dict[str, str] = {}
    for key, value in keyed:
        if key not in row.required + row.optional:
            raise WorkspaceError(f"{command} does not take argument {key!r}", line)
        if key in given:
            raise WorkspaceError(f"duplicate argument {key!r}", line)
        if not value:
            raise WorkspaceError(f"missing value for argument {key!r}", line)
        given[key] = value
    for key in row.required:
        if key not in given:
            raise WorkspaceError(missing.format(command=command, key=key), line)
    for op in operands:
        if op not in spans:
            raise WorkspaceError(f"unresolved span reference {op!r}", line)
    pieces = spans[operands[0]].pieces if operands else ()
    ring = pieces[0].ring if len(pieces) == 1 else None
    args = []
    for key in row.required + row.optional:
        value = given.get(key)
        if value is None:
            continue
        if key in INT_KEYS:
            if not re.fullmatch(r"-?\d+", value):
                raise WorkspaceError(f"argument {key!r} must be an integer", line)
            try:
                value = str(int(value))
            except ValueError:  # past the interpreter's integer-parsing limit
                raise WorkspaceError(f"argument {key!r} is too large", line) from None
        elif key in SIGN_KEYS and value not in ("+", "-"):
            raise WorkspaceError(f"argument {key!r} must be + or -", line)
        elif key in POLY_KEYS and ring is not None:
            value = format_polynomial(_poly(value, ring, line))
        args.append((key, value))
    return CheckRequest(name, command, operands, tuple(args), line)


def _poly(text: str, ring: PolynomialRing, line: int | None):
    try:
        return parse_polynomial(text, ring)
    except ParseError as err:
        raise WorkspaceError(f"bad polynomial {text!r}: {err.message}", line) from err


def parse_workspace(text: str) -> WorkspaceDocument:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# canonical printing


def _scheme_text(decl: SchemeDecl) -> str:
    if decl.args:
        return f"{decl.kind} {' '.join(decl.args)}"
    return decl.kind


def print_workspace(doc: WorkspaceDocument) -> str:
    lines = []
    if doc.name:
        lines.append(f"workspace {doc.name}")
    lines.append(f"field {doc.field_text}")
    for decl in doc.scheme_decls:
        lines.append(f"scheme {decl.name} = {_scheme_text(decl)}")
    for decl in doc.span_decls:
        corr = doc.spans[decl.name]
        lines.append(f"span {decl.name} : {decl.source} -> {decl.target} {{")
        for piece in corr.pieces:
            lines.append("  piece {")
            if piece.ring.names:
                lines.append("    vars " + ", ".join(piece.ring.names))
            if piece.relations:
                lines.append(
                    "    rels " + ", ".join(format_polynomial(r) for r in piece.relations)
                )
            if piece.src_map:
                lines.append(
                    "    source "
                    + ", ".join(f"{k}: {format_polynomial(v)}" for k, v in piece.src_map)
                )
            if piece.tgt_map:
                lines.append(
                    "    target "
                    + ", ".join(f"{k}: {format_polynomial(v)}" for k, v in piece.tgt_map)
                )
            lines.append("  }")
        lines.append("}")
    for check in doc.checks:
        lines.append(check_line(check.name, check.command, check.operands, check.args))
    return "\n".join(lines) + "\n"
