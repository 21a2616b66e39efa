"""Affine schemes presented by generators and relations.

A scheme is a ring with a list of defining relations; localized variables
follow the companion convention (``v`` invertible means ``v_inv`` is a
ring variable and ``v*v_inv - 1`` a relation).  The constructors cover the
bases this package works over: points, affine lines, punctured lines and
finite products of those.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budget import InputError
from .fields import Field
from .poly import INVERSE_SUFFIX, Polynomial, PolynomialRing, companion_name


@dataclass(frozen=True)
class AffineScheme:
    ring: PolynomialRing
    relations: tuple[Polynomial, ...]

    def __post_init__(self):
        for rel in self.relations:
            if rel.ring != self.ring:
                raise ValueError("scheme relation lives in a different ring")

    @property
    def field(self) -> Field:
        return self.ring.field


def point(field: Field) -> AffineScheme:
    return AffineScheme(PolynomialRing(field, ()), ())


def affine_line(field: Field, name: str = "t") -> AffineScheme:
    return AffineScheme(PolynomialRing(field, (name,)), ())


def torus(field: Field, name: str = "t") -> AffineScheme:
    """The punctured affine line (invertible coordinate)."""
    inv = companion_name(name)
    ring = PolynomialRing(field, (name, inv), frozenset([name]))
    rel = ring.var(name) * ring.var(inv) - ring.one()
    return AffineScheme(ring, (rel,))


def product(left: AffineScheme, right: AffineScheme) -> AffineScheme:
    if left.field != right.field:
        raise ValueError("cannot form a product over different fields")
    clash = set(left.ring.names) & set(right.ring.names)
    if clash:
        raise InputError(f"product factors share variable names {sorted(clash)}")
    ring, _ = left.ring.adjoin(right.ring.names, right.ring.inverted)
    rels = tuple(r.map_ring(ring) for r in left.relations) + tuple(
        r.map_ring(ring) for r in right.relations
    )
    return AffineScheme(ring, rels)


def torus_power(field: Field, n: int) -> AffineScheme:
    """(A1 minus 0)^n with coordinates t1..tN."""
    if n < 1:
        raise InputError(f"torus^{n} needs at least one factor")
    coords = [f"t{i}" for i in range(1, n + 1)]
    names = tuple(name for v in coords for name in (v, companion_name(v)))
    ring = PolynomialRing(field, names, frozenset(coords))
    rels = tuple(ring.var(v) * ring.var(companion_name(v)) - ring.one() for v in coords)
    return AffineScheme(ring, rels)


def localize(scheme: AffineScheme, g: Polynomial) -> tuple[AffineScheme, str]:
    """Scheme with ``g`` inverted via a fresh inverse variable (stem
    ``lg``); returns the new scheme and the name of the inverse variable."""
    if g.ring != scheme.ring:
        raise ValueError("localizing element lives in a different ring")
    ring, (name,) = scheme.ring.adjoin(["lg"])
    rel = g.map_ring(ring) * ring.var(name) - ring.one()
    rels = tuple(r.map_ring(ring) for r in scheme.relations) + (rel,)
    return AffineScheme(ring, rels), name


def strip_coordinates(scheme: AffineScheme, names: list[str]) -> AffineScheme:
    """Remove product coordinates (with companions) from a scheme.

    Only relations involving the removed variables must be their unit
    relations; anything else means the scheme was not a product along
    those coordinates.
    """
    gone = set(names)
    for v in list(gone):
        if v in scheme.ring.inverted:
            gone.add(companion_name(v))
    kept_rels = []
    ring = scheme.ring.drop(gone)
    for rel in scheme.relations:
        used = rel.variables()
        if used & gone:
            touched = sorted(used & gone)
            base = touched[0].removesuffix(INVERSE_SUFFIX)
            unit = (
                scheme.ring.var(base) * scheme.ring.var(companion_name(base)) - scheme.ring.one()
                if companion_name(base) in scheme.ring.names
                else None
            )
            if unit is not None and (rel == unit or rel == -unit):
                continue
            raise ValueError(
                f"cannot strip {sorted(gone)}: relation {rel!r} ties them to the rest"
            )
        kept_rels.append(rel.map_ring(ring))
    return AffineScheme(ring, tuple(kept_rels))


def detect_torus_coordinate(scheme: AffineScheme) -> str:
    """The unique inverted coordinate of a scheme, when unambiguous."""
    marked = sorted(scheme.ring.inverted)
    if len(marked) != 1:
        raise InputError(
            f"scheme has {len(marked)} inverted coordinates {marked}; expected exactly one"
        )
    return marked[0]
