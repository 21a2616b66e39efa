"""Classifying a quotient algebra as a module over a base ring, and the
certificate record that classification returns.

The combined ring carries the fiber variables first and the base variables
after them; its ideal contains the fiber relations, the base relations and
the identifications of base variables with their structure-map images.  A
Groebner basis under the block (fiber > base) order then classifies the
module, in the status words every report uses:

* unit ideal                      -> ``certified``: the zero module (empty
                                     scheme), rank 0;
* a base-only basis element that is nonzero modulo the base relations
                                  -> ``not_locally_free``: annihilator
                                     torsion, hence not flat over an
                                     integral base;
* a fiber direction without a pure-power leading monomial
                                  -> ``not_finite`` (any integral
                                     dependence would produce one);
* no mixed leading monomials      -> ``certified``: free with the staircase
                                     monomials as basis;
* otherwise                       -> ``inconclusive`` (a leading
                                     coefficient in the fiber variables
                                     involves base variables, and we
                                     refuse to guess).

The torsion test is only sound over an integral base; every base ring
constructed by this package (points, affine lines, tori and their
products) is a localization of a polynomial ring and therefore integral.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

from .budget import Budget
from .groebner import DivisorTable, groebner_basis
from .orders import GrevLex, MonomialOrder, exp_divides, fiber_order
from .poly import Polynomial, PolynomialRing


class PresentationError(Exception):
    pass


@dataclass(frozen=True)
class ModulePresentation:
    """Generators and a relation matrix over the base ring.

    ``relations`` rows are vectors of length ``len(generators)``; the
    module is the cokernel of the matrix acting on the free module.
    """

    base_ring: PolynomialRing
    generators: tuple[str, ...]
    relations: tuple[tuple[Polynomial, ...], ...]


@dataclass(frozen=True)
class PieceCertificate:
    """A free piece over the base: the reduced basis under
    :func:`fiber_order`, its staircase, every fiber variable's
    multiplication matrix and the base basis.  The matrices and base basis
    live in :attr:`base_ring`, the variables of ``ring`` after its
    ``split`` first.  What restates these (labels, rank) is derived."""

    ring: PolynomialRing
    split: int
    groebner: tuple[Polynomial, ...]
    staircase: tuple[tuple[int, ...], ...]
    matrices: tuple[tuple[str, tuple[tuple[Polynomial, ...], ...]], ...]
    base_groebner: tuple[Polynomial, ...]

    @property
    def rank(self) -> int:
        return len(self.staircase)

    @property
    def labels(self) -> tuple[str, ...]:
        return staircase_labels(self.ring.names[: self.split], self.staircase)

    @staticmethod
    def base_of(ring: PolynomialRing, split: int) -> PolynomialRing:
        """The base ring of a certificate ring: its variables after the
        first ``split``."""
        return ring.drop(ring.names[:split])

    @property
    def base_ring(self) -> PolynomialRing:
        return self.base_of(self.ring, self.split)

    @property
    def order(self) -> MonomialOrder:
        """The block order of :attr:`groebner`, fiber variables over base."""
        return fiber_order(self.ring.nvars, self.split)

    @cached_property
    def table(self) -> DivisorTable:
        """:attr:`groebner` packed once for division under :attr:`order`."""
        return DivisorTable(self.ring, self.groebner, self.order)


@dataclass(frozen=True)
class CertifyOutcome:
    """Certification of one piece (:func:`classify_basis`) or of a whole
    correspondence; a failure carries its detail and, when
    ``not_locally_free``, the torsion witness."""

    status: str  # certified | not_finite | not_locally_free | inconclusive
    pieces: tuple[PieceCertificate, ...] = ()
    detail: str = ""
    witness: tuple[Polynomial, ...] = ()

    @property
    def certified(self) -> bool:
        return self.status == "certified"

    @property
    def rank(self) -> int | None:
        """The total staircase size when certified, else None."""
        return sum(cert.rank for cert in self.pieces) if self.certified else None


def _staircase(pure: list[tuple[int, ...]], split: int) -> list[tuple[int, ...]] | int:
    """Monomials not under any pure-fiber leading monomial, or the index of
    an unbounded direction."""
    mins = [None] * split
    for alpha in pure:
        support = [i for i, e in enumerate(alpha) if e]
        if len(support) == 1:
            i = support[0]
            if mins[i] is None or alpha[i] < mins[i]:
                mins[i] = alpha[i]
    for i, m in enumerate(mins):
        if m is None:
            return i
    out = []

    def walk(prefix: tuple[int, ...]):
        i = len(prefix)
        if i == split:
            if not any(exp_divides(a, prefix) for a in pure):
                out.append(prefix)
            return
        for e in range(mins[i]):
            walk(prefix + (e,))

    walk(())
    key = GrevLex(split)
    out.sort(key=key.key)
    return out


def analyze_module(
    ring: PolynomialRing,
    split: int,
    relations: list[Polynomial],
    base_ring: PolynomialRing,
    base_relations: list[Polynomial],
    budget: Budget | None = None,
) -> CertifyOutcome:
    """Classify ``ring/relations`` as a module over ``base_ring``.

    ``ring`` lists the fiber variables first (``split`` of them) followed
    by the base variables, which must coincide with ``base_ring.names`` in
    order.  ``relations`` must already contain the base relations and the
    structure identifications.  Completes ``relations`` under
    :func:`fiber_order` and ``base_relations`` in the base ring, then hands
    both reduced bases to :func:`classify_basis`.
    """
    if ring.names[split:] != base_ring.names:
        raise ValueError("combined ring does not extend the base ring by fiber variables")
    budget = budget or Budget()
    order = fiber_order(ring.nvars, split)
    basis = groebner_basis(relations, order, budget=budget)
    base_basis = groebner_basis(base_relations, budget=budget)
    return classify_basis(DivisorTable(ring, basis, order), split, base_ring, base_basis, budget)


def classify_basis(
    table: DivisorTable,
    split: int,
    base_ring: PolynomialRing,
    base_basis: Sequence[Polynomial],
    budget: Budget | None = None,
) -> CertifyOutcome:
    """Classify the quotient by ``table.basis`` as a module over
    ``base_ring``.

    ``table`` holds a Groebner basis under :func:`fiber_order` and
    ``base_basis`` is the reduced basis of the base relations.  A constant
    element means the zero module; otherwise the leads decide as the module
    docstring lists.  A free or zero module is ``certified`` with its one
    :class:`PieceCertificate`: the staircase and every fiber variable's
    matrix, all divided through ``table``.  Certification and recheck both
    classify through here.  Raises :class:`PresentationError` when the
    basis is inconsistent with its own staircase.
    """
    budget = budget or Budget()
    ring, basis = table.ring, table.basis
    fiber_names = ring.names[:split]

    def certified(stair, matrices) -> CertifyOutcome:
        cert = PieceCertificate(ring, split, tuple(basis), tuple(stair), matrices, tuple(base_basis))
        return CertifyOutcome("certified", (cert,))

    if any(g.is_constant() for g in basis):
        return certified((), ())

    pure, base_only, mixed = [], [], []
    for g, lm in zip(basis, table.leads()):
        fp, bp = lm[:split], lm[split:]
        if not any(bp):
            pure.append(fp)
        elif not any(fp):
            base_only.append(g)
        else:
            mixed.append(g)

    # torsion: a base-only element not already implied by the base relations;
    # the base basis is packed for division only when there is one to test
    torsion = []
    if base_only:
        base_table = DivisorTable(base_ring, base_basis)
        for g in base_only:
            in_base = g.map_ring(base_ring)
            if not base_table.reduce(in_base, budget).is_zero():
                torsion.append(in_base)
    if torsion:
        witness = ", ".join(str(w) for w in torsion)
        return CertifyOutcome(
            "not_locally_free",
            detail=f"base element ({witness}) vanishes on the middle but not on the source",
            witness=tuple(torsion),
        )

    stair = _staircase(pure, split)
    if isinstance(stair, int):
        return CertifyOutcome(
            "not_finite", detail=f"no monomial bound in direction {fiber_names[stair]}"
        )

    if mixed:
        return CertifyOutcome(
            "inconclusive", detail="a fiber leading coefficient involves base variables"
        )

    matrices = sorted(
        (v, multiplication_matrix_from(table, split, ring.var(v), stair, budget)) for v in fiber_names
    )
    return certified(stair, tuple(matrices))


def multiplication_matrix_from(
    table: DivisorTable,
    split: int,
    element: Polynomial,
    staircase: list[tuple[int, ...]],
    budget: Budget | None = None,
) -> tuple[tuple[Polynomial, ...], ...]:
    """Matrix of multiplication by ``element`` on the staircase basis;
    entry [i][j] is the coefficient of basis j in element * basis i.

    ``table`` holds a Groebner basis under :func:`fiber_order`; row i is
    the remainder of ``x^gamma_i * element``.  The entries live in the ring
    of the last ``nvars - split`` variables.
    """
    ring = table.ring
    base_ring = PieceCertificate.base_of(ring, split)
    index = {exp: j for j, exp in enumerate(staircase)}
    pad = (0,) * (ring.nvars - split)
    rows = []
    for nf in table.reduce_multiples(element, [tuple(gamma) + pad for gamma in staircase], budget):
        row = [dict() for _ in staircase]
        for exp, c in nf.terms().items():
            fp = exp[:split]
            j = index.get(fp)
            if j is None:
                raise PresentationError(
                    f"irreducible fiber monomial {fp} outside the staircase; basis is inconsistent"
                )
            row[j][exp[split:]] = c
        rows.append(tuple(Polynomial(base_ring, d) for d in row))
    return tuple(rows)


def multiplication_matrix(cert: PieceCertificate, element: Polynomial, budget: Budget | None = None):
    """Matrix of multiplication by an element of the combined ring, over
    the staircase basis of a piece certificate."""
    return multiplication_matrix_from(cert.table, cert.split, element, list(cert.staircase), budget)


def staircase_labels(names: tuple[str, ...], staircase) -> tuple[str, ...]:
    """Readable monomial labels for a staircase basis over the fiber
    variables ``names``."""
    out = []
    for exp in staircase:
        mono = "*".join(
            f"{n}^{k}" if k > 1 else n for n, k in zip(names, exp) if k
        )
        out.append(mono or "1")
    return tuple(out)


def _minors(rows: list[list[Polynomial]], k: int, ring: PolynomialRing, budget: Budget):
    """All k x k minors by Laplace expansion along the first row."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    out = []

    from itertools import combinations

    def det(r_idx: tuple[int, ...], c_idx: tuple[int, ...]) -> Polynomial:
        budget.spend(1, "minor expansion")
        if len(r_idx) == 1:
            return rows[r_idx[0]][c_idx[0]]
        total = ring.zero()
        r0 = r_idx[0]
        rest = r_idx[1:]
        for pos, c in enumerate(c_idx):
            entry = rows[r0][c]
            if entry.is_zero():
                continue
            sub = det(rest, c_idx[:pos] + c_idx[pos + 1 :])
            term = entry * sub
            total = total + (term if pos % 2 == 0 else -term)
        return total

    for r_idx in combinations(range(m), k):
        for c_idx in combinations(range(n), k):
            d = det(r_idx, c_idx)
            if not d.is_zero():
                out.append(d)
    return out


def fitting_ideal(pres: ModulePresentation, r: int, budget: Budget | None = None) -> list[Polynomial]:
    """Reduced Groebner basis of the r-th Fitting ideal (minors of size
    g - r, where g is the number of generators)."""
    budget = budget or Budget()
    g = len(pres.generators)
    k = g - r
    ring = pres.base_ring
    if k <= 0:
        return [ring.one()]
    rows = [list(row) for row in pres.relations]
    if k > len(rows) or k > g:
        return []
    gens = _minors(rows, k, ring, budget)
    return groebner_basis(gens, budget=budget)
