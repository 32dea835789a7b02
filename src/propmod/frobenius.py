"""Frobenius vectors of plane semigroups.

A Frobenius vector of S is a point q in G(S) outside S such that every
group point strictly inside the cone of S translated to q is a nonzero
member.  Here G(S) is the subgroup of Z^2 generated by S and the cone is
the closure of the directions of members.

Lemma: whenever g has a positive coefficient, G(S) = Z^2.  Proof: let
g_a > 0 on axis a, with e_a and e_h the unit vectors of that axis and the
other one.  Any point of N^2 with g-value at least b is a member, since
the remainder is below b.  For n large enough the three points n e_a,
(n + 1) e_a and n e_a + e_h have g-value at least b, so they lie in S, and
their differences e_a and e_h lie in G(S).  So every point of Z^2 is a
group point, and no lattice needs computing.

For a numerical semigroup this recovers the classical Frobenius number.
In the plane the check quantifies over infinitely many group points, but
in both regimes with a positive g coefficient the cone strictly above q is
a quadrant: in (x, y) when g1, g2 > 0, where the cone of S is N^2, and in
(height, g-value) coordinates in the strip.  Every gap has g-value below b,
and in the strip periodicity along g = 0 bounds the height, so one finite
cell of that quadrant holds every possible witness and the answer is exact.
Both regimes search it with the same walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from .core import (
    ModularInequality,
    Point,
    SemigroupError,
    _integer,
    minimal_points,
    sort_points,
)
from .plane import Cell, cell_gaps, gap_cell, regime, strip_cell
from .rays import strip_geometry


@dataclass(frozen=True)
class FrobeniusReport:
    """Candidate gaps, the vectors that pass the definition, and the minimal
    ones.  ``group_basis`` is the unit basis of G(S) = Z^2 (see the lemma
    above), the same for every report."""

    delta: tuple[Point, ...]
    frobenius_vectors: tuple[Point, ...]
    minimal: tuple[Point, ...]
    group_basis: ClassVar[tuple[Point, Point]] = ((1, 0), (0, 1))


def _context(ineq: ModularInequality):
    """The regime, the cell of candidate gaps and the cell strictly above a
    point, as (kind, cell, above).

    In either regime the cone strictly above q is a quadrant, and ``above(q)``
    is a finite cell of it that holds every non-member the quadrant has, up
    to a period:

    * positive: the cone of S is N^2 and the quadrant is x > q in (x, y);
      every gap has g(x) <= b - 1, so the gap cell with corner q + (1, 1)
      holds them all.  The candidates are all gaps.
    * strip: in (height, g-value) coordinates the quadrant is height > h_q,
      g > g(q).  Witnesses can be pushed down by the period u until their
      height lies within one period of q, and any witness with g-value at
      least b would be forced into N^2 and hence into S, so the cell is the
      band height in (h_q, h_q + u_h], g-value in (g(q), b - 1].  The
      candidates are the gaps in the hull of {O, u, w, w + u}, which is the
      rectangle [0, u_h] x [0, b].
    """
    kind = regime(ineq, "Frobenius vectors")
    if kind == "positive":
        return kind, gap_cell(ineq), lambda q: gap_cell(ineq, (q[0] + 1, q[1] + 1))
    geo = strip_geometry(ineq)
    h, u_h = geo.height_index, geo.period[geo.height_index]

    def above(q: Point) -> Cell:
        return strip_cell(ineq, geo, range(q[h] + 1, q[h] + u_h + 1),
                          ineq.g_of(q) + 1, ineq.b - 1)
    return kind, strip_cell(ineq, geo, range(u_h + 1), 0, ineq.b), above


def _witness(ineq: ModularInequality, cell: Cell) -> Point | None:
    """The first point of the cell that is not a member, if any."""
    for z, fz, gz in cell:
        if not ineq._holds(fz, gz):
            return z
    return None


def definition_check(ineq: ModularInequality, q) -> bool:
    """Decide whether q is a Frobenius vector of S.

    The candidate must be a point of N^2; it passes when it lies outside S
    and no point strictly inside the translated cone escapes S.
    """
    q = tuple(map(_integer, q))
    if len(q) != 2 or any(c < 0 for c in q):
        raise SemigroupError(f"the check expects a point of N^2, got {q}")
    _, _, above = _context(ineq)
    if ineq.member(q):
        return False
    return _witness(ineq, above(q)) is None


def _checked_unique_minimal(ineq: ModularInequality, above, delta, minimal) -> None:
    """The strip case promises one minimal vector, the gap closest to g = b.

    Selection by largest g-value, ties broken by the product order and, if
    incomparable candidates remain, by the definition check itself.  Any
    disagreement with the computed minimal set is a real inconsistency and
    is raised, never silently ignored.
    """
    best_g = max(ineq.g_of(z) for z in delta)
    closest = minimal_points(z for z in delta if ineq.g_of(z) == best_g)
    if len(closest) > 1:
        closest = tuple(z for z in closest if _witness(ineq, above(z)) is None)
    if len(closest) != 1 or set(minimal) != set(closest):
        raise SemigroupError(
            "finite check contradicts the unique-minimal-vector property: "
            f"selected {closest}, definition check gives {minimal}")


def frobenius_vectors(ineq: ModularInequality) -> FrobeniusReport:
    """All Frobenius vectors inside the candidate gap set, and the minimal ones."""
    kind, cell, above = _context(ineq)
    delta = cell_gaps(ineq, cell)
    vectors = sort_points(q for q in delta if _witness(ineq, above(q)) is None)
    minimal = sort_points(minimal_points(vectors))
    if kind == "strip" and delta:
        _checked_unique_minimal(ineq, above, delta, minimal)
    return FrobeniusReport(delta=delta, frobenius_vectors=vectors, minimal=minimal)
