"""Frobenius vectors of plane semigroups.

A Frobenius vector of S is a point q in G(S) outside S such that every
group point strictly inside the cone of S translated to q is a nonzero
member.  Here G(S) is the subgroup of Z^2 generated by S and the cone is
the closure of the directions of members.

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
from math import gcd

from .core import (
    ModularInequality,
    Point,
    SemigroupError,
    UnsupportedCase,
    minimal_points,
    sort_points,
)
from .plane import Cell, cell_gaps, gap_cell, minimal_generators, regime, strip_cell
from .rays import strip_geometry


@dataclass(frozen=True)
class FrobeniusReport:
    """Candidate gaps, the vectors that pass the definition, and the lattice."""

    delta: tuple[Point, ...]
    frobenius_vectors: tuple[Point, ...]
    minimal: tuple[Point, ...]
    group_basis: tuple[Point, Point]


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def group_basis(gens) -> tuple[Point, Point]:
    """Triangular basis ((a, e), (0, c)) of the lattice spanned by ``gens``.

    Folding one generator at a time keeps the invariant that the lattice so
    far is spanned by one row with x-coordinate a and one row (0, c); the
    new row pair after folding v spans the same lattice because the two
    combinations used have determinant +-1 times the original pair.
    """
    a = e = c = 0
    for v in list(gens):
        x, y = int(v[0]), int(v[1])
        if x == 0:
            c = gcd(c, y)
            continue
        if a == 0:
            a, e = x, y
            continue
        r, s, t = _extended_gcd(a, x)
        c = gcd(c, (a // r) * y - (x // r) * e)
        a, e = r, s * e + t * y
    a, c = abs(a), abs(c)
    if a == 0 or c == 0:
        raise UnsupportedCase(
            "the generators span a rank-deficient lattice; "
            "Frobenius vectors need a full group in Z^2")
    e %= c
    return ((a, e), (0, c))


def in_group(basis: tuple[Point, Point], z) -> bool:
    """Exact membership of an integer pair in the lattice with this basis."""
    (a, e), (_, c) = basis
    x, y = int(z[0]), int(z[1])
    if x % a:
        return False
    return (y - (x // a) * e) % c == 0


def _context(ineq: ModularInequality):
    """The regime, the group basis, the cell of candidate gaps and the cell
    strictly above a point, as (kind, basis, cell, above).

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
    basis = group_basis(minimal_generators(ineq))
    if kind == "positive":
        return kind, basis, gap_cell(ineq), lambda q: gap_cell(ineq, (q[0] + 1, q[1] + 1))
    geo = strip_geometry(ineq)
    h, u_h = geo.height_index, geo.period[geo.height_index]

    def above(q: Point) -> Cell:
        return strip_cell(ineq, geo, range(q[h] + 1, q[h] + u_h + 1),
                          ineq.g_of(q) + 1, ineq.b - 1)
    return kind, basis, strip_cell(ineq, geo, range(u_h + 1), 0, ineq.b), above


def _witness(ineq: ModularInequality, basis: tuple[Point, Point], cell: Cell) -> Point | None:
    """The first group point of the cell that is not a member, if any."""
    for z, fz, gz in cell:
        if not ineq._holds(fz, gz) and in_group(basis, z):
            return z
    return None


def definition_check(ineq: ModularInequality, q) -> bool:
    """Decide whether q is a Frobenius vector of S.

    The candidate must come from N^2; it passes when it lies in G(S)
    outside S and no group point strictly inside the translated cone
    escapes S.
    """
    q = tuple(int(c) for c in q)
    if len(q) != 2 or any(c < 0 for c in q):
        raise SemigroupError(f"the check expects a point of N^2, got {q}")
    _, basis, _, above = _context(ineq)
    if ineq.member(q) or not in_group(basis, q):
        return False
    return _witness(ineq, basis, above(q)) is None


def _checked_unique_minimal(ineq: ModularInequality, basis, above,
                            delta, minimal) -> None:
    """The strip case promises one minimal vector, the gap closest to g = b.

    Selection by largest g-value, ties broken by the product order and, if
    incomparable candidates remain, by the definition check itself.  Any
    disagreement with the computed minimal set is a real inconsistency and
    is raised, never silently ignored.
    """
    best_g = max(ineq.g_of(z) for z in delta)
    closest = minimal_points(z for z in delta if ineq.g_of(z) == best_g)
    if len(closest) > 1:
        closest = tuple(z for z in closest if _witness(ineq, basis, above(z)) is None)
    if len(closest) != 1 or set(minimal) != set(closest):
        raise SemigroupError(
            "finite check contradicts the unique-minimal-vector property: "
            f"selected {closest}, definition check gives {minimal}")


def frobenius_vectors(ineq: ModularInequality) -> FrobeniusReport:
    """All Frobenius vectors inside the candidate gap set, and the minimal ones."""
    kind, basis, cell, above = _context(ineq)
    delta = cell_gaps(ineq, cell)
    vectors = sort_points(q for q in delta
                          if in_group(basis, q) and _witness(ineq, basis, above(q)) is None)
    minimal = sort_points(minimal_points(vectors))
    if kind == "strip" and delta:
        _checked_unique_minimal(ineq, basis, above, delta, minimal)
    return FrobeniusReport(delta=delta, frobenius_vectors=vectors,
                           minimal=minimal, group_basis=basis)
