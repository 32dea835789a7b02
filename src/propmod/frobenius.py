"""Frobenius vectors of plane semigroups.

A Frobenius vector of S is a point q in G(S) outside S such that every
group point strictly inside the cone of S translated to q is a nonzero
member.  Here G(S) is the subgroup of Z^2 generated by S and the cone is
the closure of the directions of members.

For a numerical semigroup this recovers the classical Frobenius number.
In the plane the check quantifies over infinitely many group points, but
periodicity along the g = 0 direction reduces it to a finite band, so the
answer is exact.
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
from .plane import minimal_generators, strip_cell
from .rays import StripGeometry, strip_geometry


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


def _strip_failure_witness(ineq: ModularInequality, geo: StripGeometry,
                           basis: tuple[Point, Point], q: Point) -> Point | None:
    """A group point strictly inside the cone at q that is not a member.

    Witnesses can be pushed down by the period u until their height lies
    within one period of q, and any witness with g-value at least b would
    be forced into N^2 and hence into S, so the search space is the finite
    band height in (h_q, h_q + u_h], g-value in (g_q, b - 1].
    """
    h_q, u_h = q[geo.height_index], geo.period[geo.height_index]
    band = strip_cell(ineq, geo, range(h_q + 1, h_q + u_h + 1), ineq.g_of(q) + 1, ineq.b - 1)
    for z, fz, gz in band:
        if not ineq._holds(fz, gz) and in_group(basis, z):
            return z
    return None


def _positive_gaps(ineq: ModularInequality) -> tuple[Point, ...]:
    """All non-members when both g-coefficients are positive (a finite set)."""
    g1, g2 = ineq.g
    out = []
    for x in range((ineq.b - 1) // g1 + 1):
        for y in range((ineq.b - 1 - g1 * x) // g2 + 1):
            if not ineq.member((x, y)):
                out.append((x, y))
    return sort_points(out)


def _positive_failure_witness(ineq: ModularInequality, gaps, basis, q: Point) -> Point | None:
    for z in gaps:
        if z[0] > q[0] and z[1] > q[1] and in_group(basis, z):
            return z
    return None


def _context(ineq: ModularInequality):
    if ineq.p != 2:
        raise UnsupportedCase("Frobenius vectors are computed in N^2 only")
    g1, g2 = ineq.g
    if g1 <= 0 and g2 <= 0:
        raise UnsupportedCase(
            "the semigroup is trivial or lies on a line; "
            "it has no Frobenius vectors")
    gens = minimal_generators(ineq)
    basis = group_basis(gens)
    if g1 > 0 and g2 > 0:
        return basis, None, _positive_gaps(ineq)
    return basis, strip_geometry(ineq), None


def definition_check(ineq: ModularInequality, q) -> bool:
    """Decide whether q is a Frobenius vector of S.

    The candidate must come from N^2; it passes when it lies in G(S)
    outside S and no group point strictly inside the translated cone
    escapes S.
    """
    q = tuple(int(c) for c in q)
    if len(q) != 2 or any(c < 0 for c in q):
        raise SemigroupError(f"the check expects a point of N^2, got {q}")
    basis, geo, gaps = _context(ineq)
    if ineq.member(q) or not in_group(basis, q):
        return False
    if geo is None:
        return _positive_failure_witness(ineq, gaps, basis, q) is None
    return _strip_failure_witness(ineq, geo, basis, q) is None


def _strip_delta(ineq: ModularInequality, geo: StripGeometry) -> tuple[Point, ...]:
    """Gaps inside the hull of {O, u, w, w + u}.

    In (height, g-value) coordinates that hull is the rectangle
    [0, u_h] x [0, b].
    """
    u_h = geo.period[geo.height_index]
    return sort_points(z for z, fz, gz in strip_cell(ineq, geo, range(u_h + 1), 0, ineq.b)
                       if not ineq._holds(fz, gz))


def _checked_unique_minimal(ineq: ModularInequality, geo, basis,
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
        closest = tuple(
            z for z in closest
            if _strip_failure_witness(ineq, geo, basis, z) is None)
    if len(closest) != 1 or set(minimal) != set(closest):
        raise SemigroupError(
            "finite check contradicts the unique-minimal-vector property: "
            f"selected {closest}, definition check gives {minimal}")


def frobenius_vectors(ineq: ModularInequality) -> FrobeniusReport:
    """All Frobenius vectors inside the candidate gap set, and the minimal ones."""
    basis, geo, gaps = _context(ineq)
    if geo is None:
        delta = gaps
        passers = [q for q in delta
                   if in_group(basis, q)
                   and _positive_failure_witness(ineq, gaps, basis, q) is None]
    else:
        delta = _strip_delta(ineq, geo)
        passers = [q for q in delta
                   if in_group(basis, q)
                   and _strip_failure_witness(ineq, geo, basis, q) is None]
    vectors = sort_points(passers)
    minimal = sort_points(minimal_points(vectors))
    if geo is not None and delta:
        _checked_unique_minimal(ineq, geo, basis, delta, minimal)
    return FrobeniusReport(delta=delta, frobenius_vectors=vectors,
                           minimal=minimal, group_basis=basis)
