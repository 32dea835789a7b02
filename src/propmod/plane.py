"""Minimal generating sets of plane semigroups via bounded candidate cells.

The sign pattern of g = (g1, g2) splits the computation:

* g1 < 0 and g2 < 0: only 0 satisfies the inequality, S is trivial;
* g1 <= 0 and g2 <= 0 with a zero coefficient: S is the free ray generated
  by the period vector on the line g = 0;
* g1 > 0 and g2 > 0: the complement of S in N^2 is finite and every
  generator lies in the triangle spanned by 0 and the two axis crossings
  shifted by the axis generators;
* mixed signs: S lies in the strip 0 <= g(x), is invariant under adding the
  period u, and every generator lies in the parallelogram 0, u, u + w + u~,
  w + u~ spanned by u and the crossing point w shifted by the axis
  generator u~.

Both cells are walked in integer rows, without rational geometry:

* strip: give a point its height h (the coordinate across the axis where g
  is positive) and its g-value.  That change of coordinates is linear and
  one-to-one, g(u) = 0, and w and u~ have height 0, so the parallelogram is
  exactly the rectangle [0, u_h] x [0, b + g(u~)].  Row h holds the points
  whose axis coordinate x has 0 <= g_a x + g_h h <= b + g(u~).  The same
  rectangle is the Apery cell, and :func:`strip_cell` walks every strip
  cell of the package.
* triangle: with axis generators t1, t2, A = b + g1 t1 and B = b + g2 t2,
  the shifted crossings are A / g1 and B / g2, so row y holds the x >= 0
  with x g1 B + y g2 A <= A B.

Every walk counts its points against :func:`enumeration_cap` and raises
CapExceeded past it.  The walks yield each point with its values f and g,
so membership tests run on integers without building shifted points.

Candidates from the cell are then reduced to the unique minimal generating
set: a member is a generator exactly when it is not the sum of two nonzero
members.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ge
from typing import Iterable, Iterator, Sequence

from .core import (
    CapExceeded,
    DimensionMismatch,
    ModularInequality,
    Point,
    SemigroupError,
    sort_points,
)
from .diophantine import enumeration_cap
from .rays import StripGeometry, axis_generator, period_vector, strip_geometry

Cell = Iterator[tuple[Point, int, int]]


@dataclass(frozen=True)
class GeneratorSet:
    points: tuple[Point, ...]
    minimal: bool
    trivial: bool

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)


def _walk(ineq: ModularInequality, axis: int, rows, cell: str) -> Cell:
    """(point, f(point), g(point)) along rows (height, lo, hi) of axis values."""
    h_idx = 1 - axis
    f_a, f_h = ineq.f[axis], ineq.f[h_idx]
    g_a, g_h = ineq.g[axis], ineq.g[h_idx]
    cap, seen = enumeration_cap(), 0
    for h, lo, hi in rows:
        seen += max(0, hi - lo + 1)
        if seen > cap:
            raise CapExceeded(
                f"the plane {cell} cell passes {cap} points at height {h}; "
                "raise PROPMOD_CAP to go on")
        fx, gx = f_a * lo + f_h * h, g_a * lo + g_h * h
        for x in range(lo, hi + 1):
            yield ((x, h) if axis == 0 else (h, x)), fx, gx
            fx += f_a
            gx += g_a


def strip_cell(ineq: ModularInequality, geo: StripGeometry,
               heights: range, g_lo: int, g_hi: int) -> Cell:
    """The points with height in ``heights`` and g-value in [g_lo, g_hi].

    Yields (point, f(point), g(point)) row by row, in increasing axis
    coordinate.  For heights >= 0 a point with g-value >= 0 lies in N^2,
    so ``ineq._holds`` on the values decides membership.
    """
    g_a, g_h = ineq.g[geo.axis], ineq.g[geo.height_index]
    rows = ((h, -((g_h * h - g_lo) // g_a), (g_hi - g_h * h) // g_a)
            for h in heights)
    return _walk(ineq, geo.axis, rows, "strip")


def strip_parallelogram(ineq: ModularInequality, geo: StripGeometry) -> Cell:
    """The rectangle [0, u_h] x [0, b + g(u~)]: the parallelogram holding
    every minimal generator, and the Apery cell."""
    u_h = geo.period[geo.height_index]
    return strip_cell(ineq, geo, range(u_h + 1), 0, ineq.b + ineq.g_of(geo.axis_gen))


def _triangle(ineq: ModularInequality) -> Cell:
    g1, g2 = ineq.g
    A = ineq.b + g1 * axis_generator(ineq, 0)[0]
    B = ineq.b + g2 * axis_generator(ineq, 1)[1]
    rows = ((y, 0, (A * B - y * g2 * A) // (g1 * B)) for y in range(B // g2 + 1))
    return _walk(ineq, 0, rows, "triangle")


def enumerate_region(ineq: ModularInequality) -> list[Point]:
    """Nonzero members of S in the cell that holds every minimal generator:
    the triangle when both g coefficients are positive, else the strip
    parallelogram."""
    if ineq.p != 2:
        raise DimensionMismatch("region enumeration works in the plane")
    g1, g2 = ineq.g
    if g1 > 0 and g2 > 0:
        cell = _triangle(ineq)
    else:
        cell = strip_parallelogram(ineq, strip_geometry(ineq))
    return [pt for pt, fx, gx in cell if ineq._holds(fx, gx) and any(pt)]


def minimalize(candidates: Iterable[Sequence[int]], ineq: ModularInequality) -> GeneratorSet:
    """Reduce a generating candidate set to the minimal generating set.

    Requires every candidate to be a member and the candidates to generate S.
    Processing in graded-lexicographic order, a candidate is redundant exactly
    when subtracting some already-accepted generator lands back in S; this is
    equivalent to being a sum of two nonzero members.  The difference is
    tested on the values f and g, which are linear.
    """
    holds = ineq._holds
    accepted: list[tuple[Point, int, int]] = []
    for h in sort_points(candidates):
        if not any(h):
            continue
        fh, gh = ineq.f_of(h), ineq.g_of(h)
        if min(h) < 0 or not holds(fh, gh):
            raise SemigroupError(f"candidate {h} is not a member of the semigroup")
        for s, fs, gs in accepted:
            if holds(fh - fs, gh - gs) and all(map(ge, h, s)):
                break
        else:
            accepted.append((h, fh, gh))
    return GeneratorSet(tuple(s for s, _, _ in accepted), minimal=True, trivial=False)


def minimal_generators(ineq: ModularInequality) -> GeneratorSet:
    """The unique minimal generating set of a plane semigroup."""
    if ineq.p != 2:
        raise DimensionMismatch("this method works in dimension 2; use the general one")
    g1, g2 = ineq.g
    if g1 < 0 and g2 < 0:
        # Membership forces g(x) >= 0, so only the origin survives.
        return GeneratorSet((), minimal=True, trivial=True)
    if g1 <= 0 and g2 <= 0:
        # One coefficient is zero: S is the free ray on the line g = 0.
        return GeneratorSet((period_vector(ineq),), minimal=True, trivial=False)
    return minimalize(enumerate_region(ineq), ineq)
