"""Minimal generating sets of plane semigroups, and the plane cells.

The sign pattern of g = (g1, g2) splits the computation into four regimes,
which :func:`regime` names once for every plane computation of the package:

* trivial, g1 < 0 and g2 < 0: only 0 satisfies the inequality;
* ray, g1 <= 0 and g2 <= 0 with a zero coefficient: S is the free ray
  generated by the period vector on the line g = 0;
* positive, g1 > 0 and g2 > 0: the complement of S in N^2 is finite;
* strip, mixed signs: S lies in the strip 0 <= g(x) and is invariant
  under adding the period u; its generator cell is its Apery cell (below).

:func:`minimal_generators` walks the Apery cell in the strip regime and
runs the cone cell of :mod:`propmod.general` in the other three.  On
3x - 2y mod b <= x - 3y the cone cell takes 3 to 5 times as long for b = 30
to 60 (0.019 s against 0.006 s at b = 60, on a 2-vCPU Intel Xeon).

Lemma (the Apery cell).  Let u~ = t e_a be the axis generator, on the axis
a where g is positive, and call the other coordinate the height.  Let Ap be
the set of members h with h - u and h - u~ outside S, where differences
leaving N^2 count as outside.

(i) Ap lies in the rectangle R of heights [0, u_h - 1] and g-values
    [0, b + g(u~) - 2].  Proof: write g(x) = g_a x_a + g_h x_h with
    g_a > 0 >= g_h.  If h has height at least u_h, then h - u has height at
    least 0 and the g-value of h, so its axis coordinate is at least 0, and
    f(u) = 0 (mod b) makes it a member.  If g(h) >= b - 1 + g(u~), then
    g_a h_a >= b - 1 + g_a t, so h - u~ lies in N^2 with g-value at least
    b - 1, and f mod b <= b - 1 makes it a member.
(ii) On R, h - u has negative height, and h - u~ is a member exactly when
    its values f(h) - f(u~), g(h) - g(u~) pass the inequality: for h_a < t
    its g-value is negative.  So one test per member decides Ap.
(iii) Ap, u and u~ generate S: subtracting u or u~ from a member while the
    difference stays in S ends in Ap.
(iv) A minimal generator s other than u and u~ lies in Ap: s - u in S would
    split s into the nonzero members u and s - u, and likewise for u~.

So the minimal generators are the reduction of Ap without 0, u and u~, and
R is the strip's generator cell and its Apery cell at once.
:func:`enumerate_region` walks it once for each of :func:`minimal_generators`,
the Apery data and the property report.

Every cell is walked in integer rows, without rational geometry:

* strip: (height, g-value) is a linear one-to-one change of coordinates,
  and every strip cell of the package is a rectangle in it: row h holds the
  points whose axis coordinate x has g_lo <= g_a x + g_h h <= g_hi, and
  :func:`strip_cell` walks them all.
* gaps (positive regime): any point with g(x) >= b is a member, so every
  gap lies in the cell g(x) <= b - 1.  With a corner c, row y >= c_2 holds
  the x >= c_1 with g1 x + g2 y <= b - 1; :func:`gap_cell` walks it.

Every walk counts its points against :func:`enumeration_cap` and raises
CapExceeded past it.  The walks yield each point with its values f and g,
so membership tests run on integers without building shifted points.

Candidates from the cell are then reduced to the unique minimal generating
set: a member is a generator exactly when it is not the sum of two nonzero
members.  The values travel with the points: :func:`enumerate_region`
returns (point, f, g) triples and :func:`minimalize` takes them, so no
value is computed twice.
"""

from __future__ import annotations

from operator import ge
from typing import Iterable, Iterator

from .core import (
    CapExceeded,
    DimensionMismatch,
    GeneratorSet,
    ModularInequality,
    Point,
    SemigroupError,
    UnsupportedCase,
    enumeration_cap,
    grlex_key,
)
from .general import construction_trace
from .rays import StripGeometry, strip_geometry

Cell = Iterator[tuple[Point, int, int]]


def regime(ineq: ModularInequality, task: str | None = None) -> str:
    """The shape of S read off the signs of g: "trivial", "ray", "positive"
    or "strip".

    Only plane inequalities have a regime; any other dimension raises
    DimensionMismatch, naming the ``task`` if one is given and the general
    method for generators otherwise.  A ``task`` needs a positive g
    coefficient (the positive or strip regime) and raises UnsupportedCase
    naming it otherwise.
    """
    if ineq.p != 2:
        hint = (f"{task} need a plane inequality" if task is not None
                else "the general method finds generators in any dimension")
        raise DimensionMismatch(f"the plane methods need p = 2, got p = {ineq.p}; {hint}")
    g1, g2 = ineq.g
    if g1 > 0 and g2 > 0:
        return "positive"
    if g1 > 0 or g2 > 0:
        return "strip"
    if task is not None:
        raise UnsupportedCase(
            f"the semigroup is trivial or lies on a line; {task} "
            "need a positive g coefficient")
    return "trivial" if g1 < 0 and g2 < 0 else "ray"


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


def gap_cell(ineq: ModularInequality, corner: Point = (0, 0)) -> Cell:
    """The points x >= corner with g(x) <= b - 1, for the positive regime.

    With the default corner the cell holds every gap of S; with corner
    q + (1, 1) it holds every gap strictly above q.
    """
    g1, g2 = ineq.g
    x0, y0 = corner
    top = ineq.b - 1
    rows = ((y, x0, (top - g2 * y) // g1) for y in range(y0, (top - g1 * x0) // g2 + 1))
    return _walk(ineq, 0, rows, "gap")


def cell_gaps(ineq: ModularInequality, cell: Cell) -> Cell:
    """The non-members of a cell as (point, f(point), g(point)), in walk order."""
    holds = ineq._holds
    return ((pt, fx, gx) for pt, fx, gx in cell if not holds(fx, gx))


def enumerate_region(ineq: ModularInequality,
                     geo: StripGeometry) -> list[tuple[Point, int, int]]:
    """The strip's Apery cell Ap as (point, f(point), g(point)), the origin
    included: the members h of the rectangle R with h - u~ outside S."""
    holds, ft, gt = ineq._holds, ineq.f_of(geo.axis_gen), ineq.g_of(geo.axis_gen)
    cell = strip_cell(ineq, geo, range(geo.period[geo.height_index]), 0, ineq.b + gt - 2)
    return [(h, fh, gh) for h, fh, gh in cell if holds(fh, gh) and not holds(fh - ft, gh - gt)]


def _strip_apery(ineq: ModularInequality) -> tuple[StripGeometry, list, GeneratorSet]:
    """The strip geometry, the Apery cell and the minimal generators, from
    one walk of the cell."""
    geo = strip_geometry(ineq)
    apery = enumerate_region(ineq, geo)
    steps = [(v, ineq.f_of(v), ineq.g_of(v)) for v in (geo.period, geo.axis_gen)]
    return geo, apery, minimalize(apery + steps, ineq)


def minimalize(candidates: Iterable[tuple[Point, int, int]],
               ineq: ModularInequality) -> GeneratorSet:
    """Reduce a generating candidate set to the minimal generating set.

    The candidates are (point, f(point), g(point)) triples.  Requires
    every candidate to be a member and the candidates to generate S.
    Processing in graded-lexicographic order, a candidate is redundant exactly
    when subtracting some already-accepted generator lands back in S; this is
    equivalent to being a sum of two nonzero members.  The difference is
    tested on the values f and g, which are linear.
    """
    holds = ineq._holds
    accepted: list[tuple[Point, int, int]] = []
    for h, fh, gh in sorted(candidates, key=lambda c: grlex_key(c[0])):
        if not any(h):
            continue
        if min(h) < 0 or not holds(fh, gh):
            raise SemigroupError(f"candidate {h} is not a member of the semigroup")
        for s, fs, gs in accepted:
            if holds(fh - fs, gh - gs) and all(map(ge, h, s)):
                break
        else:
            accepted.append((h, fh, gh))
    return GeneratorSet(tuple(s for s, _, _ in accepted))


def minimal_generators(ineq: ModularInequality) -> GeneratorSet:
    """The unique minimal generating set of a plane semigroup."""
    if regime(ineq) != "strip":
        return construction_trace(ineq).generators
    return _strip_apery(ineq)[2]
