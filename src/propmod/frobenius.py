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

Lemma (the row table).  Give each point of the candidate cell a row and a
column: in the positive regime the row is y and the column x; in the strip
the row is the height and the column the g-value.  Let best[r] be the
largest column of a gap in row r, -1 for a row without gaps, and top[r] the
maximum of best over the rows from r to the top of the table, -1 past it.
Then a gap q is a Frobenius vector exactly when top[row(q) + 1] <= col(q).

Proof.  In the positive regime the table holds the rows of the gap cell,
which holds every gap.  A gap strictly above q is a gap z with row(z) >
row(q) and col(z) > col(q); one exists exactly when some row past row(q)
has a gap with column above col(q), that is when top[row(q) + 1] > col(q).

In the strip the witnesses against q are the gaps z of height above h_q and
g-value above g(q).  A point of height >= 0 and g-value >= 0 lies in N^2, so
a g-value of b or more forces membership, as the remainder is below b.  For
g-values in [0, b - 1] the gaps are u-periodic in height: f(u) = 0 (mod b)
and g(u) = 0, so z and z + u, one period higher with the same g-value, are
points of N^2 with the same residue and g-value, and one is a member exactly
when the other is.  So a witness goes down by u, its g-value kept, into one
period above q: up to the period the witnesses are the gaps of the band of
heights (h_q, h_q + u_h] and g-values (g(q), b - 1] (see :func:`_context`).
The candidate cell covers heights [0, u_h] and g-values [0, b], so one read
of it fills best on [0, u_h], and best[h + u_h] = best[h] for h in [1, u_h]
extends the table over [0, 2 u_h].  For a candidate of height h_q in
[0, u_h] the rows (h_q, 2 u_h] are the band (h_q, h_q + u_h] and the rows
(h_q + u_h, 2 u_h], which repeat the rows (h_q, u_h] of the band.  So
top[h_q + 1] is the largest g-value of a gap in the band, and q passes
exactly when it is at most g(q).

Lemma (the strip's vectors).  In the strip the vectors are the candidate
gaps of the largest g-value M = top[0].  Proof: row u_h repeats row 0, so
the copies of rows 1 .. u_h in (h_q, 2 u_h], for any h_q in [0, u_h], hold
every height residue: top[h_q + 1] = M, and q passes exactly when g(q) = M.
A row holds one point per g-value, so these are the highest gaps of the
rows whose best is M; :func:`_checked_unique_minimal` takes them as is.

:func:`frobenius_vectors` reads the gap bitmap of each candidate row once:
best[r] is the column of its highest bit, only the bits from column
top[r + 1] on become vectors, and the size of delta is the sum of the rows'
popcounts.  A gap becomes a point of delta only when a caller reads it.
:func:`definition_check` reads the gap rows above a point to the first nonzero.

Running minimum.  Along either axis a vector sits in row h at axis
coordinate x, and (x', h') <= (x, h) is the same product order.  So a vector
is minimal exactly when no other vector lies in row h or a lower row at an
x no larger: only the lowest bit of a row can be minimal, and it is when it
lies below the lowest bit of every lower row.  :func:`frobenius_vectors`
walks the passing rows in increasing h and keeps a row's lowest bit when it
lies below every bit kept so far; the kept bits are the minimal vectors,
and no two vectors are compared.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from typing import ClassVar

from .core import (
    ModularInequality,
    Point,
    SemigroupError,
    _integer,
    _Value,
    minimal_points,
)
from .plane import _gaps, _grlex_points, _rows, _strip_rows
from .rays import regime, strip_geometry


class FrobeniusReport(_Value):
    """The number of candidate gaps, the vectors that pass the definition,
    and the minimal ones.  ``delta``, the candidate gaps in grlex order, is
    built from the gap rows (h, lo, bits) along ``axis`` when first read.
    ``group_basis`` is the unit basis of G(S) = Z^2 (see the lemma above),
    the same for every report."""

    _fields = ("delta_size", "frobenius_vectors", "minimal", "gap_rows", "axis")
    _shown = 3  # the gap rows, as long as delta, stay out of the repr
    group_basis: ClassVar[tuple[Point, Point]] = ((1, 0), (0, 1))

    def __init__(self, delta_size: int, frobenius_vectors: tuple[Point, ...],
                 minimal: tuple[Point, ...], gap_rows: tuple[tuple[int, int, int], ...],
                 axis: int) -> None:
        for name, value in zip(self._fields, (delta_size, frobenius_vectors, minimal,
                                              gap_rows, axis)):
            object.__setattr__(self, name, value)

    @cached_property
    def delta(self) -> tuple[Point, ...]:
        return _grlex_points(self.axis, self.gap_rows)


def _context(ineq: ModularInequality, q: Point | None = None):
    """The row table as (axis, gaps, column, period): ``gaps`` are the gap
    rows (h, lo, bits) along ``axis`` of the candidate cell, row h of the
    table, or given q of the cell strictly above q (the module docstring
    proves that it holds every witness against q, up to the period):

    * positive: the gap cell g(x) <= b - 1, which holds every gap, and above
      q its part with corner q + (1, 1).
    * strip: the gaps in the hull of {O, u, w, w + u}, the rectangle
      [0, u_h] x [0, b] in (height, g-value) coordinates, and above q the
      band of heights (h_q, h_q + u_h] and g-values (g(q), b - 1].

    With ``column = (c_a, c_h)`` the point at height h and axis coordinate x
    has column c_a x + c_h h.  The table repeats rows 1 .. ``period`` above
    the cell: u_h > 0 in the strip, none in the positive regime.
    """
    if regime(ineq, "Frobenius vectors") == "positive":
        (g1, g2), top = ineq.g, ineq.b - 1  # row y: the x >= x0 with g1 x + g2 y <= top
        x0, y0 = (0, 0) if q is None else (q[0] + 1, q[1] + 1)
        rows = ((y, x0, (top - g2 * y) // g1) for y in range(y0, (top - g1 * x0) // g2 + 1))
        return 0, _rows(ineq, 0, rows, _gaps), (1, 0), 0
    geo = strip_geometry(ineq)
    h, u_h = geo.height_index, geo.period[geo.height_index]
    rows = (_strip_rows(ineq, geo, range(u_h + 1), 0, ineq.b) if q is None else
            _strip_rows(ineq, geo, range(q[h] + 1, q[h] + u_h + 1), ineq.g_of(q) + 1, ineq.b - 1))
    return geo.axis, _rows(ineq, geo.axis, rows, _gaps), (ineq.g[geo.axis], ineq.g[h]), u_h


def definition_check(ineq: ModularInequality, q) -> bool:
    """Decide whether q is a Frobenius vector of S.

    The candidate must be a point of N^2; it passes when it lies outside S
    and no point strictly inside the translated cone escapes S.
    """
    q = tuple(map(_integer, q))
    if len(q) != 2 or any(c < 0 for c in q):
        raise SemigroupError(f"the check expects a point of N^2, got {q}")
    _, above, _, _ = _context(ineq, q)
    return not ineq.member(q) and not any(bits for _, _, bits in above)


def _checked_unique_minimal(ineq: ModularInequality, vectors, minimal) -> None:
    """The strip case promises one minimal vector, the gap closest to g = b;
    ``vectors`` are the candidate gaps of the largest g-value (module docstring).

    With g_a > 0 >= g_h the points of one g-value lie on a line along which
    the axis coordinate grows with the height, so the gaps of largest g-value
    form a chain with one minimal element.  It must be the computed minimal
    set and pass :func:`definition_check`, one read of the cell above it, so
    the row table is checked against the definition on every call.  Any
    disagreement is a real inconsistency and is raised, never ignored.
    """
    closest = minimal_points(vectors)
    if len(closest) != 1 or closest != minimal or not definition_check(ineq, closest[0]):
        raise SemigroupError(
            "finite check contradicts the unique-minimal-vector property: "
            f"selected {closest}, the row table gives {minimal}")


def frobenius_vectors(ineq: ModularInequality) -> FrobeniusReport:
    """All Frobenius vectors among the candidate gaps, and the minimal ones,
    from one read of the candidate gap rows and the row table (lemma above).

    The candidates have g-value >= 0.  So a strip whose candidate cell has
    no gap gets no vector, though points of g-value -1 may pass
    :func:`definition_check`: (2, 1) for f = (11, 0), g = (1, -3), b = 11."""
    axis, gaps, (c_a, c_h), period = _context(ineq)
    table = tuple(gaps)
    best = [c_a * (lo + bits.bit_length() - 1) + c_h * h if bits else -1 for h, lo, bits in table]
    # the rows past the cell repeat rows 1 .. period; -1 closes the table
    top = list(accumulate(reversed(best + best[1:period + 1] + [-1]), max))[::-1]
    # row h passes its gaps from column top[h + 1] on: x >= (top[h + 1] - c_h h) / c_a
    passing = [(h, lo + k, bits >> k) for h, lo, bits in table if best[h] >= top[h + 1]
               for k in [max(0, -((c_h * h - top[h + 1]) // c_a) - lo)]]
    delta_size = sum(bits.bit_count() for _, _, bits in table)
    vectors = _grlex_points(axis, passing)
    lows: list[tuple[int, int, int]] = []  # one-bit rows (h, x, 1): the running minimum above
    for h, lo, bits in passing:
        if bits:
            x = lo + (bits & -bits).bit_length() - 1
            if not lows or x < lows[-1][1]:
                lows.append((h, x, 1))
    minimal = _grlex_points(axis, lows)
    if period and vectors:
        _checked_unique_minimal(ineq, vectors, minimal)
    return FrobeniusReport(delta_size, vectors, minimal, table, axis)
