"""Minimal generating sets of plane semigroups, and the plane cells.

The signs of g = (g1, g2) split the computation into the trivial, ray,
positive and strip regimes, which :func:`propmod.rays.regime` names once for
every plane computation of the package (its module docstring lists them).
In the strip the generator cell is the Apery cell (below).

:func:`minimal_generators` reads interval rows in the positive regime
(:func:`_positive_generators`) and the Apery cell in the strip regime, and
gives the trivial and ray regimes in closed form.  The cone cell of
:mod:`propmod.general` takes 5 to 6 times as long on 3x - 2y mod b <= x - 3y
for b = 30 to 60 (0.013 s against 0.0021 s at b = 60, on a 2-vCPU Intel
Xeon), 11 to 24 times on 7x + 5y mod b <= 5x + 7y for b = 500 to 3000
(0.39 s against 0.016 s at b = 3000), and on 7x + 7y mod 500 <= 5x + 6y,
with 7,812 generators, 3.3 s against 0.015 s, on the same machine.

Lemma (the trivial and ray regimes).  Let g1, g2 <= 0.  Then S = {0} if
g1, g2 < 0, and S = N u if g_i = 0, with u = (b / gcd(f_i, b)) e_i the
:func:`propmod.rays.period_vector` of the line g = 0.  Proof: a member x has
g(x) = g1 x1 + g2 x2 >= 0 with both terms at most 0, so x_j = 0 wherever
g_j < 0.  For g_i = 0 the inequality is then f_i x_i = 0 (mod b), the
free line of a proportionally modular inequality (Rosales et al., below).

Lemma (the positive rows).  Let g1, g2 > 0, let t_i be the least k >= 1
with k e_i in S, v1 = t1 e1 and v2 = t2 e2.  Let Ap be the set of members
h with h - v1 and h - v2 outside S, Ap* = Ap without 0, G the minimal
generators, and X(r) the columns of row r of a set X.

(P1) v1 and v2, the :func:`propmod.rays.axis_generator` of each axis, are
    minimal generators, and every other one lies in Ap.  Proof: a sum of
    two nonzero members on the axis e1 has both summands on it, below
    t1 e1, so t1 e1 is no such sum; likewise t2 e2.  The rest is (iii) and
    (iv) of the Apery cell lemma below, with v2 for u.
(P2) h in Ap* is not a minimal generator exactly when h = s + m with s in
    G and m in Ap*, and then s lies in Ap.  Proof: if h = a + c with
    nonzero members a and c, take s in G with a - s in S; m = h - s is a
    nonzero member, and m - v in S for v = v1 or v2 would put
    h - v = s + (m - v) in S.  So m is in Ap, and s = v would put h - v = m
    in S.  The converse is the definition.
(P3) Ap lies in the rows y <= top = (b + t2 g2 - 1) // g2 and the columns
    x <= right = (b + t1 g1 - 1) // g1.  Proof: for y > top,
    g2 (y - t2) >= b, so h - v2 lies in N^2 with a g-value of at least b,
    above any remainder mod b, and is a member.  Columns alike with v1.
(P4) Row r of S is a few intervals in closed form.  It holds the x >= 0
    with (a x + c) mod b <= g1 x + d, where a = f1 (mod b) with
    |a| <= b / 2, c = f2 r mod b and d = g2 r.  Every x >= (b - 1 - d) / g1
    is a member (the tail).  Below it, for each k the x with
    kb <= a x + c <= kb + b - 1 form an interval with remainder
    a x + c - kb, and the inequality (a - g1) x <= kb - c + d cuts it to
    one interval; k is monotone in x, and for a = 0 the remainder is c in
    every column.  This extends the interval description of the
    proportionally modular numerical semigroup {x : a' x mod b' <= c' x},
    the union over k of [k b' / a', k b' / (a' - c')] (Rosales,
    Garcia-Sanchez, Garcia-Garcia and Urbano-Blanco, "Proportionally
    modular Diophantine inequalities", J. Number Theory 2003), to rows
    with an offset.  Then Ap(r) = S(r) minus (S(r) + t1) minus S(r - t2),
    with S(r - t2) empty for r < t2, and by (P3) the columns [0, right] of
    the rows [0, top] hold all of Ap.  The S(r - t2) term only keeps the
    rows small: the proofs of (P2) and (P5) hold word for word with v1
    alone, so without it the same sums give the same G, with v2 found once
    more in row t2.
(P5) Leaving v1 and v2 aside, G(0) = Ap*(0) minus Ap*(0) + Ap*(0): by
    (P2) a redundant h in Ap*(0) is s + m with s and m in Ap*, both in row
    0 as a sum that lands in row 0 has both summands there, and every such
    sum is redundant.
    For r >= 1, by (P2),
    G(r) = Ap*(r) minus the union over r1 < r of G(r1) + Ap*(r - r1).
    Same-row sums s + m with m in Ap*(0) need no pass of their own: m is a
    sum of row-0 generators; for one of them, s', s' != v1 as h - v1 is
    outside S, and h - s' = s + (m - s') is in Ap*(r) by the argument of
    (P2).  So h lies in G(0) + Ap*(r), the term r1 = 0.
    A pair (r1, r - r1) whose sums span the columns
    [min G(r1) + min Ap*(r - r1), max G(r1) + max Ap*(r - r1)] outside
    [min Ap*(r), max Ap*(r)] removes nothing from Ap*(r), so it is skipped.
With rows as bitmaps, G(r1) + Ap*(r2) is one shift of Ap*(r2) for each run
of G(r1), widened to the run's length by doubling, and row 0 shifts Ap*(0)
by its own runs; the cost grows with the runs, not the points.

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
:func:`_strip_apery` reads it once, as one row of Apery bits per height, for
each of :func:`minimal_generators`, the Apery data and the property report,
which takes the gaps of the same rows.  The Apery data packs those rows into
one bitmap and finds the maximal elements by one shift of it per minimal
generator (:func:`propmod.properties.apery_intersection`).

Every cell is read in rows by one reader, :func:`_member_row`: (P4) holds
along any axis a with g_a > 0 for a height coefficient of either sign, and
on a column window [lo, hi] k runs from the k of column lo, so a row costs
about |a| (hi - lo) / b + 2 runs.  The cells are rectangles in rows:

* strip: row h holds the x with g_lo <= g_a x + g_h h <= g_hi
  (:func:`_strip_rows`); left of the window of R the g-value is negative,
  so by (ii) Ap(h) = S(h) minus (S(h) + t) for u~ = t e_a.
* Apery rows (positive regime): by (P3) the rows [0, top] on the columns
  [0, right] (:func:`_positive_generators`).

The gap cells of the Frobenius vectors and of the positive property report
are named once, in :func:`propmod.frobenius._context`.
:func:`_rows`, the one caller of :func:`_member_row`, keeps bits of each row's
member bitmap (:func:`_gaps` keeps the gaps) and is the one place that charges
the budget: every cell counts one unit per run read and one per bit kept, and
a row may span 64 columns per unit, against one :func:`enumeration_cap`,
which also bounds the number of rows a cell reads.  A bit becomes a point
with its values f and g only where needed.

Candidates from the cell are then reduced to the unique minimal generating
set: a member is a generator exactly when it is not the sum of two nonzero
members, tested on the values that :func:`minimalize` takes with the points.
"""

from __future__ import annotations

from operator import ge
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    CapExceeded,
    GeneratorSet,
    ModularInequality,
    Point,
    SemigroupError,
    enumeration_cap,
    grlex_key,
)
from .rays import StripGeometry, axis_generator, period_vector, regime, strip_geometry


def _rows(ineq: ModularInequality, axis: int, rows: Iterable[tuple[int, int, int]],
          keep: Callable[[int, int], int],
          gaps: list | None = None) -> Iterator[tuple[int, int, int]]:
    """The rows (h, lo, hi), hi >= lo - 1, along ``axis`` as (h, lo, bits), bit
    i for column lo + i: the bits ``keep(members, hi - lo + 1)`` selects from
    each row's member bitmap; a list ``gaps`` gets each row's gap bitmap.  The
    runs read and the bits kept, gaps included, count against one
    :func:`enumeration_cap` budget, and each unit allows a row 64 columns; the
    row that passes either raises CapExceeded, a too wide one before its read.
    The rows read count against the cap too, as an empty window reads no run:
    the row after the cap raises before its read."""
    cap, used = enumeration_cap(), 0
    for read, (h, lo, hi) in enumerate(rows):
        if read == cap:
            raise CapExceeded(f"the plane rows pass {cap} rows read at row {h}; "
                              f"raise PROPMOD_CAP to go on")
        if hi - lo >= 64 * cap:
            raise CapExceeded(f"the plane rows pass {cap} words of 64 columns at row {h}, a "
                              f"window of {hi - lo + 1} columns; raise PROPMOD_CAP to go on")
        members, runs = _member_row(ineq, axis, h, lo, hi)
        bits = keep(members, hi - lo + 1)
        used += runs + bits.bit_count()
        if gaps is not None:
            gaps.append((h, lo, gap := _gaps(members, hi - lo + 1)))
            used += gap.bit_count()
        if used > cap:
            raise CapExceeded(
                f"the plane rows pass {cap} runs and points at row {h}, where the "
                f"runs read and points kept make {used}; raise PROPMOD_CAP to go on")
        yield h, lo, bits


def _gaps(members: int, n: int) -> int:
    """The gap bitmap ``~members & mask`` of a row of n columns."""
    return ~members & ((1 << n) - 1)


def _points(ineq: ModularInequality, axis: int,
            rows: Iterable[tuple[int, int, int]]) -> Iterator[tuple[Point, int, int]]:
    """The set bits of the rows (h, lo, bits) along ``axis`` as (point,
    f(point), g(point)), in increasing axis coordinate."""
    f_a, f_h, g_a, g_h = ineq.f[axis], ineq.f[1 - axis], ineq.g[axis], ineq.g[1 - axis]
    for h, lo, bits in rows:
        while bits:
            low = bits & -bits
            x = lo + low.bit_length() - 1
            yield (x, h) if axis == 0 else (h, x), f_a * x + f_h * h, g_a * x + g_h * h
            bits ^= low


def _grlex_points(axis: int, rows: Sequence[tuple[int, int, int]]) -> tuple[Point, ...]:
    """The set bits of the rows (h, lo, bits) along ``axis``, distinct h in
    increasing order, as points in grlex order.  A row holds at most one point
    of each degree x + y, and within a degree x rises as y falls, so grouping
    the points by degree, rows in increasing x (decreasing y along axis 0),
    merges the rows."""
    degrees: dict[int, list[Point]] = {}
    for h, lo, bits in reversed(rows) if axis == 0 else rows:
        while bits:
            low = bits & -bits
            x = lo + low.bit_length() - 1
            degrees.setdefault(x + h, []).append((x, h) if axis == 0 else (h, x))
            bits ^= low
    return tuple(p for d in sorted(degrees) for p in degrees[d])


def _strip_rows(ineq: ModularInequality, geo: StripGeometry, heights: range,
                g_lo: int, g_hi: int) -> Iterator[tuple[int, int, int]]:
    """The rows (h, lo, hi) along the strip's axis of the points with height
    in ``heights`` and g-value in [g_lo, g_hi]."""
    g_a, g_h = ineq.g[geo.axis], ineq.g[geo.height_index]
    return ((h, -((g_h * h - g_lo) // g_a), (g_hi - g_h * h) // g_a) for h in heights)


def _strip_apery(ineq: ModularInequality,
                 gaps: list | None = None) -> tuple[StripGeometry, list, GeneratorSet]:
    """The strip geometry, the Apery cell Ap and the minimal generators from
    one read of R, Ap as the rows (h, lo, bits) along the strip's axis for the
    heights [0, u_h - 1] in order: Ap(h) = S(h) minus (S(h) + t) for
    u~ = t e_a, the origin included.  A list ``gaps`` gets the gap rows of the
    read (see :func:`_rows`): the gaps of heights [0, u_h - 1] and g-values
    [0, b - 1], as the rest of R has g-values of b - 1 or more."""
    geo = strip_geometry(ineq)
    t = geo.axis_gen[geo.axis]
    rows = _strip_rows(ineq, geo, range(geo.period[geo.height_index]),
                       0, ineq.b + ineq.g_of(geo.axis_gen) - 2)
    apery = list(_rows(ineq, geo.axis, rows, lambda members, n: members & ~(members << t), gaps))
    steps = [(v, ineq.f_of(v), ineq.g_of(v)) for v in (geo.period, geo.axis_gen)]
    return geo, apery, minimalize([*_points(ineq, geo.axis, apery), *steps], ineq)


def minimalize(candidates: Iterable[tuple[Point, int, int]],
               ineq: ModularInequality) -> GeneratorSet:
    """Reduce a generating candidate set to the minimal generating set.

    The candidates are (point, f(point), g(point)) triples.  Requires
    every candidate to be a member and the candidates to generate S.
    Processing in graded-lexicographic order, a candidate h is redundant
    exactly when some already-accepted generator s <= h has h - s in S; this
    is equivalent to being a sum of two nonzero members.  The difference is
    tested on the values f and g, which are linear: (fh - fs) mod b <=
    gh - gs, which fails for gh < gs as the remainder is at least 0.

    The accepted generators are scanned in move-to-front order (Sleator and
    Tarjan, "Amortized efficiency of list update and paging rules", CACM
    1985): a generator that absorbs a candidate moves to the front, and a
    new one goes in at the front.  Absorbers repeat along a cell, so the scan
    mostly stops within a few steps.  The order cannot change the result, as
    redundancy asks only whether *some* accepted s absorbs h.
    """
    holds, b = ineq._holds, ineq.b
    accepted: list[tuple[Point, int, int]] = []
    front: list[tuple[Point, int, int]] = []  # accepted, the latest absorber first
    for c in sorted(candidates, key=lambda c: grlex_key(c[0])):
        h, fh, gh = c
        if not any(h):
            continue
        if min(h) < 0 or not holds(fh, gh):
            raise SemigroupError(f"candidate {h} is not a member of the semigroup")
        for t in front:
            s, fs, gs = t
            if (fh - fs) % b <= gh - gs and all(map(ge, h, s)):
                if t is not front[0]:
                    front.remove(t)  # the accepted points are distinct, so this is t
                    front.insert(0, t)
                break
        else:
            accepted.append(c)
            front.insert(0, c)
    return GeneratorSet(tuple(s for s, _, _ in accepted))


def _member_row(ineq: ModularInequality, axis: int, h: int, lo: int, hi: int) -> tuple[int, int]:
    """Row h >= 0 of S along ``axis`` on the columns [lo, hi] as a bitmap (bit
    i for column lo + i; columns below 0 are no members) and the runs read:
    one per k of (P4) plus the tail, for g > 0 on the axis and any sign on
    the height, and none for an empty window."""
    b, g_a = ineq.b, ineq.g[axis]
    a, c, d = ineq.f[axis] % b, ineq.f[1 - axis] * h % b, ineq.g[1 - axis] * h
    if 2 * a > b:  # a row reads about |a| (hi - lo) / b values of k
        a -= b
    start = lo if lo > 0 else 0
    if hi < start:
        return 0, 0
    if a == 0:  # every column has the residue c, the tail included
        s = -((d - c) // g_a)
        if s < start:
            s = start
        return ((1 << (hi - lo + 1)) - (1 << (s - lo)) if s <= hi else 0), 2
    tail = -((d + 1 - b) // g_a)  # from here on g_a x + d >= b - 1
    if tail < start:
        tail = start
    end = tail - 1 if tail <= hi else hi
    bits = (1 << (hi - lo + 1)) - (1 << (end - lo + 1))  # the tail (end, hi]
    # kb <= a x + c <= kb + b - 1 with low = kb - c, cut by (a - g_a) x <= low + d
    near, far = (0, b - 1) if a > 0 else (b - 1, 0)
    slope, runs = a - g_a, 1
    first, last = (a * start + c) // b, (a * end + c) // b  # the k of both ends
    if first > last:
        first, last = last, first
    for k in range(first, last + 1):
        low = k * b - c
        s, e = -(-(low + near) // a), (low + far) // a
        if slope > 0:
            cut = (low + d) // slope
            if cut < e:
                e = cut
        elif slope < 0:
            cut = -((low + d) // -slope)
            if cut > s:
                s = cut
        elif low + d < 0:
            continue
        runs += 1
        if s < start:
            s = start
        if e > end:
            e = end
        if s <= e:
            bits |= (1 << (e - lo + 1)) - (1 << (s - lo))
    return bits, runs


def _runs(bits: int) -> list[tuple[int, int]]:
    """The maximal runs [lo, hi] of set bits of ``bits``, lowest first."""
    runs = []
    while bits:
        lo = (bits & -bits).bit_length() - 1
        carried = bits + (1 << lo)  # clears the run and sets the bit past it
        hi = (carried & -carried).bit_length() - 2
        runs.append((lo, hi))
        bits = carried - (1 << (hi + 1))
    return runs


def _smear(bits: int, n: int) -> int:
    """The union of ``bits << d`` over 0 <= d < n, by doubling."""
    done = 1
    while 2 * done <= n:
        bits |= bits << done
        done *= 2
    return bits | bits << (n - done)


def _positive_generators(ineq: ModularInequality) -> GeneratorSet:
    """The minimal generating set in the positive regime, from the interval
    rows of the Apery set of v1 = t1 e1 and v2 = t2 e2 (the positive lemma
    of the module docstring).

    The rows of Ap* are read through :func:`_rows`, so PROPMOD_CAP bounds the
    runs read and the Apery points kept, together.
    """
    (g1, g2), b = ineq.g, ineq.b
    t1, t2 = axis_generator(ineq, 0)[0], axis_generator(ineq, 1)[1]
    top, right = (b + t2 * g2 - 1) // g2, (b + t1 * g1 - 1) // g1
    members: list[int] = []  # S(r) for the rows read so far

    def keep(row: int, n: int) -> int:
        # Ap*(r) = S(r) minus (S(r) + t1) minus S(r - t2), without the origin
        ap = row & ~(row << t1) & ~(members[-t2] if len(members) >= t2 else 0)
        members.append(row)
        return ap & ~1 if len(members) == 1 else ap

    apery: list[tuple[int, int, int]] = []  # Ap*, one (bitmap, first, last column) per row
    out: list[int] = []  # G, one bitmap per row
    found: list[tuple[int, int, int, list[tuple[int, int]]]] = []  # rows of G \ {v1, v2}
    for r, _, ap in _rows(ineq, 0, ((r, 0, right) for r in range(top + 1)), keep):
        first, last = (ap & -ap).bit_length() - 1, ap.bit_length() - 1
        apery.append((ap, first, last))
        gens = ap
        # (r1, first, last column, runs) of each G(r1); row 0 is Ap*(0) + Ap*(0)
        for r1, g_first, g_last, runs in found if r else [(0, first, last, _runs(ap))]:
            if not gens:  # the row is covered
                break
            other, m_first, m_last = apery[r - r1]
            if not other or g_first + m_first > last or g_last + m_last < first:
                continue  # no sum of the pair lands in the row's span
            for lo, hi in runs:
                gens &= ~(_smear(other, hi - lo + 1) << lo)
        if gens:
            runs = _runs(gens)
            found.append((r, runs[0][0], runs[-1][1], runs))
        out.append(gens)
    out[0] |= 1 << t1
    out[t2] |= 1
    return GeneratorSet(_grlex_points(0, [(r, 0, bits) for r, bits in enumerate(out)]))


def minimal_generators(ineq: ModularInequality) -> GeneratorSet:
    """The unique minimal generating set of a plane semigroup: the interval
    rows in the positive regime, the Apery cell in the strip, and the closed
    form of their lemma in the trivial and ray regimes."""
    kind = regime(ineq)
    if kind == "positive":
        return _positive_generators(ineq)
    if kind == "strip":
        return _strip_apery(ineq)[2]
    return GeneratorSet(() if kind == "trivial" else (period_vector(ineq),))
