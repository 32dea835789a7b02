"""Minimal generating sets of plane semigroups, and the plane cells.

The sign pattern of g = (g1, g2) splits the computation into four regimes,
which :func:`regime` names once for every plane computation of the package:

* trivial, g1 < 0 and g2 < 0: only 0 satisfies the inequality;
* ray, g1 <= 0 and g2 <= 0 with a zero coefficient: S is the free ray
  generated by the period vector on the line g = 0;
* positive, g1 > 0 and g2 > 0: the complement of S in N^2 is finite;
* strip, mixed signs: S lies in the strip 0 <= g(x) and is invariant
  under adding the period u; its generator cell is its Apery cell (below).

:func:`minimal_generators` reads interval rows in the positive regime
(:func:`positive_generators`), reads the Apery cell in the strip regime and
runs the cone cell of :mod:`propmod.general` in the trivial and ray
regimes.  On 3x - 2y mod b <= x - 3y the cone cell takes 3 to 5 times as
long for b = 30 to 60 (0.019 s against 0.006 s at b = 60, on a 2-vCPU
Intel Xeon).  On 7x + 5y mod b <= 5x + 7y it takes 12 to 28 times as long
as the rows for b = 500 to 3000 (0.64 s against 0.037 s at b = 3000), and
on 7x + 7y mod 500 <= 5x + 6y, with 7,812 generators, 9.5 s against
0.03 s, on the same machine.

Lemma (the positive rows).  Let g1, g2 > 0, let t_i be the least k >= 1
with k e_i in S (:meth:`ModularInequality.least_multiple`), v1 = t1 e1 and
v2 = t2 e2.  Let Ap be the set of members h with h - v1 and h - v2 outside
S, Ap* = Ap without 0, G the minimal generators, and X(r) the columns of
row r of a set X.

(P1) v1 and v2 are minimal generators, and every other one lies in Ap.
    Proof: a sum of two nonzero members on the axis e1 has both summands
    on it, below t1 e1, so t1 e1 is no such sum; likewise t2 e2.  The rest
    is (iii) and (iv) of the Apery cell lemma below, with v2 for u.
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
(P5) G in row 0 is one 1-d scan: in increasing x, h in Ap*(0) is a
    generator unless h - s is in Ap*(0) for a generator s < h of Ap
    already found.  For r >= 1, by (P2),
    G(r) = Ap*(r) minus the union over r1 < r of G(r1) + Ap*(r - r1).
    Same-row sums s + m with m in Ap*(0) need no pass of their own: m is a
    sum of row-0 generators; for one of them, s', s' != v1 as h - v1 is
    outside S, and h - s' = s + (m - s') is in Ap*(r) by the argument of
    (P2).  So h lies in G(0) + Ap*(r), the term r1 = 0.
With rows as bitmaps, G(r1) + Ap*(r2) is one shift of Ap*(r2) for each run
of G(r1), widened to the run's length by doubling; the cost grows with the
runs of G, not its points.

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
:func:`enumerate_region` reads it once for each of :func:`minimal_generators`,
the Apery data and the property report, which takes the gaps of the same rows.
The Apery data lays the cell's points out again as one bitmap, a row of bits
per height, and finds the maximal elements by one shift of it per minimal
generator (:func:`propmod.properties.apery_intersection`).

Every cell is read in rows by one reader, :func:`_member_row`: (P4) holds
along any axis a with g_a > 0 for a height coefficient of either sign, and
on a column window [lo, hi] k runs from the k of column lo, so a row costs
about |a| (hi - lo) / b + 2 runs.  The cells are rectangles in rows:

* strip: row h holds the x with g_lo <= g_a x + g_h h <= g_hi
  (:func:`_strip_rows`); left of the window of R the g-value is negative,
  so by (ii) Ap(h) = S(h) minus (S(h) + t) for u~ = t e_a.
* gaps (positive regime): every gap has g(x) <= b - 1, as the rest are
  members; with a corner c, row y >= c_2 holds the x >= c_1 with
  g1 x + g2 y <= b - 1 (:func:`_positive_rows`).

:func:`_rows` keeps bits of each row's member bitmap (:func:`_gap_rows` the
gaps), charging the runs read and bits kept to one :func:`enumeration_cap`
budget; a bit becomes a point with its values f and g only where needed.

Candidates from the cell are then reduced to the unique minimal generating
set: a member is a generator exactly when it is not the sum of two nonzero
members, tested on the values that :func:`minimalize` takes with the points.
"""

from __future__ import annotations

from operator import ge
from typing import Callable, Iterable, Iterator, Sequence

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
    sort_points,
)
from .general import construction_trace
from .rays import StripGeometry, strip_geometry

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


def _rows(ineq: ModularInequality, axis: int, rows: Iterable[tuple[int, int, int]],
          keep: Callable[[int, int], int],
          gaps: list | None = None) -> Iterator[tuple[int, int, int]]:
    """The rows (h, lo, hi), hi >= lo - 1, along ``axis`` as (h, lo, bits), bit
    i for column lo + i: the bits ``keep(members, hi - lo + 1)`` selects from
    each row's member bitmap, charging the runs read and bits kept to one budget.
    A list ``gaps`` gets each row's gap bitmap (h, lo, bits) from the same read,
    on the same budget."""
    charge = _charges()
    for h, lo, hi in rows:
        members, runs = _member_row(ineq, axis, h, lo, hi)
        bits = keep(members, hi - lo + 1)
        kept = bits.bit_count()
        if gaps is not None:
            gap = _gaps(members, hi - lo + 1)
            gaps.append((h, lo, gap))
            kept += gap.bit_count()
        charge(runs + kept, "runs read and points kept", h)
        yield h, lo, bits


def _gaps(members: int, n: int) -> int:
    """The gap bitmap ``~members & mask`` of a row of n columns."""
    return ~members & ((1 << n) - 1)


def _gap_rows(ineq: ModularInequality, axis: int,
              rows: Iterable[tuple[int, int, int]]) -> Iterator[tuple[int, int, int]]:
    """The gap bitmap of each row, as in :func:`_rows`."""
    return _rows(ineq, axis, rows, _gaps)


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


def _positive_rows(ineq: ModularInequality,
                   corner: Point = (0, 0)) -> Iterator[tuple[int, int, int]]:
    """The rows (y, lo, hi) along axis 0 of the points x >= corner of the
    positive regime's gap cell g(x) <= b - 1: with the default corner they
    hold every gap of S, with corner q + (1, 1) every gap strictly above q."""
    (g1, g2), top, (x0, y0) = ineq.g, ineq.b - 1, corner
    return ((y, x0, (top - g2 * y) // g1) for y in range(y0, (top - g1 * x0) // g2 + 1))


def enumerate_region(ineq: ModularInequality, geo: StripGeometry,
                     gaps: list | None = None) -> list[tuple[Point, int, int]]:
    """The strip's Apery cell Ap as (point, f(point), g(point)), the origin
    included: the members h of the rectangle R with h - u~ outside S, row
    by row Ap(h) = S(h) minus (S(h) + t) for u~ = t e_a.  A list ``gaps``
    gets the gap rows of the same read (see :func:`_rows`): the gaps of the
    cell of heights [0, u_h - 1] and g-values [0, b - 1], as R holds that
    cell and its points of g-value b - 1 or more are members."""
    t = geo.axis_gen[geo.axis]
    rows = _strip_rows(ineq, geo, range(geo.period[geo.height_index]),
                       0, ineq.b + ineq.g_of(geo.axis_gen) - 2)
    return list(_points(ineq, geo.axis, _rows(ineq, geo.axis, rows,
                                              lambda members, n: members & ~(members << t), gaps)))


def _strip_apery(ineq: ModularInequality,
                 gaps: list | None = None) -> tuple[StripGeometry, list, GeneratorSet]:
    """The strip geometry, the Apery cell and the minimal generators, from
    one read of the cell (and its gap rows, see :func:`enumerate_region`)."""
    geo = strip_geometry(ineq)
    apery = enumerate_region(ineq, geo, gaps)
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


def _charges() -> Callable[[int, str, int], None]:
    """``charge(n, what, r)``: adds n runs read or points kept at row r to
    one budget, and raises CapExceeded past :func:`enumeration_cap`."""
    cap, used = enumeration_cap(), 0

    def charge(n: int, what: str, r: int) -> None:
        nonlocal used
        used += n
        if used > cap:
            raise CapExceeded(
                f"the plane rows pass {cap} runs and points at row {r}, where the "
                f"{what} make {used}; raise PROPMOD_CAP to go on")
    return charge


def _member_row(ineq: ModularInequality, axis: int, h: int, lo: int, hi: int) -> tuple[int, int]:
    """Row h >= 0 of S along ``axis`` on the columns [lo, hi] as a bitmap (bit
    i for column lo + i; columns below 0 are no members) and the runs read:
    one per k of (P4) plus the tail, for g > 0 on the axis and any sign on
    the height.  Below 16 columns a test per column is cheaper, one run each."""
    b, g_a = ineq.b, ineq.g[axis]
    a, c, d = ineq.f[axis] % b, ineq.f[1 - axis] * h % b, ineq.g[1 - axis] * h
    if 2 * a > b:  # a row reads about |a| (hi - lo) / b values of k
        a -= b
    start, bits = max(lo, 0), 0
    if hi - start < 15:
        for x in range(start, hi + 1):
            if (a * x + c) % b <= g_a * x + d:
                bits |= 1 << (x - lo)
        return bits, max(0, hi - start + 1)
    tail = max(start, -((d + 1 - b) // g_a))  # from here on g_a x + d >= b - 1
    end = min(tail - 1, hi)
    if a == 0:  # every column has the residue c
        spans = [(-((d - c) // g_a), end)]
    else:
        spans = []
        first, last = (a * start + c) // b, (a * end + c) // b  # the k of both ends
        for k in range(min(first, last), max(first, last) + 1):
            # kb <= a x + c <= kb + b - 1, and (a - g_a) x <= room
            low, room = k * b - c, k * b - c + d
            s, e = (low, low + b - 1) if a > 0 else (low + b - 1, low)
            s, e = -(-s // a), min(end, e // a)
            if a > g_a:
                e = min(e, room // (a - g_a))
            elif a < g_a:
                s = max(s, -(room // (g_a - a)))
            elif room < 0:
                continue
            spans.append((s, e))
    spans.append((tail, hi))
    for s, e in spans:
        s = max(s, start)
        if s <= e:
            bits |= (1 << (e - lo + 1)) - (1 << (s - lo))
    return bits, len(spans)


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


def positive_generators(ineq: ModularInequality) -> GeneratorSet:
    """The minimal generating set in the positive regime, from the interval
    rows of the Apery set of v1 = t1 e1 and v2 = t2 e2 (the positive lemma
    of the module docstring).

    PROPMOD_CAP bounds the runs read, the points of the row-0 scan and the
    generator points emitted, together.
    """
    if regime(ineq) != "positive":
        raise UnsupportedCase("the interval rows need g1 > 0 and g2 > 0")
    (f1, f2), (g1, g2), b = ineq.f, ineq.g, ineq.b
    t1, t2 = ineq.least_multiple(f1, g1), ineq.least_multiple(f2, g2)
    top, right = (b + t2 * g2 - 1) // g2, (b + t1 * g1 - 1) // g1
    charge = _charges()
    members: list[int] = []
    apery: list[int] = []  # Ap* = Ap \ {0}, one bitmap per row
    found: list[tuple[int, list[tuple[int, int]]]] = []  # rows of G \ {v1, v2}
    for r in range(top + 1):
        row, read = _member_row(ineq, 0, r, 0, right)
        charge(read, "runs read", r)
        members.append(row)
        ap = row & ~(row << t1) & ~(members[r - t2] if r >= t2 else 0)
        if r == 0:
            ap &= ~1  # Ap* leaves out the origin
            apery.append(ap)
            charge(ap.bit_count(), "row-0 scan points", r)
            gens, sums, rest = 0, 0, ap
            while rest:
                low = rest & -rest
                if not sums & low:
                    gens |= low
                    sums |= ap << (low.bit_length() - 1)
                rest ^= low
        else:
            apery.append(ap)
            redundant = 0
            for r1, runs in found:
                other = apery[r - r1]
                if other:
                    for lo, hi in runs:
                        redundant |= _smear(other, hi - lo + 1) << lo
            gens = ap & ~redundant
        if gens:
            charge(gens.bit_count(), "generator points", r)
            found.append((r, _runs(gens)))
    points = [(t1, 0), (0, t2)]
    points += [(x, r) for r, runs in found for lo, hi in runs for x in range(lo, hi + 1)]
    return GeneratorSet(sort_points(points))


def minimal_generators(ineq: ModularInequality) -> GeneratorSet:
    """The unique minimal generating set of a plane semigroup: the interval
    rows in the positive regime, the Apery cell in the strip and the cone
    cell of :mod:`propmod.general` in the trivial and ray regimes."""
    kind = regime(ineq)
    if kind == "positive":
        return positive_generators(ineq)
    if kind == "strip":
        return _strip_apery(ineq)[2]
    return construction_trace(ineq).generators
