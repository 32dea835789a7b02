"""Brute-force reference computations on finite windows.

Everything in this module works by direct enumeration against the defining
inequality and shares no logic with the fast algorithms; the tests use it
to cross-check generator sets, closures and Frobenius vectors.  Results are
only meaningful when the window is large enough, and the Frobenius oracle
raises when it can detect that it is not.

:func:`closure_in_window` holds the window [0, n_1] x ... x [0, n_p] as one
Python int.  The point x is bit sum(x_i * stride_i) in a padded mixed
radix: coordinate i is a digit of extent 2 (n_i + 1), the last coordinate
the lowest.  Adding a vector v with 0 <= v <= n to a window point x gives
digits x_i + v_i <= 2 n_i, below the extent, so no digit carries into the
next: shifting the bitmap by the offset of v moves every x to x + v, and
masking with the window keeps the sums that stay in it.

The bitmap ``reach`` starts at {0} and is saturated by one generator s at
a time.  For m = s, 2s, 4s, ... while m <= n, ``reach |= (reach << m) &
window``; after k such steps reach holds x + j s for 0 <= j < 2^k whenever
that point lies in the window, because every partial sum lies below it.
The first multiple 2^k s that leaves the window bounds every j with j s in
it, so reach is then closed under adding s.  A window point x = a_1 s_1 +
... + a_t s_t has nonnegative generators, so its prefix sums a_1 s_1 + ...
+ a_r s_r lie below x, in the window, and saturating s_1, ..., s_t in turn
reaches each of them.  Generators not below n never take part, and the
bitmap is decoded one row of the last coordinate at a time.

The members of the window form a bitmap in the same radix, built one row
of the last coordinate p at a time.  A row is fixed by its prefix, the
first p - 1 coordinates, and depends on it through two numbers only:
c = f(prefix) mod b and the threshold g(prefix).  For a row point x,

    x is a member  iff  (c + f_p x_p) mod b <= g(prefix) + g_p x_p
                   iff  v_{x_p} <= g(prefix),

with the column table v_j = (c + f_p j) mod b - g_p j.  Let a be the
coordinate before the last.  Prefixes that differ by P = b / gcd(f_a, b)
in coordinate a, and nowhere else, have the same c, so for each outer
prefix and each i0 < min(P, n_a + 1) one table serves the rows i0, i0 + P,
... of the progression, each against its own threshold.  Every point is
still decided on its own values; nothing is shared with the runs of
:mod:`propmod.plane`.  With p = 1 the one row has an empty prefix, read
as a coordinate a of bound 0 with f_a = g_a = 0, so P = 1; f_a = 0 gives
P = 1 too, and both run through the same loop.

The cost is one table of n_p + 1 entries per residue class and one C-level
comparison pass per row.  A window at most one period wide in coordinate a
builds a table for every row, and its rows cost about a sixth more than a
direct test of their points: 11.3 ms against 9.7 ms for (3,-2),(1,-3) at
b = 400 on a 300 x 300 window.  When the rows outnumber the period, the
tables are shared and the bitmap takes half the time: 5.1 ms against 10.0
ms for (7,5),(5,7) at b = 30 on the same window, and 0.25 ms against
0.46 ms for the 61 x 61 windows of the corpus (Python 3.11, 2 vCPUs).

A bitmap is decoded into a list of points in lexicographic order, with no
duplicates: the prefixes of the first p - 1 coordinates come from
``product`` in lexicographic order, and within a prefix ``compress`` yields
the last coordinate in increasing order.  Graded lexicographic order sorts
by degree first and breaks ties lexicographically, so one stable sort of
that list by degree gives it: :func:`brute_members_grlex`, the list that
``oracle members`` prints, is that one sort.  :func:`brute_members` and :func:`closure_in_window` turn
the same list into sets for their callers.

:func:`closure_differences` compares the member bitmap and the closure
bitmap of the generators as ints (both hold 0, since f(0) mod b = 0 =
g(0)): ``members & ~reach`` holds the members the generators miss and
``reach & ~members`` the non-members they reach, so only these
differences, almost always empty, are decoded into points.

:func:`brute_min_frobenius` uses the same radix for differences too.
Shifting right by the offset of a window point m moves the bit of x to
offset(x) - offset(m), and that is the offset of a window point z only when
x - m = z: the digits x_i - m_i - z_i lie in [-2 n_i, n_i], inside the
extent, so a digit string of value 0 is all zeros.  Masked with the window,
OR over members m of (members >> m) is the set of window points z with
z + m a member for some member m.  The window's gaps are the decode of the
window mask less the members, in the lexicographic order of
``window.points()``, and a gap q is tested against the group by its one bit.
"""

from __future__ import annotations

from itertools import compress, product, repeat
from math import gcd
from operator import le, mul
from typing import Iterable, Sequence

from .core import (
    DimensionMismatch,
    ModularInequality,
    Point,
    SemigroupError,
    _integer,
    _Value,
    minimal_points,
)

MAX_WINDOW_POINTS = 10**7


class MarginError(SemigroupError):
    """The window is visibly too small to certify the brute-force answer."""


class Window(_Value):
    """The box [0, bounds_1] x ... x [0, bounds_p]."""

    __slots__ = _fields = ("bounds",)

    def __init__(self, bounds: Sequence[int]) -> None:
        bounds = tuple(map(_integer, bounds))
        object.__setattr__(self, "bounds", bounds)
        if not bounds or any(c < 0 for c in bounds):
            raise SemigroupError(f"window bounds must be nonnegative, got {bounds}")
        if self.size() > MAX_WINDOW_POINTS:
            raise SemigroupError(f"window of {self.size()} points exceeds the brute-force limit")

    def size(self) -> int:
        n = 1
        for c in self.bounds:
            n *= c + 1
        return n

    def points(self) -> Iterable[Point]:
        return product(*(range(c + 1) for c in self.bounds))

    def contains(self, x: Sequence[int]) -> bool:
        return len(x) == len(self.bounds) and all(0 <= v <= c for v, c in zip(x, self.bounds))


def brute_members(ineq: ModularInequality, window: Window) -> set[Point]:
    """All window points satisfying f(x) mod b <= g(x), straight from the definition.

    The points are decoded from the member bitmap (see the module docstring).
    """
    return set(_decode(_member_bits(ineq, window), window.bounds))


def brute_members_grlex(ineq: ModularInequality, window: Window) -> tuple[Point, ...]:
    """The points of :func:`brute_members` in graded lexicographic order,
    as :func:`~propmod.core.sort_points` orders them: the decode is in
    lexicographic order already, so one stable sort by degree suffices."""
    return tuple(sorted(_decode(_member_bits(ineq, window), window.bounds), key=sum))


# selector bytes for itertools.compress: the digits "0" and "1" of bin()
_BITS = bytes.maketrans(b"01", b"\0\1")
# and back: the verdicts of ``le`` as the digits that int(..., 2) reads
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _radix(bounds: Point) -> tuple[list[int], int]:
    """The strides of the padded mixed radix of the window (see the module
    docstring) and the bitmap of all its points."""
    strides = [1] * len(bounds)
    mask = (1 << (bounds[-1] + 1)) - 1
    for i in range(len(bounds) - 2, -1, -1):
        strides[i] = step = strides[i + 1] * 2 * (bounds[i + 1] + 1)
        # the window mask of digits i+1..p, repeated at the bounds_i + 1 values of digit i
        mask *= ((1 << step * (bounds[i] + 1)) - 1) // ((1 << step) - 1)
    return strides, mask


def _encode(points: Iterable[Point], strides: list[int], mask: int) -> int:
    """The bitmap of window points."""
    digits = bytearray(b"0") * mask.bit_length()
    for x in points:
        digits[sum(map(mul, x, strides))] = 49  # "1"
    digits.reverse()
    return int(digits, 2)


def _decode(bits: int, bounds: Point) -> list[Point]:
    """The window points of a bitmap in lexicographic order, read one row of
    the last coordinate at a time.  An empty bitmap, as the differences of
    :func:`closure_differences` almost always are, decodes at once."""
    if not bits:
        return []
    strides, _ = _radix(bounds)
    *head, last = bounds
    flags = bin(bits)[:1:-1].encode().translate(_BITS)
    columns = range(last + 1)
    out: list[Point] = []
    for prefix in product(*(range(c + 1) for c in head)):
        lo = sum(map(mul, prefix, strides))
        out.extend(zip(*map(repeat, prefix), compress(columns, flags[lo:lo + last + 1])))
    return out


def _member_bits(ineq: ModularInequality, window: Window) -> int:
    """The bitmap of the window points satisfying f(x) mod b <= g(x).

    The window is read in rows along its last coordinate, and the rows of a
    residue class share one column table (see the module docstring): the
    second-to-last coordinate a carries the progression i0, i0 + P, ...
    along which c = f(prefix) mod b repeats.  A row is written as the \\0/\\1
    bytes of ``le`` and the whole bytearray becomes "0"/"1" digits in one
    translate, so no row pays for its own conversion.  With p = 1 the one
    row has an empty prefix, read as a coordinate a of bound 0 with
    f_a = g_a = 0.
    """
    bounds = window.bounds
    if len(bounds) != ineq.p:
        raise SemigroupError("window dimension does not match the inequality")
    f, g, b = ineq.f, ineq.g, ineq.b
    strides, mask = _radix(bounds)
    *head, last = bounds
    *outer, na = head or [0]
    fa, ga, sa = (f[-2], g[-2], strides[-2]) if head else (0, 0, 0)
    period = b // gcd(fa, b)
    width = last + 1
    cols = [(f[-1] * j, g[-1] * j) for j in range(width)]
    digits = bytearray(mask.bit_length())
    for prefix in product(*(range(c + 1) for c in outer)):
        # f and g at (prefix, 0, 0): map stops at the end of the prefix
        fo, go = sum(map(mul, f, prefix)), sum(map(mul, g, prefix))
        lo = sum(map(mul, prefix, strides))
        for i0 in range(min(period, na + 1)):
            c = (fo + fa * i0) % b
            v = [(c + fj) % b - gj for fj, gj in cols]
            for i in range(i0, na + 1, period):
                start = lo + sa * i
                digits[start:start + width] = bytes(map(le, v, repeat(go + ga * i, width)))
    digits.reverse()
    return int(digits.translate(_DIGITS), 2)


def _closure_bits(gens: Iterable[Sequence[int]], window: Window) -> int:
    """The bitmap of the window points reachable as N-combinations of
    ``gens``, 0 included, saturated by the multiples of each generator in
    turn (see the module docstring)."""
    bounds = window.bounds
    p = len(bounds)
    gen_set = {tuple(map(_integer, s)) for s in gens}
    for s in gen_set:
        if len(s) != p:
            raise SemigroupError("generator dimension does not match the window")
        if any(c < 0 for c in s):
            raise SemigroupError(f"generators must be nonnegative, got {s}")
        if not any(s):
            raise SemigroupError("0 is not allowed as a generator")
    strides, mask = _radix(bounds)
    reach = 1
    for s in gen_set:
        m = s
        while all(map(le, m, bounds)):
            reach |= (reach << sum(map(mul, m, strides))) & mask
            m = tuple(2 * c for c in m)
    return reach


def closure_in_window(gens: Iterable[Sequence[int]], window: Window) -> set[Point]:
    """Window points reachable as N-combinations of ``gens`` (always includes 0)."""
    return set(_decode(_closure_bits(gens, window), window.bounds))


def closure_differences(ineq: ModularInequality, gens: Iterable[Sequence[int]],
                        window: Window) -> tuple[set[Point], set[Point]]:
    """The window members that ``gens`` do not reach, and the window points
    they reach that are not members.

    The member and closure bitmaps are compared as ints; only the two
    differences are decoded (see the module docstring).
    """
    members = _member_bits(ineq, window)
    reach = _closure_bits(gens, window)
    return (set(_decode(members & ~reach, window.bounds)),
            set(_decode(reach & ~members, window.bounds)))


def _cross(a: Sequence[int], b: Sequence[int]) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _extremal_directions(members: list[Point], window: Window) -> tuple[Point, Point]:
    # Clockwise-most and counterclockwise-most member directions; these span
    # the cone of the semigroup when the window reaches far enough.  For each
    # extreme we keep the smallest member attaining it as a witness that the
    # direction is realized well inside the window.
    nonzero = [m for m in members if any(m)]
    if not nonzero:
        raise MarginError("no nonzero member in the window")
    lo = lo_w = nonzero[0]
    hi = hi_w = nonzero[0]
    for m in nonzero[1:]:
        c = _cross(lo, m)
        if c < 0:
            lo, lo_w = m, m
        elif c == 0 and sum(m) < sum(lo_w):
            lo_w = m
        c = _cross(hi, m)
        if c > 0:
            hi, hi_w = m, m
        elif c == 0 and sum(m) < sum(hi_w):
            hi_w = m
    half = tuple(c // 2 for c in window.bounds)
    for witness in (lo_w, hi_w):
        if not all(v <= h for v, h in zip(witness, half)):
            raise MarginError(
                "extreme member direction only attained near the window boundary; enlarge the window"
            )
    if _cross(lo, hi) == 0:
        raise MarginError("window members span no two-dimensional cone")
    return lo_w, hi_w


def brute_min_frobenius(ineq: ModularInequality, window: Window) -> set[Point]:
    """Coordinatewise-minimal Frobenius vectors found by definition checking.

    A non-member q of the difference group passes when every window point of
    the group lying strictly inside the shifted cone q + int(cone(S)) is a
    nonzero member.  The difference group is probed as {a - b : a, b members}.

    Candidates are only drawn from the inner half of the window; the outer
    half serves as certification room for their shifted cones.  A passer
    whose cone directions do not fit twice over inside the window triggers
    :class:`MarginError` rather than a guess.

    The probe and the cone test run on window bitmaps (see the module
    docstring).  The cone of S lies in N^2, so a point strictly inside it is
    a point of N^2, and the window points strictly inside the cone at q are
    the bitmap of those at the origin shifted by q.
    """
    if ineq.p != 2:
        raise DimensionMismatch("the Frobenius oracle works in dimension 2 only")
    member_bits = _member_bits(ineq, window)
    members = _decode(member_bits, window.bounds)
    # the margin check comes first: a window too small to hold a gap
    # certifies nothing either
    lo, hi = _extremal_directions(members, window)
    strides, mask = _radix(window.bounds)
    # in the lexicographic order of window.points(): a MarginError names the
    # first passer in that order
    gaps = _decode(mask & ~member_bits, window.bounds)
    if not gaps:
        return set()
    half = tuple(c // 2 for c in window.bounds)

    # z is in the difference group iff z + m is a member for some member m.
    group = 0
    for m in members:
        group |= member_bits >> sum(map(mul, m, strides))
    group &= mask
    outside = group & ~member_bits
    cone = _encode((d for d in window.points() if _cross(lo, d) > 0 and _cross(d, hi) > 0),
                   strides, mask)

    passers = []
    for q in gaps:
        offset = sum(map(mul, q, strides))
        if not group >> offset & 1 or not all(v <= h for v, h in zip(q, half)):
            continue
        if outside & (cone << offset):
            continue  # a group point outside S strictly inside the cone at q
        for d in (lo, hi):
            rim = (q[0] + 2 * d[0], q[1] + 2 * d[1])
            if not window.contains(rim):
                raise MarginError(
                    f"candidate {q} passed but its cone leaves the window "
                    "before it can be certified; enlarge the window")
        passers.append(q)
    return set(minimal_points(passers))
