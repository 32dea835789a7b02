from itertools import product
from math import gcd
from operator import sub

import pytest
from hypothesis import strategies as st

from propmod.core import (
    ModularInequality,
    dominates,
    enumeration_cap,
    minimal_points,
    sort_points,
)
from propmod.diophantine import _completion, _termination_bound
from propmod.oracle import MarginError, _cross, _extremal_directions, brute_members
from propmod.plane import regime
from propmod.rays import strip_geometry


@pytest.fixture
def worked():
    # 3x - 2y mod 11 <= x - 3y, the running strip example
    return ModularInequality((3, -2), (1, -3), 11)


@pytest.fixture
def alltrue():
    # 7x - y mod 5 <= x - 14y, the all-properties-true example
    return ModularInequality((7, -1), (1, -14), 5)


@pytest.fixture
def frobcase():
    # 3x + 2y mod 10 <= x - y, the Frobenius-vector example
    return ModularInequality((3, 2), (1, -1), 10)


WORKED_GENS = {
    (4, 0), (5, 0), (5, 1), (8, 1), (9, 2), (11, 0), (13, 3),
    (14, 4), (18, 5), (19, 6), (23, 7), (28, 9), (33, 11),
}

ALLTRUE_GENS = {
    (3, 0), (4, 0), (5, 0), (16, 1), (17, 1), (18, 1), (29, 2),
    (31, 2), (44, 3), (57, 4), (70, 5),
}


def _plane_form(coeff):
    return st.tuples(st.integers(-coeff, coeff), st.integers(-coeff, coeff)).filter(any)


def _modulus(max_b):
    # uniform, where st.integers would favour the smallest moduli
    return st.sampled_from(range(1, max_b + 1))


def strip_inequalities(coeff=5, max_b=10):
    """Random plane (f, g, b) whose g has one positive coefficient and one in
    [-coeff, 0], on either axis: the strip branch, zero coefficients included."""
    def build(f, positive, other, axis, b):
        g = (positive, other) if axis == 0 else (other, positive)
        return ModularInequality(f, g, b)
    return st.builds(build, _plane_form(coeff), st.integers(1, coeff),
                     st.integers(-coeff, 0), st.integers(0, 1), _modulus(max_b))


def shrunk_period_strips(coeff=3, max_k=3):
    """Random strip (f, g, b) with b a multiple of f(d), d the primitive
    vector of the line g = 0, so the period u = (b / |f(d)|) d is shorter than
    b d; when f(d) = 0 the period is d for every b."""
    def build(f, positive, other, axis, k):
        g = (positive, other) if axis == 0 else (other, positive)
        a, c = abs(g[1]), abs(g[0])
        step = gcd(a, c)
        fd = abs(f[0] * a + f[1] * c) // step
        return ModularInequality(f, g, k * max(fd, 1))
    return st.builds(build, _plane_form(coeff), st.integers(1, coeff),
                     st.integers(-coeff, 0), st.integers(0, 1), st.integers(1, max_k))


def nonpositive_inequalities(coeff=5, max_b=12):
    """Random plane (f, g, b) with g1, g2 <= 0, one of them negative: the
    trivial and ray branches."""
    form = st.tuples(st.integers(-coeff, 0), st.integers(-coeff, 0)).filter(any)
    return st.builds(ModularInequality, _plane_form(coeff), form, _modulus(max_b))


def positive_inequalities(coeff=5, max_b=12):
    """Random plane (f, g, b) with both g coefficients positive."""
    return st.builds(ModularInequality, _plane_form(coeff),
                     st.tuples(st.integers(1, coeff), st.integers(1, coeff)),
                     _modulus(max_b))


def lifted_generators(ineq):
    """Reference engine for the general construction; it shares only the
    Diophantine completion with it, not the cone walk.

    f(x) mod b <= g(x) holds exactly when some r with 0 <= r <= g(x) has
    r = f(x) (mod b), so S is the projection onto x of the kernel monoid
    M = {(x, r, s, t) in N^(p+3) : g(x) - r - s = 0, f'(x) + (b-1) r - b t = 0},
    with f' the coefficients of f reduced into [0, b).  The projected
    Hilbert basis of M generates S; a candidate is then a minimal generator
    unless it minus some other candidate is a member.
    """
    b = ineq.b
    rows = [list(ineq.g) + [-1, -1, 0], [c % b for c in ineq.f] + [b - 1, 0, -b]]
    # two comparable elements of M differ by one, so its Hilbert basis is
    # the set of minimal nonzero solutions that the completion enumerates
    lifted = _completion(rows, ineq.p + 3, None, _termination_bound(rows), enumeration_cap())
    candidates = sort_points(y[: ineq.p] for y in lifted)
    return tuple(x for x in candidates
                 if not any(s != x and dominates(x, s)
                            and ineq.member(tuple(map(sub, x, s))) for s in candidates))


def s_order_leq(ineq, a, b):
    """The semigroup order: a <= b exactly when b - a is a member.

    The reference definition behind the Apery maximal elements, against
    which ``properties.apery_intersection`` is compared.
    """
    return ineq.member(tuple(map(sub, b, a)))


def closure_reference(gens, window):
    """Reference for ``oracle.closure_in_window``: dynamic programming over
    the box, where x is reachable when x = 0 or some generator s <= x has
    x - s reachable."""
    gen_list = sort_points(gens)
    reachable = set()
    for x in window.points():
        if not any(x):
            reachable.add(x)
            continue
        for s in gen_list:
            if all(v >= c for v, c in zip(x, s)) and tuple(v - c for v, c in zip(x, s)) in reachable:
                reachable.add(x)
                break
    return reachable


def frobenius_reference(ineq):
    """Reference for ``frobenius.frobenius_vectors``, as (delta, vectors,
    minimal): the gaps of the candidate cell, each checked by testing every
    point of the cell strictly above it with ``ineq.member``.

    Positive regime: the points with g(x) <= b - 1, and above q those of
    them at least q + (1, 1).  Strip: heights [0, u_h] and g-values [0, b],
    and above q the band of heights (h_q, h_q + u_h] and g-values
    (g(q), b - 1].
    """
    if regime(ineq, "Frobenius vectors") == "positive":
        def cell(corner=(0, 0)):
            return [z for z in product(range(ineq.b), repeat=2)
                    if dominates(z, corner) and ineq.g_of(z) <= ineq.b - 1]

        def above(q):
            return cell((q[0] + 1, q[1] + 1))
        candidates = cell()
    else:
        geo = strip_geometry(ineq)
        a, h, u_h = geo.axis, geo.height_index, geo.period[geo.height_index]

        def cell(heights, g_lo, g_hi):
            # a superset of each row, cut by the g-values of its points
            g_a, g_h = ineq.g[a], ineq.g[h]
            points = ((x, y) if a == 0 else (y, x) for y in heights
                      for x in range((g_lo - g_h * y) // g_a, (g_hi - g_h * y) // g_a + 1))
            return [z for z in points if g_lo <= ineq.g_of(z) <= g_hi]

        def above(q):
            return cell(range(q[h] + 1, q[h] + u_h + 1), ineq.g_of(q) + 1, ineq.b - 1)
        candidates = cell(range(u_h + 1), 0, ineq.b)
    delta = sort_points(z for z in candidates if not ineq.member(z))
    vectors = sort_points(q for q in delta if all(ineq.member(z) for z in above(q)))
    return delta, vectors, sort_points(minimal_points(vectors))


def brute_min_frobenius_reference(ineq, window):
    """Reference for ``oracle.brute_min_frobenius``: the group probe runs one
    ``any`` over the members per window point, and each candidate scans the
    whole window for a group point outside S strictly inside its cone."""
    members = brute_members(ineq, window)
    lo, hi = _extremal_directions(members, window)
    gaps = [x for x in window.points() if x not in members]
    if not gaps:
        return set()
    half = tuple(c // 2 for c in window.bounds)
    in_group = {z: any((z[0] + m[0], z[1] + m[1]) in members for m in members)
                for z in window.points()}
    passers = []
    for q in gaps:
        if not in_group[q] or not all(v <= h for v, h in zip(q, half)):
            continue
        outside = ((z[0] - q[0], z[1] - q[1]) for z in window.points()
                   if z not in members and in_group[z])
        if any(_cross(lo, d) > 0 and _cross(d, hi) > 0 for d in outside):
            continue
        for d in (lo, hi):
            if not window.contains((q[0] + 2 * d[0], q[1] + 2 * d[1])):
                raise MarginError(f"candidate {q} passed but its cone leaves the window")
        passers.append(q)
    return set(minimal_points(passers))
