from operator import sub

import pytest
from hypothesis import strategies as st

from propmod.core import ModularInequality, dominates, sort_points
from propmod.diophantine import _completion, _termination_bound, enumeration_cap


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
