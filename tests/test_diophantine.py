"""Minimal-solution solver: completeness against window brute force.

A minimal solution inside a box window is also window-minimal, and any
window point dominating a solution dominates one inside the box, so the
computed antichain intersected with a window must equal the brute-force
window minima.  That makes small windows a complete check.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from propmod.core import CapExceeded, SemigroupError, dominates, minimal_points
from propmod.diophantine import (
    DiophSystem,
    cone_hilbert_basis,
    minimal_solutions,
)


def window_minima(system, bound):
    pts = [x for x in itertools.product(range(bound + 1), repeat=system.p)
           if any(x) and system.satisfied_by(x)]
    return set(minimal_points(pts))


def in_window(points, bound):
    return {x for x in points if all(v <= bound for v in x)}


class TestSystems:
    def test_worked_period_system(self):
        # g = 0 and f = 0 mod 11 for the running strip example
        sys_ = DiophSystem(p=2, equalities=(((1, -3), 0),),
                           congruences=(((3, -2), 0, 11),))
        assert minimal_solutions(sys_).points == ((33, 11),)

    def test_face_lattice_without_congruence(self):
        sys_ = DiophSystem(p=2, equalities=(((1, -3), 0),))
        assert minimal_solutions(sys_).points == ((3, 1),)

    def test_single_congruence_line(self):
        sys_ = DiophSystem(p=1, congruences=(((1,), 2, 5),))
        assert minimal_solutions(sys_).points == ((2,),)

    def test_infeasible_system_is_empty(self):
        sys_ = DiophSystem(p=2, equalities=(((1, 1), 3), ((1, 1), 4)))
        assert minimal_solutions(sys_).points == ()

    def test_zero_solves_an_inhomogeneous_system(self):
        # x - y >= -1 holds at 0; both unit vectors are minimal nonzero solutions
        sys_ = DiophSystem(p=2, inequalities=(((1, -1), -1),))
        assert minimal_solutions(sys_).points == ((0, 1), (1, 0))

    def test_inhomogeneous_flag(self):
        assert minimal_solutions(DiophSystem(p=2, equalities=(((1, 1), 3),))).homogeneous is False
        assert minimal_solutions(DiophSystem(p=2, equalities=(((1, -1), 0),))).homogeneous is True

    @pytest.mark.parametrize("system,bound", [
        (DiophSystem(p=2, equalities=(((1, -3), 0),), congruences=(((3, -2), 0, 11),)), 40),
        (DiophSystem(p=2, equalities=(((5, -3), 2),)), 25),
        (DiophSystem(p=2, congruences=(((3, 5), 1, 7),)), 20),
        (DiophSystem(p=2, inequalities=(((2, -3), 4),)), 15),
        (DiophSystem(p=3, equalities=(((1, 1, -2), 0),), congruences=(((1, 0, 1), 0, 3),)), 8),
        (DiophSystem(p=3, inequalities=(((3, 1, -4), 0),), congruences=(((5, 2, 1), 2, 4),)), 7),
        (DiophSystem(p=1, congruences=(((4,), 2, 6),)), 20),
        (DiophSystem(p=3, inequalities=(((2, -1, -3), -2),), congruences=(((1, 1, 0), 0, 2),)), 8),
    ])
    def test_agrees_with_window_brute_force(self, system, bound):
        got = in_window(minimal_solutions(system).points, bound)
        assert got == window_minima(system, bound)

    def test_negative_congruence_coefficients(self):
        # -2 = 9 mod 11 must not change the solution set
        a = DiophSystem(p=2, congruences=(((3, -2), 0, 11),))
        b = DiophSystem(p=2, congruences=(((3, 9), 0, 11),))
        assert minimal_solutions(a).points == minimal_solutions(b).points

    def test_antichain_output(self):
        pts = minimal_solutions(
            DiophSystem(p=2, congruences=(((3, 5), 1, 7),))).points
        assert all(not dominates(x, y) for x in pts for y in pts if x != y)

    def test_dimension_guard(self):
        with pytest.raises(SemigroupError):
            DiophSystem(p=5, equalities=(((1, 1, 1, 1, 1), 0),))

    def test_arity_guard(self):
        with pytest.raises(SemigroupError):
            DiophSystem(p=2, equalities=(((1, 2, 3), 0),))

    def test_needs_a_constraint(self):
        with pytest.raises(SemigroupError):
            DiophSystem(p=2)

    @pytest.mark.parametrize("system", [
        {"p": 2, "equalities": (((1.5, 2), 3),)},
        {"p": 2, "equalities": ((("a", 2), 3),)},
        {"p": 2, "equalities": (((True, 2), 3),)},
        {"p": 2, "inequalities": (((1, 2), 3.0),)},
        {"p": 2, "congruences": (((1, 2), 0, "5"),)},
        {"p": 2.0, "equalities": (((1, 2), 3),)},
        {"p": True, "equalities": (((1,), 3),)},
    ])
    def test_rejects_non_integer_entries(self, system):
        # nothing is truncated: 1.5 must not silently become 1
        with pytest.raises(SemigroupError, match="integers"):
            DiophSystem(**system)

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("PROPMOD_CAP", "3")
        with pytest.raises(CapExceeded):
            minimal_solutions(DiophSystem(p=3, congruences=(((7, 11, 13), 5, 12),)))

    def test_from_json_round_trip(self):
        data = {"p": 2, "equalities": [[[1, -3], 0]],
                "congruences": [[[3, -2], 0, 11]]}
        sys_ = DiophSystem.from_json(data)
        assert sys_.equalities == (((1, -3), 0),)
        assert sys_.congruences == (((3, -2), 0, 11),)

    @pytest.mark.parametrize("data,text", [
        ([], "must be a JSON object, got list"),
        ({"p": 2, "equalities": [[[1, -1]]]}, "each equalities row is [coeffs, c]"),
        ({"p": 2, "inequalities": [[[1, -1], 0, 5]]}, "each inequalities row is [coeffs, c]"),
        ({"p": 2, "congruences": [[[1, -1], 0]]}, "each congruences row is [coeffs, k, m]"),
    ])
    def test_malformed_data_is_named(self, data, text):
        with pytest.raises(SemigroupError) as info:
            DiophSystem.from_json(data)
        assert text in str(info.value)

    def test_unknown_key_is_rejected(self):
        # a misspelled key must not silently drop its constraint
        data = {"p": 2, "equalities": [[[1, -3], 0]], "congruence": [[[3, -2], 0, 11]]}
        with pytest.raises(SemigroupError, match="'congruence'"):
            DiophSystem.from_json(data)

    @pytest.mark.parametrize("data,count", [
        ({"p": 4, "equalities": [[[3, 1, -4, 2], 0]], "congruences": [[[5, 2, 1, 7], 0, 9]]}, 11),
        ({"p": 4, "equalities": [[[3, -2, 5, -1], 7]], "congruences": [[[1, 4, 2, 3], 3, 11]]}, 30),
        ({"p": 3, "equalities": [[[3, 1, -4], 5]], "congruences": [[[5, 2, 1], 2, 13]]}, 4),
        ({"p": 3, "congruences": [[[5, 2, 1], 0, 17]], "inequalities": [[[3, 1, -4], 2]]}, 8),
    ])
    def test_benchmark_system_sizes(self, data, count):
        # the four systems the benchmark's solve ops time
        system = DiophSystem.from_json(data)
        points = minimal_solutions(system).points
        assert len(points) == count
        assert all(system.satisfied_by(x) for x in points)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(-5, 5), st.integers(-5, 5), st.integers(0, 6), st.integers(2, 7))
    def test_random_congruences_against_brute(self, c1, c2, k, m):
        if c1 == 0 and c2 == 0:
            return
        system = DiophSystem(p=2, congruences=(((c1, c2), k, m),))
        got = in_window(minimal_solutions(system).points, 14)
        assert got == window_minima(system, 14)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_mixed_systems_against_brute(self, data):
        p = data.draw(st.integers(1, 3), label="p")
        coeffs = st.tuples(*[st.integers(-4, 4)] * p)
        constraint = st.one_of(
            st.tuples(st.just("equalities"), st.tuples(coeffs, st.integers(-3, 5))),
            st.tuples(st.just("congruences"),
                      st.tuples(coeffs, st.integers(0, 5), st.integers(2, 6))),
            st.tuples(st.just("inequalities"), st.tuples(coeffs, st.integers(-3, 5))),
        )
        kinds = {"equalities": [], "congruences": [], "inequalities": []}
        for kind, row in data.draw(st.lists(constraint, min_size=1, max_size=2), label="rows"):
            kinds[kind].append(row)
        system = DiophSystem(p=p, **{k: tuple(v) for k, v in kinds.items()})
        bound = (14, 8, 5)[p - 1]
        got = in_window(minimal_solutions(system).points, bound)
        assert got == window_minima(system, bound)


class TestHilbertBasis:
    @pytest.mark.parametrize("g,want", [
        ((1, -3), {(1, 0), (3, 1)}),
        ((3, -2), {(1, 0), (1, 1), (2, 3)}),
        ((1, 1), {(1, 0), (0, 1)}),
        ((-1, 2), {(0, 1), (1, 1), (2, 1)}),
    ])
    def test_known_bases(self, g, want):
        assert set(cone_hilbert_basis(g).points) == want

    @pytest.mark.parametrize("g", [(1, -3), (3, -2), (5, -7), (3, 1, -4)])
    def test_basis_generates_the_cone(self, g):
        basis = cone_hilbert_basis(g).points
        p = len(g)
        bound = 9
        cone = {x for x in itertools.product(range(bound + 1), repeat=p)
                if sum(c * v for c, v in zip(g, x)) >= 0}
        reach = {(0,) * p}
        for _ in range(p * bound):
            new = {tuple(r + s for r, s in zip(x, b))
                   for x in reach for b in basis}
            new = {x for x in new if all(v <= bound for v in x)}
            if new <= reach:
                break
            reach |= new
        assert reach == cone

    def test_pinned_3d_basis(self):
        assert cone_hilbert_basis((3, 1, -4)).points == (
            (0, 1, 0), (1, 0, 0), (1, 1, 1), (2, 0, 1), (0, 4, 1), (3, 0, 2), (4, 0, 3))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=3))
    def test_random_bases_against_window(self, g):
        # A basis element in the window is a cone point that is not the sum of
        # two nonzero cone points; both summands would lie in the window too.
        bound = (12, 9, 5)[len(g) - 1]
        cone = {x for x in itertools.product(range(bound + 1), repeat=len(g))
                if any(x) and sum(c * v for c, v in zip(g, x)) >= 0}
        sums = {tuple(a + b for a, b in zip(y, z)) for y in cone for z in cone}
        assert in_window(cone_hilbert_basis(g).points, bound) == cone - sums

    def test_basis_is_minimal(self):
        basis = cone_hilbert_basis((3, 1, -4)).points
        # no element is a sum of two others from the cone
        for x in basis:
            others = [y for y in basis if y != x]
            sums = {tuple(a + b for a, b in zip(y, z))
                    for y in others for z in others}
            assert x not in sums

