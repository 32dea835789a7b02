"""Dimension-independent generator construction and its trace."""

import pytest
from hypothesis import given, settings, strategies as st

from propmod.core import CapExceeded, ModularInequality, sort_points
from propmod.diophantine import enumeration_cap
from propmod.general import construction_trace, minimal_generators_general
from propmod.oracle import Window, brute_members, closure_in_window
from propmod.plane import minimal_generators

from corpus import MIXED, NONPOSITIVE, POSITIVE, label, make

THREE_D = ModularInequality((5, 2, 1), (3, 1, -4), 4)

THREE_D_GENS = {
    (1, 0, 0), (0, 2, 0), (1, 1, 0), (0, 3, 0), (1, 1, 1), (3, 0, 1),
    (3, 0, 2), (0, 6, 1), (0, 7, 1), (5, 0, 3), (0, 9, 2), (0, 10, 2),
    (7, 0, 5), (0, 13, 3), (0, 16, 4), (16, 0, 12),
}


def form(p, low, high):
    return st.tuples(*[st.integers(low, high)] * p).filter(any)


def inequalities(p, coeff, max_b):
    return st.builds(ModularInequality, form(p, -coeff, coeff), form(p, -coeff, coeff),
                     st.integers(1, max_b))


class TestPlaneAgreement:
    # the full corpus comparison runs in the acceptance suite
    @pytest.mark.parametrize("entry", MIXED[:6] + POSITIVE[:3] + NONPOSITIVE[:3],
                             ids=label)
    def test_matches_geometric_method(self, entry):
        ineq = make(entry)
        assert (sort_points(minimal_generators_general(ineq).points)
                == sort_points(minimal_generators(ineq).points))

    def test_trivial_flag(self):
        gens = minimal_generators_general(ModularInequality((1, 1), (-1, -1), 7))
        assert gens.trivial and gens.points == ()


class TestThreeDimensions:
    def test_three_d_generators(self):
        assert set(minimal_generators_general(THREE_D).points) == THREE_D_GENS

    def test_three_d_closure_equals_brute(self):
        window = Window((12, 12, 12))
        gens = minimal_generators_general(THREE_D)
        members = brute_members(THREE_D, window) | {(0, 0, 0)}
        assert closure_in_window(gens.points, window) == members

    def test_modulus_one_gives_the_cone(self):
        gens = minimal_generators_general(ModularInequality((2, 3, 5), (1, 1, 1), 1))
        assert set(gens.points) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


class TestRandomInequalities:
    """The lifted construction against independent engines on random data."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(inequalities(2, 8, 12))
    def test_plane_agreement(self, ineq):
        assert (sort_points(minimal_generators_general(ineq).points)
                == sort_points(minimal_generators(ineq).points))

    @staticmethod
    def closure_equals_brute(ineq, side):
        window = Window((side,) * ineq.p)
        gens = minimal_generators_general(ineq).points
        members = brute_members(ineq, window) | {(0,) * ineq.p}
        assert closure_in_window(gens, window) == members

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(inequalities(3, 4, 6))
    def test_three_d_closure(self, ineq):
        self.closure_equals_brute(ineq, 8)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(inequalities(4, 4, 6))
    def test_four_d_closure(self, ineq):
        self.closure_equals_brute(ineq, 6)


class TestTrace:
    def test_trace_agrees_with_fast_path(self, worked):
        trace = construction_trace(worked)
        fast = minimal_generators_general(worked)
        assert sort_points(trace.generators.points) == sort_points(fast.points)

    def test_trace_structure(self, worked):
        trace = construction_trace(worked)
        assert trace.candidates == sort_points(y[:2] for y in trace.lifted_basis)
        # the period (33, 11) lifts with r = s = 0 and t = f'(33, 11) / 11
        assert (33, 11, 0, 0, 18) in trace.lifted_basis
        # candidates already contain every final generator
        assert set(trace.generators.points) <= set(trace.candidates)

    def test_trace_core_members(self, worked):
        trace = construction_trace(worked)
        for *x, r, s, t in trace.lifted_basis:
            assert r + s == worked.g_of(x)
            assert r % worked.b == worked.residue(x) and t >= 0
        assert all(worked.member(x) for x in trace.candidates)


class TestCap:
    def test_explicit_cap_raises(self, worked):
        with pytest.raises(CapExceeded):
            minimal_generators_general(worked, cap=4)

    def test_environment_override(self, worked, monkeypatch):
        monkeypatch.setenv("PROPMOD_CAP", "4")
        assert enumeration_cap(None) == 4
        with pytest.raises(CapExceeded):
            minimal_generators_general(worked)

    def test_explicit_beats_environment(self, monkeypatch):
        monkeypatch.setenv("PROPMOD_CAP", "4")
        assert enumeration_cap(10**6) == 10**6

    def test_default(self):
        assert enumeration_cap(None) == 10**6
