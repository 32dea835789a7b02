"""Dimension-independent generator construction and its trace."""

import pytest
from hypothesis import given, settings, strategies as st

from propmod.core import CapExceeded, ModularInequality, enumeration_cap, sort_points
from propmod.general import construction_trace, minimal_generators_general
from propmod.oracle import Window, brute_members, closure_in_window
from propmod.plane import minimal_generators

from conftest import lifted_generators
from corpus import MIXED, NONPOSITIVE, POSITIVE, label, make

THREE_D = ModularInequality((5, 2, 1), (3, 1, -4), 4)

THREE_D_GENS = {
    (1, 0, 0), (0, 2, 0), (1, 1, 0), (0, 3, 0), (1, 1, 1), (3, 0, 1),
    (3, 0, 2), (0, 6, 1), (0, 7, 1), (5, 0, 3), (0, 9, 2), (0, 10, 2),
    (7, 0, 5), (0, 13, 3), (0, 16, 4), (16, 0, 12),
}


def form(p, low, high):
    return st.tuples(*[st.integers(low, high)] * p).filter(any)


def inequalities(p, coeff, max_b, min_b=1):
    return st.builds(ModularInequality, form(p, -coeff, coeff), form(p, -coeff, coeff),
                     st.integers(min_b, max_b))


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

    def test_five_dimensions(self):
        ineq = ModularInequality((1, 2, 3, 1, 2), (1, -1, 1, 1, -1), 3)
        window = Window((4,) * 5)
        gens = minimal_generators_general(ineq).points
        assert len(gens) == 16
        assert closure_in_window(gens, window) == brute_members(ineq, window) | {(0,) * 5}


class TestRandomInequalities:
    """The cone cell against independent engines on random data."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(inequalities(2, 8, 12))
    def test_plane_agreement(self, ineq):
        gens = sort_points(minimal_generators_general(ineq).points)
        assert gens == sort_points(minimal_generators(ineq).points)
        assert gens == lifted_generators(ineq)

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
        assert sort_points(minimal_generators_general(ineq).points) == lifted_generators(ineq)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(inequalities(4, 4, 6))
    def test_four_d_closure(self, ineq):
        self.closure_equals_brute(ineq, 6)
        assert sort_points(minimal_generators_general(ineq).points) == lifted_generators(ineq)

    # moduli the lifted reference takes seconds to minutes on
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(inequalities(3, 4, 16, min_b=8))
    def test_three_d_large_moduli(self, ineq):
        self.closure_equals_brute(ineq, 14)


class TestTrace:
    def test_trace_agrees_with_fast_path(self, worked):
        trace = construction_trace(worked)
        assert (sort_points(trace.generators.points)
                == sort_points(minimal_generators(worked).points))

    def test_trace_structure(self, worked):
        trace = construction_trace(worked)
        assert trace.cone_basis == ((1, 0), (3, 1))
        # g(3, 1) = 0 and f(3, 1) = 7, so m = 11 / gcd(11, 7): the period
        assert trace.multiples == ((4, 0), (33, 11))
        # every final generator is a cell member or a multiple
        assert set(trace.generators.points) <= set(trace.cell_members + trace.multiples)

    def test_trace_core_members(self, worked):
        trace = construction_trace(worked)
        for h, top in zip(trace.cone_basis, trace.multiples):
            m = top[0] // h[0]
            assert top == tuple(m * c for c in h) and worked.member(top)
            assert not any(worked.member(tuple(k * c for c in h)) for k in range(1, m))
        assert all(worked.member(x) and any(x) for x in trace.cell_members)


class TestCap:
    def test_explicit_cap_raises(self, worked, monkeypatch):
        monkeypatch.setenv("PROPMOD_CAP", "4")
        with pytest.raises(CapExceeded):
            minimal_generators_general(worked)

    def test_environment_override(self, worked, monkeypatch):
        monkeypatch.setenv("PROPMOD_CAP", "4")
        assert enumeration_cap() == 4
        with pytest.raises(CapExceeded):
            minimal_generators_general(worked)

    def test_default(self):
        assert enumeration_cap() == 10**6
