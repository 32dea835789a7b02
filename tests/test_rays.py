"""Ray restrictions, period vectors and the strip skeleton."""

import pytest
from hypothesis import given, settings, strategies as st

from propmod.core import DimensionMismatch, ModularInequality, SemigroupError, UnsupportedCase
from propmod.oracle import Window, brute_members, closure_in_window
from propmod.rays import (
    axis_generator,
    numerical_min_gens,
    period_vector,
    restrict_to_ray,
    strip_geometry,
)


class TestRestriction:
    def test_worked_axis_is_proportionally_modular(self, worked):
        r = restrict_to_ray(worked, (1, 0))
        assert r.c_prime > 0
        assert (r.a_prime, r.c_prime, r.b) == (3, 1, 11)

    def test_direction_is_stored_primitive(self, worked):
        assert restrict_to_ray(worked, (3, 0)).direction == (1, 0)

    def test_zero_ray(self, worked):
        # g(0, 1) = -3 < 0: only the origin survives on that ray
        assert restrict_to_ray(worked, (0, 1)).c_prime < 0

    def test_free_line_step(self):
        ineq = ModularInequality((2, 0), (0, -5), 4)
        r = restrict_to_ray(ineq, (1, 0))
        assert r.c_prime == 0
        assert ineq.least_multiple(r.a_prime, r.c_prime) == 2

    @pytest.mark.parametrize("direction,message", [
        ((1, 2, 3), "ray directions live in dimension 2"),
        ((-1, 2), r"nonzero and nonnegative, got \(-1, 2\)"),
        ((0, 0), r"nonzero and nonnegative, got \(0, 0\)")])
    def test_rejects_bad_directions(self, worked, direction, message):
        with pytest.raises(SemigroupError, match=message):
            restrict_to_ray(worked, direction)

    def test_rejects_other_dimensions(self):
        with pytest.raises(SemigroupError, match="ray restriction needs a plane inequality"):
            restrict_to_ray(ModularInequality((1, 2, 3), (1, 1, 1), 5), (1, 0))

    def test_free_line_on_null_form(self, worked):
        # g vanishes on the direction (3, 1); f(3, 1) = 7, so step = 11
        r = restrict_to_ray(worked, (3, 1))
        assert r.c_prime == 0
        assert worked.least_multiple(r.a_prime, r.c_prime) == 11


class TestNumericalGens:
    def test_worked_axis_semigroup(self):
        assert numerical_min_gens(3, 11, 1) == (4, 5, 11)

    def test_alltrue_axis_semigroup(self):
        assert numerical_min_gens(7, 5, 1) == (3, 4, 5)

    def test_full_semigroup(self):
        assert numerical_min_gens(5, 5, 1) == (1,)

    @pytest.mark.parametrize("a,b,c", [(3, 11, 1), (7, 5, 1), (9, 10, 2), (1, 12, 1)])
    def test_generators_reproduce_membership(self, a, b, c):
        members = {t for t in range(0, 4 * b) if (a * t) % b <= c * t}
        gens = numerical_min_gens(a, b, c)
        reach = {0}
        for _ in range(4 * b):
            reach |= {r + s for r in reach for s in gens if r + s < 4 * b}
        assert reach == members

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 40).flatmap(lambda b: st.tuples(
        st.integers(0, 3 * b), st.just(b), st.integers(1, b + 1))))
    def test_random_closure_and_irredundancy(self, abc):
        a, b, c = abc
        gens = [(t,) for t in numerical_min_gens(a, b, c)]
        window = Window((2 * b,))
        # a + b has the residues of a and is never zero
        members = brute_members(ModularInequality((a + b,), (c,), b), window) | {(0,)}
        assert closure_in_window(gens, window) == members
        for s in gens:
            assert s not in closure_in_window([t for t in gens if t != s], window)

    def test_rejects_negative_a(self):
        with pytest.raises(Exception):
            numerical_min_gens(-3, 11, 1)

    @pytest.mark.parametrize("c", [0, -2])
    def test_rejects_nonpositive_c(self, c):
        with pytest.raises(SemigroupError, match="must have a positive right side"):
            numerical_min_gens(3, 11, c)


class TestPeriodVector:
    def test_worked(self, worked):
        assert period_vector(worked) == (33, 11)

    def test_frobcase(self, frobcase):
        assert period_vector(frobcase) == (2, 2)

    def test_alltrue(self, alltrue):
        assert period_vector(alltrue) == (70, 5)

    def test_period_preserves_membership(self, worked):
        u = period_vector(worked)
        for x in range(0, 15):
            for y in range(0, 15):
                assert worked.member((x, y)) == worked.member((x + u[0], y + u[1]))

    def test_rejects_positive_branch(self):
        with pytest.raises(UnsupportedCase):
            period_vector(ModularInequality((1, 1), (2, 3), 5))


class TestStripGeometry:
    def test_worked(self, worked):
        geo = strip_geometry(worked)
        assert geo.period == (33, 11)
        assert geo.axis_gen == (4, 0)
        assert geo.crossing == (11, 0)
        assert geo.axis == 0
        assert geo.height_index == 1

    def test_frobcase(self, frobcase):
        geo = strip_geometry(frobcase)
        assert geo.period == (2, 2)
        assert geo.axis_gen == (4, 0)
        assert geo.crossing == (10, 0)

    def test_alltrue(self, alltrue):
        geo = strip_geometry(alltrue)
        assert geo.period == (70, 5)
        assert geo.axis_gen == (3, 0)
        assert geo.crossing == (5, 0)

    def test_vertical_strip(self):
        # positive g coefficient on the second axis: the roles flip
        geo = strip_geometry(ModularInequality((2, 3), (-1, 2), 6))
        assert geo.axis == 1
        assert geo.height_index == 0

    def test_axis_helpers_validate(self, worked):
        with pytest.raises(UnsupportedCase):
            axis_generator(worked, 1)

    @pytest.mark.parametrize("axis", [True, 1.0, 2, -1])
    def test_axis_is_the_int_0_or_1(self, axis):
        # g is positive on both axes, so an axis read as 1 would find (0, t)
        positive = ModularInequality((7, 5), (5, 7), 50)
        assert axis_generator(positive, 1)[0] == 0
        with pytest.raises(SemigroupError, match="axis must be the int 0 or 1"):
            axis_generator(positive, axis)

    def test_rejects_positive_branch(self):
        with pytest.raises(UnsupportedCase):
            strip_geometry(ModularInequality((1, 1), (2, 3), 5))

    def test_rejects_three_dimensions(self):
        with pytest.raises(DimensionMismatch, match="p = 3"):
            strip_geometry(ModularInequality((1, 2, 3), (1, -1, 2), 5))


class TestValidationThroughRegime:
    # the period vector and the axis generator take their dimension and sign
    # checks from rays.regime, as the strip geometry does (above)
    HELPERS = [period_vector,
               pytest.param(lambda ineq: axis_generator(ineq, 0), id="axis_generator")]

    @pytest.mark.parametrize("call", HELPERS)
    def test_three_dimensions_name_p(self, call):
        with pytest.raises(DimensionMismatch, match="p = 3"):
            call(ModularInequality((1, 2, 3), (1, -1, 2), 5))

    @pytest.mark.parametrize("call", [*HELPERS, strip_geometry])
    def test_trivial_regime_rejected(self, call):
        with pytest.raises(UnsupportedCase):
            call(ModularInequality((3, 2), (-1, -2), 7))

    def test_ray_keeps_its_period(self):
        # g vanishes on the axis e1, and 6k = 0 mod 9 first at k = 3
        assert period_vector(ModularInequality((6, 1), (0, -1), 9)) == (3, 0)
