"""Data model: Euclidean remainder, orders, membership, normalization."""

from fractions import Fraction
from itertools import count

import pytest
from hypothesis import given, settings, strategies as st

from propmod.core import (
    DimensionMismatch,
    InvalidInequality,
    ModularInequality,
    SemigroupError,
    dominates,
    grlex_key,
    inequality_from_json,
    inequality_to_json,
    minimal_points,
    mod_reduce,
    normalize,
    sort_points,
)
from propmod.diophantine import cone_hilbert_basis, enumeration_cap
from propmod.oracle import Window, closure_in_window
from propmod.rays import numerical_min_gens, restrict_to_ray

WORKED = ModularInequality((3, -2), (1, -3), 11)


class TestModReduce:
    @pytest.mark.parametrize("a,b,want", [
        (7, 5, 2), (-7, 5, 3), (0, 5, 0), (-1, 11, 10), (22, 11, 0), (-22, 11, 0),
    ])
    def test_euclidean_convention(self, a, b, want):
        assert mod_reduce(a, b) == want

    @given(st.integers(-10**9, 10**9), st.integers(1, 10**6))
    def test_always_in_range(self, a, b):
        r = mod_reduce(a, b)
        assert 0 <= r < b
        assert (a - r) % b == 0


class TestOrders:
    def test_grlex_sorts_by_total_then_lex(self):
        pts = [(3, 0), (0, 2), (1, 1), (0, 3), (2, 0)]
        assert sort_points(pts) == ((0, 2), (1, 1), (2, 0), (0, 3), (3, 0))

    def test_sort_points_deduplicates(self):
        assert sort_points([(1, 1), (1, 1)]) == ((1, 1),)

    def test_no_coordinate_is_truncated(self):
        # (2.5, 1) once became (2, 1)
        assert sort_points([(2.5, 1)]) == ((2.5, 1),)
        mins = minimal_points([(2.5, 1), (3, 0)])
        assert mins == ((3, 0), (2.5, 1))
        assert isinstance(mins[1][0], float)

    def test_dominates_is_product_order(self):
        assert dominates((3, 5), (3, 4))
        assert not dominates((3, 4), (4, 3))

    def test_minimal_points_is_antichain(self):
        pts = [(2, 0), (0, 2), (1, 1), (2, 2), (3, 0)]
        mins = minimal_points(pts)
        assert set(mins) == {(2, 0), (0, 2), (1, 1)}
        assert all(not dominates(a, b) for a in mins for b in mins if a != b)

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=40))
    def test_minimal_points_properties(self, pts):
        mins = minimal_points(pts)
        # every input point is dominated by some minimal point
        assert all(any(dominates(p, m) for m in mins) for p in pts)
        assert all(not dominates(a, b) for a in mins for b in mins if a != b)

    @given(st.tuples(st.integers(0, 50), st.integers(0, 50)),
           st.tuples(st.integers(0, 50), st.integers(0, 50)))
    def test_grlex_total_order_refines_dominance(self, a, b):
        if dominates(b, a) and a != b:
            assert grlex_key(a) < grlex_key(b)


class TestValidation:
    def test_b_must_be_positive(self):
        with pytest.raises(InvalidInequality):
            ModularInequality((1, 1), (1, -1), 0)

    def test_forms_must_match(self):
        with pytest.raises(InvalidInequality):
            ModularInequality((1, 2, 3), (1, -1), 5)

    @pytest.mark.parametrize("f,g,b", [
        ((Fraction(1, 2), 1.9), (1, -1), 10.7),  # once became f=(0, 1), b=10
        ((3, 2), (1, -1), 10.0),
        ((True, 2), (1, -1), 10),
        ((3, 2), (1, "-1"), 10),
        ((3, 2), (1, -1), Fraction(10)),
    ])
    def test_non_integer_entries_rejected(self, f, g, b):
        # integer forms only; rationals go through normalize
        with pytest.raises(InvalidInequality, match="integers"):
            ModularInequality(f, g, b)

    def test_zero_forms_rejected(self):
        with pytest.raises(InvalidInequality):
            ModularInequality((0, 0), (1, -1), 5)
        with pytest.raises(InvalidInequality):
            ModularInequality((1, 1), (0, 0), 5)

    def test_point_dimension_checked(self, worked):
        with pytest.raises(DimensionMismatch):
            worked.member((1, 2, 3))


class TestMembership:
    def test_zero_is_always_a_member(self, worked, alltrue, frobcase):
        for ineq in (worked, alltrue, frobcase):
            assert ineq.member((0, 0))

    def test_negative_coordinates_are_never_members(self, worked):
        assert not worked.member((-1, 0))
        assert not worked.member((40, -2))

    def test_halfspace_shortcut(self, worked):
        # g(x) >= b forces membership regardless of the remainder
        assert worked.g_of((22, 0)) >= worked.b
        assert worked.member((22, 0))

    def test_known_members_and_gaps(self, worked, frobcase):
        assert worked.member((33, 11))
        assert worked.member((4, 0))
        assert not worked.member((3, 0))
        assert not worked.member((30, 7))
        assert not frobcase.member((9, 1))
        assert frobcase.member((10, 0))

    @given(st.integers(0, 80), st.integers(0, 80))
    def test_membership_matches_definition(self, x, y):
        ineq = ModularInequality((3, -2), (1, -3), 11)
        gx = ineq.g_of((x, y))
        expected = gx >= 0 and ineq.f_of((x, y)) % 11 <= gx
        assert ineq.member((x, y)) == expected


class TestLeastMultiple:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(-60, 60), st.integers(1, 60))
    def test_closed_form_on_the_zero_line(self, fh, b):
        ineq = ModularInequality((1,), (1,), b)
        assert ineq.least_multiple(fh, 0) == next(k for k in count(1) if (k * fh) % b == 0)

    def test_scan_off_the_zero_line(self, worked):
        # 3 t mod 11 <= t first holds at t = 4
        assert worked.least_multiple(3, 1) == 4

    def test_negative_g_has_no_multiple(self, worked):
        with pytest.raises(SemigroupError, match="no multiple"):
            worked.least_multiple(3, -1)


class TestIntegerGate:
    """Entry points reject a non-integer or bool rather than truncate it."""

    @pytest.mark.parametrize("fn,args", [
        (restrict_to_ray, (WORKED, (1.9, 0))),
        (restrict_to_ray, (WORKED, (True, 0))),
        (cone_hilbert_basis, ((1.5, -1),)),
        (cone_hilbert_basis, ((),)),
        (closure_in_window, ([(1.9, 0)], Window((3, 0)))),
        (numerical_min_gens, (4, 11, 1.0)),
    ], ids=["ray-float", "ray-bool", "cone-float", "cone-empty", "closure-float",
            "numerical-float"])
    def test_entry_points_reject(self, fn, args):
        with pytest.raises(SemigroupError):
            fn(*args)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_rejected(self, cap, monkeypatch):
        monkeypatch.setenv("PROPMOD_CAP", str(cap))
        with pytest.raises(ValueError, match="at least 1"):
            enumeration_cap()


class TestNormalize:
    def test_clears_denominators(self):
        ineq = normalize(("3/2", -1), ("1/2", "-3/2"), "11/2")
        assert (ineq.f, ineq.g, ineq.b) == ((3, -2), (1, -3), 11)

    def test_integer_input_passes_through(self):
        ineq = normalize((3, -2), (1, -3), 11)
        assert (ineq.f, ineq.g, ineq.b) == ((3, -2), (1, -3), 11)

    def test_rejects_nonpositive_modulus(self):
        with pytest.raises(InvalidInequality):
            normalize((1, 1), (1, -1), "-2/3")

    def test_rejects_junk(self):
        with pytest.raises(InvalidInequality):
            normalize((1.5, 1), (1, -1), 3)

    def test_rejects_bools(self):
        with pytest.raises(InvalidInequality):
            normalize((True, 2), (1, -1), 10)
        with pytest.raises(InvalidInequality):
            inequality_from_json({"f": [3, 2], "g": [1, -1], "b": True})

    @given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 25), st.integers(0, 25))
    def test_scaling_preserves_membership(self, num, den, x, y):
        from fractions import Fraction

        scale = Fraction(num, den)
        base = ModularInequality((3, -2), (1, -3), 11)
        scaled = normalize([scale * c for c in base.f],
                           [scale * c for c in base.g], scale * base.b)
        assert scaled.member((x, y)) == base.member((x, y))

    @pytest.mark.parametrize("f,b,text", [
        (("a", 1), 3, "'a'"),
        ((3, 2), "1/0", "'1/0'"),
        ((3, 2), 0, "got 0"),
        ((3, 2), "-2/3", "got -2/3"),
        ((3, 2), Fraction(-2, 3), "got -2/3"),
    ])
    def test_diagnostic_names_the_entry(self, f, b, text):
        # a package error, not a bare ValueError, and no Fraction repr
        with pytest.raises(InvalidInequality) as info:
            normalize(f, (1, -1), b)
        assert text in str(info.value) and "Fraction(" not in str(info.value)


class TestJson:
    def test_round_trip(self, worked):
        assert inequality_from_json(inequality_to_json(worked)) == worked

    def test_accepts_json_text(self):
        ineq = inequality_from_json('{"f": [7, -1], "g": [1, -14], "b": 5}')
        assert ineq == ModularInequality((7, -1), (1, -14), 5)

    def test_missing_key_is_invalid(self):
        with pytest.raises(InvalidInequality):
            inequality_from_json({"f": [1, 2], "b": 5})

    @pytest.mark.parametrize("data,text", [
        # a misspelled or extra key must not be ignored
        ({"f": [3, 2], "g": [1, -1], "b": 10, "modulus": 5}, "unknown inequality key 'modulus'"),
        ([1, 2], "must be a JSON object, got list"),
        ("[1, 2]", "must be a JSON object, got list"),
        ({"f": 3, "g": [1, -1], "b": 10}, "f must be a list, got 3"),
        # a string is not read letter by letter
        ({"f": [3, 2], "g": "1,-1", "b": 10}, "g must be a list, got '1,-1'"),
        ({"f": ["a", 2], "g": [1, -1], "b": 10}, "'a'"),
        ({"f": [3, 2], "g": [1, -1], "b": "1/0"}, "'1/0'"),
    ])
    def test_rejects_malformed_data(self, data, text):
        with pytest.raises(InvalidInequality) as info:
            inequality_from_json(data)
        assert text in str(info.value)
