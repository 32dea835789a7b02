"""The brute-force reference implementations themselves."""

import pytest
from hypothesis import example, given, settings, strategies as st

from propmod.core import ModularInequality, SemigroupError, sort_points
from propmod.frobenius import frobenius_vectors
from propmod.oracle import (
    MarginError,
    Window,
    brute_members,
    brute_members_grlex,
    brute_min_frobenius,
    closure_in_window,
)

from conftest import (
    brute_min_frobenius_reference,
    closure_reference,
    positive_inequalities,
    strip_inequalities,
)


class TestWindow:
    def test_size_and_contains(self):
        w = Window((3, 4))
        assert w.size() == 20
        assert w.contains((3, 4)) and not w.contains((4, 0))
        assert not w.contains((0, -1))
        assert len(list(w.points())) == 20

    def test_rejects_negative_bounds(self):
        with pytest.raises(SemigroupError):
            Window((3, -1))

    @pytest.mark.parametrize("bounds", [(2.5, True), (3, 4.0), ("3", 4)])
    def test_rejects_non_integer_bounds(self, bounds):
        # (2.5, True) once became the window (2, 1)
        with pytest.raises(SemigroupError, match="integers"):
            Window(bounds)

    def test_rejects_huge_windows(self):
        with pytest.raises(SemigroupError):
            Window((10**4, 10**4))


class TestBruteMembers:
    def test_counts(self, worked):
        assert len(brute_members(worked, Window((20, 20)))) == 53

    def test_matches_member_predicate(self, frobcase):
        got = brute_members(frobcase, Window((15, 15)))
        for x in range(16):
            for y in range(16):
                assert ((x, y) in got) == frobcase.member((x, y))

    def test_dimension_check(self, worked):
        with pytest.raises(SemigroupError):
            brute_members(worked, Window((5, 5, 5)))


class TestClosure:
    def test_contains_zero(self):
        assert (0, 0) in closure_in_window([(2, 1)], Window((4, 4)))

    def test_small_closure(self):
        got = closure_in_window([(2, 0), (0, 3)], Window((4, 6)))
        assert got == {(x, y) for x in (0, 2, 4) for y in (0, 3, 6)}

    def test_rejects_zero_generator(self):
        with pytest.raises(SemigroupError):
            closure_in_window([(0, 0)], Window((3, 3)))

    @pytest.mark.parametrize("gens", [[(1, -1)], [(2, 1), (-1, 3)]])
    def test_rejects_negative_generator(self, gens):
        # [(1, -1)] once gave {(0, 0)} without complaint
        with pytest.raises(SemigroupError, match="nonnegative"):
            closure_in_window(gens, Window((2, 2)))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(SemigroupError):
            closure_in_window([(1, 1, 1)], Window((3, 3)))

    def test_closure_of_gens_stays_inside_s(self, worked):
        from propmod.plane import minimal_generators

        gens = minimal_generators(worked).points
        for x in closure_in_window(gens, Window((30, 30))):
            assert x == (0, 0) or worked.member(x)


@st.composite
def closure_cases(draw):
    """Generators and a window, p from 1 to 4: zero bounds, generators that
    stick out past the window, duplicates and unit vectors included."""
    p = draw(st.integers(1, 4))
    side = (24, 10, 5, 3)[p - 1]
    bounds = draw(st.tuples(*[st.integers(0, side)] * p))
    point = st.tuples(*(st.integers(0, c + 2) for c in bounds)).filter(any)
    gens = draw(st.lists(point, max_size=6))
    gens += [tuple(int(i == k) for i in range(p)) for k in draw(st.sets(st.integers(0, p - 1)))]
    if gens and draw(st.booleans()):
        gens.append(gens[0])
    return gens, Window(bounds)


@st.composite
def member_cases(draw):
    """An inequality and a window, p from 1 to 4.  b up to 60 exceeds every
    window side at p >= 2, so some windows are narrower than one period of
    f along the second-to-last coordinate and reuse no column table."""
    p = draw(st.integers(1, 4))
    form = st.tuples(*[st.integers(-9, 9)] * p).filter(any)
    ineq = ModularInequality(draw(form), draw(form), draw(st.integers(1, 60)))
    side = (40, 14, 6, 4)[p - 1]
    return ineq, Window(draw(st.tuples(*[st.integers(0, side)] * p)))


class TestAgainstReference:
    """The bitmap closure and the residue-class member rows on random inputs."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(closure_cases())
    @example(([(1, 0), (2, 0)], Window((3, 0))))
    @example(([(0, 1), (4, 0)], Window((3, 0))))
    @example(([(0, 0, 1)], Window((0, 0, 5))))
    def test_closure_matches_dynamic_programming(self, case):
        gens, window = case
        assert closure_in_window(gens, window) == closure_reference(gens, window)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(member_cases())
    # one coordinate, where every row prefix is empty, and three
    @example((ModularInequality((3,), (1,), 7), Window((40,))))
    @example((ModularInequality((-3,), (2,), 5), Window((0,))))
    @example((ModularInequality((5, 2, 1), (3, 1, -4), 4), Window((6, 5, 4))))
    @example((ModularInequality((2, -1, 3), (1, 1, -2), 6), Window((3, 0, 7))))
    # residue classes of the rows: f_a = 0 gives period 1, in 2-d and under
    # an outer prefix; gcd(f_a, b) = 3 gives period 3 < 13 rows; b above
    # every bound reuses no table, in 1-d and 2-d
    @example((ModularInequality((0, 5), (2, -1), 7), Window((10, 10))))
    @example((ModularInequality((2, 0, 3), (1, 2, -1), 5), Window((4, 6, 5))))
    @example((ModularInequality((6, 1), (1, 2), 9), Window((12, 8))))
    @example((ModularInequality((7, -3), (2, 1), 50), Window((6, 9))))
    @example((ModularInequality((5,), (1,), 60), Window((12,))))
    def test_members_match_member_predicate(self, case):
        # the grlex tuple is what ``oracle members`` prints, in sort_points's order
        ineq, window = case
        expected = sort_points(x for x in window.points() if ineq.member(x))
        assert brute_members_grlex(ineq, window) == expected
        assert brute_members(ineq, window) == set(expected)


    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.one_of(strip_inequalities(coeff=4, max_b=8), positive_inequalities(coeff=4, max_b=8)),
           st.tuples(st.integers(8, 32), st.integers(8, 32)))
    def test_min_frobenius_matches_window_scan(self, ineq, bounds):
        window = Window(bounds)
        try:
            expected = brute_min_frobenius_reference(ineq, window)
        except MarginError:
            with pytest.raises(MarginError):
                brute_min_frobenius(ineq, window)
        else:
            assert brute_min_frobenius(ineq, window) == expected


class TestBruteFrobenius:
    def test_frobcase(self, frobcase):
        assert brute_min_frobenius(frobcase, Window((40, 40))) == {(9, 1)}

    def test_small_window_raises(self, frobcase):
        with pytest.raises(MarginError):
            brute_min_frobenius(frobcase, Window((8, 8)))

    def test_margin_error_names_the_first_candidate(self):
        # (4, 5) and (5, 3) both pass and both leave the window; the
        # candidates are tried in lexicographic order, not by degree
        ineq = ModularInequality((1, -1), (-1, 2), 8)
        with pytest.raises(MarginError, match=r"^candidate \(4, 5\) passed but its cone leaves"):
            brute_min_frobenius(ineq, Window((10, 10)))

    def test_margin_error_is_a_semigroup_error(self):
        assert issubclass(MarginError, SemigroupError)

    def test_gapless_window_returns_empty(self):
        ineq = ModularInequality((2, 2), (1, 1), 2)  # every point is a member
        assert brute_min_frobenius(ineq, Window((10, 10))) == set()

    @pytest.mark.parametrize("f,g,b,bounds", [
        # the answers are (9, 1) and (0, 1), but these windows hold no gap
        # and cannot certify the cone of S
        ((3, 2), (1, -1), 10, (0, 0)),
        ((1, 2), (1, 1), 3, (0, 0)),
        ((1, 2), (1, 1), 3, (10, 0)),
    ])
    def test_gapless_small_window_raises(self, f, g, b, bounds):
        ineq, window = ModularInequality(f, g, b), Window(bounds)
        with pytest.raises(MarginError):
            brute_min_frobenius(ineq, window)
        with pytest.raises(MarginError):
            brute_min_frobenius_reference(ineq, window)

    @pytest.mark.xfail(strict=True, reason="the oracle prints a vector that fails "
                       "definition_check (see ROADMAP)")
    @pytest.mark.parametrize("f,g,b", [
        # an extra vector at the window's far edge, (0, 30), (8, 0) and
        # (0, 30) here, that moves with the window: the in-window group
        # probe z + m misses the non-members near the edge
        ((4, -3), (1, -2), 6),
        ((13, -1), (-15, 2), 11),
        ((-12, -14), (6, -12), 3),
        # (2, 5) for (35, 82): the period (60, 144) lies outside the window
        # and the cone estimate is too narrow
        ((-7, 10), (12, -5), 12),
    ])
    def test_corpus_strips_against_frobenius(self, f, g, b):
        ineq = ModularInequality(f, g, b)
        got = brute_min_frobenius(ineq, Window((60, 60)))
        assert got == set(frobenius_vectors(ineq).minimal)

    def test_two_dimensions_only(self):
        ineq = ModularInequality((1, 1, 1), (1, 1, 1), 2)
        with pytest.raises(SemigroupError):
            brute_min_frobenius(ineq, Window((5, 5, 5)))
