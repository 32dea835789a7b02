"""Plane generators: the four g-sign branches and the oracle cross-check."""

from collections import Counter
from fractions import Fraction
from itertools import count
from operator import ge

import pytest
from hypothesis import example, given, settings, strategies as st

from propmod import general, plane, rays
from propmod.core import (
    CapExceeded, GeneratorSet, ModularInequality, SemigroupError, grlex_key,
    sort_points)
from propmod.general import construction_trace, minimal_generators_general
from propmod.oracle import Window, brute_members, closure_differences, closure_in_window
from propmod.plane import (
    _member_row, _points, _strip_apery, minimal_generators, minimalize)
from propmod.properties import apery_intersection
from propmod.rays import strip_geometry

from conftest import (
    ALLTRUE_GENS, WORKED_GENS, nonpositive_inequalities, positive_inequalities,
    shrunk_period_strips, strip_inequalities)
from corpus import CORPUS, MIXED, NONPOSITIVE, POSITIVE, label, make


class TestBranches:
    def test_worked_example(self, worked):
        gens = minimal_generators(worked)
        assert set(gens.points) == WORKED_GENS
        assert not gens.trivial

    def test_alltrue(self, alltrue):
        gens = minimal_generators(alltrue)
        assert set(gens.points) == ALLTRUE_GENS

    def test_frobcase(self, frobcase):
        assert set(minimal_generators(frobcase).points) == {
            (2, 2), (3, 1), (4, 0), (5, 0), (6, 1), (7, 0)}

    def test_trivial_branch(self):
        gens = minimal_generators(ModularInequality((1, 1), (-1, -1), 7))
        assert gens.trivial and gens.points == ()

    @pytest.mark.parametrize("f,g,b,want", [
        ((2, 0), (0, -5), 4, ((2, 0),)),
        ((5, 1), (-3, 0), 6, ((0, 6),)),
        ((-12, -4), (0, -10), 11, ((11, 0),)),
    ])
    def test_free_ray_branch(self, f, g, b, want):
        gens = minimal_generators(ModularInequality(f, g, b))
        assert gens.points == want and not gens.trivial

    @pytest.mark.parametrize("f,g,b,want", [
        ((5, 3), (15, 2), 2, {(0, 1), (1, 0)}),
        ((2, 7), (3, 5), 6, {(0, 1), (1, 0)}),
        ((1, 2), (1, 1), 3, {(1, 0), (0, 2), (1, 1), (0, 3)}),
    ])
    def test_positive_branch(self, f, g, b, want):
        assert set(minimal_generators(ModularInequality(f, g, b)).points) == want

    def test_output_is_grlex_sorted(self, worked):
        pts = minimal_generators(worked).points
        assert pts == sort_points(pts)


def oldest_first(candidates, ineq):
    """The reference reduction: each candidate, in grlex order, against every
    accepted generator, oldest first, through ``_holds``."""
    accepted = []
    for h, fh, gh in sorted(candidates, key=lambda c: grlex_key(c[0])):
        if any(h) and not any(ineq._holds(fh - fs, gh - gs) and all(map(ge, h, s))
                              for s, fs, gs in accepted):
            accepted.append((h, fh, gh))
    return GeneratorSet(tuple(s for s, _, _ in accepted))


def valued(ineq, points):
    """The points as the (point, f(point), g(point)) triples of minimalize."""
    return [(x, ineq.f_of(x), ineq.g_of(x)) for x in points]


def cone_inequalities(p):
    """Random p-dimensional (f, g, b) with small cone cells."""
    form = st.tuples(*[st.integers(-4, 4)] * p).filter(any)
    return st.builds(ModularInequality, form, form, st.integers(1, 12 if p == 2 else 6))


class TestMinimality:
    @pytest.mark.parametrize("entry", MIXED + POSITIVE, ids=label)
    def test_no_generator_divides_another(self, entry):
        # minimality in the semigroup order: differences of distinct
        # generators are never members (else one would be a proper sum)
        ineq = make(entry)
        pts = minimal_generators(ineq).points
        for a in pts:
            for b in pts:
                if a != b:
                    assert not ineq.member((b[0] - a[0], b[1] - a[1]))

    def test_minimalize_absorbs_redundant_candidates(self, worked):
        gens = minimal_generators(worked).points
        padded = list(gens) + [(8, 0), (9, 0), (37, 11), (66, 22)]
        again = minimalize([(x, worked.f_of(x), worked.g_of(x)) for x in padded], worked)
        assert sort_points(again.points) == sort_points(gens)

    def test_minimalize_empty(self, worked):
        assert minimalize([], worked).points == ()

    def test_minimalize_rejects_non_members(self, worked):
        with pytest.raises(SemigroupError, match="not a member"):
            minimalize([((3, 0), 9, 3)], worked)

    def test_minimalize_rejects_negative_coordinates(self, worked):
        # its values pass the inequality, but (5, -1) lies outside N^2
        assert worked._holds(17, 8)
        with pytest.raises(SemigroupError, match="not a member"):
            minimalize([((5, -1), 17, 8)], worked)

    def test_duplicate_candidate(self, worked):
        # m_h h = (4, 0) for h = (1, 0) is also a walked member of the cone
        # cell, so it comes in twice and must be accepted once
        trace = construction_trace(worked)
        assert (4, 0) in trace.multiples and (4, 0) in trace.cell_members
        candidates = valued(worked, trace.cell_members + trace.multiples)
        got = minimalize(candidates, worked)
        assert got == oldest_first(candidates, worked)
        assert set(got.points) == WORKED_GENS and len(got) == len(WORKED_GENS)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from((2, 3, 4)).flatmap(cone_inequalities),
           st.randoms(use_true_random=False))
    def test_cone_cells_match_oldest_first(self, ineq, rng):
        trace = construction_trace(ineq)
        candidates = valued(ineq, trace.cell_members + trace.multiples)
        want = oldest_first(candidates, ineq)
        assert minimalize(candidates, ineq) == want
        rng.shuffle(candidates)
        assert minimalize(candidates, ineq) == want

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(strip_inequalities(max_b=40), st.randoms(use_true_random=False))
    def test_strip_cells_match_oldest_first(self, ineq, rng):
        geo, apery, gens = _strip_apery(ineq)
        candidates = [*_points(ineq, geo.axis, apery),
                      *valued(ineq, (geo.period, geo.axis_gen))]
        want = oldest_first(candidates, ineq)
        assert gens == want
        rng.shuffle(candidates)
        assert minimalize(candidates, ineq) == want


class TestOracleAgreement:
    # full-corpus agreement runs in the acceptance suite; spot-check here
    @pytest.mark.parametrize("entry", [MIXED[0], MIXED[3], POSITIVE[1],
                                       NONPOSITIVE[1]], ids=label)
    def test_closure_matches_brute_members(self, entry):
        ineq = make(entry)
        gens = minimal_generators(ineq)
        window = Window((45, 45))
        members = brute_members(ineq, window) | {(0, 0)}
        assert closure_in_window(gens.points, window) == members


def old_region(ineq):
    """The strip parallelogram as exact rational geometry: the bounding box
    of its vertices and a test for the closed region.

    The parallelogram is 0, u, u + w + u~, w + u~, where a point
    alpha u + beta (w + u~) is inside exactly when alpha, beta in [0, 1].
    """
    geo = strip_geometry(ineq)
    u = geo.period
    wt = tuple(c + t for c, t in zip(geo.crossing, geo.axis_gen))
    det = u[0] * wt[1] - u[1] * wt[0]

    def inside(x, y):
        alpha = Fraction(x * wt[1] - y * wt[0]) / det
        beta = Fraction(u[0] * y - u[1] * x) / det
        return 0 <= alpha <= 1 and 0 <= beta <= 1
    return (u[0] + wt[0], u[1] + wt[1]), inside


class TestRandomCells:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(strip_inequalities())
    @example(ModularInequality((3, -2), (2, 0), 1))
    @example(ModularInequality((1, 4), (0, 3), 7))
    def test_apery_rows_match_old_region(self, ineq):
        # the Apery elements of the old rational parallelogram, by brute force
        geo = strip_geometry(ineq)
        (x_top, y_top), inside = old_region(ineq)
        members = brute_members(ineq, Window((int(x_top), int(y_top)))) | {(0, 0)}
        want = {h for h in members if inside(*h) and not any(
            ineq.member((h[0] - v[0], h[1] - v[1])) for v in (geo.period, geo.axis_gen))}
        gaps = []
        _, rows, _ = _strip_apery(ineq, gaps)
        u_h = geo.period[geo.height_index]
        assert [h for h, _, _ in rows] == list(range(u_h))
        got = list(_points(ineq, geo.axis, rows))
        assert all((fx, gx) == (ineq.f_of(pt), ineq.g_of(pt)) for pt, fx, gx in got)
        points = [pt for pt, _, _ in got]
        assert len(points) == len(set(points))
        assert set(points) == want
        # the gap rows of the same read: the non-members of heights
        # [0, u_h - 1] and g-values [0, b - 1]
        g_a, g_h = ineq.g[geo.axis], ineq.g[geo.height_index]
        point = (lambda x, h: (x, h)) if geo.axis == 0 else (lambda x, h: (h, x))
        want_gaps = {point(x, h) for h in range(u_h)
                     for x in range((ineq.b - 1 - g_h * h) // g_a + 1)
                     if g_a * x + g_h * h >= 0 and not ineq.member(point(x, h))}
        gap_points = [pt for pt, _, _ in _points(ineq, geo.axis, gaps)]
        assert len(gap_points) == len(set(gap_points))
        assert set(gap_points) == want_gaps


class TestAperyCellLemma:
    # the cone cell of propmod.general knows nothing of the Apery cell
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(strip_inequalities())
    @example(ModularInequality((3, -2), (2, 0), 1))
    @example(ModularInequality((11, 0), (1, -3), 11))
    def test_generators_lie_in_the_apery_cell(self, ineq):
        ap = apery_intersection(ineq)
        steps = {ap.period, ap.axis_generator}
        gens = set(construction_trace(ineq).generators.points)
        assert steps <= gens
        assert gens - steps <= set(ap.elements)


class TestStripCell:
    # the cone cell of propmod.general is the independent engine here
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.one_of(strip_inequalities(coeff=9, max_b=40), shrunk_period_strips()))
    def test_matches_cone_cell_and_oracle(self, ineq):
        gens = minimal_generators(ineq).points
        assert gens == minimal_generators_general(ineq).points
        box = Window((max(x for x, _ in gens), max(y for _, y in gens)))
        assert closure_in_window(gens, box) == brute_members(ineq, box) | {(0, 0)}


class TestPositiveRows:
    # the cone cell of propmod.general is the independent engine here
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(positive_inequalities(coeff=15, max_b=80))
    @example(ModularInequality((1, 1), (1, 1), 1))
    @example(ModularInequality((12, -7), (5, 3), 6))
    @example(ModularInequality((3, 4), (3, 1), 10))
    def test_matches_cone_cell_and_oracle(self, ineq):
        gens = minimal_generators(ineq).points
        assert gens == minimal_generators_general(ineq).points
        box = Window((max(x for x, _ in gens), max(y for _, y in gens)))
        assert closure_in_window(gens, box) == brute_members(ineq, box) | {(0, 0)}

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(positive_inequalities(coeff=15, max_b=80),
                     strip_inequalities(coeff=9, max_b=90)),
           st.integers(0, 1), st.integers(0, 40), st.integers(-5, 60),
           st.one_of(st.integers(-1, 16), st.integers(17, 180)))
    @example(ModularInequality((12, -7), (5, 3), 6), 0, 2, 0, 12)
    @example(ModularInequality((-1, 5), (1, 1), 50), 0, 3, 0, 100)
    @example(ModularInequality((3, -2), (1, -3), 60), 0, 17, 51, 61)
    @example(ModularInequality((20, -13), (-9, 4), 90), 1, 40, 60, 180)
    @example(ModularInequality((3, -2), (9, -3), 40), 0, 7, -5, 3)
    def test_rows_match_member(self, ineq, axis, h, lo, width):
        # the strip rows too: either axis with g > 0 on it, a height
        # coefficient of either sign, windows away from column 0, short
        # windows, and empty ones, which read no run
        if ineq.g[axis] <= 0:
            axis = 1 - axis
        hi = lo + width
        bits, runs = _member_row(ineq, axis, h, lo, hi)
        point = (lambda x: (x, h)) if axis == 0 else (lambda x: (h, x))
        assert bits == sum(1 << (x - lo) for x in range(lo, hi + 1) if ineq.member(point(x)))
        if hi < max(lo, 0):
            assert (bits, runs) == (0, 0)

    # a sum that lands on the axis has both summands on it, so row 0 holds the
    # minimal generators of the numerical semigroup S(0), from the p = 1 cone cell
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(positive_inequalities(coeff=15, max_b=400))
    @example(ModularInequality((499, 5), (1, 1), 1000))
    @example(ModularInequality((5, 499), (1, 1), 1000))
    def test_row_zero_is_the_axis_semigroup(self, ineq):
        (f1, _), (g1, _), b = ineq.f, ineq.g, ineq.b
        row0 = tuple(x for x, y in minimal_generators(ineq).points if y == 0)
        assert row0 == rays.numerical_min_gens(f1 % b, b, g1)

    def test_pinned_large_case(self):
        # 9.5 s in the cone cell; the window is the generators' bounding box
        ineq = ModularInequality((7, 7), (5, 6), 500)
        gens = minimal_generators(ineq).points
        assert len(gens) == 7812
        box = Window((max(x for x, _ in gens), max(y for _, y in gens)))
        assert closure_differences(ineq, gens, box) == (set(), set())

    def test_reach_at_the_default_cap(self, monkeypatch):
        # the adverse slope counts 340,597 runs read and Apery points kept, the
        # most of the positive inputs measured; the swapped inequality counts
        # 94,343 and must give the same generators, swapped
        monkeypatch.delenv("PROPMOD_CAP", raising=False)
        gens = minimal_generators(ModularInequality((499, 5), (1, 1), 1000)).points
        assert len(gens) == 208
        swapped = minimal_generators(ModularInequality((5, 499), (1, 1), 1000)).points
        assert gens == sort_points((y, x) for x, y in swapped)

    @pytest.mark.parametrize("f,g,b", [((7, 5), (5, 7), 500), ((1, 2), (1, 1), 3),
                                       ((12, -7), (5, 3), 6), ((7, 7), (5, 6), 100)])
    def test_reads_each_row_once(self, monkeypatch, f, g, b):
        ineq, reads, read = ModularInequality(f, g, b), Counter(), plane._member_row

        def counted(ineq, axis, h, lo, hi):
            reads[axis, h] += 1
            return read(ineq, axis, h, lo, hi)
        monkeypatch.setattr(plane, "_member_row", counted)
        minimal_generators(ineq)
        t2 = ineq.least_multiple(f[1], g[1])
        assert reads == Counter({(0, r): 1 for r in range((b + t2 * g[1] - 1) // g[1] + 1)})


class TestNonpositiveClosedForm:
    # the cone cell of propmod.general is the independent engine here
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(nonpositive_inequalities(coeff=15, max_b=30))
    @example(ModularInequality((12, -9), (0, -4), 18))
    @example(ModularInequality((7, 0), (-3, 0), 30))
    @example(ModularInequality((-15, 15), (-15, -1), 1))
    def test_matches_cone_cell_and_oracle(self, ineq):
        gens = minimal_generators(ineq).points
        assert gens == minimal_generators_general(ineq).points
        window = Window((2 * ineq.b, 2 * ineq.b))
        assert closure_differences(ineq, gens, window) == (set(), set())

    def test_no_regime_runs_the_cone_cell(self, monkeypatch):
        def refuse(ineq):
            raise AssertionError("the plane method ran the cone cell")
        for module in (general, plane, rays):
            monkeypatch.setattr(module, "construction_trace", refuse, raising=False)
        with pytest.raises(AssertionError, match="cone cell"):
            minimal_generators_general(make(NONPOSITIVE[1]))
        for entry in CORPUS:
            minimal_generators(make(entry))


class TestPositiveAperyLemma:
    # generators from the cone cell, the Apery set from member tests
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(positive_inequalities(coeff=15, max_b=40))
    @example(ModularInequality((7, 5), (5, 7), 40))
    def test_generators_lie_in_the_apery_set(self, ineq):
        t1 = next(k for k in count(1) if ineq.member((k, 0)))
        t2 = next(k for k in count(1) if ineq.member((0, k)))
        (g1, g2), b = ineq.g, ineq.b
        top, right = (b + t2 * g2 - 1) // g2, (b + t1 * g1 - 1) // g1
        steps = {(t1, 0), (0, t2)}
        gens = set(construction_trace(ineq).generators.points)
        assert steps <= gens
        for x, y in gens - steps:
            assert y <= top and x <= right
            assert not ineq.member((x - t1, y)) and not ineq.member((x, y - t2))


class TestCellCap:
    # both trip on the one count of runs read and points kept: 1,494 for the
    # strip's Apery cell and 329 for the positive rows here
    CASES = {((3, -2), (1, -3), 60): ("1000", "plane rows pass 1000"),
             ((7, 5), (5, 7), 500): ("300", r"plane rows pass 300 runs and points at row \d+, "
                                           "where the runs read and points kept make")}

    @pytest.mark.parametrize("f,g,b", list(CASES))
    def test_cells_honour_cap(self, monkeypatch, f, g, b):
        cap, diagnostic = self.CASES[f, g, b]
        monkeypatch.setenv("PROPMOD_CAP", cap)
        with pytest.raises(CapExceeded, match=diagnostic):
            minimal_generators(ModularInequality(f, g, b))

    def test_positive_budget_is_pinned(self, monkeypatch):
        # the smallest cap that passes is exactly the count of runs read and
        # Apery points kept
        ineq = ModularInequality((7, 5), (5, 7), 500)
        monkeypatch.delenv("PROPMOD_CAP", raising=False)
        want = minimal_generators(ineq)
        monkeypatch.setenv("PROPMOD_CAP", "328")
        with pytest.raises(CapExceeded, match="where the runs read and points kept make 329;"):
            minimal_generators(ineq)
        monkeypatch.setenv("PROPMOD_CAP", "329")
        assert minimal_generators(ineq) == want

    def test_short_row_budget_is_pinned(self, monkeypatch):
        # rows of 5 and 6 columns charge their runs read and Apery points
        # kept, as every row does, and no unit per column
        ineq = ModularInequality((3, -2), (9, -3), 40)
        monkeypatch.delenv("PROPMOD_CAP", raising=False)
        want = minimal_generators(ineq)
        monkeypatch.setenv("PROPMOD_CAP", "389")
        with pytest.raises(CapExceeded, match="where the runs read and points kept make 390;"):
            minimal_generators(ineq)
        monkeypatch.setenv("PROPMOD_CAP", "390")
        assert minimal_generators(ineq) == want

    def test_wide_row_stops_before_its_bitmap(self, monkeypatch):
        # each unit of the cap allows a row 64 columns: a wider window raises
        # before the row is read, one of exactly 64 columns a unit is read
        ineq, reads = ModularInequality((7, 5), (5, 7), 500), []
        monkeypatch.setattr(plane, "_member_row", lambda *args: reads.append(args) or (0, 1))
        monkeypatch.setenv("PROPMOD_CAP", "2")
        keep_none = lambda members, n: 0
        with pytest.raises(CapExceeded, match="^the plane rows pass 2 words of 64 columns at "
                                              "row 3, a window of 129 columns;"):
            next(plane._rows(ineq, 0, [(3, -5, 123)], keep_none))
        assert reads == []
        assert list(plane._rows(ineq, 0, [(3, -5, 122)], keep_none)) == [(3, -5, 0)]
        assert reads == [(ineq, 0, 3, -5, 122)]

    def test_empty_rows_count_against_the_cap(self, monkeypatch):
        # an empty window reads no run and keeps no point, so only the count
        # of rows read stops a long run of them, before the row after the cap
        ineq, reads = ModularInequality((7, 5), (5, 7), 500), []
        monkeypatch.setattr(plane, "_member_row", lambda *args: reads.append(args) or (0, 0))
        monkeypatch.setenv("PROPMOD_CAP", "3")
        rows = ((h, 1, 0) for h in range(10))
        with pytest.raises(CapExceeded, match="^the plane rows pass 3 rows read at row 3;"):
            list(plane._rows(ineq, 0, rows, lambda members, n: 0))
        assert [args[2] for args in reads] == [0, 1, 2]
