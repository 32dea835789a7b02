"""Frobenius vectors: the group of S, definition check, exactness."""

from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from propmod import frobenius, plane
from propmod.core import (
    ModularInequality,
    SemigroupError,
    UnsupportedCase,
    minimal_points,
    sort_points,
)
from propmod.frobenius import (
    _checked_unique_minimal,
    _context,
    definition_check,
    frobenius_vectors,
)
from propmod.oracle import Window, brute_members, brute_min_frobenius
from propmod.plane import minimal_generators
from propmod.rays import strip_geometry

from conftest import (
    frobenius_reference,
    positive_inequalities,
    shrunk_period_strips,
    strip_inequalities,
)
from corpus import CORPUS, MIXED, label, make


class TestGroupLemma:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.one_of(strip_inequalities(), positive_inequalities()))
    def test_generators_span_the_integer_lattice(self, ineq):
        # the gcd of the 2 x 2 minors of the generators is the index of the
        # lattice they span in Z^2; G(S) = Z^2 makes it 1
        gens = minimal_generators(ineq).points
        index = 0
        for i, a in enumerate(gens):
            for c in gens[i + 1:]:
                index = gcd(index, a[0] * c[1] - a[1] * c[0])
        assert index == 1


class TestDefinitionCheck:
    def test_minimal_vector_passes(self, frobcase):
        assert definition_check(frobcase, (9, 1))

    def test_translates_pass(self, frobcase):
        # translation by the period preserves the Frobenius property
        assert definition_check(frobcase, (11, 3))
        assert definition_check(frobcase, (13, 5))

    def test_members_fail(self, frobcase):
        assert not definition_check(frobcase, (10, 0))

    def test_smaller_gaps_fail(self, frobcase):
        assert not definition_check(frobcase, (1, 0))

    def test_rejects_points_outside_the_quadrant(self, frobcase):
        with pytest.raises(SemigroupError):
            definition_check(frobcase, (-1, 2))

    @pytest.mark.parametrize("q", [(9.7, 1), (9, True), ("9", 1)])
    def test_rejects_non_integer_points(self, frobcase, q):
        # 9.7 must not be truncated to the Frobenius vector (9, 1)
        with pytest.raises(SemigroupError, match="integers"):
            definition_check(frobcase, q)

    @pytest.mark.parametrize("g", [(-1, -1), (0, -3)])
    def test_validates_before_it_reads(self, g):
        # (0, 0) is a member, so a check that tested membership first would
        # return False where the trivial and ray regimes must raise
        with pytest.raises(UnsupportedCase):
            definition_check(ModularInequality((1, 1), g, 7), (0, 0))

    def test_worked(self, worked):
        assert definition_check(worked, (30, 7))
        assert definition_check(worked, (63, 18))  # + period (33, 11)
        assert not definition_check(worked, (3, 0))


class TestFrobeniusVectors:
    def test_frobcase(self, frobcase):
        report = frobenius_vectors(frobcase)
        assert len(report.delta) == 13
        assert report.frobenius_vectors == ((9, 1),)
        assert report.minimal == ((9, 1),)
        assert report.group_basis == ((1, 0), (0, 1))

    def test_worked(self, worked):
        report = frobenius_vectors(worked)
        assert len(report.delta) == 60
        assert report.minimal == ((30, 7),)

    def test_alltrue(self, alltrue):
        report = frobenius_vectors(alltrue)
        assert len(report.delta) == 12
        assert report.minimal == ((59, 4),)

    def test_positive_branch(self):
        report = frobenius_vectors(ModularInequality((1, 2), (1, 1), 3))
        assert report.delta == ((0, 1),)
        assert report.minimal == ((0, 1),)

    def test_gapless_strip_has_no_frobenius_vector(self):
        report = frobenius_vectors(ModularInequality((1, -1), (1, -1), 2))
        assert report.delta == ()
        assert report.minimal == ()

    def test_nonpositive_branch_unsupported(self):
        with pytest.raises(UnsupportedCase):
            frobenius_vectors(ModularInequality((1, 1), (-1, -1), 7))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(positive_inequalities(coeff=9, max_b=150), strip_inequalities(max_b=40)))
    def test_running_minimum_is_the_antichain(self, ineq):
        # positive cells past the band walk's reach hold antichains of up to
        # a hundred vectors; the strips run the same walk along either axis
        report = frobenius_vectors(ineq)
        assert report.minimal == minimal_points(report.frobenius_vectors)

    @pytest.mark.parametrize("entry", MIXED, ids=label)
    def test_strip_minimum_is_unique(self, entry):
        report = frobenius_vectors(make(entry))
        if report.delta:
            assert len(report.minimal) == 1
        else:
            assert report.minimal == ()

    @pytest.mark.parametrize("entry", MIXED, ids=label)
    def test_passers_live_in_delta(self, entry):
        report = frobenius_vectors(make(entry))
        assert set(report.frobenius_vectors) <= set(report.delta)
        assert set(report.minimal) <= set(report.frobenius_vectors)


class TestDeltaFromRows:
    @pytest.mark.parametrize("entry", CORPUS, ids=label)
    def test_delta_size_counts_delta(self, entry):
        ineq = make(entry)
        if max(ineq.g) <= 0:
            with pytest.raises(UnsupportedCase):
                frobenius_vectors(ineq)
        else:
            report = frobenius_vectors(ineq)
            assert report.delta_size == len(report.delta)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(strip_inequalities(max_b=24))
    def test_strip_delta_in_grlex_order_along_either_axis(self, ineq):
        # the inequality and its mirror image read their rows along both axes
        for f, g in ((ineq.f, ineq.g), (ineq.f[::-1], ineq.g[::-1])):
            case = ModularInequality(f, g, ineq.b)
            axis, gaps, _, _ = _context(case)
            points = plane._points(case, axis, gaps)
            assert frobenius_vectors(case).delta == sort_points(z for z, _, _ in points)


class TestOracleAgreement:
    @pytest.mark.parametrize("f,g,b,window", [
        ((3, 2), (1, -1), 10, (40, 40)),
        ((3, -2), (1, -3), 11, (150, 50)),
        ((1, 2), (1, 1), 3, (30, 30)),
        ((7, -1), (1, -14), 5, (220, 16)),
    ])
    def test_brute_force_agrees(self, f, g, b, window):
        ineq = ModularInequality(f, g, b)
        exact = frobenius_vectors(ineq).minimal
        assert brute_min_frobenius(ineq, Window(window)) == set(exact)


class TestRandomPositive:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(positive_inequalities())
    def test_vectors_are_the_gaps_with_nothing_above(self, ineq):
        # every gap has g <= b - 1, so it lies in [0, b)^2; the group of S is
        # Z^2 and its cone N^2, so a gap is a Frobenius vector exactly when
        # no gap lies strictly above-right of it
        window = Window((ineq.b, ineq.b))
        gaps = sort_points(set(window.points()) - brute_members(ineq, window))
        report = frobenius_vectors(ineq)
        assert report.delta == gaps
        assert report.delta_size == len(gaps)
        assert report.group_basis == ((1, 0), (0, 1))
        assert report.frobenius_vectors == tuple(
            q for q in gaps if not any(z[0] > q[0] and z[1] > q[1] for z in gaps))


class TestAgainstBandWalk:
    """The row table against one walk of the cell above each candidate gap."""

    @staticmethod
    def _agree(ineq):
        report = frobenius_vectors(ineq)
        assert (report.delta, report.frobenius_vectors, report.minimal) == frobenius_reference(ineq)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(strip_inequalities(max_b=24))
    def test_strip(self, ineq):
        self._agree(ineq)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(shrunk_period_strips())
    def test_strip_with_a_shrunk_period(self, ineq):
        self._agree(ineq)

    @pytest.mark.parametrize("b", [7, 11, 14, 21, 30, 35, 49, 70])
    def test_worked_family(self, b):
        # b a multiple of f(3, 1) = 7 shrinks the period from b (3, 1) to (b / 7) (3, 1)
        self._agree(ModularInequality((3, -2), (1, -3), b))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(positive_inequalities(max_b=24))
    def test_positive(self, ineq):
        self._agree(ineq)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.one_of(strip_inequalities(coeff=3, max_b=8), positive_inequalities(coeff=3, max_b=8)))
    def test_definition_check_on_every_gap(self, ineq):
        report = frobenius_vectors(ineq)
        passed = set(report.frobenius_vectors)
        assert all(definition_check(ineq, q) == (q in passed) for q in report.delta)


class TestRowReads:
    @pytest.mark.parametrize("f,g,b", [((7, 5), (5, 7), 500), ((7, 5), (5, 6), 300),
                                       ((3, -2), (1, -3), 60), ((3, 2), (1, -1), 10),
                                       ((1, 4), (0, 3), 7)])
    def test_reads_each_candidate_row_once(self, monkeypatch, f, g, b):
        ineq, reads, read = ModularInequality(f, g, b), Counter(), plane._member_row

        def counted(ineq, axis, h, lo, hi):
            reads[axis, h] += 1
            return read(ineq, axis, h, lo, hi)
        monkeypatch.setattr(plane, "_member_row", counted)
        # the strip's unique-minimal check reads the rows above its vector too
        monkeypatch.setattr(frobenius, "definition_check", lambda ineq, q: True)
        frobenius_vectors(ineq)
        if min(g) > 0:  # the gap cell, rows y with g2 y <= b - 1
            rows = [(0, y) for y in range((b - 1) // g[1] + 1)]
        else:  # heights [0, u_h] of the strip
            geo = strip_geometry(ineq)
            rows = [(geo.axis, h) for h in range(geo.period[geo.height_index] + 1)]
        assert reads == Counter(rows)


class TestStripVectorLemma:
    # in the strip the vectors are the candidate gaps of the largest g-value
    # (the lemma of the frobenius docstring), found here point by point
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.one_of(strip_inequalities(max_b=40), shrunk_period_strips()))
    def test_vectors_are_the_gaps_of_largest_g_value(self, ineq):
        geo = strip_geometry(ineq)
        a, k = geo.axis, geo.height_index
        gaps: dict[int, list] = {}  # g-value -> the gaps of heights [0, u_h]
        for h in range(geo.period[k] + 1):
            for value in range(ineq.b + 1):
                x, r = divmod(value - ineq.g[k] * h, ineq.g[a])
                point = (x, h) if a == 0 else (h, x)
                if not r and not ineq.member(point):
                    gaps.setdefault(value, []).append(point)
        want = sort_points(gaps[max(gaps)]) if gaps else ()
        assert frobenius_vectors(ineq).frobenius_vectors == want


class TestUniqueMinimalCheck:
    """The strip's consistency check raises instead of returning a wrong answer."""

    @staticmethod
    def _gaps(ineq):
        # the candidate gaps as (point, f, g-value)
        axis, gaps, _, _ = _context(ineq)
        return list(plane._points(ineq, axis, gaps))

    @classmethod
    def _closest(cls, ineq):
        # the candidate gaps of the largest g-value
        gaps = cls._gaps(ineq)
        return [z for z, _, g in gaps if g == max(g for _, _, g in gaps)]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.one_of(strip_inequalities(), shrunk_period_strips()))
    def test_gaps_of_largest_g_value_form_a_chain(self, ineq):
        # the premise of selecting the minimal vector without a tie-break
        gaps = self._gaps(ineq)
        if gaps:
            best_g = max(g for _, _, g in gaps)
            chain = sort_points(z for z, _, g in gaps if g == best_g)
            assert all(a[0] <= c[0] and a[1] <= c[1] for a, c in zip(chain, chain[1:]))

    def test_passes_on_the_computed_minimum(self, worked):
        _checked_unique_minimal(worked, self._closest(worked), ((30, 7),))

    def test_raises_on_another_minimum(self, worked):
        with pytest.raises(SemigroupError, match="unique-minimal"):
            _checked_unique_minimal(worked, self._closest(worked), ((3, 0),))

    def test_raises_when_the_minimum_fails_the_definition(self, worked, monkeypatch):
        # a definition check that rejects (30, 7), the computed minimum
        monkeypatch.setattr(frobenius, "definition_check", lambda ineq, q: False)
        with pytest.raises(SemigroupError, match="unique-minimal"):
            _checked_unique_minimal(worked, self._closest(worked), ((30, 7),))
