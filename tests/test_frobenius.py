"""Frobenius vectors: lattice reduction, definition check, exactness."""

import pytest
from hypothesis import given, settings

from propmod.core import ModularInequality, SemigroupError, UnsupportedCase, sort_points
from propmod.frobenius import (
    definition_check,
    frobenius_vectors,
    group_basis,
    in_group,
)
from propmod.oracle import Window, brute_members, brute_min_frobenius
from propmod.plane import cell_gaps, gap_cell, minimal_generators

from conftest import positive_inequalities
from corpus import MIXED, label, make


class TestGroupBasis:
    def test_full_lattice(self, frobcase):
        gens = minimal_generators(frobcase).points
        assert group_basis(gens) == ((1, 0), (0, 1))

    def test_sublattice(self):
        basis = group_basis([(2, 0), (0, 4)])
        assert basis == ((2, 0), (0, 4))
        assert in_group(basis, (6, 8))
        assert not in_group(basis, (6, 9))
        assert not in_group(basis, (3, 4))

    def test_triangular_fold(self):
        basis = group_basis([(3, 1), (5, 2)])
        assert basis[0][0] == 1 and basis[1][0] == 0
        for v in [(3, 1), (5, 2), (-2, -1), (8, 3)]:
            assert in_group(basis, v)

    def test_membership_closed_under_addition(self):
        basis = group_basis([(4, 2), (6, 0)])
        pts = [(4, 2), (6, 0), (10, 2), (-2, 2), (0, 6)]
        for v in pts:
            assert in_group(basis, v)

    def test_rank_deficient_rejected(self):
        with pytest.raises(UnsupportedCase):
            group_basis([(2, 0), (3, 0)])


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
        assert cell_gaps(ineq, gap_cell(ineq)) == gaps
        report = frobenius_vectors(ineq)
        assert report.group_basis == ((1, 0), (0, 1))
        assert report.frobenius_vectors == tuple(
            q for q in gaps if not any(z[0] > q[0] and z[1] > q[1] for z in gaps))
