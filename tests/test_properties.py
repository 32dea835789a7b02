"""Ring-theoretic verdicts: Apery windows and the three finite criteria."""

from collections import Counter

import pytest
from hypothesis import example, given, settings

from propmod import plane, properties
from propmod.core import ModularInequality, SemigroupError, UnsupportedCase, sort_points
from propmod.frobenius import frobenius_vectors
from propmod.oracle import Window, brute_members
from propmod.plane import GeneratorSet, _strip_apery, _strip_rows, minimal_generators
from propmod.properties import (
    PropertyReport,
    apery_intersection,
    is_buchsbaum,
    is_cohen_macaulay,
    is_gorenstein,
    property_report,
)
from propmod.rays import strip_geometry

from conftest import positive_inequalities, s_order_leq, strip_inequalities
from corpus import MIXED, POSITIVE, label, make

WORKED_MAXIMAL = {(34, 7), (36, 10), (38, 10), (39, 9), (39, 10)}


class TestAperyIntersection:
    def test_alltrue(self, alltrue):
        ap = apery_intersection(alltrue)
        assert ap.period == (70, 5)
        assert ap.axis_generator == (3, 0)
        assert len(ap.elements) == 15
        assert ap.maximal == ((62, 4),)

    def test_frobcase(self, frobcase):
        ap = apery_intersection(frobcase)
        assert set(ap.elements) == {(0, 0), (3, 1), (5, 0), (6, 1),
                                    (7, 0), (8, 1), (10, 0), (13, 1)}
        assert ap.maximal == ((13, 1),)

    def test_worked(self, worked):
        ap = apery_intersection(worked)
        assert len(ap.elements) == 44
        assert set(ap.maximal) == WORKED_MAXIMAL

    def test_free_ray_strip(self):
        # S restricted to the axis: the intersection collapses to the origin
        ap = apery_intersection(ModularInequality((11, 0), (1, -3), 11))
        assert ap.elements == ((0, 0),)
        assert ap.maximal == ((0, 0),)

    def test_elements_are_members_missing_both_steps(self, worked):
        ap = apery_intersection(worked)
        u, ut = ap.period, ap.axis_generator
        for h in ap.elements:
            assert worked.member(h)
            assert not worked.member((h[0] - u[0], h[1] - u[1]))
            assert not worked.member((h[0] - ut[0], h[1] - ut[1]))

    @pytest.mark.parametrize("entry", MIXED[:8], ids=label)
    def test_members_outside_the_window_reach_back(self, entry):
        # beyond the Apery window every member has a member u- or axis-step back
        ineq = make(entry)
        geo = strip_geometry(ineq)
        u, ut = geo.period, geo.axis_gen
        ap = set(apery_intersection(ineq).elements)
        for x in range(46):
            for y in range(46):
                if not ineq.member((x, y)) or (x, y) in ap:
                    continue
                assert (ineq.member((x - u[0], y - u[1]))
                        or ineq.member((x - ut[0], y - ut[1])))


class TestSemigroupOrder:
    def test_reflexive_and_translation(self, worked):
        assert s_order_leq(worked, (4, 0), (4, 0))
        assert s_order_leq(worked, (4, 0), (8, 0))
        assert not s_order_leq(worked, (8, 0), (4, 0))

    def test_transitive_on_samples(self, worked):
        chain = [(0, 0), (4, 0), (9, 0), (13, 0)]
        for a, b, c in zip(chain, chain[1:], chain[2:]):
            assert s_order_leq(worked, a, b) and s_order_leq(worked, b, c)
            assert s_order_leq(worked, a, c)


class TestVerdicts:
    def test_alltrue_all_true(self, alltrue):
        report = property_report(alltrue)
        assert (report.cohen_macaulay, report.gorenstein, report.buchsbaum) \
            == (True, True, True)

    def test_worked(self, worked):
        report = property_report(worked)
        assert report.cohen_macaulay is True
        assert report.gorenstein is False
        assert report.buchsbaum is True
        assert set(report.witnesses["apery_maximal"]) == WORKED_MAXIMAL

    def test_frobcase_gorenstein(self, frobcase):
        ok, maximal = is_gorenstein(frobcase)
        assert ok and maximal == ((13, 1),)

    def test_positive_with_gaps(self):
        ineq = ModularInequality((1, 2), (1, 1), 3)
        cm, witness = is_cohen_macaulay(ineq)
        assert not cm and witness == (0, 1)
        assert is_gorenstein(ineq) == (False, ())
        assert is_buchsbaum(ineq) == (None, None)

    def test_positive_without_gaps_all_true(self):
        ineq = ModularInequality((5, 3), (15, 2), 2)
        report = property_report(ineq)
        assert (report.cohen_macaulay, report.gorenstein, report.buchsbaum) \
            == (True, True, True)

    def test_nonpositive_unsupported(self):
        with pytest.raises(UnsupportedCase):
            property_report(ModularInequality((1, 1), (-1, -1), 7))

    @pytest.mark.parametrize("entry", MIXED + POSITIVE, ids=label)
    def test_gorenstein_implies_cohen_macaulay(self, entry):
        ineq = make(entry)
        if is_gorenstein(ineq)[0]:
            assert is_cohen_macaulay(ineq)[0]

    @pytest.mark.parametrize("entry", MIXED, ids=label)
    def test_strip_always_cm_and_buchsbaum(self, entry):
        ineq = make(entry)
        assert is_cohen_macaulay(ineq)[0] is True
        assert is_buchsbaum(ineq) == (True, True)


def quadratic_maximal(ineq, elements):
    """The maximal elements by the definition of the semigroup order."""
    return tuple(h for h in elements
                 if not any(h2 != h and s_order_leq(ineq, h, h2) for h2 in elements))


class TestAperyLemma:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(strip_inequalities())
    @example(ModularInequality((3, -2), (2, 0), 1))
    @example(ModularInequality((1, 4), (0, 3), 7))
    def test_maximal_matches_quadratic_definition(self, ineq):
        ap = apery_intersection(ineq)
        quadratic = quadratic_maximal(ineq, ap.elements)
        assert ap.maximal == quadratic
        assert property_report(ineq).witnesses["apery_maximal"] == quadratic

    # the corpus band: periods up to height 180, tall cells with generators
    # far along the axis, which the bitmap's row padding must keep apart
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(strip_inequalities(coeff=15, max_b=12))
    @example(ModularInequality((1, -11), (13, -12), 12))  # u_h = 156, one point per row
    @example(ModularInequality((10, 14), (-15, 7), 12))  # the axis is y
    def test_corpus_band_against_definitions(self, ineq):
        ap = apery_intersection(ineq)
        geo = strip_geometry(ineq)
        a, k = geo.axis, geo.height_index
        u, ut = geo.period, geo.axis_gen
        # a window past the rectangle R of the Apery cell lemma on both sides
        top = (ineq.b + ineq.g_of(ut) - 2 - ineq.g[k] * (u[k] - 1)) // ineq.g[a] + ut[a] + 1
        bounds = [0, 0]
        bounds[a], bounds[k] = top, u[k] + 1
        members = brute_members(ineq, Window(tuple(bounds)))
        # differences leaving N^2 leave the window too, and count as outside
        definition = sort_points(h for h in members
                                 if (h[0] - u[0], h[1] - u[1]) not in members
                                 and (h[0] - ut[0], h[1] - ut[1]) not in members)
        assert ap.elements == definition
        assert ap.maximal == quadratic_maximal(ineq, definition)


class TestClosureLemma:
    # the conclusion of the module's closure lemma, read from the oracle and
    # not from the depth scan: every gap x in [0, m]^2, m the largest
    # generator coordinate, has a generator s with x + s outside S, and
    # x + s lies in the window [0, 2m]^2 of the brute-force members
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(strip_inequalities())
    def test_no_gap_lies_in_the_closure(self, ineq):
        gens = minimal_generators(ineq).points
        m = max(map(max, gens))
        members = brute_members(ineq, Window((2 * m, 2 * m)))
        for x in Window((m, m)).points():
            if x not in members:
                assert any((x[0] + s[0], x[1] + s[1]) not in members for s in gens), x


class TestOneReport:
    # the verdict functions read property_report, which walks each strip cell once
    @staticmethod
    def _check_projections(ineq):
        report = property_report(ineq)
        w = report.witnesses
        assert is_cohen_macaulay(ineq) == (report.cohen_macaulay, w["cm_gap"])
        assert is_gorenstein(ineq) == (report.gorenstein, w["apery_maximal"] or ())
        assert is_buchsbaum(ineq) == (report.buchsbaum, w["closure_equals_S"])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(strip_inequalities())
    def test_strip_verdicts_project_the_report(self, ineq):
        self._check_projections(ineq)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(positive_inequalities())
    def test_positive_verdicts_project_the_report(self, ineq):
        self._check_projections(ineq)

    def test_strip_report_walks_the_gap_cell_once(self, worked, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper
        # one read of the Apery cell's rows gives the gap rows too
        monkeypatch.setattr(plane, "_strip_rows", counted("_strip_rows", _strip_rows))
        monkeypatch.setattr(plane, "_member_row", counted("_member_row", plane._member_row))
        # properties may take the geometry from plane without importing it
        for module in (plane, properties):
            monkeypatch.setattr(module, "strip_geometry",
                                counted("strip_geometry", strip_geometry), raising=False)
        property_report(worked)
        # one member row for each height [0, u_h), u = (33, 11)
        assert calls == {"_strip_rows": 1, "_member_row": 11, "strip_geometry": 1}


class TestChecksFire:
    # hide the last minimal generator from the strip checks
    @pytest.fixture
    def drop_last_generator(self, monkeypatch):
        def fewer(ineq, gaps=None):
            geo, apery, gens = _strip_apery(ineq, gaps)
            return geo, apery, GeneratorSet(gens.points[:-1])
        monkeypatch.setattr(properties, "_strip_apery", fewer)

    def test_closure_check_raises(self, worked, drop_last_generator):
        # without the period (33, 11) a gap passes for a member of the closure
        with pytest.raises(SemigroupError, match="closure"):
            is_buchsbaum(worked)
        with pytest.raises(SemigroupError, match="closure"):
            property_report(worked)

    def test_closure_check_needs_the_axis_generator(self, worked, monkeypatch):
        # u alone takes every gap out of the closure, so only the u, u~ in G
        # test sees the axis generator (4, 0) hidden
        def without_axis_generator(ineq, gaps=None):
            geo, apery, gens = _strip_apery(ineq, gaps)
            return geo, apery, GeneratorSet(tuple(s for s in gens if s != geo.axis_gen))
        monkeypatch.setattr(properties, "_strip_apery", without_axis_generator)
        with pytest.raises(SemigroupError, match="closure"):
            property_report(worked)
        with pytest.raises(SemigroupError, match="closure"):
            is_buchsbaum(worked)

    def test_apery_maximality_changes(self, frobcase, drop_last_generator):
        # Gorenstein with maximal element (13, 1); without (7, 0) it is not
        assert is_gorenstein(frobcase) == (False, ((6, 1), (13, 1)))

    def test_depth_check_raises(self, worked, monkeypatch):
        # a row reader that finds no members passes them off as gaps, and
        # they absorb both u and u~
        monkeypatch.setattr(plane, "_member_row", lambda *args: (0, 1))
        with pytest.raises(SemigroupError, match="depth criterion"):
            is_cohen_macaulay(worked)

    def test_axis_generator_check_raises(self, monkeypatch):
        # the gaps are (0, 1) and (1, 1); with (1, 1) read as a member, the
        # gap (0, 1) plus the axis generator (1, 0) is the gap (1, 1)
        ineq = ModularInequality((1, 2), (1, 1), 4)
        read = plane._member_row

        def hide(ineq, axis, h, lo, hi):
            bits, runs = read(ineq, axis, h, lo, hi)
            return (bits | 1 << 1 - lo if (axis, h) == (0, 1) else bits), runs
        monkeypatch.setattr(plane, "_member_row", hide)
        with pytest.raises(SemigroupError, match="absorb both axis generators"):
            is_cohen_macaulay(ineq)
        with pytest.raises(SemigroupError, match="absorb both axis generators"):
            property_report(ineq)


class TestPositiveGapRows:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(positive_inequalities(coeff=3, max_b=100))
    def test_cm_gap_and_delta_against_brute_force(self, ineq):
        # every gap has g <= b - 1, so it lies in [0, b)^2, in rows of 1 to b
        # columns
        window = Window((ineq.b, ineq.b))
        gaps = sort_points(set(window.points()) - brute_members(ineq, window))
        assert property_report(ineq).witnesses["cm_gap"] == (gaps[-1] if gaps else None)
        assert frobenius_vectors(ineq).delta == gaps

    @pytest.mark.parametrize("f,g,b", [((7, 5), (5, 7), 500), ((1, 2), (1, 1), 3),
                                       ((5, 3), (15, 2), 2)])
    def test_reads_each_gap_row_once_and_makes_no_gap_point(self, monkeypatch, f, g, b):
        ineq, reads, read = ModularInequality(f, g, b), Counter(), plane._member_row

        def counted(ineq, axis, h, lo, hi):
            reads[axis, h] += 1
            return read(ineq, axis, h, lo, hi)

        def refuse(*args):
            raise AssertionError("the positive report expanded a gap into a point")
        monkeypatch.setattr(plane, "_member_row", counted)
        for module in (plane, properties):
            monkeypatch.setattr(module, "_points", refuse)
        property_report(ineq)
        assert reads == Counter({(0, y): 1 for y in range((b - 1) // g[1] + 1)})


class TestPositiveWithoutGenerators:
    # the positive criteria shift by the axis generators and compute no
    # minimal generating set
    @pytest.fixture(autouse=True)
    def no_generators(self, monkeypatch):
        def refuse(ineq):
            raise AssertionError("the positive criteria computed the generators")
        monkeypatch.setattr(properties, "_strip_apery", refuse)

    @pytest.mark.parametrize("f,g,b,gap", [
        ((1, 2), (1, 1), 3, (0, 1)),
        ((7, 5), (5, 7), 10, (1, 0)),
    ])
    def test_with_gaps(self, f, g, b, gap):
        ineq = ModularInequality(f, g, b)
        assert is_cohen_macaulay(ineq) == (False, gap)
        assert is_gorenstein(ineq) == (False, ())
        assert is_buchsbaum(ineq) == (None, None)
        assert property_report(ineq) == PropertyReport(
            cohen_macaulay=False, gorenstein=False, buchsbaum=None,
            witnesses={"apery_intersection": None, "apery_maximal": None,
                       "cm_gap": gap, "closure_equals_S": None})

    @pytest.mark.parametrize("f,g,b", [((5, 3), (15, 2), 2), ((9, 6), (5, 11), 9)])
    def test_without_gaps(self, f, g, b):
        ineq = ModularInequality(f, g, b)
        assert is_cohen_macaulay(ineq) == (True, None)
        assert is_gorenstein(ineq) == (True, ((0, 0),))
        assert is_buchsbaum(ineq) == (True, True)
        assert property_report(ineq) == PropertyReport(
            cohen_macaulay=True, gorenstein=True, buchsbaum=True,
            witnesses={"apery_intersection": ((0, 0),), "apery_maximal": ((0, 0),),
                       "cm_gap": None, "closure_equals_S": True})
