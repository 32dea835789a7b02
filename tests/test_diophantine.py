"""Minimal-solution solver: completeness against window brute force.

A minimal solution inside a box window is also window-minimal, and any
window point dominating a solution dominates one inside the box, so the
computed antichain intersected with a window must equal the brute-force
window minima.  That makes small windows a complete check.
"""

import itertools
import time
from operator import add

import pytest
from hypothesis import example, given, settings, strategies as st

from propmod import diophantine
from propmod.core import CapExceeded, SemigroupError, dominates, minimal_points
from propmod.diophantine import (
    DiophSystem,
    _completion,
    _gram_packing,
    _packing,
    _termination_bound,
    cone_hilbert_basis,
    minimal_solutions,
)


def solves(system, x):
    """Whether x in N^p solves ``system``, read straight from its public
    tables and independent of ``DiophSystem.satisfied_by``."""
    def dot(coeffs):
        return sum(c * v for c, v in zip(coeffs, x))
    return (all(v >= 0 for v in x)
            and all(dot(c) == r for c, r in system.equalities)
            and all((dot(c) - k) % m == 0 for c, k, m in system.congruences)
            and all(dot(c) >= r for c, r in system.inequalities))


def window_minima(system, bound):
    pts = [x for x in itertools.product(range(bound + 1), repeat=system.p)
           if any(x) and solves(system, x)]
    return set(minimal_points(pts))


def random_systems(p, coeff=4):
    """Random systems over N^p of one or two rows of any kind; congruence
    coefficients and right-hand sides may be negative."""
    coeffs = st.tuples(*[st.integers(-coeff, coeff)] * p)
    constraint = st.one_of(
        st.tuples(st.just("equalities"), st.tuples(coeffs, st.integers(-3, 5))),
        st.tuples(st.just("congruences"),
                  st.tuples(coeffs, st.integers(-3, 5), st.integers(1, 6))),
        st.tuples(st.just("inequalities"), st.tuples(coeffs, st.integers(-3, 5))),
    )

    def build(rows):
        kinds = {"equalities": [], "congruences": [], "inequalities": []}
        for kind, row in rows:
            kinds[kind].append(row)
        return DiophSystem(p=p, **{k: tuple(v) for k, v in kinds.items()})
    return st.lists(constraint, min_size=1, max_size=2).map(build)


def reference_completion(rows, n_vars, target, bound, cap):
    """The completion with each Gram vector kept as a tuple and no frozen
    coordinates: the engine that the signed packed layout and the frozen
    masks replaced, kept to check it against."""
    gram = [tuple(sum(r[j] * r[k] for r in rows) for k in range(n_vars)) for j in range(n_vars)]
    zero = (0,) * n_vars
    shift, mask, guard = _packing(n_vars, bound)
    unit = [1 << s for s in shift]
    minimal = []
    by_value = [{} for _ in range(n_vars)]
    frontier = dict(zip(unit, gram))
    level = 1
    while frontier:
        if level > bound:
            raise SemigroupError(
                f"completion passed the certified bound {bound}; this should be unreachable"
            )
        for y, dots in frontier.items():
            if dots == zero:
                minimal.append(y)
                for j, k in enumerate(shift):
                    if v := y >> k & mask:
                        by_value[j].setdefault(v, []).append(y)
        next_frontier = {}
        for y, dots in frontier.items():
            if dots == zero:
                continue
            for j, d in enumerate(dots):
                if d >= 0 or (j == target and y >> shift[j] & mask):
                    continue
                child = y + unit[j]
                if child in next_frontier:
                    continue
                high = child | guard
                if not any((high - s) & guard == guard
                           for s in by_value[j].get(child >> shift[j] & mask, ())):
                    next_frontier[child] = tuple(map(add, dots, gram[j]))
                    if len(next_frontier) > cap:
                        raise CapExceeded(
                            f"completion frontier of {len(next_frontier)} candidates "
                            f"exceeds the cap {cap}"
                        )
        frontier = next_frontier
        level += 1
    return [tuple(y >> k & mask for k in shift) for y in minimal]


def completion_calls(run):
    """The arguments of every completion that ``run()`` starts."""
    calls = []

    def record(*args):
        calls.append(args)
        return _completion(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diophantine, "_completion", record)
        run()
    return calls


def outcome(engine, args, cap):
    """What ``engine`` gives on ``args`` under ``cap``: its sorted list of
    minimal solutions, or the text of its CapExceeded."""
    try:
        return sorted(engine(*args[:-1], cap))
    except CapExceeded as exc:
        return str(exc)


def in_window(points, bound):
    return {x for x in points if all(v <= bound for v in x)}


# the four systems the benchmark's solve ops time: JSON data, the number of
# minimal solutions, and the smallest PROPMOD_CAP that the completion passes
BENCH_SYSTEMS = [
    ({"p": 4, "equalities": [[[3, 1, -4, 2], 0]], "congruences": [[[5, 2, 1, 7], 0, 9]]}, 11, 42),
    ({"p": 4, "equalities": [[[3, -2, 5, -1], 7]], "congruences": [[[1, 4, 2, 3], 3, 11]]}, 30, 136),
    ({"p": 3, "equalities": [[[3, 1, -4], 5]], "congruences": [[[5, 2, 1], 2, 13]]}, 4, 36),
    ({"p": 3, "congruences": [[[5, 2, 1], 0, 17]], "inequalities": [[[3, 1, -4], 2]]}, 8, 96),
]


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

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_satisfied_by_agrees_with_the_tables(self, data):
        p = data.draw(st.integers(1, 4), label="p")
        system = data.draw(random_systems(p, coeff=12), label="system")
        x = data.draw(st.tuples(*[st.integers(-2, 12)] * p), label="x")
        assert system.satisfied_by(x) == solves(system, x)

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
        ({"equalities": [[[1, -3], 0]]}, "missing key 'p'"),
        ({"p": 2, "equalities": 5}, "equalities must be a list of rows, got 5"),
        ({"p": 2, "equalities": {"a": 1}}, "equalities must be a list of rows"),
        ({"p": 2, "equalities": [[5, 0]]}, "coeffs of each equalities row are a list"),
        # the library constructor also takes tuple rows
        ({"p": 2, "equalities": ((5, 0),)}, "coeffs of each equalities row are a list"),
        ({"p": 2, "congruences": [[[1, 2], 0, 0]]}, "modulus must be positive, got 0"),
    ])
    def test_malformed_data_is_named(self, data, text):
        with pytest.raises(SemigroupError) as info:
            DiophSystem.from_json(data)
        assert text in str(info.value)
        if isinstance(data, dict) and "p" in data:
            # the constructor gives the same diagnostic
            with pytest.raises(SemigroupError) as info:
                DiophSystem(**data)
            assert text in str(info.value)

    def test_rows_may_be_lists_or_tuples(self):
        a = DiophSystem(p=2, congruences=[[[3, -2], -11, 11]], inequalities=[([1, 1], 2)])
        b = DiophSystem(p=2, congruences=(((3, -2), 0, 11),), inequalities=(((1, 1), 2),))
        assert a == b
        assert a.congruences == (((3, -2), 0, 11),)

    def test_unknown_key_is_rejected(self):
        # a misspelled key must not silently drop its constraint
        data = {"p": 2, "equalities": [[[1, -3], 0]], "congruence": [[[3, -2], 0, 11]]}
        with pytest.raises(SemigroupError, match="'congruence'"):
            DiophSystem.from_json(data)

    @pytest.mark.parametrize("data,count", [(data, count) for data, count, _ in BENCH_SYSTEMS])
    def test_benchmark_system_sizes(self, data, count):
        system = DiophSystem.from_json(data)
        points = minimal_solutions(system).points
        assert len(points) == count
        assert all(solves(system, x) for x in points)

    @pytest.mark.parametrize("data,cap", [(data, cap) for data, _, cap in BENCH_SYSTEMS])
    def test_benchmark_system_frontiers(self, monkeypatch, data, cap):
        # the smallest PROPMOD_CAP each system passes pins the frontier the
        # cap sees, so a completion that prunes less fails here at once
        system = DiophSystem.from_json(data)
        monkeypatch.setenv("PROPMOD_CAP", str(cap))
        minimal_solutions(system)
        monkeypatch.setenv("PROPMOD_CAP", str(cap - 1))
        with pytest.raises(CapExceeded, match=f"frontier of {cap} candidates exceeds the cap {cap - 1}"):
            minimal_solutions(system)

    def test_wide_coordinate(self):
        # 1000 takes 10 of the 11 value bits of its packed field (bound 2004)
        sys_ = DiophSystem(p=2, equalities=(((1, -1000), 0),))
        assert minimal_solutions(sys_).points == ((1000, 1),)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-3, 6), st.integers(2, 7))
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
        system = data.draw(random_systems(p), label="system")
        bound = (14, 8, 5)[p - 1]
        got = in_window(minimal_solutions(system).points, bound)
        assert got == window_minima(system, bound)


class TestPackedCandidates:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5000), st.lists(st.tuples(st.integers(0, 5001), st.integers(0, 5001)),
                                          min_size=1, max_size=6))
    @example(bound=7, pairs=[(8, 8), (8, 0), (0, 8), (8, 7), (7, 8), (0, 0)])
    def test_guard_bit_test_is_dominance(self, bound, pairs):
        # coordinates in [0, bound + 1], the range of the completion's candidates
        pairs = [(c % (bound + 2), s % (bound + 2)) for c, s in pairs]
        shift, mask, guard = _packing(len(pairs), bound)
        c, s = (tuple(v[i] for v in pairs) for i in (0, 1))
        packed_c, packed_s = (sum(v << k for v, k in zip(y, shift)) for y in (c, s))
        assert tuple(packed_c >> k & mask for k in shift) == c
        assert (((packed_c | guard) - packed_s) & guard == guard) == dominates(c, s)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 40),
           st.lists(st.lists(st.integers(-30, 30), min_size=5, max_size=5), min_size=1, max_size=5),
           st.lists(st.integers(0, 41), min_size=5, max_size=5), st.booleans())
    # y = 8 e_0 meets the edge 8 * 3 = 24 with both signs
    @example(bound=7, gram=[[3, -3], [-3, 1]], y=[8, 0], edge=False)
    def test_signed_fields_hold_the_gram_vector(self, bound, gram, y, edge):
        n = len(gram)
        gram = [row[:n] for row in gram]
        top = max(abs(g) for row in gram for g in row)
        if edge:  # all of the 1-norm on a row holding the largest entry
            j = next(j for j, row in enumerate(gram) if top in map(abs, row))
            y = [(bound + 1) * (i == j) for i in range(n)]
        else:  # a candidate's 1-norm is at most bound + 1
            left, y = bound + 1, y[:n]
            for i, v in enumerate(y):
                y[i] = min(v, left)
                left -= y[i]
        packed, zero, width = _gram_packing(gram, bound)
        dots = zero + sum(v * g for v, g in zip(y, packed))
        d = [sum(v * row[k] for v, row in zip(y, gram)) for k in range(n)]
        assert max(map(abs, d)) <= (bound + 1) * top
        half = 1 << width - 1
        assert 0 <= dots < 1 << n * width
        assert [(dots >> k * width & 2 * half - 1) - half for k in range(n)] == d
        assert [dots >> k * width + width - 1 & 1 for k in range(n)] == [int(v >= 0) for v in d]
        assert (dots == zero) == (not any(d))

    def test_completion_fits_a_tight_bound(self):
        # both minimal solutions of 2a - b - 4c = 0 have 1-norm 3, the bound
        # itself; fields a bit narrower than the layout's carry a coordinate
        # of 2 into the guard bits, and the completion runs past the bound
        got = _completion([[2, -1, -4]], 3, None, 3, 1000)
        assert sorted(got) == [(1, 2, 0), (2, 0, 1)]


class TestReferenceEngine:
    """On every completion that ``solve`` and the cone basis start, the
    engine and the tuple-Gram reference without frozen coordinates find the
    same solutions.  Freezing only removes candidates, so each level of the
    engine is a subset of the reference's: under any cap, where the
    reference passes the engine passes with the same solutions, and where
    the engine raises the reference raises the same CapExceeded text."""

    @staticmethod
    def check(run, caps):
        for args in completion_calls(run):
            assert sorted(_completion(*args)) == sorted(reference_completion(*args))
            for cap in caps:
                got = outcome(_completion, args, cap)
                want = outcome(reference_completion, args, cap)
                if isinstance(want, list):
                    assert got == want
                if isinstance(got, str):
                    assert got == want

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_systems(self, data):
        p = data.draw(st.integers(1, 4), label="p")
        system = data.draw(random_systems(p), label="system")
        caps = data.draw(st.lists(st.integers(1, 300), min_size=1, max_size=3), label="caps")
        self.check(lambda: minimal_solutions(system), caps)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=4),
           st.lists(st.integers(1, 300), min_size=1, max_size=3))
    def test_random_cone_forms(self, g, caps):
        self.check(lambda: cone_hilbert_basis(g), caps)

    @pytest.mark.parametrize("data", [data for data, _, _ in BENCH_SYSTEMS])
    def test_benchmark_systems(self, data):
        system = DiophSystem.from_json(data)
        self.check(lambda: minimal_solutions(system), (1, 50, 100, 150))

    def test_duplicate_children_keep_the_intersection(self):
        # a child made by two parents keeps the intersection of their frozen
        # sets; with the union instead, the completion of this system (p = 5
        # with x0 last, a random search's first case among about 21,000)
        # never reaches the solution (1, 2, 0, 1, 1, 1)
        rows = [[1, 1, 1, -3, -2, 2], [-1, 1, 3, 3, -1, -3]]
        args = (rows, 6, 5, _termination_bound(rows), 10**6)
        got = sorted(_completion(*args))
        assert (1, 2, 0, 1, 1, 1) in got
        assert got == sorted(reference_completion(*args))

    def test_many_rows_hit_the_cap_promptly(self, monkeypatch):
        # 20 inequality rows give n = 4 + 20 + 1 = 25 columns; the steps are
        # listed only for the sign patterns that occur, where a table of all
        # 2^25 would take minutes and gigabytes
        monkeypatch.setenv("PROPMOD_CAP", "1000")
        rows = [([1 + i % 3, -1 - i % 2, i % 4 - 1, 2 - i % 5], 1 + i % 4) for i in range(20)]
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match="frontier of 1001 candidates exceeds the cap 1000"):
            minimal_solutions(DiophSystem(p=4, inequalities=rows))
        assert time.perf_counter() - start < 10


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

