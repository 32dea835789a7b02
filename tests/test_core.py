"""Data model: Euclidean remainder, orders, membership, normalization,
value semantics."""

import copy
import pickle
import sys
from fractions import Fraction
from itertools import count
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

import propmod
from propmod.core import (
    CapExceeded,
    DimensionMismatch,
    GeneratorSet,
    InvalidInequality,
    ModularInequality,
    SemigroupError,
    dominates,
    enumeration_cap,
    grlex_key,
    inequality_from_json,
    inequality_to_json,
    minimal_points,
    mod_reduce,
    normalize,
    read_number,
    sort_points,
)
from propmod.diophantine import DiophSystem, cone_hilbert_basis
from propmod.oracle import Window, closure_in_window
from propmod.rays import numerical_min_gens, restrict_to_ray

WORKED = ModularInequality((3, -2), (1, -3), 11)
# Python's int limit on decimal digits, 0 for none; 3.10 before 3.10.7 has none
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


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

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 4).flatmap(lambda p: st.lists(st.tuples(
        *[st.integers(0, 3) | st.sampled_from([0.5, 2.5])] * p), max_size=30)))
    @example([(2, 1), (1, 2), (2, 1), (0, 3), (1, 2), (3, 0), (1, 1)])
    @example([(2.5, 1), (3, 0), (2.5, 1), (2, 2.5)])
    @example([(3,), (1,), (2,), (1,)])
    @example([(1, 0, 2, 1), (0, 1, 1, 1), (1, 1, 2, 1), (0, 1, 1, 1)])
    def test_minimal_points_is_the_definition(self, pts):
        # the distinct points with no other input point below them in every
        # coordinate, in grlex order; the small coordinates give duplicates,
        # and the input comes in any order, floats among the integers
        below = [q for q in set(pts)
                 if not any(r != q and all(a <= c for a, c in zip(r, q)) for r in pts)]
        assert minimal_points(pts) == tuple(sorted(below, key=lambda q: (sum(q), q)))

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

    def test_scan_stops_at_the_cap(self, worked, monkeypatch):
        monkeypatch.setenv("PROPMOD_CAP", "4")
        assert worked.least_multiple(3, 1) == 4
        monkeypatch.setenv("PROPMOD_CAP", "3")
        with pytest.raises(CapExceeded, match="least-multiple scan passes 3 steps"):
            worked.least_multiple(3, 1)

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


def fraction_normalize(f, g, b) -> ModularInequality:
    """:func:`normalize` with every entry made a Fraction first: the
    reference for entries that are ints, Fractions or numerals."""
    fr, gr, br = [Fraction(c) for c in f], [Fraction(c) for c in g], Fraction(b)
    if br <= 0:
        raise InvalidInequality(f"modulus must be positive, got {br}")
    d = lcm(*(c.denominator for c in fr + gr + [br]))
    return ModularInequality(tuple(int(c * d) for c in fr), tuple(int(c * d) for c in gr),
                             int(br * d))


def outcome(read, f, g, b):
    """The inequality that ``read`` makes of f, g, b, or its error text."""
    try:
        return read(f, g, b)
    except InvalidInequality as exc:
        return str(exc)


NUMERALS = st.one_of(
    st.integers(-30, 30).map(str),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-30, 30), st.integers(1, 12)))
ENTRIES = st.one_of(st.integers(-30, 30), NUMERALS,
                    st.fractions(min_value=-30, max_value=30, max_denominator=12))


class TestNumberTypes:
    def test_integers_stay_ints(self):
        assert type(read_number("-3", rational=True)) is int
        number = read_number("6/4", rational=True)
        assert type(number) is Fraction and number == Fraction(3, 2)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(ENTRIES, ENTRIES), min_size=1, max_size=3), ENTRIES)
    @example([("0/1", 2), (1, "4/2")], 10)
    @example([(3, "0/1"), ("4/2", -1)], "4/2")
    @example([("-0", 2), (1, "-0")], "-0")
    @example([(3, 1), (Fraction(4, 2), -1)], Fraction(0, 1))
    @example([("9" * (INT_DIGITS - 1 if INT_DIGITS else 4299), 1), (1, -1)], "7/3")
    def test_matches_fraction_reference(self, pairs, b):
        """All-integer data builds no Fraction, yet every entry comes out as
        the Fraction-everywhere reference makes it, error texts included."""
        f, g = zip(*pairs)
        assert outcome(normalize, f, g, b) == outcome(fraction_normalize, f, g, b)


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
        # Fraction() reads these; the diagnostic names the key
        ({"f": ["1_0", 2], "g": [1, -1], "b": 10}, "f entry '1_0'"),
        ({"f": [3, 2], "g": [1, "-\u0663"], "b": 10}, "g entry '-\u0663'"),
        ({"f": [3, 2], "g": [1, -1], "b": "1_0/3"}, "b entry '1_0/3'"),
        # and so do whitespace, decimals and exponents
        ({"f": [3, 2], "g": [1, -1], "b": " 10"}, "b entry ' 10'"),
        ({"f": [3, 2], "g": [1, "-1\n"], "b": 10}, "g entry '-1\\n'"),
        ({"f": [3, 2], "g": [1, -1], "b": "10 / 3"}, "b entry '10 / 3'"),
        ({"f": ["1.5", 2], "g": [1, -1], "b": 10}, "f entry '1.5'"),
        ({"f": [3, 2], "g": [1, -1], "b": "1e1"}, "b entry '1e1'"),
        ({"f": [3, "2E0"], "g": [1, -1], "b": 10}, "f entry '2E0'"),
    ])
    def test_rejects_malformed_data(self, data, text):
        with pytest.raises(InvalidInequality) as info:
            inequality_from_json(data)
        assert text in str(info.value)


class TestValueTypes:
    """The validating classes are immutable values: built by keyword or by
    position, equal and hashed by their fields, and shown as
    ``Name(field=value, ...)``."""

    ROW = (((1, -3), 0),)
    # each class, its fields by position and by keyword, and one field changed
    CASES = [
        (ModularInequality, ((3, -2), (1, -3), 11), {"f": (3, -2), "g": (1, -3), "b": 11},
         {"b": 12}),
        (GeneratorSet, (((4, 0), (5, 1)),), {"points": ((4, 0), (5, 1))}, {"points": ()}),
        (Window, ((4, 3),), {"bounds": (4, 3)}, {"bounds": (4, 4)}),
        (DiophSystem, (2, ROW, (), ROW),
         {"p": 2, "equalities": ROW, "congruences": (), "inequalities": ROW},
         {"congruences": (((3, -2), 0, 11),)}),
    ]

    @pytest.mark.parametrize("cls,args,kwargs,_", CASES)
    def test_keyword_and_positional(self, cls, args, kwargs, _):
        by_position, by_keyword = cls(*args), cls(**kwargs)
        assert by_position == by_keyword and hash(by_position) == hash(by_keyword)
        assert {name: getattr(by_keyword, name) for name in kwargs} == kwargs

    @pytest.mark.parametrize("cls,args,kwargs,change", CASES)
    def test_equal_by_value(self, cls, args, kwargs, change):
        first, second = cls(*args), cls(*args)
        assert first is not second and first == second and len({first, second}) == 1
        assert first != cls(**{**kwargs, **change}) and first != tuple(kwargs.values())

    @pytest.mark.parametrize("cls,args,kwargs,_", CASES)
    def test_fields_cannot_be_assigned(self, cls, args, kwargs, _):
        value = cls(*args)
        for name in kwargs:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert value == cls(**kwargs)

    @pytest.mark.parametrize("cls,args,kwargs,_", CASES)
    def test_repr(self, cls, args, kwargs, _):
        fields = ", ".join(f"{name}={value!r}" for name, value in kwargs.items())
        assert repr(cls(*args)) == f"{cls.__name__}({fields})"

    @pytest.mark.parametrize("cls,args,kwargs,_", CASES)
    def test_copy_and_pickle(self, cls, args, kwargs, _):
        value = cls(*args)
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and type(twin) is cls

    def test_system_rows_stay_out_of_equality(self):
        system, twin = DiophSystem(2, self.ROW), DiophSystem(2, [[[1, -3], 0]])
        object.__setattr__(twin, "_rows", (((1, 0), 0, 0),))  # x_1 = 0, read by satisfied_by
        assert system.satisfied_by((3, 1)) and not twin.satisfied_by((3, 1))
        assert system == twin and hash(system) == hash(twin)
        assert "_rows" not in repr(system)

    def test_public_names_resolve(self):
        for name in propmod.__all__:
            assert getattr(propmod, name) is not None, name
