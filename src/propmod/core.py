"""Exact data model for proportionally modular inequalities over N^p.

A semigroup here is the solution set S = {x in N^p : f(x) mod b <= g(x)}
for integer linear forms f, g and a positive integer modulus b.  The
remainder is always the Euclidean one (in [0, b)), so membership is well
defined for forms with negative coefficients.  Rational input data is
admitted through :func:`normalize`, which clears denominators without
changing the solution set.

All arithmetic is plain Python integer arithmetic, which is arbitrary
precision; no operation here can silently wrap.
"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction
from math import gcd, lcm
from operator import ge, mul
from typing import Iterable, Sequence

Point = tuple[int, ...]
RationalPoint = tuple[Fraction, ...]
DEFAULT_CAP = 10**6


class SemigroupError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInequality(SemigroupError):
    """The inequality data violates a structural invariant."""


class DimensionMismatch(SemigroupError):
    """A point or form has the wrong number of coordinates."""


class UnsupportedCase(SemigroupError):
    """The computation is outside the hypotheses of the chosen method."""


class CapExceeded(SemigroupError):
    """An intermediate set grew past the configured size cap."""


_NUMERAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")  # [0-9] is ASCII only, unlike \d


def read_number(text: str, rational: bool = False) -> int | Fraction | None:
    """The one reader of numbers written as text: an optional sign and ASCII
    digits, read as an int, and when ``rational`` also p/q with more ASCII
    digits q, read as a Fraction; text without "/" is an int either way.  Any
    other text, such as " 1", "1_0", "1.0", "1e1" or "\u0661", gives None, as
    does q = 0.  Digits past Python's int limit raise ValueError, naming
    their count and the limit."""
    m = _NUMERAL.fullmatch(text)
    if m is None or (m[2] and not rational):
        return None
    digits = max(len(m[1].lstrip("+-")), len(m[2] or ""))
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if 0 < limit < digits:
        raise ValueError(f"of {digits:,} digits passes Python's int limit of {limit:,} "
                         f"digits; it starts {text[:20]!r}")
    try:
        return Fraction(int(m[1]), int(m[2])) if m[2] else int(m[1])
    except ZeroDivisionError:
        return None


def enumeration_cap() -> int:
    """The size budget of every enumeration, a positive integer: the
    PROPMOD_CAP environment variable when set and nonempty, else the default."""
    env = os.environ.get("PROPMOD_CAP", "")
    if not env:
        return DEFAULT_CAP
    try:
        cap = read_number(env)
    except ValueError as exc:
        raise ValueError(f"PROPMOD_CAP {exc}") from None
    if cap is None or cap < 1:
        raise ValueError(f"PROPMOD_CAP must be an integer of at least 1, got {env!r}")
    return cap


def mod_reduce(a: int, b: int) -> int:
    """Euclidean remainder of ``a`` modulo ``b``, in [0, b) for any sign of ``a``."""
    if b <= 0:
        raise SemigroupError(f"modulus must be positive, got {b}")
    return a % b


def grlex_key(x: Sequence[int]) -> tuple:
    """Sort key for the graded lexicographic order used in all output."""
    return (sum(x), tuple(x))


def sort_points(points: Iterable[Sequence[int]]) -> tuple[Point, ...]:
    """The distinct integer points of ``points`` as tuples, in graded
    lexicographic order.  Coordinates are taken as they are, not converted."""
    # dedup in input order, so sorted runs stay runs; the stable sort by sum keeps lex order
    return tuple(sorted(sorted(dict.fromkeys(map(tuple, points))), key=sum))


def _integer(v) -> int:
    """``v`` itself when it is an int; anything else, a bool included, is
    rejected rather than truncated."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise InvalidInequality(f"entries must be integers, got {v!r}")
    return v


def dominates(a: Sequence[int], b: Sequence[int]) -> bool:
    """True when a >= b coordinatewise (product order)."""
    return all(ai >= bi for ai, bi in zip(a, b))


def minimal_points(points: Iterable[Sequence[int]]) -> tuple[Point, ...]:
    """The antichain of coordinatewise-minimal elements of the integer
    points ``points``, in the order of :func:`sort_points`."""
    kept: list[Point] = []
    for p in sort_points(points):
        for q in kept:  # q <= p coordinatewise implies it lexicographically
            if q <= p and all(map(ge, p, q)):
                break
        else:
            kept.append(p)
    return tuple(kept)


class _Value:
    """Immutable value semantics from the fields named in ``_fields``:
    equality, hash, copy and pickle go by all of them, the repr by the first
    ``_shown``.  ``__init__`` takes them in that order and sets them with
    ``object.__setattr__``; no field can be assigned or deleted after that."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _shown: int | None = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields[:self._shown])
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class GeneratorSet(_Value):
    __slots__ = _fields = ("points",)

    def __init__(self, points: tuple[Point, ...]) -> None:
        object.__setattr__(self, "points", points)

    @property
    def trivial(self) -> bool:
        """True for S = {0}, the only semigroup without generators."""
        return not self.points

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)


class ModularInequality(_Value):
    """The inequality f(x) mod b <= g(x), with f, g integer forms and b >= 1.

    Both forms must have at least one nonzero coefficient and equal length.
    """

    __slots__ = _fields = ("f", "g", "b")

    def __init__(self, f: Sequence[int], g: Sequence[int], b: int) -> None:
        f = tuple(map(_integer, f))
        g = tuple(map(_integer, g))
        b = _integer(b)
        if len(f) == 0 or len(f) != len(g):
            raise InvalidInequality(
                f"f and g must be nonempty forms of equal length, got {len(f)} and {len(g)}"
            )
        if b < 1:
            raise InvalidInequality(f"modulus must be a positive integer, got {b}")
        if all(c == 0 for c in f):
            raise InvalidInequality("f must have a nonzero coefficient")
        if all(c == 0 for c in g):
            raise InvalidInequality("g must have a nonzero coefficient")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "b", b)

    @property
    def p(self) -> int:
        return len(self.f)

    def _check_dim(self, x: Sequence[int]) -> None:
        if len(x) != self.p:
            raise DimensionMismatch(f"point of length {len(x)} against dimension {self.p}")

    def f_of(self, x: Sequence[int]) -> int:
        self._check_dim(x)
        return sum(map(mul, self.f, x))

    def g_of(self, x: Sequence[int]) -> int:
        self._check_dim(x)
        return sum(map(mul, self.g, x))

    def member(self, x: Sequence[int]) -> bool:
        """Whether x lies in S.  Points outside N^p are never members."""
        self._check_dim(x)
        if any(c < 0 for c in x):
            return False
        return self._holds(sum(map(mul, self.f, x)), sum(map(mul, self.g, x)))

    def _holds(self, fx: int, gx: int) -> bool:
        """The inequality for a point of N^p given by its values f(x), g(x).

        Any g(x) >= b holds, since the remainder is below b.  Walks that
        know the values of their points test membership here directly.
        """
        return gx >= 0 and fx % self.b <= gx

    def least_multiple(self, fx: int, gx: int) -> int:
        """The least k >= 1 with k x in S, for x in N^p given by f(x), g(x):
        b / gcd(f(x), b) on the line g = 0, else a scan that ends by ceil(b / g(x))
        and stops past :func:`enumeration_cap` steps.  No k exists when g(x) < 0."""
        if gx < 0:
            raise SemigroupError(f"no multiple of a point with g-value {gx} is a member")
        if gx == 0:
            return self.b // gcd(fx, self.b)
        cap = enumeration_cap()
        for k in range(1, cap + 1):
            if self._holds(k * fx, k * gx):
                return k
        raise CapExceeded(f"the least-multiple scan passes {cap} steps; raise PROPMOD_CAP to go on")


def _rational(v, key: str) -> int | Fraction:
    """``v``, an entry of ``key``, as an exact rational: an int or a Fraction
    as it is, or what :func:`read_number` reads from a string, an int or p/q.
    Any other entry, a bool or a float included, is rejected under its own
    name and key."""
    try:
        x = read_number(v, rational=True) if isinstance(v, str) else v
    except ValueError as exc:
        raise InvalidInequality(f"{key} entry {exc}") from None
    if isinstance(x, (Fraction, int)) and not isinstance(x, bool):
        return x
    raise InvalidInequality(f"{key} entry {v!r} is not written in plain ASCII digits as int or p/q")


def normalize(f: Sequence, g: Sequence, b) -> ModularInequality:
    """Clear denominators from rational input data.

    Multiplying f, g and b by the least common multiple d of all their
    denominators leaves the solution set untouched: d*f(x) mod d*b <= d*g(x)
    holds exactly when f(x) mod b <= g(x) does.  Integer entries stay ints,
    whose denominator is 1, so all-integer data builds no Fraction; every
    entry, a Fraction p/1 included, still becomes ``int(c * d)``.
    """
    fr = [_rational(c, "f") for c in f]
    gr = [_rational(c, "g") for c in g]
    br = _rational(b, "b")
    if br <= 0:
        raise InvalidInequality(f"modulus must be positive, got {br}")
    d = lcm(*(c.denominator for c in fr + gr + [br]))
    return ModularInequality(
        tuple(int(c * d) for c in fr),
        tuple(int(c * d) for c in gr),
        int(br * d),
    )


def inequality_to_json(ineq: ModularInequality) -> dict:
    return {"f": list(ineq.f), "g": list(ineq.g), "b": ineq.b}


JSON_KEYS = ("f", "g", "b")


def inequality_from_json(data: dict | str) -> ModularInequality:
    """Read an inequality from a dict or JSON text {"f": [...], "g": [...], "b": ...}.

    Entries may be integers or "p/q" strings; the result is normalized.  Data
    that is not an object, any other key, and an f or g that is not a list
    are rejected, so nothing is dropped or read letter by letter.
    """
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise InvalidInequality(
            f"an inequality must be a JSON object, got {type(data).__name__}")
    for key in JSON_KEYS:
        if key not in data:
            raise InvalidInequality(f"missing key {key!r} in inequality data")
    for key in data:
        if key not in JSON_KEYS:
            raise InvalidInequality(
                f"unknown inequality key {key!r}; expected one of {', '.join(JSON_KEYS)}")
    for key in ("f", "g"):
        if not isinstance(data[key], list):
            raise InvalidInequality(f"{key} must be a list, got {data[key]!r}")
    return normalize(data["f"], data["g"], data["b"])
