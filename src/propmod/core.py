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
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Point = tuple[int, ...]
RationalPoint = tuple[Fraction, ...]


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
    # the sort by sum is stable, so it keeps the lexicographic order within a degree
    return tuple(sorted(sorted(set(map(tuple, points))), key=sum))


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
        if not any(dominates(p, q) for q in kept):
            kept.append(p)
    return tuple(kept)


@dataclass(frozen=True)
class GeneratorSet:
    points: tuple[Point, ...]

    @property
    def trivial(self) -> bool:
        """True for S = {0}, the only semigroup without generators."""
        return not self.points

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class ModularInequality:
    """The inequality f(x) mod b <= g(x), with f, g integer forms and b >= 1.

    Both forms must have at least one nonzero coefficient and equal length.
    """

    f: Point
    g: Point
    b: int

    def __post_init__(self) -> None:
        f = tuple(map(_integer, self.f))
        g = tuple(map(_integer, self.g))
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "b", _integer(self.b))
        if len(f) == 0 or len(f) != len(g):
            raise InvalidInequality(
                f"f and g must be nonempty forms of equal length, got {len(f)} and {len(g)}"
            )
        if self.b < 1:
            raise InvalidInequality(f"modulus must be a positive integer, got {self.b}")
        if all(c == 0 for c in f):
            raise InvalidInequality("f must have a nonzero coefficient")
        if all(c == 0 for c in g):
            raise InvalidInequality("g must have a nonzero coefficient")

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
        b / gcd(f(x), b) on the line g = 0, and a scan that ends by
        k = ceil(b / g(x)) when g(x) > 0.  No k exists when g(x) < 0."""
        if gx < 0:
            raise SemigroupError(f"no multiple of a point with g-value {gx} is a member")
        if gx == 0:
            return self.b // gcd(fx, self.b)
        return next(k for k in count(1) if self._holds(k * fx, k * gx))


def _as_fraction(v) -> Fraction:
    """``v`` as an exact rational; an entry of any other type, or a string
    that does not read as one, is rejected under its own name."""
    if isinstance(v, (Fraction, int, str)) and not isinstance(v, bool):
        try:
            return Fraction(v)
        except ZeroDivisionError:
            raise InvalidInequality(f"entry {v!r} has a zero denominator") from None
        except ValueError:
            pass
    raise InvalidInequality(f"expected integer, fraction or 'p/q' string, got {v!r}")


def normalize(f: Sequence, g: Sequence, b) -> ModularInequality:
    """Clear denominators from rational input data.

    Multiplying f, g and b by the least common multiple d of all their
    denominators leaves the solution set untouched: d*f(x) mod d*b <= d*g(x)
    holds exactly when f(x) mod b <= g(x) does.
    """
    fr = [_as_fraction(c) for c in f]
    gr = [_as_fraction(c) for c in g]
    br = _as_fraction(b)
    if br <= 0:
        raise InvalidInequality(f"modulus must be positive, got {br}")
    if len(fr) != len(gr):
        raise InvalidInequality("f and g must have equal length")
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
