"""Restriction of a plane inequality to rational rays, and the strip skeleton.

Restricting S = {x in N^2 : f(x) mod b <= g(x)} to the ray through a
direction w gives a numerical semigroup in the ray parameter: with a' = f(w)
and c' = g(w) for primitive w, the ray members are the t with
(a' t) mod b <= c' t.  Three shapes occur:

* c' > 0: a proportionally modular numerical semigroup;
* c' = 0: the multiples of the least t with a' t = 0 mod b (a free line);
* c' < 0: only 0.

:func:`restrict_to_ray` returns the problem as a :class:`RayRestriction`
(direction, a', c', b); the free line steps by ``ineq.least_multiple(a', 0)``.

The sign pattern of g = (g1, g2) splits every plane computation into four
regimes, and :func:`regime` alone decides which one an inequality is in:

* trivial, g1 < 0 and g2 < 0: only 0 satisfies the inequality;
* ray, g1 <= 0 and g2 <= 0 with a zero coefficient: S is the free ray
  on the axis where g vanishes;
* positive, g1 > 0 and g2 > 0: the complement of S in N^2 is finite;
* strip, mixed signs: S lies in the strip 0 <= g(x) and is invariant
  under adding the period u.

In the strip three distinguished data determine the geometry: the
translation period u on the line g = 0, the smallest nonzero member on the
axis where g is positive, and the rational crossing point of g(x) = b with
that axis.  :func:`period_vector`, :func:`axis_generator` and
:func:`strip_geometry` validate through :func:`regime`: each raises
DimensionMismatch for p != 2 and UnsupportedCase outside its regimes (the
period vector also exists on a ray, whose line g = 0 is an axis).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .core import (
    DimensionMismatch,
    ModularInequality,
    Point,
    RationalPoint,
    SemigroupError,
    UnsupportedCase,
    _integer,
)
from .general import construction_trace


class RayRestriction(NamedTuple):
    """The numerical problem on the ray through ``direction``, which is
    stored primitive."""

    direction: Point
    a_prime: int
    c_prime: int
    b: int


def _primitive(direction: Point) -> Point:
    if len(direction) != 2:
        raise SemigroupError("ray directions live in dimension 2")
    if any(c < 0 for c in direction) or not any(direction):
        raise SemigroupError(f"ray direction must be nonzero and nonnegative, got {direction}")
    d = gcd(direction[0], direction[1])
    return (direction[0] // d, direction[1] // d)


def restrict_to_ray(ineq: ModularInequality, direction: Point) -> RayRestriction:
    if ineq.p != 2:
        raise SemigroupError("ray restriction needs a plane inequality")
    w = _primitive(tuple(map(_integer, direction)))
    return RayRestriction(w, ineq.f_of(w), ineq.g_of(w), ineq.b)


def numerical_min_gens(a: int, b: int, c: int) -> tuple[int, ...]:
    """Minimal generating set of the numerical semigroup {t : (a t) mod b <= c t}.

    It is computed as the p = 1 cone cell of :mod:`propmod.general`.
    """
    a, b, c = map(_integer, (a, b, c))
    if a < 0:
        raise SemigroupError("reduce a modulo b first; negative a is not accepted")
    if c <= 0:
        raise SemigroupError("the ray inequality must have a positive right side")
    # f must be nonzero, and f = b gives a = 0 the same residues
    gens = construction_trace(ModularInequality((a or b,), (c,), b)).generators
    return tuple(t for (t,) in gens)


def regime(ineq: ModularInequality, task: str | None = None) -> str:
    """The shape of S read off the signs of g: "trivial", "ray", "positive"
    or "strip".

    Only plane inequalities have a regime; any other dimension raises
    DimensionMismatch, naming the ``task`` if one is given and the general
    method for generators otherwise.  A ``task`` needs a positive g
    coefficient (the positive or strip regime) and raises UnsupportedCase
    naming it otherwise.
    """
    if ineq.p != 2:
        hint = (f"{task} need a plane inequality" if task is not None
                else "the general method finds generators in any dimension")
        raise DimensionMismatch(f"the plane methods need p = 2, got p = {ineq.p}; {hint}")
    g1, g2 = ineq.g
    if g1 > 0 and g2 > 0:
        return "positive"
    if g1 > 0 or g2 > 0:
        return "strip"
    if task is not None:
        raise UnsupportedCase(
            f"the semigroup is trivial or lies on a line; {task} "
            "need a positive g coefficient")
    return "trivial" if g1 < 0 and g2 < 0 else "ray"


def period_vector(ineq: ModularInequality) -> Point:
    """The generator u of the solutions of {g(x) = 0, f(x) = 0 mod b} in N^2.

    Needs the strip or ray regime, where g has a zero line in the quadrant:
    the ray through d = (|g2|, |g1|)/gcd, and u = k d for the least k >= 1
    with k f(d) = 0 mod b.
    """
    if regime(ineq) in ("trivial", "positive"):
        raise UnsupportedCase("g has no zero line in the quadrant when g1*g2 > 0")
    g1, g2 = ineq.g
    d = _primitive((abs(g2), abs(g1)))
    k = ineq.least_multiple(ineq.f_of(d), 0)
    return (k * d[0], k * d[1])


def axis_generator(ineq: ModularInequality, axis: int) -> Point:
    """The smallest nonzero member of S on coordinate axis ``axis``, where g
    must be positive."""
    regime(ineq, "axis generators")
    if axis not in (0, 1):
        raise SemigroupError(f"axis must be 0 or 1, got {axis}")
    ga = ineq.g[axis]
    if ga <= 0:
        raise UnsupportedCase(f"g is not positive on axis {axis}")
    t = ineq.least_multiple(ineq.f[axis], ga)
    return (t, 0) if axis == 0 else (0, t)


class StripGeometry(NamedTuple):
    """Period u, axis generator and the rational point where g(x) = b meets
    the axis, for a strip-shaped S."""

    period: Point
    axis_gen: Point
    crossing: RationalPoint
    axis: int

    @property
    def height_index(self) -> int:
        """Coordinate transverse to the axis; u is positive there."""
        return 1 - self.axis


def strip_geometry(ineq: ModularInequality) -> StripGeometry:
    if regime(ineq, "strip geometries") == "positive":
        raise UnsupportedCase("not a strip case: both g coefficients are positive")
    axis = 0 if ineq.g[0] > 0 else 1
    crossing = [Fraction(0), Fraction(0)]
    crossing[axis] = Fraction(ineq.b, ineq.g[axis])
    return StripGeometry(
        period=period_vector(ineq),
        axis_gen=axis_generator(ineq, axis),
        crossing=tuple(crossing),
        axis=axis,
    )
