"""Minimal generating sets in every dimension.

The plane method in :mod:`propmod.plane` leans on convex geometry that only
exists for two coordinates.  The construction here works for every sign
pattern of g and every dimension p.  f(x) mod b <= g(x) holds exactly when
some r with 0 <= r <= g(x) satisfies r = f(x) (mod b), so S is the
projection onto x of the monoid

    M = {(x, r, s, t) in N^(p+3) : g(x) - r - s = 0,
                                   f'(x) + (b - 1) r - b t = 0},

where f' is f with its coefficients reduced into [0, b).  The first row
says r + s = g(x), the second that r = f'(x) = f(x) (mod b); t >= 0 comes
for free because f' and r are nonnegative.

M is the set of nonnegative solutions of a homogeneous system, so the
difference of two comparable elements stays in M and its Hilbert basis is
its set of minimal nonzero elements, which :func:`hilbert_basis` computes.
Projection is a monoid map onto S, so the projected basis generates S and
contains every minimal generator; one reduction pass finishes the job
(Rosales, Garcia-Sanchez, Garcia-Garcia, Urbano-Blanco, "Proportionally
modular Diophantine inequalities", J. Number Theory 2003).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ModularInequality, Point, mod_reduce, sort_points
from .diophantine import hilbert_basis
from .plane import GeneratorSet, minimalize


@dataclass(frozen=True)
class ConstructionTrace:
    """The sets behind one run of the construction.

    lifted_basis: the Hilbert basis of M, points (x, r, s, t);
    candidates:   its projection onto x;
    generators:   the candidates reduced to the minimal generating set.
    """

    lifted_basis: tuple[Point, ...]
    candidates: tuple[Point, ...]
    generators: GeneratorSet


def _lifted_rows(ineq: ModularInequality) -> list[list[int]]:
    """The two rows of the system whose kernel monoid projects onto S."""
    b = ineq.b
    return [
        list(ineq.g) + [-1, -1, 0],
        [mod_reduce(c, b) for c in ineq.f] + [b - 1, 0, -b],
    ]


def construction_trace(ineq: ModularInequality,
                       cap: int | None = None) -> ConstructionTrace:
    """Run the construction and keep its intermediate sets.

    ``cap`` bounds the completion frontier; None reads PROPMOD_CAP.
    """
    lifted = hilbert_basis(_lifted_rows(ineq), cap=cap).points
    candidates = sort_points(y[: ineq.p] for y in lifted)
    generators = minimalize([(x, ineq.f_of(x), ineq.g_of(x)) for x in candidates], ineq)
    if not generators.points:
        generators = GeneratorSet((), minimal=True, trivial=True)
    return ConstructionTrace(lifted, candidates, generators)


def minimal_generators_general(ineq: ModularInequality,
                               cap: int | None = None) -> GeneratorSet:
    """Minimal generating set, computed without plane-specific geometry."""
    return construction_trace(ineq, cap).generators
