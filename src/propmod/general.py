"""Minimal generating sets in every dimension: the cone cell.

It works for every p and every sign pattern of g: ``gens --method general``
runs it, and :func:`propmod.rays.numerical_min_gens` at p = 1.  In the plane
it is an engine independent of the plane method, against which the tests
compare it in every regime.
Members of S = {x in N^p : f(x) mod b <= g(x)} have g(x) >= 0, so S lies in
the cone monoid C = {x in N^p : g(x) >= 0}, which its Hilbert basis H
generates (Bruns and Gubeladze, Polytopes, Rings, and K-Theory, 2009).  For
h in H let m_h be the least k >= 1 with k h in S
(:meth:`ModularInequality.least_multiple`): b / gcd(b, f(h)) when g(h) = 0,
at most b / g(h) otherwise.  Call x in C reducible when some h in H
has x >= m_h h coordinatewise and either g(h) = 0 or g(x) - m_h g(h) >= b.

Lemma A.  A reducible member x other than m_h h is not a minimal generator.
Proof: y = x - m_h h is a nonzero point of N^p.  If g(h) = 0, then
m_h f(h) = 0 (mod b), so y has the g-value of x and an f-value congruent to
that of x; otherwise g(y) >= b.  Either way y is in S, and x = m_h h + y.

Lemma B.  The walk from 0 by steps in H, expanding only irreducible points,
reaches every irreducible point.  Proof: if x is reducible, so is x + c for
every c in C, as g(c) >= 0.  The prefix sums p of an H-decomposition of an
irreducible x lie in C, and so does x - p, so each p is irreducible.

Lemma C.  Only finitely many points are irreducible.  Proof: each e_i with
g_i > 0 is in H, so an irreducible x has x_i < m_{e_i} or
g(x) < b + m_{e_i} g_i; thus g is bounded on irreducible points.  An infinite
set of them holds a chain x_1 < x_2 < ... (Dickson's lemma), and a limit v
of x_n / |x_n| is a nonzero real point of the cone with g(v) = 0 whose
support holds only coordinates that grow without bound.  The face g = 0 of
the cone is spanned by the h in H with g(h) = 0, as a sum in C has g-value 0
only if every summand does; so one such h has supp h in supp v, and
x_n >= m_h h makes x_n reducible for large n.

So the minimal generators are among the irreducible members and the m_h h,
and one reduction gives the unique minimal generating set (Rosales,
Garcia-Sanchez, Garcia-Garcia and Urbano-Blanco, "Proportionally modular
Diophantine inequalities", J. Number Theory 2003).
"""

from __future__ import annotations

from operator import add, ge
from typing import NamedTuple

from .core import CapExceeded, GeneratorSet, ModularInequality, Point, enumeration_cap
from .diophantine import cone_hilbert_basis
from .plane import minimalize


class ConstructionTrace(NamedTuple):
    """The sets behind one run of the construction.

    cone_basis:   the Hilbert basis H of the cone monoid {g(x) >= 0};
    multiples:    m_h h for each h of cone_basis, in the same order;
    cell_members: the nonzero irreducible members that the walk reached,
                  in walk order (``sort_points`` gives the output order);
    generators:   cell_members and multiples reduced to the minimal set.
    """

    cone_basis: tuple[Point, ...]
    multiples: tuple[Point, ...]
    cell_members: tuple[Point, ...]
    generators: GeneratorSet


def construction_trace(ineq: ModularInequality) -> ConstructionTrace:
    """Walk the cone cell and keep its intermediate sets.

    PROPMOD_CAP bounds the cone-basis completion and the points the walk
    visits.
    """
    limit, holds = enumeration_cap(), ineq._holds
    basis = cone_hilbert_basis(ineq.g).points
    steps = [(h, ineq.f_of(h), ineq.g_of(h)) for h in basis]
    multiples, cuts = [], []
    for h, fh, gh in steps:
        m = ineq.least_multiple(fh, gh)
        multiples.append((tuple(m * c for c in h), m * fh, m * gh))
        # x is reducible by h when x >= m_h h and g(x) reaches the floor;
        # every walked point has g(x) >= 0, so the floor 0 means g(h) = 0
        cuts.append((multiples[-1][0], ineq.b + m * gh if gh else 0))

    origin = (0,) * ineq.p
    seen, cell, members = {origin}, [(origin, 0, 0)], []
    for x, fx, gx in cell:  # the list grows while it is read: a breadth-first queue
        if any(gx >= floor and all(map(ge, x, top)) for top, floor in cuts):
            continue
        if holds(fx, gx) and any(x):
            members.append((x, fx, gx))
        for h, fh, gh in steps:
            y = tuple(map(add, x, h))
            if y not in seen:
                seen.add(y)
                cell.append((y, fx + fh, gx + gh))
        if len(seen) > limit:
            raise CapExceeded(
                f"the general cone cell passes {limit} points; raise PROPMOD_CAP to go on")

    return ConstructionTrace(basis, tuple(x for x, _, _ in multiples),
                             tuple(x for x, _, _ in members),
                             minimalize(members + multiples, ineq))


def minimal_generators_general(ineq: ModularInequality) -> GeneratorSet:
    """Minimal generating set, computed without plane-specific geometry."""
    return construction_trace(ineq).generators
