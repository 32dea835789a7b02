"""Minimal nonnegative solutions of small linear systems with congruences.

The solver handles conjunctions of linear equalities L(x) = c, congruences
L(x) = k mod m and lower bounds L(x) >= c over N^p for p <= 4.  Everything
is rewritten as an equality system:

* a congruence first has its coefficients reduced into [0, m), which keeps
  the solution set and makes the left side nonnegative on N^p, and then gets
  one nonnegative slack t with L(x) - m t = k;
* a lower bound L(x) >= c becomes L(x) - s = c with slack s >= 0;
* a nonzero right-hand side is absorbed into one homogenizing variable x0,
  and the wanted solutions are those with x0 = 1.

The resulting homogeneous system A y = 0 is solved by the breadth-first
completion of Contejean and Devie (Inform. and Comput. 1994), level by
level in the 1-norm: a candidate y grows by a unit step e_j only when the
step decreases the residual, (A y).(A e_j) < 0, and candidates dominating an
already-found solution are pruned.

Pruning lemma: a non-solution y on level L dominates no solution found so
far, so its child y + e_j can dominate a solution s only when s_j = y_j + 1.
Proof: y was checked against every solution of level < L when it was made,
and a solution of level L that y dominated would have y's 1-norm and so
be y, which is no solution.  If y + e_j >= s while y >= s fails, then some
coordinate i has y_i < s_i <= y_i + [i = j], so i = j and s_j = y_j + 1.
So the solutions are indexed by (j, s_j), and a child is tested against
that one bucket only.

Each candidate carries its Gram vector dots[k] = (A y).(A e_k), read off the
Gram matrix of A's columns: the residual test is dots[j] < 0, a child's
vector is dots + gram[j], and y solves the system exactly when dots = 0,
since y . dots = |A y|^2.

Slack coordinates are projected away afterwards and the antichain
re-minimalized.  When zero solves an inhomogeneous system, its lifted image
dominates the images of other solutions, so each minimal nonzero solution is
found as e_i plus a minimal solution of the system shifted by e_i.
Termination is certified by a conservative bound on the 1-norm of minimal
solutions, which the completion checks level by level; the frontier is
capped as it grows.

The completion serves two callers only: ``solve``, and the one-row system
g(x) - s = 0 whose solutions give the Hilbert basis of the cone monoid
{g(x) >= 0} in any dimension, on which the general construction walks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from operator import add, ge
from typing import Sequence

from .core import (
    CapExceeded,
    Point,
    SemigroupError,
    _integer,
    minimal_points,
    mod_reduce,
    sort_points,
)

MAX_DIMENSION = 4
DEFAULT_CAP = 10**6
# the entries of each constraint row, as the README's system table names them
JSON_ROWS = {"equalities": ("coeffs", "c"), "congruences": ("coeffs", "k", "m"),
             "inequalities": ("coeffs", "c")}
JSON_KEYS = ("p", *JSON_ROWS)


def enumeration_cap() -> int:
    """The size budget of every enumeration, a positive integer: the
    PROPMOD_CAP environment variable, else the built-in default."""
    env = os.environ.get("PROPMOD_CAP", "").strip()
    if not env:
        return DEFAULT_CAP
    try:
        cap = int(env)
    except ValueError:
        raise ValueError(f"PROPMOD_CAP must be an integer, got {env!r}") from None
    if cap < 1:
        raise ValueError(f"PROPMOD_CAP must be at least 1, got {cap}")
    return cap


@dataclass(frozen=True)
class DiophSystem:
    """A conjunction of constraints over N^p.

    equalities:   (coeffs, c)     meaning  coeffs . x = c
    congruences:  (coeffs, k, m)  meaning  coeffs . x = k  (mod m)
    inequalities: (coeffs, c)     meaning  coeffs . x >= c
    """

    p: int
    equalities: tuple[tuple[Point, int], ...] = ()
    congruences: tuple[tuple[Point, int, int], ...] = ()
    inequalities: tuple[tuple[Point, int], ...] = ()

    def __post_init__(self) -> None:
        if not 1 <= _integer(self.p) <= MAX_DIMENSION:
            raise SemigroupError(f"dimension must be in [1, {MAX_DIMENSION}], got {self.p}")
        eqs = tuple((tuple(map(_integer, coeffs)), _integer(rhs)) for coeffs, rhs in self.equalities)
        congs = tuple(
            # mod_reduce rejects a modulus below 1
            (tuple(map(_integer, coeffs)), mod_reduce(_integer(k), _integer(m)), m)
            for coeffs, k, m in self.congruences
        )
        ineqs = tuple((tuple(map(_integer, coeffs)), _integer(rhs))
                      for coeffs, rhs in self.inequalities)
        object.__setattr__(self, "equalities", eqs)
        object.__setattr__(self, "congruences", congs)
        object.__setattr__(self, "inequalities", ineqs)
        for coeffs, *_ in eqs + congs + ineqs:
            if len(coeffs) != self.p:
                raise SemigroupError(f"constraint arity {len(coeffs)} does not match p={self.p}")
        if not (eqs or congs or ineqs):
            raise SemigroupError("a system needs at least one constraint")

    def satisfied_by(self, x: Sequence[int]) -> bool:
        if len(x) != self.p or any(v < 0 for v in x):
            return False
        for coeffs, rhs in self.equalities:
            if sum(c * v for c, v in zip(coeffs, x)) != rhs:
                return False
        for coeffs, k, m in self.congruences:
            if sum(c * v for c, v in zip(coeffs, x)) % m != k:
                return False
        for coeffs, rhs in self.inequalities:
            if sum(c * v for c, v in zip(coeffs, x)) < rhs:
                return False
        return True

    @classmethod
    def from_json(cls, data: dict) -> "DiophSystem":
        if not isinstance(data, dict):
            raise SemigroupError(f"a system must be a JSON object, got {type(data).__name__}")
        for key in data:
            if key not in JSON_KEYS:
                raise SemigroupError(
                    f"unknown system key {key!r}; expected one of {', '.join(JSON_KEYS)}"
                )
        rows = {}
        for key, names in JSON_ROWS.items():
            rows[key] = tuple(data.get(key, []))
            for row in rows[key]:
                if not isinstance(row, list) or len(row) != len(names):
                    raise SemigroupError(
                        f"each {key} row is [{', '.join(names)}], got {row!r}")
        return cls(p=data["p"], **{key: tuple((tuple(row[0]), *row[1:]) for row in table)
                                   for key, table in rows.items()})


@dataclass(frozen=True)
class MinimalSolutionSet:
    """The antichain of minimal solutions, sorted graded-lexicographically."""

    points: tuple[Point, ...]
    homogeneous: bool


def _completion(rows: list[list[int]], n_vars: int, target: int | None, bound: int,
                cap: int) -> list[Point]:
    """Minimal nonzero solutions of the homogeneous system rows . y = 0 over N^n.

    ``target`` marks the homogenizing coordinate; candidates never push it
    past 1 (every minimal solution with x0 = 1 is reachable below that cap).
    """
    gram = [tuple(sum(r[j] * r[k] for r in rows) for k in range(n_vars)) for j in range(n_vars)]
    zero = (0,) * n_vars

    minimal: list[Point] = []
    # by_value[j][v]: the minimal solutions s with s_j = v >= 1
    by_value: list[dict[int, list[Point]]] = [{} for _ in range(n_vars)]
    frontier = {tuple(1 if i == j else 0 for i in range(n_vars)): gram[j]
                for j in range(n_vars)}

    level = 1
    while frontier:
        if level > bound:
            raise SemigroupError(
                f"completion passed the certified bound {bound}; this should be unreachable"
            )
        for y, dots in frontier.items():
            if dots == zero:
                # Level order makes same-level solutions incomparable and
                # earlier pruning keeps dominators out, so each one is minimal.
                minimal.append(y)
                for j, v in enumerate(y):
                    if v:
                        by_value[j].setdefault(v, []).append(y)
        next_frontier: dict[Point, tuple[int, ...]] = {}
        for y, dots in frontier.items():
            if dots == zero:
                continue
            for j, d in enumerate(dots):
                if d >= 0:
                    continue  # the step must reduce the residual
                if j == target and y[j]:
                    continue
                child = y[:j] + (y[j] + 1,) + y[j + 1:]
                if child in next_frontier:
                    continue
                # y dominates no solution, so the child can only dominate one
                # that it meets at coordinate j
                if any(all(map(ge, child, s)) for s in by_value[j].get(child[j], ())):
                    continue
                next_frontier[child] = tuple(map(add, dots, gram[j]))
                if len(next_frontier) > cap:
                    raise CapExceeded(
                        f"completion frontier of {len(next_frontier)} candidates "
                        f"exceeds the cap {cap}"
                    )
        frontier = next_frontier
        level += 1
    return minimal


def _termination_bound(rows: list[list[int]]) -> int:
    # Conservative variant of the classical norm bound for minimal solutions
    # of integer systems: n * (1 + max row 1-norm + max |rhs|) ** #rows, with
    # the right-hand sides already folded into the rows here.
    n = max(len(r) for r in rows)
    biggest = max(sum(abs(c) for c in r) for r in rows)
    return n * (1 + biggest) ** len(rows)


def minimal_solutions(system: DiophSystem) -> MinimalSolutionSet:
    """The complete antichain of minimal nonzero solutions of ``system``.

    The zero solution is never reported; an infeasible system yields an
    empty set.  PROPMOD_CAP bounds the completion frontier (see
    :func:`enumeration_cap`).
    """
    if any(c for _, c in system.inequalities) and system.satisfied_by((0,) * system.p):
        # Zero solves this inhomogeneous system, so in the lifted system its
        # image dominates the images of many nonzero solutions.
        return _nonzero_minima(system)
    n_slack = len(system.congruences) + len(system.inequalities)
    rhs: list[int] = []
    rows: list[list[int]] = []
    slack_at = system.p
    for coeffs, c in system.equalities:
        rows.append(list(coeffs) + [0] * n_slack)
        rhs.append(c)
    for coeffs, k, m in system.congruences:
        row = [mod_reduce(c, m) for c in coeffs] + [0] * n_slack
        row[slack_at] = -m
        slack_at += 1
        rows.append(row)
        rhs.append(k)
    for coeffs, c in system.inequalities:
        row = list(coeffs) + [0] * n_slack
        row[slack_at] = -1
        slack_at += 1
        rows.append(row)
        rhs.append(c)

    homogeneous = all(c == 0 for c in rhs)
    if homogeneous:
        n_vars = system.p + n_slack
        target = None
    else:
        n_vars = system.p + n_slack + 1
        target = n_vars - 1
        for row, c in zip(rows, rhs):
            row.append(-c)

    lifted = _completion(rows, n_vars, target, _termination_bound(rows), enumeration_cap())
    if homogeneous:
        projected = [y[: system.p] for y in lifted]
    else:
        projected = [y[: system.p] for y in lifted if y[target] == 1]
    projected = [x for x in projected if any(x)]
    return MinimalSolutionSet(minimal_points(projected), homogeneous)


def _nonzero_minima(system: DiophSystem) -> MinimalSolutionSet:
    """Minimal nonzero solutions of a system that zero solves.

    Each one is x = e_i + y for some i, where y is a minimal solution of the
    system shifted by e_i; y = 0 exactly when zero solves the shifted system.
    """
    points: list[Point] = []
    for i in range(system.p):
        unit = tuple(int(k == i) for k in range(system.p))
        shifted = DiophSystem(
            system.p,
            tuple((c, r - c[i]) for c, r in system.equalities),
            tuple((c, k - c[i], m) for c, k, m in system.congruences),
            tuple((c, r - c[i]) for c, r in system.inequalities),
        )
        if shifted.satisfied_by((0,) * system.p):
            points.append(unit)
            continue
        points += [tuple(map(add, unit, y)) for y in minimal_solutions(shifted).points]
    return MinimalSolutionSet(minimal_points(points), False)


def cone_hilbert_basis(g: Sequence[int]) -> MinimalSolutionSet:
    """Hilbert basis of the cone monoid {x in N^p : g(x) >= 0}, for every p.

    s = g(x) maps it one-to-one onto M = {(x, s) in N^(p+1) : g(x) - s = 0}.
    Two comparable elements of M differ by an element of M, so its Hilbert
    basis is its set of minimal nonzero elements, which the completion
    enumerates, and it projects onto the cone basis without re-minimalizing.
    PROPMOD_CAP bounds the completion frontier.
    """
    if not g:
        raise SemigroupError("the cone needs a form g with at least one coefficient")
    rows = [[*map(_integer, g), -1]]
    lifted = _completion(rows, len(rows[0]), None, _termination_bound(rows), enumeration_cap())
    return MinimalSolutionSet(sort_points(y[:-1] for y in lifted), True)
