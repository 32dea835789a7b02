"""Minimal nonnegative solutions of small linear systems with congruences.

The solver handles conjunctions of linear equalities L(x) = c, congruences
L(x) = k mod m and lower bounds L(x) >= c over N^p for p <= 4.
``DiophSystem`` checks each constraint once and keeps it as one row
(coeffs, rhs, step), meaning coeffs . x = rhs + step t for some t in N:

* an equality has step 0, and a lower bound L(x) >= c has step 1;
* a congruence has step m, with k and the coefficients reduced into
  [0, m): that keeps the solution set and makes the left side nonnegative
  on N^p, so L(x) - k >= -k > -m, and L(x) - k is a multiple of m
  exactly when it is m t for some t in N.

Each row with a nonzero step gets one slack column -step, and a nonzero
right-hand side is absorbed into one homogenizing variable x0; the wanted
solutions are those with x0 = 1.

The resulting homogeneous system A y = 0 is solved by the breadth-first
completion of Contejean and Devie (Inform. and Comput. 1994), level by
level in the 1-norm: a candidate y grows by a unit step e_j only when the
step decreases the residual, (A y).(A e_j) < 0, and j is not frozen in y,
and candidates dominating an already-found solution are pruned.

Pruning lemma: a non-solution y on level L dominates no solution found so
far, so its child y + e_j can dominate a solution s only when s_j = y_j + 1.
Proof: y was checked against every solution of level < L when it was made,
and a solution of level L that y dominated would have y's 1-norm and so
be y, which is no solution.  If y + e_j >= s while y >= s fails, then some
coordinate i has y_i < s_i <= y_i + [i = j], so i = j and s_j = y_j + 1.
So the solutions are indexed by (j, s_j), and a child is tested against
that one bucket only.

Frozen coordinates, Contejean and Devie's rule: each candidate y carries
a frozen set F(y), and its admissible steps are the j with d_j(y) =
(A y).(A e_j) < 0 outside F(y).  The child y + e_j gets F(y) plus every
admissible step of y below j, and a child that several parents make keeps
the intersection of their sets.  A step on the homogenizing coordinate x0
freezes x0 itself, and so does its unit on level 1, so no candidate has
x0 > 1.

Freezing lemma: every minimal solution s, with s_0 <= 1 when x0 exists, is
still found.  Proof: start at a unit e_i with s_i >= 1, which freezes at
most x0 = 1 = s_0, and from y < s step by the smallest admissible j with
y_j < s_j, keeping the invariant that y_i = s_i for every frozen i.  Such
a j exists: A s = 0 gives (A y).(A (s - y)) = -|A y|^2 < 0, as y < s is
no solution, so d_j(y) < 0 for some j with y_j < s_j, and j is not frozen
by the invariant.  The child keeps the invariant: an admissible i below
the chosen j has y_i >= s_i, else i would have been chosen, so y_i = s_i;
a step on x0 gives x0 = 1 = s_0; and an intersection only drops frozen
coordinates.  Every child on the walk lies below s, so it dominates no
solution found on an earlier level and is never pruned.  Freezing only
removes candidates, so the pruning lemma and the minimality of what is
found hold as before.  The intersection is what the proof needs: a child
that kept the union, or the first parent's set, could freeze a coordinate
where it is still below s.

Packed candidates: each candidate y is one int, coordinate y_j in the field
of w = (bound + 1).bit_length() + 1 bits at bit j w.  The top bit of each
field is a guard bit, clear in y, and ``guard`` is the int of all of them.
The certified bound caps the 1-norm of every level the completion keeps,
but the children made from the last certified level reach bound + 1, so
each field must hold bound + 1 below its guard bit.  The child y + e_j is
y + (1 << j w), and y_j is y >> j w & (2^w - 1).

No-borrow lemma: for packed c and s, c >= s coordinatewise exactly when
((c | guard) - s) & guard == guard.  Proof: field j of c | guard holds
2^(w-1) + c_j, and 2^(w-1) + c_j - s_j lies in [1, 2^w), since c_j and s_j
are below 2^(w-1).  So no field borrows from the next, field j of the
difference is 2^(w-1) + c_j - s_j, and its guard bit is set exactly when
c_j >= s_j.

Each candidate carries its Gram vector d_k(y) = (A y).(A e_k), read off the
Gram matrix of A's columns: the step e_j reduces the residual when
d_j(y) < 0, a child's vector is d(y) + gram[j], and y solves the system
exactly when d(y) = 0, since y . d(y) = |A y|^2.

Signed layout: d(y) is one int too, d_k(y) + H in the field of w' bits at
bit k w', with H = 2^(w'-1) > (bound + 1) max|gram| and w' the fewest bits
for that.  ``zero`` holds H in every field, so y solves the system exactly
when the packed d(y) equals ``zero``.  The top bit of field k is set
exactly when d_k(y) >= 0.  A row g of the Gram matrix packs as the signed
sum of g_k 2^(k w'), and a child's packed vector is d(y) plus that.

No-carry lemma: the packed sum is the packed d(y + e_j).  Proof: integer
addition is exact, so the sum is the sum over k of (d_k(y + e_j) + H)
2^(k w').  Since |d_k(z)| <= |z|_1 max|gram| <= (bound + 1) max|gram| < H
for every candidate z, each term d_k + H lies in [1, 2^w'), and writing
an int in base 2^w' is unique, so these are its fields.

Packed state: a candidate's state is d(y) + F(y) 2^t, t = n w', with F(y)
kept as the sign bits of the fields it freezes.  The packed d(y) lies in
[0, 2^t), so the state's low t bits are d(y), and ~(state | state >> t) &
zero keys the admissible steps, which a memo lists on demand: it holds only
the key patterns that occur, not the 2^n of them.  With each step j it
gives the row j of the packed Gram matrix plus G 2^t, G the bits the child
gains; G misses F(y), as admissible steps are not frozen, so the state plus
that is the child's state.  Two states of one child share d, so their AND
is the state with the intersection of the frozen sets.

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

from operator import add, mul
from typing import NamedTuple, Sequence

from .core import (
    CapExceeded,
    Point,
    SemigroupError,
    _integer,
    _Value,
    enumeration_cap,
    minimal_points,
    mod_reduce,
    sort_points,
)

MAX_DIMENSION = 4
# the entries of each constraint row, as the README's system table names them
JSON_ROWS = {"equalities": ("coeffs", "c"), "congruences": ("coeffs", "k", "m"),
             "inequalities": ("coeffs", "c")}
JSON_KEYS = ("p", *JSON_ROWS)


class DiophSystem(_Value):
    """A conjunction of constraints over N^p, in the tables of JSON_ROWS;
    the module docstring gives the meaning of a row.  ``_rows``, each row as
    (coeffs, rhs, step), stays out of equality and repr."""

    __slots__ = (*JSON_KEYS, "_rows")
    _fields = JSON_KEYS

    def __init__(self, p: int, equalities: Sequence = (), congruences: Sequence = (),
                 inequalities: Sequence = ()) -> None:
        if not 1 <= _integer(p) <= MAX_DIMENSION:
            raise SemigroupError(f"dimension must be in [1, {MAX_DIMENSION}], got {p}")
        object.__setattr__(self, "p", p)
        rows = []
        for (key, names), table in zip(JSON_ROWS.items(), (equalities, congruences, inequalities)):
            kept = []
            if not isinstance(table, (list, tuple)):
                raise SemigroupError(f"{key} must be a list of rows, got {table!r}")
            for row in table:
                if not isinstance(row, (list, tuple)) or len(row) != len(names):
                    raise SemigroupError(f"each {key} row is [{', '.join(names)}], got {row!r}")
                if not isinstance(row[0], (list, tuple)):
                    raise SemigroupError(f"the coeffs of each {key} row are a list, got {row!r}")
                coeffs, rhs, *m = tuple(map(_integer, row[0])), *map(_integer, row[1:])
                if m:  # mod_reduce rejects a modulus below 1
                    rhs = mod_reduce(rhs, m[0])
                if len(coeffs) != p:
                    raise SemigroupError(f"constraint arity {len(coeffs)} does not match p={p}")
                kept.append((coeffs, rhs, *m))
                # the step is m for a congruence, 1 for a lower bound, 0 for an equality
                rows.append((tuple(c % m[0] for c in coeffs), rhs, m[0]) if m
                            else (coeffs, rhs, int(key == "inequalities")))
            object.__setattr__(self, key, tuple(kept))
        if not rows:
            raise SemigroupError("a system needs at least one constraint")
        object.__setattr__(self, "_rows", tuple(rows))

    def satisfied_by(self, x: Sequence[int]) -> bool:
        if len(x) != self.p or any(v < 0 for v in x):
            return False
        for coeffs, rhs, step in self._rows:
            t = sum(map(mul, coeffs, x)) - rhs
            if t and not (step and t > 0 and t % step == 0):
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
        if "p" not in data:
            raise SemigroupError("missing key 'p' in system data")
        return cls(**data)


class MinimalSolutionSet(NamedTuple):
    """The antichain of minimal solutions, sorted graded-lexicographically."""

    points: tuple[Point, ...]
    homogeneous: bool


def _packing(n_vars: int, bound: int) -> tuple[list[int], int, int]:
    """The packed layout of the module docstring for candidates of 1-norm at
    most bound + 1: the shift of each field, the mask of one field, and the
    int of all guard bits."""
    width = (bound + 1).bit_length() + 1
    shift = [j * width for j in range(n_vars)]
    return shift, (1 << width) - 1, sum(1 << s + width - 1 for s in shift)


def _gram_packing(gram: list[tuple[int, ...]], bound: int) -> tuple[list[int], int, int]:
    """The signed layout of the module docstring for the Gram vectors of
    candidates of 1-norm at most bound + 1: each row of ``gram`` packed, the
    int of the zero vector, and the field width."""
    width = ((bound + 1) * max(abs(g) for row in gram for g in row)).bit_length() + 1
    zero = sum(1 << k * width + width - 1 for k in range(len(gram)))
    return [sum(g << k * width for k, g in enumerate(row)) for row in gram], zero, width


class _Steps(dict):
    """steps[~(dots | frozen) & zero]: the admissible steps j, in increasing
    order, filled on demand, each with the int that makes a child's state
    from its parent's: row j of the Gram matrix, and above it the frozen bits
    the child gains, the admissible steps below j and, on the homogenizing
    coordinate ``target``, j itself.  ``bits`` holds the sign bit of each
    field and ``top`` is the offset of the frozen mask in a state."""

    def __init__(self, bits: list[int], gpack: list[int], target: int | None,
                 top: int) -> None:
        super().__init__()
        self.bits, self.gpack, self.target, self.top = bits, gpack, target, top

    def __missing__(self, key: int) -> tuple[tuple[int, int], ...]:
        pairs, before = [], 0
        for j, bit in enumerate(self.bits):
            if key & bit:
                gained = before | bit if j == self.target else before
                pairs.append((j, self.gpack[j] + (gained << self.top)))
                before |= bit
        steps = self[key] = tuple(pairs)
        return steps


def _completion(rows: list[list[int]], n_vars: int, target: int | None, bound: int,
                cap: int) -> list[Point]:
    """Minimal nonzero solutions of the homogeneous system rows . y = 0 over N^n.

    ``target`` marks the homogenizing coordinate; a step on it freezes it,
    so candidates never push it past 1 (every minimal solution with x0 = 1
    is reachable below that cap).  Each candidate and its state, its Gram
    vector with its frozen mask above, are packed ints, in the layouts of
    the module docstring.
    """
    gram = [tuple(sum(r[j] * r[k] for r in rows) for k in range(n_vars)) for j in range(n_vars)]
    gpack, zero, width = _gram_packing(gram, bound)
    top = n_vars * width
    dots_mask = (1 << top) - 1
    bits = [1 << k * width + width - 1 for k in range(n_vars)]
    steps = _Steps(bits, gpack, target, top)
    shift, mask, guard = _packing(n_vars, bound)
    unit = [1 << s for s in shift]

    minimal: list[int] = []
    # by_value[j][v]: the minimal solutions s with s_j = v >= 1
    by_value: list[dict[int, list[int]]] = [{} for _ in range(n_vars)]
    frontier = {u: zero + g for u, g in zip(unit, gpack)}
    if target is not None:
        frontier[unit[target]] += bits[target] << top

    level = 1
    while frontier:
        if level > bound:
            raise SemigroupError(
                f"completion passed the certified bound {bound}; this should be unreachable"
            )
        for y, state in frontier.items():
            if state & dots_mask == zero:
                # Level order makes same-level solutions incomparable and
                # earlier pruning keeps dominators out, so each one is minimal.
                minimal.append(y)
                for j, k in enumerate(shift):
                    if v := y >> k & mask:
                        by_value[j].setdefault(v, []).append(y)
        next_frontier: dict[int, int] = {}
        for y, state in frontier.items():
            if state & dots_mask == zero:
                continue
            # the admissible steps: they reduce the residual (clear sign bit)
            # and are not frozen
            for j, step in steps[~(state | state >> top) & zero]:
                child = y + unit[j]
                if child in next_frontier:
                    # the same Gram vector; the frozen masks intersect
                    next_frontier[child] &= state + step
                    continue
                # y dominates no solution, so the child can only dominate one
                # that it meets at coordinate j (no-borrow lemma for the test)
                high = child | guard
                for s in by_value[j].get(child >> shift[j] & mask, ()):
                    if (high - s) & guard == guard:
                        break
                else:  # a loop, not any(), saves a generator per child
                    next_frontier[child] = state + step
                    if len(next_frontier) > cap:
                        raise CapExceeded(
                            f"completion frontier of {len(next_frontier)} candidates "
                            f"exceeds the cap {cap}"
                        )
        frontier = next_frontier
        level += 1
    return [tuple(y >> k & mask for k in shift) for y in minimal]


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
    p = system.p
    homogeneous = not any(rhs for _, rhs, _ in system._rows)
    if not homogeneous and system.satisfied_by((0,) * p):
        # Zero solves this inhomogeneous system, so in the lifted system its
        # image dominates the images of many nonzero solutions.
        return _nonzero_minima(system)
    slack = [0] * sum(1 for *_, step in system._rows if step)
    rows: list[list[int]] = []
    slack_at = p
    for coeffs, rhs, step in system._rows:
        row = [*coeffs, *slack] + ([] if homogeneous else [-rhs])
        if step:
            row[slack_at] = -step
            slack_at += 1
        rows.append(row)
    n_vars = len(rows[0])
    target = None if homogeneous else n_vars - 1
    lifted = _completion(rows, n_vars, target, _termination_bound(rows), enumeration_cap())
    projected = [y[:p] for y in lifted if homogeneous or y[target] == 1]
    return MinimalSolutionSet(minimal_points(projected), homogeneous)


def _nonzero_minima(system: DiophSystem) -> MinimalSolutionSet:
    """Minimal nonzero solutions of a system that zero solves.

    Each one is x = e_i + y for some i, where y is a minimal solution of the
    system shifted by e_i; y = 0 exactly when zero solves the shifted system.
    """
    points: list[Point] = []
    for i in range(system.p):
        unit = tuple(int(k == i) for k in range(system.p))
        shifted = DiophSystem(system.p, **{
            key: tuple((c, rhs - c[i], *m) for c, rhs, *m in getattr(system, key))
            for key in JSON_ROWS})
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
