"""Cohen-Macaulay, Gorenstein and Buchsbaum decisions for plane semigroups.

The decisions run on the simplicial cases (at least one positive g
coefficient) and are purely combinatorial:

* mixed signs: S sits in a strip and is always Cohen-Macaulay and
  Buchsbaum; Gorenstein reduces to uniqueness of the maximal element of
  the intersection of two Apery sets, taken with respect to the semigroup
  order a <= b iff b - a in S.
* both signs positive: a nontrivial S has a finite nonempty gap set, any
  coordinatewise-maximal gap plus any two generators stays inside S, and
  that breaks the Cohen-Macaulay criterion; Buchsbaum is left undecided.

Every shortcut verdict is re-verified on a finite fundamental cell.  A
cell violation cannot happen if the theory and the code agree, so it is
raised as an error instead of being folded into the answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ge

from .core import (
    ModularInequality,
    Point,
    SemigroupError,
    UnsupportedCase,
    sort_points,
)
from .plane import (
    cell_gaps,
    gap_cell,
    minimal_generators,
    regime,
    strip_cell,
    strip_parallelogram,
)
from .rays import StripGeometry, strip_geometry

# named by plane.regime when S is trivial or a ray
_TASK = "the simplicial property criteria"


@dataclass(frozen=True)
class AperyData:
    """Intersection of the Apery sets of the period and the axis generator."""

    period: Point
    axis_generator: Point
    elements: tuple[Point, ...]
    maximal: tuple[Point, ...]


@dataclass(frozen=True)
class PropertyReport:
    cohen_macaulay: bool
    gorenstein: bool
    buchsbaum: bool | None
    witnesses: dict


def s_order_leq(ineq: ModularInequality, a, b) -> bool:
    """The semigroup order: a <= b exactly when b - a is a member.

    The reference definition behind the Apery maximal elements; tests
    compare :func:`apery_intersection` against it.
    """
    return ineq.member(tuple(y - x for x, y in zip(a, b)))


def _values(ineq: ModularInequality, points) -> list[tuple[int, int]]:
    return [(ineq.f_of(z), ineq.g_of(z)) for z in points]


def is_cohen_macaulay(ineq: ModularInequality,
                      geo: StripGeometry | None = None) -> tuple[bool, Point | None]:
    """Decide Cohen-Macaulayness; a failing gap is returned as witness.

    The witness v is a gap with v + s in S for two minimal generators s,
    which is exactly what the depth criterion forbids.  In the strip case
    no gap v of the cell may have both v + u and v + u~ in S; ``geo`` is
    the strip geometry when the caller already has it.
    """
    if regime(ineq, _TASK) == "positive":
        gaps = cell_gaps(ineq, gap_cell(ineq))
        if not gaps:
            return True, None
        # the graded-lexicographic maximum is dominated by no other gap
        v = gaps[-1]
        fv, gv = ineq.f_of(v), ineq.g_of(v)
        for fs, gs in _values(ineq, minimal_generators(ineq).points[:2]):
            if not ineq._holds(fv + fs, gv + gs):
                raise SemigroupError(
                    f"gap {v} was expected to absorb every generator; "
                    "the gap enumeration is inconsistent")
        return False, v
    if geo is None:
        geo = strip_geometry(ineq)
    (fu, gu), (ft, gt) = _values(ineq, (geo.period, geo.axis_gen))
    holds = ineq._holds
    u_h = geo.period[geo.height_index]
    for v, fv, gv in strip_cell(ineq, geo, range(u_h), 0, ineq.b - 1):
        if not holds(fv, gv) and holds(fv + fu, gv + gu) and holds(fv + ft, gv + gt):
            raise SemigroupError(
                f"strip gap {v} violates the depth criterion; "
                "this contradicts the structure theory")
    return True, None


def apery_intersection(ineq: ModularInequality, geo: StripGeometry | None = None,
                       gens: tuple[Point, ...] | None = None) -> AperyData:
    """Members h of the Apery cell with h - u and h - u~ both outside S.

    Differences leaving N^2 count as outside.  The result Ap is finite and
    carries its maximal elements under the semigroup order, found from the
    minimal generators: h in Ap is maximal exactly when h + s is outside Ap
    for every minimal generator s.  Proof: if h + m is in Ap for a nonzero
    member m, write m = s + m' with s a minimal generator and m' in S.  Then
    h + s is in S, and if (h + s) - v were in S for v in {u, u~}, so would
    be h + m - v = (h + s - v) + m', against h + m in Ap; hence h + s is in
    Ap.  The converse is the case m = s.  The test costs |Ap| |gens| set
    lookups instead of |Ap|^2 membership tests.

    ``geo`` and ``gens`` are the strip geometry and the minimal generators
    when the caller already has them.
    """
    if regime(ineq, _TASK) != "strip":
        raise UnsupportedCase("the Apery intersection is defined in the strip case")
    if geo is None:
        geo = strip_geometry(ineq)
    if gens is None:
        gens = minimal_generators(ineq).points
    steps = [(v, ineq.f_of(v), ineq.g_of(v)) for v in (geo.period, geo.axis_gen)]
    holds = ineq._holds
    elements = sort_points(
        h for h, fh, gh in strip_parallelogram(ineq, geo)
        if holds(fh, gh) and not any(
            all(map(ge, h, v)) and holds(fh - fv, gh - gv) for v, fv, gv in steps))
    ap = set(elements)
    maximal = tuple(h for h in elements
                    if not any((h[0] + s[0], h[1] + s[1]) in ap for s in gens))
    return AperyData(period=geo.period, axis_generator=geo.axis_gen,
                     elements=elements, maximal=maximal)


def is_gorenstein(ineq: ModularInequality) -> tuple[bool, tuple[Point, ...]]:
    """True when the Apery intersection has a single maximal element."""
    if regime(ineq, _TASK) == "positive":
        cm, _ = is_cohen_macaulay(ineq)
        if not cm:
            return False, ()
        # no gaps at all: the free semigroup N^2, whose graded algebra is
        # a polynomial ring
        return True, ((0, 0),)
    ap = apery_intersection(ineq)
    return len(ap.maximal) == 1, ap.maximal


def is_buchsbaum(ineq: ModularInequality, geo: StripGeometry | None = None,
                 gens: tuple[Point, ...] | None = None) -> tuple[bool | None, bool | None]:
    """Verdict plus whether the closure semigroup agrees with S.

    The closure adds every point s with s + s_i in S for all minimal
    generators s_i.  In the strip case it must equal S; the check runs on
    a fundamental cell and extends by periodicity.  For two positive g
    coefficients with gaps the criteria decide nothing, hence None.
    ``geo`` and ``gens`` are the strip geometry and the minimal generators
    when the caller already has them.
    """
    if regime(ineq, _TASK) == "positive":
        if not cell_gaps(ineq, gap_cell(ineq)):
            return True, True
        return None, None
    if geo is None:
        geo = strip_geometry(ineq)
    if gens is None:
        gens = minimal_generators(ineq).points
    shifts = _values(ineq, gens)
    holds = ineq._holds
    u_h = geo.period[geo.height_index]
    for s, fs, gs in strip_cell(ineq, geo, range(u_h), 0, ineq.b - 1):
        closed = all(holds(fs + fi, gs + gi) for fi, gi in shifts)
        if closed != holds(fs, gs):
            raise SemigroupError(
                f"closure disagrees with S at {s}; "
                "this contradicts the structure theory")
    return True, True


def property_report(ineq: ModularInequality) -> PropertyReport:
    """All three decisions plus their witnesses in one report."""
    if regime(ineq, _TASK) == "positive":
        cm, gap = is_cohen_macaulay(ineq)
        if cm:
            return PropertyReport(
                cohen_macaulay=True, gorenstein=True, buchsbaum=True,
                witnesses={"apery_intersection": ((0, 0),),
                           "apery_maximal": ((0, 0),),
                           "cm_gap": None,
                           "closure_equals_S": True})
        return PropertyReport(
            cohen_macaulay=False, gorenstein=False, buchsbaum=None,
            witnesses={"apery_intersection": None,
                       "apery_maximal": None,
                       "cm_gap": gap,
                       "closure_equals_S": None})
    geo = strip_geometry(ineq)
    gens = minimal_generators(ineq).points
    cm, _ = is_cohen_macaulay(ineq, geo)
    ap = apery_intersection(ineq, geo, gens)
    bb, closure_ok = is_buchsbaum(ineq, geo, gens)
    return PropertyReport(
        cohen_macaulay=cm,
        gorenstein=len(ap.maximal) == 1,
        buchsbaum=bb,
        witnesses={"apery_intersection": ap.elements,
                   "apery_maximal": ap.maximal,
                   "cm_gap": None,
                   "closure_equals_S": closure_ok})
