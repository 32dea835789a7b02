"""Cohen-Macaulay, Gorenstein and Buchsbaum decisions for plane semigroups.

The decisions run on the simplicial cases (at least one positive g
coefficient) and are purely combinatorial:

* mixed signs: S sits in a strip and is always Cohen-Macaulay and
  Buchsbaum; Gorenstein reduces to uniqueness of the maximal element of
  the intersection of two Apery sets, taken with respect to the semigroup
  order a <= b iff b - a in S.
* both signs positive: S is simplicial with the axis generators (t1, 0)
  and (0, t2) on its extremal rays, and by the criterion of Trung and Hoa
  ("Affine semigroups and Cohen-Macaulay rings generated by monomials",
  Trans. AMS 1986) it is Cohen-Macaulay exactly when no point v of G(S)
  outside S has both v + (t1, 0) and v + (0, t2) in S.  A coordinatewise-
  maximal gap plus any nonzero point of N^2 lands in S, so a nonempty gap
  set breaks the criterion, and the check shifts the maximal gap by the
  two axis generators only; no minimal generating set is computed.
  Buchsbaum is left undecided.

Every shortcut verdict is re-verified on a finite fundamental cell.  A
cell violation cannot happen if the theory and the code agree, so it is
raised as an error instead of being folded into the answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    GeneratorSet,
    ModularInequality,
    Point,
    SemigroupError,
    UnsupportedCase,
    grlex_key,
    sort_points,
)
from .plane import Cell, _strip_apery, cell_gaps, gap_cell, regime, strip_cell
from .rays import StripGeometry, axis_generator, strip_geometry

# named by plane.regime when S is trivial or a ray; the Apery intersection
# names itself
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


def _values(ineq: ModularInequality, points) -> list[tuple[int, int]]:
    return [(ineq.f_of(z), ineq.g_of(z)) for z in points]


def _strip_gaps(ineq: ModularInequality, geo: StripGeometry) -> Cell:
    """The gaps of the fundamental cell, heights [0, u_h - 1] and g-values
    [0, b - 1]; periodicity under u extends the strip checks from it."""
    u_h = geo.period[geo.height_index]
    return cell_gaps(ineq, strip_cell(ineq, geo, range(u_h), 0, ineq.b - 1))


def is_cohen_macaulay(ineq: ModularInequality) -> tuple[bool, Point | None]:
    """Decide Cohen-Macaulayness; a failing gap is returned as witness.

    The witness v is a gap with v + (t1, 0) and v + (0, t2) in S for the
    axis generators, the extremal-ray generators of the positive regime,
    which is exactly what the depth criterion forbids.  In the strip case
    no gap v of the cell may have both v + u and v + u~ in S.
    """
    if regime(ineq, _TASK) == "positive":
        # the graded-lexicographic maximum is dominated by no other gap
        v = max((z for z, _, _ in cell_gaps(ineq, gap_cell(ineq))), key=grlex_key, default=None)
        if v is None:
            return True, None
        fv, gv = ineq.f_of(v), ineq.g_of(v)
        for fs, gs in _values(ineq, (axis_generator(ineq, 0), axis_generator(ineq, 1))):
            if not ineq._holds(fv + fs, gv + gs):
                raise SemigroupError(
                    f"gap {v} was expected to absorb both axis generators; "
                    "the gap enumeration is inconsistent")
        return False, v
    geo = strip_geometry(ineq)
    (fu, gu), (ft, gt) = _values(ineq, (geo.period, geo.axis_gen))
    holds = ineq._holds
    for v, fv, gv in _strip_gaps(ineq, geo):
        if holds(fv + fu, gv + gu) and holds(fv + ft, gv + gt):
            raise SemigroupError(
                f"strip gap {v} violates the depth criterion; "
                "this contradicts the structure theory")
    return True, None


def _apery_data(geo: StripGeometry, apery, gens: GeneratorSet) -> AperyData:
    elements = sort_points(h for h, _, _ in apery)
    ap = set(elements)
    maximal = tuple(h for h in elements
                    if not any((h[0] + s[0], h[1] + s[1]) in ap for s in gens.points))
    return AperyData(period=geo.period, axis_generator=geo.axis_gen,
                     elements=elements, maximal=maximal)


def apery_intersection(ineq: ModularInequality) -> AperyData:
    """Members h of S with h - u and h - u~ both outside S.

    Differences leaving N^2 count as outside.  The result Ap is the Apery
    cell of :mod:`propmod.plane`, walked once together with the minimal
    generators, and carries its maximal elements under the semigroup order,
    found from those generators: h in Ap is maximal exactly when h + s is
    outside Ap for every minimal generator s.  Proof: if h + m is in Ap for
    a nonzero member m, write m = s + m' with s a minimal generator and m'
    in S.  Then h + s is in S, and if (h + s) - v were in S for v in
    {u, u~}, so would be h + m - v = (h + s - v) + m', against h + m in Ap;
    hence h + s is in Ap.  The converse is the case m = s.  The test costs
    |Ap| |gens| set lookups instead of |Ap|^2 membership tests.
    """
    if regime(ineq, "Apery intersections") != "strip":
        raise UnsupportedCase("the Apery intersection is defined in the strip case")
    return _apery_data(*_strip_apery(ineq))


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


def _check_closure(ineq: ModularInequality, geo: StripGeometry,
                   gens: GeneratorSet) -> tuple[bool, bool]:
    """Raise unless every gap of the fundamental cell leaves S under some
    minimal generator; members lie in the closure, as S is closed under addition."""
    shifts = _values(ineq, gens.points)
    holds = ineq._holds
    for s, fs, gs in _strip_gaps(ineq, geo):
        if all(holds(fs + fi, gs + gi) for fi, gi in shifts):
            raise SemigroupError(
                f"closure disagrees with S at {s}; "
                "this contradicts the structure theory")
    return True, True


def is_buchsbaum(ineq: ModularInequality) -> tuple[bool | None, bool | None]:
    """Verdict plus whether the closure semigroup agrees with S.

    The closure adds every point s with s + s_i in S for all minimal
    generators s_i.  In the strip case it must equal S; the check runs on
    the gaps of a fundamental cell, stops at the first generator that takes
    a gap out of S, and extends by periodicity.  For two positive g
    coefficients with gaps the criteria decide nothing, hence None.
    """
    if regime(ineq, _TASK) == "positive":
        if next(cell_gaps(ineq, gap_cell(ineq)), None) is None:
            return True, True
        return None, None
    geo, _, gens = _strip_apery(ineq)
    return _check_closure(ineq, geo, gens)


def property_report(ineq: ModularInequality) -> PropertyReport:
    """All three decisions plus their witnesses in one report; in the strip
    case one walk of the Apery cell serves the Apery data and the closure."""
    if regime(ineq, _TASK) == "positive":
        # without gaps S is N^2 and all three hold; with gaps only CM is decided
        cm, gap = is_cohen_macaulay(ineq)
        top = ((0, 0),) if cm else None
        return PropertyReport(
            cohen_macaulay=cm, gorenstein=cm, buchsbaum=cm or None,
            witnesses={"apery_intersection": top, "apery_maximal": top,
                       "cm_gap": gap, "closure_equals_S": cm or None})
    geo, apery, gens = _strip_apery(ineq)
    cm, _ = is_cohen_macaulay(ineq)
    ap = _apery_data(geo, apery, gens)
    bb, closure_ok = _check_closure(ineq, geo, gens)
    return PropertyReport(
        cohen_macaulay=cm, gorenstein=len(ap.maximal) == 1, buchsbaum=bb,
        witnesses={"apery_intersection": ap.elements, "apery_maximal": ap.maximal,
                   "cm_gap": None, "closure_equals_S": closure_ok})
