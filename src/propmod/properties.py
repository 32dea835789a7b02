"""Cohen-Macaulay, Gorenstein and Buchsbaum decisions for plane semigroups.

:func:`property_report` decides all three from one report per regime, and
each ``is_*`` verdict projects it.  They run on the simplicial cases (at
least one positive g coefficient) and are purely combinatorial:

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

Every shortcut verdict is re-verified on a finite fundamental cell.  In the
strip the gap rows of the Apery cell's read run the depth scan, which tests
that no gap v has both v + u and v + u~ in S, and the closure = S check is
certified by that scan plus u, u~ in G, the minimal generators:

  Lemma.  If u, u~ are in G and no gap v has both v + u and v + u~ in S,
  then no gap lies in the closure.  Proof: a gap v in the closure has
  v + s in S for every s in G, so for s = u and s = u~ as well, which the
  depth scan rules out.

The pair is at least as strict as a scan of every gap against every
generator, which flags a gap v only when v + s is in S for all s in G.  If
u and u~ are in G, such a v has v + u and v + u~ in S and the depth scan
flags it first; so does a member read as a gap.  If one of them is
missing, the one test of u, u~ in G fails, even where the full scan would
pass.  Both checks test values through ``ModularInequality._holds``, not
member rows: S rows would come from the reader that yields the gaps, so a
fault in that reader would hide itself.

A cell violation cannot happen if the theory and the code agree, so it is
raised as an error instead of being folded into the answer.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (
    GeneratorSet,
    ModularInequality,
    Point,
    SemigroupError,
    UnsupportedCase,
    grlex_key,
)
from .frobenius import _context
from .plane import _grlex_points, _points, _strip_apery
from .rays import StripGeometry, axis_generator, regime

# named by rays.regime when S is trivial or a ray; the Apery intersection
# names itself
_TASK = "the simplicial property criteria"


class AperyData(NamedTuple):
    """Intersection of the Apery sets of the period and the axis generator."""

    period: Point
    axis_generator: Point
    elements: tuple[Point, ...]
    maximal: tuple[Point, ...]


class PropertyReport(NamedTuple):
    cohen_macaulay: bool
    gorenstein: bool
    buchsbaum: bool | None
    witnesses: dict


def _apery_data(geo: StripGeometry, apery, gens: GeneratorSet) -> AperyData:
    """The Apery rows (h, lo, bits), heights [0, u_h - 1] in order, as one bitmap:
    row h at bit offset h W, ``bits << lo`` with the axis coordinate as its column.
    Its maximal elements come by one shift of the bitmap per minimal generator s:
    cell >> (s_h W + s_a) holds h exactly where h + s is in Ap.  W is the widest
    column of Ap plus one plus the widest s_a, rounded up to whole bytes, so a
    row's low bits shift only into columns past every column of Ap in the row
    below, where the AND drops them, and the rows pack and unpack as bytes in
    time linear in the cell.

    The period u and the axis generator u~ are skipped: u leaves the heights
    of the cell, and h + u~ is never in Ap, as (h + u~) - u~ = h is in S.
    """
    a, k, u_h = geo.axis, geo.height_index, geo.period[geo.height_index]
    rows = [bits << lo for _, lo, bits in apery]
    shifts = [(s[k], s[a]) for s in gens if s[k] < u_h and s != geo.axis_gen]
    size = (max(rows).bit_length() + max((s_a for _, s_a in shifts), default=0) + 7) // 8  # W / 8
    cell = int.from_bytes(b"".join(row.to_bytes(size, "little") for row in rows), "little")
    redundant = 0
    for s_h, s_a in shifts:
        redundant |= cell >> (8 * size * s_h + s_a)
    maximal = (cell & ~redundant).to_bytes(u_h * size, "little")
    tops = [(h, 0, int.from_bytes(maximal[h * size:(h + 1) * size], "little")) for h in range(u_h)]
    return AperyData(period=geo.period, axis_generator=geo.axis_gen,
                     elements=_grlex_points(a, apery), maximal=_grlex_points(a, tops))


def apery_intersection(ineq: ModularInequality) -> AperyData:
    """Members h of S with h - u and h - u~ both outside S.

    Differences leaving N^2 count as outside.  The result Ap is the Apery
    cell of :mod:`propmod.plane`, read once together with the minimal
    generators, and carries its maximal elements under the semigroup order,
    found from those generators: h in Ap is maximal exactly when h + s is
    outside Ap for every minimal generator s.  Proof: if h + m is in Ap for
    a nonzero member m, write m = s + m' with s a minimal generator and m'
    in S.  Then h + s is in S, and if (h + s) - v were in S for v in
    {u, u~}, so would be h + m - v = (h + s - v) + m', against h + m in Ap;
    hence h + s is in Ap.  The converse is the case m = s.  The test is one
    shift of a bitmap of the cell per minimal generator (:func:`_apery_data`):
    |gens| big-int operations on u_h rows of bits instead of |Ap| |gens| set
    lookups.  Both ``elements`` and ``maximal`` come from its rows in grlex
    order.
    """
    if regime(ineq, "Apery intersections") != "strip":
        raise UnsupportedCase("the Apery intersection is defined in the strip case")
    return _apery_data(*_strip_apery(ineq))


def _positive_report(ineq: ModularInequality) -> PropertyReport:
    # the grlex maximum gap, dominated by no other, is the highest gap of its row y
    _, rows, _, _ = _context(ineq)
    v = max(((lo + bits.bit_length() - 1, y) for y, lo, bits in rows if bits), key=grlex_key,
            default=None)
    if v is not None and not all(
            ineq._holds(ineq.f_of(v) + ineq.f_of(t), ineq.g_of(v) + ineq.g_of(t))
            for t in (axis_generator(ineq, 0), axis_generator(ineq, 1))):
        raise SemigroupError(f"gap {v} was expected to absorb both axis generators; "
                             "the gap enumeration is inconsistent")
    cm = v is None  # without gaps S is N^2, whose graded algebra is a polynomial ring
    top = ((0, 0),) if cm else None
    return PropertyReport(
        cohen_macaulay=cm, gorenstein=cm, buchsbaum=cm or None,
        witnesses={"apery_intersection": top, "apery_maximal": top,
                   "cm_gap": v, "closure_equals_S": cm or None})


def _strip_report(ineq: ModularInequality) -> PropertyReport:
    """The Apery data and, from the same read of R, the fundamental cell's gaps
    (heights [0, u_h - 1], g-values [0, b - 1]) for the depth scan; periodicity
    under u extends it.  The closure = S check is the depth scan plus u, u~ in G
    (module docstring)."""
    gaps: list = []
    geo, apery, gens = _strip_apery(ineq, gaps)
    ap = _apery_data(geo, apery, gens)
    (fu, gu), (ft, gt) = [(ineq.f_of(z), ineq.g_of(z)) for z in (geo.period, geo.axis_gen)]
    holds = ineq._holds
    for v, fv, gv in _points(ineq, geo.axis, gaps):
        if holds(fv + fu, gv + gu) and holds(fv + ft, gv + gt):
            raise SemigroupError(f"strip gap {v} violates the depth criterion; "
                                 "this contradicts the structure theory")
    if missing := sorted({geo.period, geo.axis_gen}.difference(gens)):
        raise SemigroupError(f"closure disagrees with S: {missing} missing from the minimal "
                             "generators; this contradicts the structure theory")
    return PropertyReport(
        cohen_macaulay=True, gorenstein=len(ap.maximal) == 1, buchsbaum=True,
        witnesses={"apery_intersection": ap.elements, "apery_maximal": ap.maximal,
                   "cm_gap": None, "closure_equals_S": True})


def property_report(ineq: ModularInequality) -> PropertyReport:
    """All three decisions plus their witnesses, from the report of the regime."""
    if regime(ineq, _TASK) == "positive":
        return _positive_report(ineq)
    return _strip_report(ineq)


def is_cohen_macaulay(ineq: ModularInequality) -> tuple[bool, Point | None]:
    """Decide Cohen-Macaulayness; a failing gap is returned as witness.

    The witness v is a gap with v + (t1, 0) and v + (0, t2) in S for the
    axis generators of the positive regime, which is exactly what the depth
    criterion forbids.  In the strip no gap v has both v + u and v + u~ in S.
    """
    report = property_report(ineq)
    return report.cohen_macaulay, report.witnesses["cm_gap"]


def is_gorenstein(ineq: ModularInequality) -> tuple[bool, tuple[Point, ...]]:
    """True when the Apery intersection has a single maximal element."""
    report = property_report(ineq)
    return report.gorenstein, report.witnesses["apery_maximal"] or ()


def is_buchsbaum(ineq: ModularInequality) -> tuple[bool | None, bool | None]:
    """Verdict plus whether the closure semigroup agrees with S.

    The closure adds every point s with s + s_i in S for all minimal
    generators s_i; members lie in it, as S is closed under addition.  In the
    strip it must equal S, certified by the depth scan of a fundamental cell's
    gaps plus u, u~ in G (module docstring).  For two positive g coefficients
    with gaps the criteria decide nothing, hence None.
    """
    report = property_report(ineq)
    return report.buchsbaum, report.witnesses["closure_equals_S"]
