"""Command-line interface.

Verbs mirror the library: ``gens``, ``membership``, ``frobenius``,
``apery``, ``properties``, ``solve`` and the brute-force ``oracle``
counterparts.  Each job of the front end has one path:

* one inequality reader: the flags ``--f``/``--g``/``--b`` become the same
  ``{"f", "g", "b"}`` object that ``--input`` loads, and
  :func:`propmod.core.inequality_from_json` validates both;
* one engine choice: :func:`_generators` runs the geometric method or the
  general construction for ``gens`` and ``oracle gens`` alike, and hands
  ``gens --trace`` the construction trace of that same run;
* one renderer: :func:`_emit` prints a verb's payload as JSON, or one
  ``label: value`` line per listed key.

Output is deterministic (points in graded-lexicographic order) in either
form.  Exit codes: 0 success, 1 computational failure (cap exceeded,
unsupported case, window too small), 2 malformed invocation (a plane verb on
p != 2 included).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .core import (
    DimensionMismatch,
    InvalidInequality,
    ModularInequality,
    SemigroupError,
    inequality_from_json,
    sort_points,
)
from .diophantine import DiophSystem, enumeration_cap, minimal_solutions
from .frobenius import frobenius_vectors
from .general import ConstructionTrace, construction_trace, minimal_generators_general
from .oracle import Window, brute_members, brute_min_frobenius, closure_differences
from .plane import GeneratorSet, minimal_generators
from .properties import apery_intersection, property_report


class UsageError(Exception):
    pass


def _parse_vector(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(entry) for entry in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse vector {text!r}") from exc


def _parse_window(text: str) -> Window:
    try:
        bounds = tuple(int(entry.strip()) for entry in text.split(","))
    except ValueError as exc:
        raise UsageError(f"cannot parse window {text!r}") from exc
    try:
        return Window(bounds)
    except SemigroupError as exc:
        raise UsageError(str(exc)) from exc


def _load_inequality(args) -> ModularInequality:
    if args.input:
        try:
            with open(args.input, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read inequality from {args.input}: {exc}")
    elif args.f is None or args.g is None or args.b is None:
        raise UsageError("provide --f, --g and --b, or --input FILE")
    else:
        data = {"f": args.f.split(","), "g": args.g.split(","), "b": args.b}
    return inequality_from_json(data)


# the text labels that are not their payload keys
_LABELS = {"delta_size": "delta size", "all_in_delta": "frobenius vectors",
           "axis_generator": "axis generator"}


def _text(value) -> str:
    """A payload value as text: a verdict (None is "not determined"), a
    count, a point as a tuple, or a list of points joined by spaces."""
    if value is None:
        return "not determined"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return str(value)
    if value and isinstance(value[0], int):
        return str(tuple(value))
    return " ".join(map(_text, value))


def _emit(args, payload: dict, keys) -> None:
    """Print the payload as JSON, or one ``label: value`` line per key of
    ``keys``; the text is only built for text output."""
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for key in keys:
            print(f"{_LABELS.get(key, key)}: {_text(payload[key])}")


def _generators(ineq: ModularInequality, method: str,
                trace: bool = False) -> tuple[GeneratorSet, ConstructionTrace | None]:
    """The minimal generators by ``method``, and with ``trace`` (general
    method only) the construction trace that produced them.  Untraced, the
    same construction runs as ``minimal_generators_general``, the name under
    which perfbench's tracer times it and counts its cap hits."""
    if trace:
        run = construction_trace(ineq)
        return run.generators, run
    if method == "general":
        return minimal_generators_general(ineq), None
    return minimal_generators(ineq), None


def _run_gens(args) -> None:
    ineq = _load_inequality(args)
    if args.trace and args.method != "general":
        raise UsageError("--trace is only available with --method general")
    gens, trace = _generators(ineq, args.method, args.trace)
    payload = {"trivial": gens.trivial, "generators": gens.points}
    if args.trace:
        # the trace repeats the generator payload as its reduced set
        payload["trace"] = {"cone_basis": trace.cone_basis, "multiples": trace.multiples,
                            "cell_members": sort_points(trace.cell_members),
                            "generators": dict(payload)}
    _emit(args, payload, ("trivial", "generators"))
    if args.trace and args.format == "text":
        print("trace: use --format json to serialize the trace")


def _run_membership(args) -> None:
    ineq = _load_inequality(args)
    if args.point is None:
        raise UsageError("membership needs --point")
    coords = _parse_vector(args.point)
    if any(c.denominator != 1 for c in coords):
        raise UsageError(f"point coordinates must be integers, got {args.point!r}")
    point = tuple(int(c) for c in coords)
    if len(point) != ineq.p:
        raise UsageError(
            f"point has {len(point)} coordinates, inequality has {ineq.p}")
    _emit(args, {"point": point, "member": ineq.member(point)}, ("member",))


def _run_frobenius(args) -> None:
    report = frobenius_vectors(_load_inequality(args))
    payload = {
        "delta_size": len(report.delta),
        "all_in_delta": report.frobenius_vectors,
        "minimal": report.minimal,
        "group_basis": report.group_basis,
    }
    _emit(args, payload, ("delta_size", "all_in_delta", "minimal"))


def _run_apery(args) -> None:
    data = apery_intersection(_load_inequality(args))
    payload = {
        "period": data.period,
        "axis_generator": data.axis_generator,
        "elements": data.elements,
        "maximal": data.maximal,
    }
    _emit(args, payload, ("period", "axis_generator", "elements", "maximal"))


def _run_properties(args) -> None:
    report = property_report(_load_inequality(args))
    payload = {
        "cohen_macaulay": report.cohen_macaulay,
        "gorenstein": report.gorenstein,
        "buchsbaum": report.buchsbaum,
        "witnesses": report.witnesses,
    }
    _emit(args, payload, ("cohen_macaulay", "gorenstein", "buchsbaum"))


def _run_solve(args) -> None:
    if not args.input:
        raise UsageError("solve needs --input FILE with a system description")
    try:
        with open(args.input, encoding="utf-8") as fh:
            data = json.load(fh)
        system = DiophSystem.from_json(data)
    except (OSError, ValueError, KeyError, TypeError, SemigroupError) as exc:
        raise UsageError(f"cannot read system: {exc}")
    result = minimal_solutions(system)
    _emit(args, {"solutions": result.points, "homogeneous": result.homogeneous},
          ("solutions",))


def _run_oracle(args) -> None:
    ineq = _load_inequality(args)
    if args.window is None:
        raise UsageError("oracle verbs need --window")
    window = _parse_window(args.window)
    if len(window.bounds) != ineq.p:
        raise UsageError(
            f"window has {len(window.bounds)} bounds, inequality has {ineq.p} variables")
    if args.oracle_verb == "members":
        _emit(args, {"members": sort_points(brute_members(ineq, window))}, ("members",))
    elif args.oracle_verb == "frobenius":
        _emit(args, {"minimal": sort_points(brute_min_frobenius(ineq, window))},
              ("minimal",))
    else:
        gens, _ = _generators(ineq, args.method)
        missing, extra = map(sort_points, closure_differences(ineq, gens.points, window))
        payload = {
            "agree": not missing and not extra,
            "generators": gens.points,
            "missing": missing,
            "extra": extra,
        }
        _emit(args, payload, ("agree",))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb, built once per process: ``parse_args`` keeps
    no state in it, so repeated ``main`` calls share one."""
    parser = argparse.ArgumentParser(
        prog="propmod",
        description="Affine semigroups of modular inequalities f(x) mod b <= g(x)")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p: argparse.ArgumentParser, window: bool = False) -> None:
        p.add_argument("--f", help="comma-separated f coefficients, rationals allowed")
        p.add_argument("--g", help="comma-separated g coefficients")
        p.add_argument("--b", help="modulus, integer or rational")
        p.add_argument("--input", help="JSON file with keys f, g, b")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if window:
            p.add_argument("--window", help="comma-separated inclusive bounds")

    gens = sub.add_parser("gens", help="minimal generating set")
    common(gens)
    gens.add_argument("--method", choices=("geometric", "general"),
                      default="geometric")
    gens.add_argument("--trace", action="store_true",
                      help="record the intermediate sets (general method)")

    membership = sub.add_parser("membership", help="test one point")
    common(membership)
    membership.add_argument("--point", help="comma-separated coordinates")

    for name, helptext in (("frobenius", "Frobenius vectors"),
                           ("apery", "Apery-set intersection"),
                           ("properties", "ring-theoretic properties")):
        p = sub.add_parser(name, help=helptext)
        common(p)

    solve = sub.add_parser("solve", help="minimal solutions of a linear system")
    solve.add_argument("--input", required=False,
                       help="JSON file describing the system")
    solve.add_argument("--format", choices=("text", "json"), default="text")

    oracle = sub.add_parser("oracle", help="brute-force reference computations")
    oracle.add_argument("oracle_verb", choices=("members", "frobenius", "gens"))
    common(oracle, window=True)
    oracle.add_argument("--method", choices=("geometric", "general"),
                        default="geometric")

    return parser


_RUNNERS = {
    "gens": _run_gens,
    "membership": _run_membership,
    "frobenius": _run_frobenius,
    "apery": _run_apery,
    "properties": _run_properties,
    "solve": _run_solve,
    "oracle": _run_oracle,
}


_VALUE_FLAGS = {"--f", "--g", "--b", "--point", "--window"}


def _merge_values(argv: list[str]) -> list[str]:
    # join "--g -1,-1" into "--g=-1,-1" so leading minus signs survive argparse
    merged: list[str] = []
    for token in argv:
        if merged and merged[-1] in _VALUE_FLAGS:
            merged[-1] += f"={token}"
        else:
            merged.append(token)
    return merged


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_values(list(argv)))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        enumeration_cap()  # every verb runs under PROPMOD_CAP, so check it up front
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        _RUNNERS[args.verb](args)
    except (UsageError, InvalidInequality, DimensionMismatch) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SemigroupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
