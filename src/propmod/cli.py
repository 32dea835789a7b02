"""Command-line interface.

Verbs mirror the library: ``gens``, ``membership``, ``frobenius``,
``apery``, ``properties``, ``solve`` and the brute-force ``oracle``
counterparts.  Output is deterministic (points in graded-lexicographic
order) in either text or JSON form.

Exit codes: 0 success, 1 computational failure (cap exceeded, unsupported
case, window too small), 2 malformed invocation (a plane verb on p != 2
included).
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
    normalize,
    sort_points,
)
from .diophantine import DiophSystem, enumeration_cap, minimal_solutions
from .frobenius import frobenius_vectors
from .general import construction_trace, minimal_generators_general
from .oracle import Window, brute_members, brute_min_frobenius, closure_differences
from .plane import GeneratorSet, minimal_generators
from .properties import apery_intersection, property_report


class UsageError(Exception):
    pass


def _parse_vector(text: str) -> tuple[Fraction, ...]:
    try:
        parts = [Fraction(entry.strip()) for entry in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse vector {text!r}") from exc
    if not parts:
        raise UsageError("empty vector")
    return tuple(parts)


def _parse_window(text: str) -> Window:
    try:
        bounds = tuple(int(entry.strip()) for entry in text.split(","))
    except ValueError as exc:
        raise UsageError(f"cannot parse window {text!r}") from exc
    try:
        return Window(bounds)
    except SemigroupError as exc:
        raise UsageError(str(exc)) from exc


def _cap() -> int:
    try:
        return enumeration_cap()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _load_inequality(args) -> ModularInequality:
    if args.input:
        try:
            with open(args.input, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read inequality from {args.input}: {exc}")
        try:
            return inequality_from_json(data)
        except (InvalidInequality, DimensionMismatch, ValueError, TypeError) as exc:
            raise UsageError(str(exc))
    if args.f is None or args.g is None or args.b is None:
        raise UsageError("provide --f, --g and --b, or --input FILE")
    try:
        return normalize(_parse_vector(args.f), _parse_vector(args.g),
                         Fraction(args.b))
    except (InvalidInequality, DimensionMismatch, ValueError,
            ZeroDivisionError) as exc:
        raise UsageError(str(exc))


def _emit(args, payload: dict, text_lines) -> None:
    """Print the payload as JSON, or the lines that ``text_lines()`` builds;
    they are only built for text output."""
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines():
            print(line)


def _generator_payload(gens: GeneratorSet) -> dict:
    return {"trivial": gens.trivial, "generators": gens.points}


def _run_gens(args) -> None:
    ineq = _load_inequality(args)
    if args.trace and args.method != "general":
        raise UsageError("--trace is only available with --method general")
    if args.trace:
        trace = construction_trace(ineq)
        gens = trace.generators
    elif args.method == "general":
        gens = minimal_generators_general(ineq)
    else:
        gens = minimal_generators(ineq)
    payload = _generator_payload(gens)
    if args.trace:
        payload["trace"] = {"cone_basis": trace.cone_basis, "multiples": trace.multiples,
                            "cell_members": trace.cell_members,
                            "generators": _generator_payload(gens)}

    def lines():
        yield f"trivial: {str(gens.trivial).lower()}"
        yield "generators: " + " ".join(str(tuple(pt)) for pt in gens.points)
        if args.trace:
            yield "trace: use --format json to serialize the trace"
    _emit(args, payload, lines)


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
    verdict = ineq.member(point)
    _emit(args, {"point": point, "member": verdict},
          lambda: [f"member: {str(verdict).lower()}"])


def _run_frobenius(args) -> None:
    ineq = _load_inequality(args)
    report = frobenius_vectors(ineq)
    payload = {
        "delta_size": len(report.delta),
        "all_in_delta": report.frobenius_vectors,
        "minimal": report.minimal,
        "group_basis": report.group_basis,
    }
    _emit(args, payload, lambda: [
        f"delta size: {len(report.delta)}",
        "frobenius vectors: " + " ".join(str(tuple(p)) for p in report.frobenius_vectors),
        "minimal: " + " ".join(str(tuple(p)) for p in report.minimal),
    ])


def _run_apery(args) -> None:
    ineq = _load_inequality(args)
    data = apery_intersection(ineq)
    payload = {
        "period": data.period,
        "axis_generator": data.axis_generator,
        "elements": data.elements,
        "maximal": data.maximal,
    }
    _emit(args, payload, lambda: [
        f"period: {tuple(data.period)}",
        f"axis generator: {tuple(data.axis_generator)}",
        "elements: " + " ".join(str(tuple(p)) for p in data.elements),
        "maximal: " + " ".join(str(tuple(p)) for p in data.maximal),
    ])


def _run_properties(args) -> None:
    ineq = _load_inequality(args)
    report = property_report(ineq)
    payload = {
        "cohen_macaulay": report.cohen_macaulay,
        "gorenstein": report.gorenstein,
        "buchsbaum": report.buchsbaum,
        "witnesses": report.witnesses,
    }
    verdict = {True: "true", False: "false", None: "not determined"}
    _emit(args, payload, lambda: [
        f"cohen_macaulay: {verdict[report.cohen_macaulay]}",
        f"gorenstein: {verdict[report.gorenstein]}",
        f"buchsbaum: {verdict[report.buchsbaum]}",
    ])


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
    payload = {
        "solutions": result.points,
        "homogeneous": result.homogeneous,
    }
    _emit(args, payload, lambda: ["solutions: " + " ".join(str(tuple(p)) for p in result.points)])


def _run_oracle(args) -> None:
    ineq = _load_inequality(args)
    if args.window is None:
        raise UsageError("oracle verbs need --window")
    window = _parse_window(args.window)
    if len(window.bounds) != ineq.p:
        raise UsageError(
            f"window has {len(window.bounds)} bounds, inequality has {ineq.p} variables")
    if args.oracle_verb == "members":
        members = sort_points(brute_members(ineq, window))
        _emit(args, {"members": members},
              lambda: ["members: " + " ".join(str(tuple(p)) for p in members)])
    elif args.oracle_verb == "frobenius":
        minimal = sort_points(brute_min_frobenius(ineq, window))
        _emit(args, {"minimal": minimal},
              lambda: ["minimal: " + " ".join(str(tuple(p)) for p in minimal)])
    else:
        if args.method == "general":
            gens = minimal_generators_general(ineq)
        else:
            gens = minimal_generators(ineq)
        missing, extra = map(sort_points, closure_differences(ineq, gens.points, window))
        payload = {
            "agree": not missing and not extra,
            "generators": gens.points,
            "missing": missing,
            "extra": extra,
        }
        _emit(args, payload, lambda: [f"agree: {str(payload['agree']).lower()}"])


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
        _cap()  # every verb runs under PROPMOD_CAP, so check it up front
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
