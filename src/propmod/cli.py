"""Command-line interface.

Verbs mirror the library: ``gens``, ``membership``, ``frobenius``,
``apery``, ``properties``, ``solve`` and the brute-force ``oracle``
counterparts.  Each job of the front end has one path:

* one inequality reader: the flags ``--f``/``--g``/``--b`` become the same
  ``{"f", "g", "b"}`` object that ``--input`` loads, and
  :func:`propmod.core.inequality_from_json` validates both; ``--input`` and
  the flags never come together;
* one integer-vector reader: :func:`_parse_ints` reads ``--point`` and
  ``--window`` alike, and rejects any entry that is not an integer;
* one required-flag check: argparse's, for ``--point``, ``--window`` and
  ``solve --input``;
* one engine choice: :func:`_generators` runs the geometric method or the
  general construction for ``gens`` and ``oracle gens`` alike, and
  ``gens --trace`` runs that construction through its trace;
* one renderer: :func:`_emit` prints a verb's payload as JSON, or one
  ``label: value`` line per listed key; a report record is its own payload.

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

from .core import (
    DimensionMismatch,
    InvalidInequality,
    ModularInequality,
    SemigroupError,
    enumeration_cap,
    inequality_from_json,
    sort_points,
)
from .diophantine import DiophSystem, minimal_solutions
from .frobenius import frobenius_vectors
from .general import construction_trace, minimal_generators_general
from .oracle import Window, brute_members_grlex, brute_min_frobenius, closure_differences
from .plane import GeneratorSet, minimal_generators
from .properties import apery_intersection, property_report


class UsageError(Exception):
    pass


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    """The comma-separated integers of ``text``, the ``what`` flag's value."""
    try:
        return tuple(map(int, text.split(",")))
    except ValueError as exc:
        raise UsageError(f"{what} entries must be integers, got {text!r}") from exc


def _read_json(path: str, what: str):
    """The JSON data in ``path``; ``what`` names it when the file is unreadable."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read {what} from {path}: {exc}")


def _load_inequality(args) -> ModularInequality:
    flags = (args.f, args.g, args.b)
    if args.input is not None:
        if flags != (None, None, None):
            raise UsageError("give --input FILE or --f, --g and --b, not both")
        data = _read_json(args.input, "inequality")
    elif None in flags:
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


def _generators(ineq: ModularInequality, method: str) -> GeneratorSet:
    """The minimal generators by ``method``.  The general construction runs
    as ``minimal_generators_general``, the name under which perfbench's
    tracer times it and counts its cap hits."""
    if method == "general":
        return minimal_generators_general(ineq)
    return minimal_generators(ineq)


def _run_gens(args) -> None:
    ineq = _load_inequality(args)
    if args.trace and args.method != "general":
        raise UsageError("--trace is only available with --method general")
    trace = construction_trace(ineq) if args.trace else None
    gens = trace.generators if trace else _generators(ineq, args.method)
    payload = {"trivial": gens.trivial, "generators": gens.points}
    if trace:
        # the trace repeats the generator payload as its reduced set
        payload["trace"] = {"cone_basis": trace.cone_basis, "multiples": trace.multiples,
                            "cell_members": sort_points(trace.cell_members),
                            "generators": dict(payload)}
    _emit(args, payload, ("trivial", "generators"))
    if trace and args.format == "text":
        print("trace: use --format json to serialize the trace")


def _run_membership(args) -> None:
    ineq = _load_inequality(args)
    point = _parse_ints(args.point, "point")
    _emit(args, {"point": point, "member": ineq.member(point)}, ("member",))


def _run_frobenius(args) -> None:
    report = frobenius_vectors(_load_inequality(args))
    payload = {
        "delta_size": report.delta_size,
        "all_in_delta": report.frobenius_vectors,
        "minimal": report.minimal,
        "group_basis": report.group_basis,
    }
    _emit(args, payload, ("delta_size", "all_in_delta", "minimal"))


def _run_apery(args) -> None:
    data = apery_intersection(_load_inequality(args))
    _emit(args, data._asdict(), data._fields)


def _run_properties(args) -> None:
    report = property_report(_load_inequality(args))
    # the text shows the three verdicts; the witnesses are JSON only
    _emit(args, report._asdict(), report._fields[:3])


def _run_solve(args) -> None:
    try:
        system = DiophSystem.from_json(_read_json(args.input, "system"))
    except SemigroupError as exc:
        raise UsageError(f"cannot read system: {exc}")
    result = minimal_solutions(system)
    _emit(args, {"solutions": result.points, "homogeneous": result.homogeneous},
          ("solutions",))


def _run_oracle(args) -> None:
    ineq = _load_inequality(args)
    try:
        window = Window(_parse_ints(args.window, "window"))
    except SemigroupError as exc:
        raise UsageError(str(exc)) from exc
    if len(window.bounds) != ineq.p:
        raise UsageError(
            f"window has {len(window.bounds)} bounds, inequality has {ineq.p} variables")
    if args.oracle_verb == "members":
        _emit(args, {"members": brute_members_grlex(ineq, window)}, ("members",))
    elif args.oracle_verb == "frobenius":
        _emit(args, {"minimal": sort_points(brute_min_frobenius(ineq, window))},
              ("minimal",))
    else:
        gens = _generators(ineq, args.method)
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
    """The parser of every verb, each subparser carrying its runner as
    ``run``, built once per process: ``parse_args`` keeps no state in it, so
    repeated ``main`` calls share one."""
    parser = argparse.ArgumentParser(
        prog="propmod",
        description="Affine semigroups of modular inequalities f(x) mod b <= g(x)")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p: argparse.ArgumentParser, window: bool = False) -> None:
        p.add_argument("--f", help="comma-separated f coefficients, rationals allowed")
        p.add_argument("--g", help="comma-separated g coefficients")
        p.add_argument("--b", help="modulus, integer or rational")
        p.add_argument("--input", help="JSON file with keys f, g, b, instead of the flags")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if window:
            p.add_argument("--window", required=True,
                           help="comma-separated inclusive integer bounds")

    gens = sub.add_parser("gens", help="minimal generating set")
    gens.set_defaults(run=_run_gens)
    common(gens)
    gens.add_argument("--method", choices=("geometric", "general"),
                      default="geometric")
    gens.add_argument("--trace", action="store_true",
                      help="record the intermediate sets (general method)")

    membership = sub.add_parser("membership", help="test one point")
    membership.set_defaults(run=_run_membership)
    common(membership)
    membership.add_argument("--point", required=True,
                            help="comma-separated integer coordinates")

    for name, helptext, run in (("frobenius", "Frobenius vectors", _run_frobenius),
                                ("apery", "Apery-set intersection", _run_apery),
                                ("properties", "ring-theoretic properties", _run_properties)):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(run=run)
        common(p)

    solve = sub.add_parser("solve", help="minimal solutions of a linear system")
    solve.set_defaults(run=_run_solve)
    solve.add_argument("--input", required=True, help="JSON file describing the system")
    solve.add_argument("--format", choices=("text", "json"), default="text")

    oracle = sub.add_parser("oracle", help="brute-force reference computations")
    oracle.set_defaults(run=_run_oracle)
    oracle.add_argument("oracle_verb", choices=("members", "frobenius", "gens"))
    common(oracle, window=True)
    oracle.add_argument("--method", choices=("geometric", "general"),
                        default="geometric")

    return parser


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
        args.run(args)
    except (UsageError, InvalidInequality, DimensionMismatch) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SemigroupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
