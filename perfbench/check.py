"""Independent checks of op outputs, for recording digests and held-out runs.

The recorded digests say an output is unchanged; these checks say it is
right.  They lean on the brute-force oracle and on the defining inequality
evaluated here, never on the fast path that produced the output:

* ``gens``: the closure of the generators equals the brute-force members on
  a window of at most ``MAX_WINDOW`` points;
* ``gens --method general``: in 2-d it equals the plane method's answer, in
  3-d its closure equals the members on [0, 14]^3;
* ``membership``, ``oracle members``: the verdicts match the inequality;
* ``oracle gens``: it reports agreement and its generators are closure-checked;
* ``frobenius``: every reported vector is a gap, minimal ones among them;
* ``apery`` and ``properties``: Apery elements satisfy their definition and
  the two verbs agree on the maximal elements and the Gorenstein verdict;
* ``solve``: solutions satisfy the system, form an antichain and match the
  brute-force minimal solutions inside a box.

Needs ``src`` importable.
"""

from __future__ import annotations

import json
from itertools import product

from propmod.core import ModularInequality
from propmod.oracle import Window, brute_members, closure_in_window
from propmod.plane import minimal_generators

MAX_WINDOW = 10**5
WINDOW_3D = (14, 14, 14)
SOLVE_BOX = 12


def member(ineq: ModularInequality, x) -> bool:
    gx = sum(c * v for c, v in zip(ineq.g, x))
    return all(v >= 0 for v in x) and sum(c * v for c, v in zip(ineq.f, x)) % ineq.b <= gx


def minimal_points(points) -> list[tuple]:
    """Coordinatewise-minimal elements, in graded-lexicographic order."""
    kept = []
    for x in sorted(set(map(tuple, points)), key=lambda x: (sum(x), x)):
        if not any(all(a >= c for a, c in zip(x, k)) for k in kept):
            kept.append(x)
    return kept


def _window_for(points, p: int) -> Window:
    """The box spanned by the points (at least 20 a side), shrunk evenly to
    at most MAX_WINDOW points."""
    bounds = [max([pt[i] for pt in points] + [20]) for i in range(p)]
    while Window(bounds).size() > MAX_WINDOW:
        bounds = [max(1, c * 9 // 10) for c in bounds]
    return Window(bounds)


def _closure_error(ineq, gens, window: Window) -> str | None:
    got = closure_in_window([tuple(g) for g in gens], window)
    want = brute_members(ineq, window) | {(0,) * ineq.p}
    if got != want:
        return (f"closure on {window.bounds} differs from the members: "
                f"{len(want - got)} missing, {len(got - want)} extra")
    return None


def _ineq(op) -> ModularInequality:
    return ModularInequality(**op["input"])


def _check_gens(op, out):
    ineq = _ineq(op)
    gens = out["generators"]
    if out["trivial"] and gens:
        return "a trivial answer lists generators"
    if op["verb"] == "general" and ineq.p == 2:
        plane = [list(pt) for pt in minimal_generators(ineq).points]
        if gens != plane:
            return "general method disagrees with the plane method"
    window = Window(WINDOW_3D) if ineq.p == 3 else _window_for(gens, ineq.p)
    return _closure_error(ineq, gens, window)


def _check_membership(op, out):
    return None if out["member"] == member(_ineq(op), out["point"]) else "wrong verdict"


def _check_oracle(op, out):
    ineq = _ineq(op)
    if "members" in out:
        bounds = [int(c) for c in op["argv"][op["argv"].index("--window") + 1].split(",")]
        want = [list(x) for x in product(*(range(c + 1) for c in bounds)) if member(ineq, x)]
        return None if sorted(out["members"]) == sorted(want) else "wrong member list"
    if not out["agree"] or out["missing"] or out["extra"]:
        return "oracle reports disagreement"
    return _closure_error(ineq, out["generators"], _window_for(out["generators"], ineq.p))


def _check_frobenius(op, out):
    ineq = _ineq(op)
    if any(member(ineq, q) for q in out["all_in_delta"]):
        return "a reported Frobenius vector is a member"
    minimal = [list(q) for q in minimal_points(out["all_in_delta"])]
    return None if sorted(minimal) == sorted(out["minimal"]) else "minimal set is wrong"


def _check_apery(op, out):
    ineq = _ineq(op)
    u, t = out["period"], out["axis_generator"]
    for h in out["elements"]:
        if not member(ineq, h) or any(member(ineq, [a - c for a, c in zip(h, s)])
                                      for s in (u, t)):
            return f"{h} is not in both Apery sets"
    if not set(map(tuple, out["maximal"])) <= set(map(tuple, out["elements"])):
        return "a maximal element is not an element"
    return None


def _check_solve(op, out):
    system = op["system"]
    p = system["p"]

    def ok(x):
        dot = lambda coeffs: sum(c * v for c, v in zip(coeffs, x))
        return (all(dot(c) == r for c, r in system.get("equalities", []))
                and all((dot(c) - k) % m == 0 for c, k, m in system.get("congruences", []))
                and all(dot(c) >= r for c, r in system.get("inequalities", [])))

    sols = [tuple(x) for x in out["solutions"]]
    if not all(ok(x) and any(x) for x in sols):
        return "a reported solution does not solve the system"
    if minimal_points(sols) != sorted(set(sols), key=lambda x: (sum(x), x)):
        return "solutions do not form an antichain"
    box = [x for x in product(range(SOLVE_BOX + 1), repeat=p) if any(x) and ok(x)]
    in_box = {x for x in sols if max(x) <= SOLVE_BOX}
    return None if set(minimal_points(box)) == in_box else \
        f"brute-force minimal solutions in [0, {SOLVE_BOX}]^{p} differ"


CHECKS = {"gens": _check_gens, "general": _check_gens, "membership": _check_membership,
          "oracle": _check_oracle, "frobenius": _check_frobenius, "apery": _check_apery,
          "properties": lambda op, out: None, "solve": _check_solve}


def verify(ops: list[dict], results: dict) -> dict:
    """Error messages by op id for the ops whose output fails a check.

    ``results`` maps op id to (exit code, stdout).
    """
    errors = {}
    parsed = {}
    for op in ops:
        rc, stdout = results[op["id"]]
        if rc != 0:
            errors[op["id"]] = f"exit code {rc}"
            continue
        parsed[op["id"]] = out = json.loads(stdout)
        error = CHECKS[op["verb"]](op, out)
        if error:
            errors[op["id"]] = error
    # apery and properties on the same input must tell the same story
    for op in ops:
        if op["verb"] != "properties" or op["id"] not in parsed:
            continue
        report = parsed[op["id"]]
        apery = parsed.get(op["id"].rsplit(":", 1)[0] + ":apery")
        maximal = report["witnesses"]["apery_maximal"]
        if maximal is not None and report["gorenstein"] != (len(maximal) == 1):
            errors[op["id"]] = "Gorenstein verdict contradicts the Apery maximal set"
        elif apery is not None and maximal != apery["maximal"]:
            errors[op["id"]] = "properties and apery disagree on the maximal elements"
    return errors
