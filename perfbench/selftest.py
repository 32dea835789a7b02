"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that the workload generator is deterministic and keeps the
reference inputs at seed 0, that the tracing wrappers are transparent (a
traced pass prints byte-identical outputs and still sees the internal
calls), and that an op stopped by the size cap counts as a failure.  Prints
one PASS/FAIL line per check; the exit code is the number of failures.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import workloads

TIMEOUT = 600


class Failed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Failed(message)


def _inputs(ops):
    return [(op["id"], op.get("input"), op.get("system")) for op in ops]


def _sign(v) -> tuple:
    return tuple((a > 0) - (a < 0) for a in v)


def _family(ineq: dict, corpus: bool):
    """What a held-out draw must keep: the sign branch of g in the corpus;
    the signs of f and g and the modulus b on a ladder."""
    if corpus:
        g = _sign(ineq["g"])
        return "positive" if min(g) > 0 else "mixed" if max(g) > 0 else "nonpositive"
    return _sign(ineq["f"]), _sign(ineq["g"]), ineq["b"]


def generator_is_deterministic(root: Path) -> None:
    for name in workloads.WORKLOADS:
        for seed in (0, 1, 7):
            expect(workloads.build(name, seed, root) == workloads.build(name, seed, root),
                   f"{name} seed {seed} differs between two builds")
        reference, drawn = workloads.build(name, 0, root), workloads.build(name, 1, root)
        expect([op["id"] for op in reference] == [op["id"] for op in drawn],
               f"{name}: a held-out seed changes the op list")
        expect(_inputs(reference) != _inputs(drawn), f"{name}: seed 1 draws no new inputs")
        for ref, new in zip(reference, drawn):
            if "input" in ref:
                corpus = name == "corpus"
                expect(_family(ref["input"], corpus) == _family(new["input"], corpus),
                       f"{new['id']}: drawn from another sign branch")
    strip = workloads.build("strip", 0, root)
    expect({(tuple(op["input"]["f"]), tuple(op["input"]["g"])) for op in strip}
           == {((3, -2), (1, -3))}, "strip reference inputs changed")
    general = workloads.build("general", 0, root)
    expect([op["system"] for op in general if "system" in op] == list(workloads.SYSTEMS),
           "solve reference systems changed")
    corpus = workloads.build("corpus", 0, root)
    expect(len({op["id"].split(":")[1] for op in corpus}) == 51, "corpus has not 51 entries")


SAMPLE = ("strip:30:", "positive:500:", "general:2d:8", "general:3d:4", "solve:",
          "corpus:0:", "corpus:15:", "corpus:38:")


def wrappers_are_transparent(root: Path) -> None:
    ops = [op for name in workloads.WORKLOADS for op in workloads.build(name, 0, root)
           if op["id"].startswith(SAMPLE)]
    env = run.child_env(root)
    plain = run.run_pass(ops, env, TIMEOUT)
    traced = run.run_pass(ops, env, TIMEOUT, trace=True)
    recorded = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    errors = run.judge([plain, traced], {op["id"]: recorded[op["id"]] for op in ops})
    expect(not errors, f"traced and untraced outputs differ: {errors}")
    layers = traced["layers"]
    plane_gens = sum(op["argv"][0] == "gens" and op["verb"] == "gens" for op in ops)
    expect(layers.get("plane.minimal_generators.calls", 0) > plane_gens,
           "calls to minimal_generators from frobenius/properties/cli were not traced")
    general = sum(op["verb"] == "general" for op in ops)
    expect(layers.get("plane.minimalize.calls", 0) >= plane_gens + general,
           "general.minimalize was not rebound")
    expect(layers.get("core.member.calls", 0) > 0, "ModularInequality.member was not counted")
    expect(traced["span_count"] > len(ops), "too few spans")


def cap_hit_is_a_failure(root: Path) -> None:
    ops = [op for op in workloads.build("general", 0, root) if op["id"] == "general:2d:8"]
    env = run.child_env(root, {"PROPMOD_CAP": "5"})
    results = [run.run_pass(ops, env, TIMEOUT), run.run_pass(ops, env, TIMEOUT, trace=True)]
    errors = run.judge(results, None)
    expect(len(errors) == 2 and all("exit code 1" in e for e in errors.values()),
           f"a cap hit was not counted as a failed op: {errors}")
    expect(results[1]["layers"].get("general.minimal_generators_general.cap_exceeded") == 1,
           "the traced pass did not count the cap hit")


CHECKS = (generator_is_deterministic, wrappers_are_transparent, cap_hit_is_a_failure)


def main() -> int:
    root = Path.cwd()
    failures = 0
    for check in CHECKS:
        try:
            check(root)
            print(f"PASS {check.__name__}")
        except Failed as exc:
            failures += 1
            print(f"FAIL {check.__name__}: {exc}")
    return failures


if __name__ == "__main__":
    sys.exit(main())
