"""Benchmark of the propmod CLI: one workload, timed or traced.

Run from the repository root::

    python3 perfbench/run.py --workload strip --seed 1 --seconds 20 --trace 0

The workload's ops run one after another in a fresh interpreter per pass
(one client, closed loop, one thread), and passes repeat until ``--seconds``
have been spent.  Times are medians over passes, at the reference speed
of ``calibrate.py``.  ``--trace 1`` alternates untraced and traced passes
and reports the per-layer numbers.  Before the passes, ``setup_s`` is
measured in separate fresh interpreters.

The seed shuffles the op order.  The inputs are the reference ones unless
``--held-out`` is given: then the seed also draws the inputs (see
``workloads.build``), and outputs are checked by ``check.py`` instead of
against the recorded digests.

Every metric is printed as ``name value unit``; the last line is the JSON
summary.  A full result file with provenance goes to ``--out`` (default
under ``perfbench/results/``).  Exit code 1 means a wrong or failed op.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter, strftime

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

DIGESTS = HERE / "digests.json"
RESULTS = HERE / "results"
SETUP_PROBES = 7
RUN_LIMIT_S = 170  # the whole run, set-up included, ends within this
VERBS = ("gens", "general", "solve", "frobenius", "apery", "properties",
         "membership", "oracle")

# name -> unit; the end-to-end metrics of a --trace 0 run
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# name -> unit; reported by a --trace 1 run, from its untraced passes
SUMMARY = {**{f"{verb}_s": "s" for verb in VERBS},
           "b_exponent": "1", "failed_ops": "count"}
# name -> unit; reported by a --trace 1 run, from its traced passes
LAYERS = {
    "plane.enumerate_region.self_s": "s",
    "plane.enumerate_region.points_out": "count",
    "plane.minimalize.self_s": "s",
    "plane.minimalize.candidates_in": "count",
    "plane.minimalize.accepted": "count",
    "plane.minimal_generators.calls": "count",
    "core.member.calls": "count",
    "core.sort_points.self_s": "s",
    "core.minimal_points.self_s": "s",
    "rays.strip_geometry.calls": "count",
    "rays.strip_geometry.self_s": "s",
    "frobenius.frobenius_vectors.self_s": "s",
    "frobenius.frobenius_vectors.delta_size": "count",
    "frobenius.group_basis.self_s": "s",
    "properties.apery_intersection.self_s": "s",
    "properties.apery_intersection.elements": "count",
    "properties.apery_intersection.maximal": "count",
    "properties.is_buchsbaum.self_s": "s",
    "properties.is_cohen_macaulay.self_s": "s",
    "properties.property_report.self_s": "s",
    "diophantine.minimal_solutions.calls": "count",
    "diophantine.minimal_solutions.self_s": "s",
    "diophantine.minimal_solutions.points_out": "count",
    "diophantine.cone_hilbert_basis.self_s": "s",
    "general.minimal_generators_general.self_s": "s",
    "general.minimal_generators_general.cap_exceeded": "count",
    "oracle.brute_members.self_s": "s",
    "oracle.brute_members.window_points": "count",
    "oracle.closure_in_window.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env(root: Path, extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    # one thread per process: the loop is single-client
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.update(extra or {})
    return env


def _child(argv: list[str], env: dict, timeout: float, stdin: str | None = None) -> str:
    try:
        proc = subprocess.run(argv, input=stdin, capture_output=True, text=True,
                              env=env, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{argv[1]} ran past {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise HarnessError(f"{' '.join(argv[:2])} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout


def measure_setup(env: dict, probes: int, timeout: float) -> list[dict]:
    """Import-and-parser time of fresh interpreters; the first warms caches."""
    argv = [sys.executable, str(HERE / "calibrate.py")]
    return [json.loads(_child(argv, env, timeout)) for _ in range(probes + 1)][1:]


def run_pass(ops: list[dict], env: dict, timeout: float, trace: bool = False,
             keep_stdout: bool = False, spans: Path | None = None) -> dict:
    RESULTS.mkdir(exist_ok=True)
    request = {"ops": ops, "trace": trace, "keep_stdout": keep_stdout,
               "workdir": str(RESULTS), "spans": str(spans) if spans else None}
    out = _child([sys.executable, str(HERE / "worker.py")], env, timeout,
                 stdin=json.dumps(request))
    return json.loads(out)


def judge(passes: list[dict], expected: dict | None) -> dict:
    """Error by (pass index, op id) for every op execution that is not right.

    With ``expected`` (op id -> digest), an op is right when it exits 0
    with the recorded digest.  Without, when it exits 0 and every pass
    agrees with the first.  Passes must agree byte for byte either way.
    """
    errors = {}
    first = {op["id"]: op["digest"] for op in passes[0]["ops"]}
    for i, result in enumerate(passes):
        for op in result["ops"]:
            key = (i, op["id"])
            if op["rc"] != 0:
                errors[key] = f"exit code {op['rc']}: {op.get('stderr', '').strip()}"
            elif expected is not None and op["digest"] != expected.get(op["id"]):
                errors[key] = "output differs from the recorded digest"
            elif op["digest"] != first[op["id"]]:
                errors[key] = "output differs between passes"
    return errors


def b_exponent(ops: list[dict], times: dict) -> float:
    """Least-squares slope of log(rung seconds) against log(b); 0 without a ladder."""
    rungs = defaultdict(float)
    for op in ops:
        if op["rung"] is not None:
            rungs[op["rung"]] += times[op["id"]]
    if len(rungs) < 2:
        return 0.0
    xs = [math.log(b) for b in rungs]
    ys = [math.log(t) for t in rungs.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _wall(result: dict, scale: bool = True) -> float:
    """Seconds of the pass's ops, at the reference speed unless not ``scale``."""
    return sum(op["seconds"] * (op["speed"] if scale else 1) for op in result["ops"])


def summarize(ops: list[dict], timed: list[dict], traced: list[dict], setup: list[dict],
              failed: int) -> tuple[dict, dict, dict]:
    """All metrics at the reference speed, the measured times they come
    from, and the median seconds of each op over the timed passes."""
    median = statistics.median
    by_id = {op["id"]: op for op in ops}
    samples = defaultdict(list)
    for result in timed:
        for op in result["ops"]:
            samples[op["id"]].append(op["seconds"] * op["speed"])
    op_s = {op_id: median(times) for op_id, times in samples.items()}
    metrics = {"wall_s": median(_wall(p) for p in timed),
               "setup_s": median(p["seconds"] * p["speed"] for p in setup),
               "peak_rss_mb": median(p["peak_rss_mb"] for p in timed)}
    measured = {"wall_s": median(_wall(p, scale=False) for p in timed),
                "setup_s": median(p["seconds"] for p in setup),
                "speed": median(op["speed"] for p in timed for op in p["ops"])}
    for verb in VERBS:
        metrics[f"{verb}_s"] = sum(t for op_id, t in op_s.items() if by_id[op_id]["verb"] == verb)
    metrics["b_exponent"] = b_exponent(ops, op_s)
    metrics["failed_ops"] = failed
    if traced:
        # layer times are totals over a pass: scale them by its mean speed
        speeds = [_wall(p) / _wall(p, scale=False) for p in traced]
        for name in LAYERS:
            if name.endswith("_s"):
                metrics[name] = median(p["layers"].get(name, 0) * speed
                                       for p, speed in zip(traced, speeds))
            else:
                metrics[name] = statistics.median_low(p["layers"].get(name, 0) for p in traced)
        metrics["trace.overhead_s"] = median(_wall(p) for p in traced) - metrics["wall_s"]
    return metrics, measured, op_s


def _src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():  # never look above the checkout
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def provenance(root: Path, args, numpy_version) -> dict:
    return {"git_sha": _git_sha(root),
            "python": sys.version.split()[0], "numpy": numpy_version,
            "nproc": os.cpu_count(), "seed": args.seed, "held_out": args.held_out,
            "src_lines": _src_lines(root), "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace,
            "time": strftime("%Y-%m-%dT%H:%M:%S%z")}


def check_outputs(ops: list[dict], result: dict, root: Path) -> dict:
    """check.py's errors by op id, for a pass run with ``keep_stdout``."""
    sys.path.insert(0, str(root / "src"))
    import check
    return check.verify(ops, {op["id"]: (op["rc"], op["stdout"]) for op in result["ops"]})


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="draw the inputs from --seed instead of the reference ones")
    parser.add_argument("--out", type=Path, help="result file (JSON)")
    return parser.parse_args(argv)


def run(args, root: Path) -> tuple[dict, bool]:
    start = perf_counter()
    remaining = lambda: RUN_LIMIT_S - (perf_counter() - start)
    if not (root / "src" / "propmod" / "__init__.py").is_file():
        raise HarnessError(f"no propmod sources under {root / 'src'}")
    ops = workloads.build(args.workload, args.seed if args.held_out else 0, root)
    random.Random(args.seed).shuffle(ops)
    expected = None
    if not args.held_out:
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
        expected = {op["id"]: recorded.get(op["id"]) for op in ops}

    env = child_env(root)
    setup = measure_setup(env, SETUP_PROBES, remaining())
    timed, traced = [], []
    spans = None
    measure_start = perf_counter()
    while not timed or perf_counter() - measure_start < args.seconds:
        timed.append(run_pass(ops, env, remaining(), keep_stdout=args.held_out and not timed))
        if args.trace:
            spans = RESULTS / f"spans-{args.workload}-{args.seed}.json"
            traced.append(run_pass(ops, env, remaining(), trace=True, spans=spans))

    errors = judge(timed + traced, expected)
    if args.held_out:
        errors.update({(0, op_id): msg for op_id, msg in check_outputs(ops, timed[0], root).items()})
    metrics, measured, op_s = summarize(ops, timed, traced, setup, len(errors))
    report = {"provenance": provenance(root, args, timed[0]["numpy"]),
              "metrics": metrics, "measured": measured, "op_seconds": op_s,
              "errors": {f"pass {i} {op_id}": msg for (i, op_id), msg in sorted(errors.items())},
              "passes": {kind: [{op["id"]: [op["seconds"], op["speed"]] for op in p["ops"]}
                                for p in passes]
                         for kind, passes in (("timed", timed), ("traced", traced))},
              "setup_probes": setup,
              "spans_file": str(spans) if spans else None,
              "attempted": sum(len(p["ops"]) for p in timed + traced)}
    return report, not errors


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    try:
        report, correct = run(args, root)
    except (HarnessError, OSError, ValueError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    out = args.out or RESULTS / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                                 f"{'-held-out' if args.held_out else ''}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True), encoding="utf-8")

    metrics = report["metrics"]
    units = {**END_TO_END, **SUMMARY, **LAYERS}
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    for name, value in report["measured"].items():
        print(f"measured.{name} {value!r} {'1' if name == 'speed' else 's'}")
    for key, msg in report["errors"].items():
        print(f"WRONG {key}: {msg}")
    print(f"result file {out}")
    chosen = {**SUMMARY, **LAYERS} if args.trace else END_TO_END
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": len(report["errors"]),
                      "metrics": {name: {"value": metrics[name], "unit": units[name]}
                                  for name in chosen}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
