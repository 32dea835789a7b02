"""One pass of a workload's ops, in the fresh interpreter that runs this file.

Reads a JSON request on stdin::

    {"ops": [...], "trace": false, "keep_stdout": false,
     "workdir": "perfbench/results", "spans": null}

and writes one JSON result on stdout: per op its exit code, seconds, the
sha256 of its exit code and stdout, and the machine's speed while it ran
(see ``calibrate.py``); peak RSS; and, when traced, the
per-layer summary of ``tracer.Tracer``.  The ``solve`` systems are written
to files under ``workdir``; a traced pass writes its spans to ``spans``
when set.  Run by ``run.py`` with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402


def digest(rc: int, stdout: str) -> str:
    return hashlib.sha256(f"{rc}\n{stdout}".encode()).hexdigest()


def _run_op(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception:  # a crash of the program is an op failure, not ours
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue()


def run(request: dict) -> dict:
    from propmod import cli

    tracer = None
    if request["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=request["workdir"]))
    try:
        ops = []
        for op in request["ops"]:
            argv = list(op["argv"])
            if "system" in op:
                path = workdir / f"{op['id'].replace(':', '-')}.json"
                path.write_text(json.dumps(op["system"]), encoding="utf-8")
                argv = [str(path) if a == "{system}" else a for a in argv]
            ops.append((op["id"], argv))

        results, windows = [], []
        gauge = calibrate.Gauge()
        gauge.samples.append(calibrate.speed_sample())
        gauge.start()
        try:
            for op_id, argv in ops:
                if tracer:
                    tracer.op = op_id
                start = perf_counter()
                rc, stdout, stderr = _run_op(cli.main, argv)
                end = perf_counter()
                result = {"id": op_id, "rc": rc, "seconds": end - start,
                          "digest": digest(rc, stdout)}
                if rc != 0:
                    result["stderr"] = stderr[-2000:]
                if request["keep_stdout"]:
                    result["stdout"] = stdout
                results.append(result)
                windows.append((start, end))
        finally:
            gauge.stop()
        gauge.samples.append(calibrate.speed_sample())
        for result, (start, end) in zip(results, windows):
            result["speed"] = gauge.speed(start, end)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    numpy = sys.modules.get("numpy")
    reply = {"ops": results,
             "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
             "numpy": numpy.__version__ if numpy else None}
    if tracer:
        reply["layers"] = tracer.summary()
        reply["span_count"] = len(tracer.spans)
        if request["spans"]:
            with open(request["spans"], "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
    return reply


if __name__ == "__main__":
    json.dump(run(json.load(sys.stdin)), sys.stdout)
