"""Record the reference output digests, after checking every output.

    python3 perfbench/record.py

Runs each workload's reference ops once, checks every output with
``check.py`` (brute-force oracle and the defining inequality), and only if
all pass writes ``perfbench/digests.json``: op id -> sha256 of exit code
and stdout.  Run it once on the commit whose outputs are the reference.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

import run
import workloads


def main() -> int:
    root = Path.cwd()
    env = run.child_env(root)
    digests, failures = {}, 0
    for name in workloads.WORKLOADS:
        ops = workloads.build(name, 0, root)
        result = run.run_pass(ops, env, timeout=3600, keep_stdout=True)
        start = perf_counter()
        errors = run.check_outputs(ops, result, root)
        print(f"{name}: {len(ops)} ops, {len(errors)} wrong, "
              f"checked in {perf_counter() - start:.1f} s")
        for op_id, msg in errors.items():
            print(f"  WRONG {op_id}: {msg}")
        failures += len(errors)
        digests.update({op["id"]: op["digest"] for op in result["ops"]})
    if failures:
        print("digests not written")
        return 1
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"wrote {len(digests)} digests to {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
