"""Known limits of the program, kept out of the timed workloads.

    python3 perfbench/limits.py

The timed workloads hold only ops that succeed, so a failing op cannot mix
into their times.  Ops the program cannot do yet are listed here instead.
Each one passes only when it exits 0 and its output passes ``check.py``.
Once one passes, it can join a workload in a change of its own.  Prints one
PASS/FAIL line per op with its time; the exit code is the number of
failures.
"""

from __future__ import annotations

import sys
from pathlib import Path

import run
import workloads

# gens --method general on the 3-d family at b = 8: the general
# construction stops with CapExceeded (its box scan passes one million
# points) at the reference commit.
LIMITS = [workloads.general_op(*workloads.GENERAL_3D, 8)]


def main() -> int:
    root = Path.cwd()
    result = run.run_pass(LIMITS, run.child_env(root), timeout=600, keep_stdout=True)
    errors = run.check_outputs(LIMITS, result, root)
    for op in result["ops"]:
        verdict = "FAIL" if op["id"] in errors else "PASS"
        detail = errors.get(op["id"], "")
        if op["rc"] != 0:
            detail += f" ({op['stderr'].strip().splitlines()[-1]})"
        print(f"{verdict} {op['id']} {op['seconds']:.2f} s peak {result['peak_rss_mb']:.0f} MB"
              f"{': ' + detail if detail else ''}")
    return len(errors)


if __name__ == "__main__":
    sys.exit(main())
