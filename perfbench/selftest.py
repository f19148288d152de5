"""Self-tests of the benchmark; exits non-zero on the first failure.

    python3 perfbench/selftest.py

For each workload, a smoke-size run with tracing off and on must pass and
report exactly the metric names and units that ``BENCHMARK.json`` lists.
Then one golden is corrupted on purpose: the run must count that job as
failed and report ``correct: false``, so the output check cannot pass
vacuously.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def check(ok: bool, what: str):
    if not ok:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def smoke(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
    check(proc.returncode == 0, f"{workload} trace {trace} exits 0 ({proc.stderr[-300:]})")
    return json.loads(proc.stdout.splitlines()[-1])


def corrupted_golden_fails():
    import run

    run.cap_threads()
    sys.path.insert(0, str(run.SRC))
    goldens = run.load_goldens()
    from workloads import WORKLOADS

    victim = WORKLOADS["command-sweep"].smoke[0]
    goldens[victim.id] = goldens[victim.id].replace("1", "2", 1)
    result, info = run.run_workload("command-sweep", 7, 0.0, False, smoke=True,
                                    goldens=goldens)
    check(result["failed"] >= 1 and info["fail_frac"] > 0,
          "a corrupted golden makes fail_frac nonzero")
    check(result["correct"] is False, "a corrupted golden makes the run incorrect")
    check(result["metrics"]["wall_s"]["value"] is None,
          "a pass with a failed job reports no wall time")


def main() -> int:
    for workload in (w["name"] for w in BENCH["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = smoke(workload, trace)
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload} trace {trace} result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace {trace} jobs match their goldens")
            want = {m["name"]: m["unit"] for m in BENCH[section]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            check(got == want, f"{workload} trace {trace} metric names and units")
    corrupted_golden_fails()
    return 0


if __name__ == "__main__":
    sys.exit(main())
