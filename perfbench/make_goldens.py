"""Write ``perfbench/goldens.json``: the JSON output of every benchmark job.

    python3 perfbench/make_goldens.py

The goldens were taken at the commit that added the benchmark.  Later
commits must reproduce them byte for byte; regenerate them only in a change
that means to alter outputs, and say so in that change.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.cap_threads()
    sys.path.insert(0, str(run.SRC))
    from workloads import universe

    runner = run.Runner({})
    goldens = {}
    jobs = universe()
    for i, j in enumerate(jobs):
        code, text, err, dt, _ = runner.call(j)
        if code != 0:
            print(f"job failed with exit {code}: {j.id}\n{err}", file=sys.stderr)
            return 1
        goldens[j.id] = text
        print(f"{i + 1}/{len(jobs)} {dt:7.3f}s {j.id[:90]}", file=sys.stderr)
    with open(run.GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
