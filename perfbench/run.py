"""End-to-end benchmark of the ``fphomalg`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The benchmark writes the jobs' input files under
``perfbench/_work/`` and nothing else, unless ``--out`` names a file for the
full record.  See ``perfbench/README.md`` for the workloads and metrics.

With ``--trace 0`` it repeats passes of the workload's jobs until the time
is up and reports the end-to-end metrics.  With ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics.  Every job's
output is compared byte for byte with its golden; the last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import scale, slowdown

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
GOLDENS = HERE / "goldens.json"
SETUP_REPEATS = 9
# The child measures the slowdown before and after the set-up, on the CPU
# the set-up runs on, without numpy (the set-up imports it), and prints
# both and the seconds they took.
SETUP_CODE = """import time
t0 = time.perf_counter()
from reference import slowdown
before = slowdown(numpy=False)
t1 = time.perf_counter()
import fphomalg.cli as c
c.build_parser()
t2 = time.perf_counter()
after = slowdown(numpy=False)
print(before, after, t1 - t0 + time.perf_counter() - t2)
"""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads():
    """Cap BLAS/OpenMP threads at the usable cores; must run before numpy loads."""
    n = str(nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n


def child_env() -> dict:
    env = dict(os.environ)
    path = [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def setup_once() -> float:
    """Time from a fresh interpreter to the CLI imported and its parser built,
    less the child's reference timings, scaled to a quiet phase."""
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(), check=True,
                         capture_output=True, text=True).stdout
    dt = time.perf_counter() - t0
    before, after, spent = map(float, out.split())
    return scale(dt - spent, before, after)


def load_goldens() -> dict:
    with open(GOLDENS) as fh:
        return json.load(fh)


class Runner:
    """Runs jobs through ``cli.main`` and checks them against goldens."""

    def __init__(self, goldens: dict):
        from fphomalg import cli

        self.cli = cli
        self.goldens = goldens
        self.attempted = 0
        self.failed = 0
        self.times_by_job: dict[str, list[float]] = {}
        self.outputs: dict[str, str] = {}
        self.slowdown = None  # measured after the last job, so before the next
        WORK.mkdir(exist_ok=True)

    def call(self, j):
        """Run one job; returns its exit code, stdout, stderr, seconds, and
        seconds scaled to a quiet phase (see ``reference.py``)."""
        path = WORK / j.input_name
        if not path.exists():
            path.write_text(j.input_text)
        out, err = io.StringIO(), io.StringIO()

        def main():
            try:
                return self.cli.main([*j.argv, "--format", "json", str(path)])
            except Exception as e:  # a traceback is a failed job, not a crash
                return f"raised {e!r}"

        before = self.slowdown or slowdown()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = main()
            dt = time.perf_counter() - t0
        self.slowdown = slowdown()
        return code, out.getvalue(), err.getvalue(), dt, scale(dt, before, self.slowdown)

    def run_pass(self, jobs) -> float:
        """Run one pass of jobs; returns the raw time spent inside ``cli.main``."""
        busy = 0.0
        for j in jobs:
            code, text, err, dt, scaled = self.call(j)
            gc.collect()  # the next job starts from the same heap whatever the order
            busy += dt
            self.attempted += 1
            if code == 0 and self.goldens.get(j.id) == text:
                self.times_by_job.setdefault(j.id, []).append(scaled)
                self.outputs[j.id] = text
                continue
            self.failed += 1
            if self.failed <= 3:
                why = "no golden" if j.id not in self.goldens else f"exit {code}"
                print(f"FAILED ({why}): {j.id[:120]} {err[-300:]}", file=sys.stderr)
        return busy

    def digest(self) -> str:
        h = hashlib.sha256()
        for job_id in sorted(self.outputs):
            h.update(job_id.encode() + b"\0" + self.outputs[job_id].encode() + b"\0")
        return h.hexdigest()


def env_stamp() -> dict:
    import numpy

    import fphomalg

    return {
        "backend": fphomalg.KERNEL_BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, goldens: dict | None = None):
    """Run one workload; returns ``(result, info)``.

    Passes repeat while the next one is expected to end before the
    deadline; at least one pass (one pair when tracing) always runs.
    Per-layer metrics are means per traced pass, and ``trace.pass_s`` is
    the mean traced pass, so layer shares have a consistent base.
    End-to-end times are scaled to a quiet phase: ``wall_s`` sums each
    job's median over the run, ``job_s_p50`` is the median of all job runs.
    """
    import layers
    from workloads import WORKLOADS

    rng = random.Random(seed)
    jobs = WORKLOADS[name].run_jobs(smoke)
    runner = Runner(load_goldens() if goldens is None else goldens)
    plain, traced, setup = [], [], []
    tracer = layers.Tracer() if trace else None
    start = time.perf_counter()
    deadline = start + seconds
    next_setup = start
    while True:
        t_iter = time.perf_counter()
        # set-up samples spread over the run, so a slow phase of the
        # machine cannot catch all of them
        if tracer is None and time.perf_counter() >= next_setup:
            setup.append(setup_once())
            runner.slowdown = None  # stale after the set-up
            next_setup = time.perf_counter() + seconds / SETUP_REPEATS
        rng.shuffle(jobs)
        plain.append(runner.run_pass(jobs))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(runner.run_pass(jobs))
            finally:
                tracer.uninstall()
        now = time.perf_counter()
        if now + (now - t_iter) > deadline:
            break
    while tracer is None and len(setup) < SETUP_REPEATS:
        setup.append(setup_once())
    info = {
        "workload": name, "seed": seed, "trace": int(trace), "smoke": smoke,
        "env": env_stamp(), "passes": len(plain),
        "job_samples": sum(map(len, runner.times_by_job.values())),
        "measured_s": time.perf_counter() - start,
        "pass_raw_s_median": statistics.median(plain),
        "fail_frac": runner.failed / runner.attempted,
        "digest": runner.digest(),
    }
    if tracer is None:
        samples = runner.times_by_job.values()
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(map(statistics.median, samples)) if runner.failed == 0 else None,
            "job_s_p50": statistics.median([t for ts in samples for t in ts]) if samples else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "wall_s": "s", "job_s_p50": "s", "peak_rss_mb": "MB"}
    else:
        missing = [] if smoke else tracer.missing(name)
        if missing:
            raise SystemExit(f"trace coverage: entry points never fired on {name}: {missing}")
        metrics = tracer.metrics(len(traced))
        metrics["trace.pass_s"] = statistics.mean(traced)
        metrics["trace.overhead_frac"] = min(traced) / min(plain) - 1
        units = {k: layers.unit(k) for k in metrics}
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the small job list of the workload (self-tests)")
    parser.add_argument("--out", help="also write the result and run record here")
    args = parser.parse_args(argv)

    if not (SRC / "fphomalg" / "cli.py").is_file():
        print(f"no fphomalg sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 1
    if not GOLDENS.is_file():
        print(f"missing goldens file {GOLDENS}", file=sys.stderr)
        return 1
    cap_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import fphomalg

    if Path(fphomalg.__file__).resolve().parent != SRC / "fphomalg":
        print(f"fphomalg imported from {fphomalg.__file__}, not {SRC}", file=sys.stderr)
        return 1
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    result, info = run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace), smoke=args.smoke)
    print(json.dumps({"info": info}))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"info": info, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
