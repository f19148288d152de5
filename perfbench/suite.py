"""Run every workload and print the end-to-end table, or compare two sets of runs.

    python3 perfbench/suite.py run DIR [--seeds 1,2,3] [--seconds 25] [--trace]
    python3 perfbench/suite.py compare BASE_DIR NEW_DIR

``run`` starts ``run.py`` once per workload and seed, each in a fresh
process, writes each record to ``DIR/<workload>-<trace>-<seed>.json`` and
prints the median of every metric with ``fail_frac`` beside it.
``compare`` prints, per workload and end-to-end metric, both medians, the
change and the base's quartile spread, marks changes beyond the metric's
bound in ``BENCHMARK.json``, and reports output digests that differ for
the same workload and seed.  It refuses to compare runs made on different
kernel backends: a silent fallback must not read as a speed change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_all(out_dir: Path, seeds, seconds, trace) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    status = 0
    for w in WORKLOADS:
        for seed in seeds:
            out = out_dir / f"{w}-{int(trace)}-{seed}.json"
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(int(trace)), "--out", str(out)]
            if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode != 0:
                print(f"{w} seed {seed}: run failed", file=sys.stderr)
                status = 1
    print_table(load(out_dir))
    return status


def load(run_dir: Path) -> dict:
    """``{workload: [record, ...]}`` for every record in ``run_dir``."""
    out: dict[str, list] = {}
    for path in sorted(run_dir.glob("*.json")):
        rec = json.loads(path.read_text())
        out.setdefault(rec["info"]["workload"], []).append(rec)
    return out


def medians(records) -> dict:
    """Median per metric; a run with failed jobs reports no time (None)."""
    out = {}
    for n in records[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][n]["value"] for r in records]
        values = [v for v in values if v is not None]
        out[n] = statistics.median(values) if values else float("nan")
    return out


def print_table(runs: dict):
    for w, records in runs.items():
        med = medians(records)
        fail = sum(r["result"]["failed"] for r in records)
        tried = sum(r["result"]["attempted"] for r in records)
        cells = "  ".join(f"{n} {v:.4g}" for n, v in med.items())
        print(f"{w:14} runs {len(records):2}  {cells}  fail_frac {fail / tried:.4g}")


def compare(base_dir: Path, new_dir: Path) -> int:
    base, new = load(base_dir), load(new_dir)
    backends = {r["info"]["env"]["backend"] for runs in (base, new)
                for records in runs.values() for r in records}
    if len(backends) > 1:
        print(f"refusing to compare runs on different kernel backends: {sorted(backends)}",
              file=sys.stderr)
        return 2
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    worse = 0
    for w in WORKLOADS:
        if w not in base or w not in new:
            continue
        mb, mn = medians(base[w]), medians(new[w])
        for name, bound in bounds.items():
            if name not in mb or name not in mn:
                continue
            values = [r["result"]["metrics"][name]["value"] for r in base[w]]
            values = [v for v in values if v is not None]
            spread = 0.0
            if len(values) >= 2:
                q = statistics.quantiles(values, n=4)
                spread = (q[2] - q[0]) / mb[name]
            change = mn[name] / mb[name] - 1
            flag = "WORSE" if change > bound else ""
            worse += bool(flag)
            print(f"{w:14} {name:12} base {mb[name]:.4g} new {mn[name]:.4g} "
                  f"change {change:+.2%} base spread {spread:.2%} bound {bound:.0%} {flag}")
        digests = {}
        for tag, runs in (("base", base[w]), ("new", new[w])):
            for r in runs:
                digests.setdefault(r["info"]["seed"], {})[tag] = r["info"]["digest"]
        for seed, d in sorted(digests.items()):
            if len(d) == 2 and d["base"] != d["new"]:
                print(f"{w:14} seed {seed}: output digest differs")
                worse += 1
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("dir", type=Path)
    r.add_argument("--seeds", default="1")
    r.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    r.add_argument("--trace", action="store_true")
    c = sub.add_parser("compare")
    c.add_argument("base", type=Path)
    c.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    if args.cmd == "run":
        seeds = [int(s) for s in args.seeds.split(",")]
        return run_all(args.dir, seeds, args.seconds, args.trace)
    return compare(args.base, args.new)


if __name__ == "__main__":
    sys.exit(main())
