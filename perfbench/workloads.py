"""Job lists of the benchmark's four workloads.

A job is one ``fphomalg`` CLI call: the subcommand with its options, and
the JSON input document.  Every workload is a closed loop with one client:
the benchmark runs a pass of jobs back to back through ``cli.main`` and
repeats passes until its time is up.  The seed fixes the job order of each
pass; every seed runs the same jobs, so that runs with different seeds
measure the same work.  Every job is in ``universe()``, so every output has
a golden.  Timings in the comments below are from a 2-vCPU Intel Xeon VM.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    argv: tuple
    input_text: str

    @property
    def id(self) -> str:
        return " ".join(self.argv) + " " + self.input_text

    @property
    def input_name(self) -> str:
        return hashlib.sha1(self.id.encode()).hexdigest()[:16] + ".json"


def job(*argv, data) -> Job:
    return Job(tuple(str(a) for a in argv), json.dumps(data, sort_keys=True,
                                                       separators=(",", ":")))


def gens(*degrees):
    return [{"name": "xyzw"[i], "degree": d} for i, d in enumerate(degrees)]


def exterior(*degrees, module=None):
    data = {"algebra": {"kind": "exterior", "generators": gens(*degrees)}}
    if module is not None:
        data["module"] = {"dims": {str(d): n for d, n in module.items()}}
    return data


# --- aq-exterior ------------------------------------------------------------

# The 3-generator case at --smax 4 (about 20 s and 450 MB) does not fit one
# timed run, and neither does --smax 3 (1.3-1.6 s) often enough: the host's
# speed jitters within a second, so a job should be short next to the
# reference timings around it and repeat at least ten times in a run for
# its median to be steady.  --smax 2 (0.16 s) runs the same cochain,
# assembly and d*d code on 7^4 words.
AQ_ANCHOR = job("aq", "-p", 3, "-n", 12, "--smax", 2, data=exterior(3, 5, 7, module={3: 1}))

AQ_PRIMES = (2, 3)
AQ_DEGREES = ((1, 3), (3, 5))
AQ_MODULES = [{d: 1} for d in (1, 3, 5, 7)]


def aq_instance(p, degrees, module) -> Job:
    """ACCEPT-04-style instance: odd exterior algebra, odd trivial module.
    At --smax 4 (0.03-0.1 s) rather than 5 (0.15-0.3 s), for the same reason."""
    return job("aq", "-p", p, "-n", 12, "--smax", 4, data=exterior(*degrees, module=module))


def aq_pool():
    """Every ACCEPT-04-style instance of the workload.  The module's degree
    moves a job's cost by up to a fifth, so a run that drew some of them
    would measure different work on different seeds; each pass runs them all."""
    for p in AQ_PRIMES:
        for degrees in AQ_DEGREES:
            for module in AQ_MODULES:
                yield aq_instance(p, degrees, module)


# --- lie-closure --------------------------------------------------------------

LIE_SETS = [(2,), (3,), (2, 2), (2, 3), (3, 5)]


def lie_jobs(sets, primes, cap=10):
    return [job(cmd, "-p", p, "-n", cap, "--weight-cap", 10, data=gens(*degs))
            for degs in sets for p in primes for cmd in ("free-lie", "restricted")]


# (2,2) at cap 10 takes 0.3-0.45 s a job and (2,2,3) at cap 10 about 6 s for
# the pair; at caps 9 and 8 they take 0.06-0.16 s, so a pass takes about a
# second and every job repeats some twenty times in a run.
LIE_FIXED = (lie_jobs([s for s in LIE_SETS if s != (2, 2)], (2, 3, 5))
             + lie_jobs([(2, 2)], (2, 3, 5), cap=9) + lie_jobs([(2, 2, 3)], (2,), cap=8))

# --- bar-koszul -----------------------------------------------------------------

BAR_ALGEBRA = {"kind": "exterior", "generators": gens(1, 3)}


def bar_jobs(cap, primes, loops_cap=18):
    return ([job("bar", "-p", p, "-n", cap, data=BAR_ALGEBRA) for p in primes]
            + [job("loops", "-p", 3, "-n", loops_cap, data={"dims": {"2": 1, "4": 1}})])


# bar at cap 16 (about 0.2 s a job) rather than 18 (about 1.8 s), and loops
# at cap 16 (0.05 s) rather than 18 (0.6 s), for the same reason; rref keeps
# about 40% of a bar job at caps 16 to 18.
BAR_FIXED = bar_jobs(16, (2, 3, 97), loops_cap=16)

# --- command-sweep ---------------------------------------------------------------

SIMPLICIAL = {"vertices": ["a", "b"], "facets": [["a"], ["b"]], "degree": 2}
ACTION = {"p": 3, "matrices": [[[2, 0], [0, 2]]], "degrees": [2, 2]}
COSPAN = {
    "category": {"objects": [{"id": "z", "lambda": 0}, {"id": "x", "lambda": 1},
                             {"id": "y", "lambda": 1}],
                 "arrows": [{"id": "a", "src": "z", "dst": "x"},
                            {"id": "b", "src": "z", "dst": "y"}]},
    "values": {o: {"dims": {"2": 1}} for o in "zxy"},
    "maps": {f: {"degree": 0, "blocks": {"2": [[0]]}} for f in "ab"},
}


def _span_values(x_dim):
    return {"z": {"dims": {"3": 1}}, "x": {"dims": {"3": x_dim}}, "y": {"dims": {"3": 1}}}


SPAN_MAPS = {"a": {"blocks": {"3": [[1, 0]]}}, "b": {"blocks": {"3": [[1]]}}}
DIAGRAM_AQ = {  # the surjective span of ACCEPT-08
    "category": COSPAN["category"],
    "v_values": _span_values(2), "v_maps": SPAN_MAPS,
    "m_values": _span_values(2), "m_maps": SPAN_MAPS,
}

SWEEP_FIXED = [
    job("free-lie", "-p", 3, "-n", 10, data=gens(2)),
    job("restricted", "-p", 3, "-n", 8, data=gens(2)),
    job("free-w1", "-p", 3, "-n", 11, data=gens(3)),
    job("axioms", "-p", 2, "--trials", 25, data=gens(2, 3)),
    job("ext", "-p", 2, "--smax", 6, data=exterior(3)),
    job("hochschild", "-p", 2, "--smax", 4, data=exterior(3, module={3: 1})),
    job("aq", "-p", 3, "-n", 12, "--smax", 4, data=exterior(3, module={3: 1})),
    job("tor", "-p", 3, "-n", 8,
        data={"base": {"kind": "polynomial", "generators": [{"name": "u", "degree": 2}]}}),
    job("bar", "-p", 3, "-n", 8,
        data={"kind": "polynomial", "generators": [{"name": "u", "degree": 2}]}),
    job("diagram-lim", "-p", 2, "-n", 6, data=SIMPLICIAL),
    job("diagram-lim", "-p", 3, "-n", 6, data=COSPAN),
    job("injective", "-p", 2, "-n", 6, data=SIMPLICIAL),
    job("stanley-reisner", "-p", 2, "-n", 6, data=SIMPLICIAL),
    job("invariants", "-n", 12, data=ACTION),
    job("lie-check", "-n", 12, data=ACTION),
    job("emss", "-p", 2, "-n", 12, data={"preset": "diagonal-circle", "n": 3}),
    job("loops", "-p", 3, "-n", 8, data={"dims": {"2": 1}}),
    job("obstruction", data=[{"s": 1, "t": 3, "dim": 2}]),
    job("obstruction", data=[{"s": 1, "t": 0, "dim": 1}]),
    job("diagram-aq", "-p", 2, "--smax", 2, "--qmax", 3, data=DIAGRAM_AQ),
    job("diagram-aq", "-p", 3, "--smax", 2, "--qmax", 3, data=DIAGRAM_AQ),
]


@dataclass(frozen=True)
class Workload:
    fixed: tuple
    smoke: tuple

    def run_jobs(self, smoke: bool = False) -> list:
        """The jobs every pass of one run repeats (each pass shuffles them)."""
        return list(self.smoke if smoke else self.fixed)


WORKLOADS = {
    "aq-exterior": Workload(
        (AQ_ANCHOR, *aq_pool()),
        smoke=(aq_instance(2, (1, 3), {3: 1}), aq_instance(3, (3, 5), {1: 1, 5: 1}))),
    "lie-closure": Workload(
        tuple(LIE_FIXED), smoke=tuple(lie_jobs([(2, 2)], (3,)))),
    "bar-koszul": Workload(
        tuple(BAR_FIXED), smoke=tuple(bar_jobs(10, (2, 97), loops_cap=10))),
    "command-sweep": Workload(
        tuple(SWEEP_FIXED), smoke=tuple(SWEEP_FIXED)),
}


def universe() -> list:
    """Every job of every workload, smoke runs included, without repeats."""
    jobs = {}
    for w in WORKLOADS.values():
        for j in itertools.chain(w.fixed, w.smoke):
            jobs[j.id] = j
    return list(jobs.values())
