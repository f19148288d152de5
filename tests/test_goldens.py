"""Every benchmark job reproduces its golden output byte for byte.

The jobs and their expected JSON outputs are the benchmark's
(``perfbench/workloads.py`` and ``perfbench/goldens.json``), read without
modification; each job runs once through ``cli.main``.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from fphomalg.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
try:
    from workloads import universe
finally:
    sys.path.remove(str(PERFBENCH))

GOLDENS = json.loads((PERFBENCH / "goldens.json").read_text())
JOBS = universe()


def test_every_job_has_a_golden():
    assert len(JOBS) == len(GOLDENS) == 80
    assert {j.id for j in JOBS} == set(GOLDENS)


@pytest.mark.parametrize("job", JOBS, ids=[" ".join(j.argv) + " " + j.input_name[:8] for j in JOBS])
def test_output_matches_golden(tmp_path, job):
    path = tmp_path / job.input_name
    path.write_text(job.input_text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*job.argv, "--format", "json", str(path)])
    assert code == 0
    assert out.getvalue() == GOLDENS[job.id]
