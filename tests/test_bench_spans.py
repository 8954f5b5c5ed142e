"""The benchmark's traced run can trace this source tree.

perfbench/spans.py wraps qfun callables by name and predicts, per workload,
which spans record calls; a traced run exits 2 when a name is bound nowhere
or a predicted span records none.  Each workload runs here in its own
interpreter, as perfbench/run.py runs it: set-up untraced, then one traced
pass of the seed-1 jobs, then the check of the predicted spans.  Nothing is
written under perfbench/.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PASS = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import qfun, qfun.cli
import spans
from workloads import WORKLOADS

qfun.antipode_convention_report()
wl = WORKLOADS[sys.argv[3]]
jobs = wl.make_jobs(1)
prep = wl.prepare(jobs)
tracer = spans.Tracer()
tracer.install()
state = wl.new_pass(prep)
failed = []
for k, job in enumerate(jobs):
    try:
        if not wl.run(state, job):
            failed.append([k, "identity is false"])
    except Exception as exc:
        failed.append([k, f"{type(exc).__name__}: {exc}"])
tracer.metrics(1, sys.argv[3])
print(json.dumps({"workloads": sorted(WORKLOADS), "jobs": len(jobs), "failed": failed}))
"""

WORKLOADS = ("catalog", "coproduct", "rootvec", "queries")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_records_every_predicted_span(workload):
    proc = subprocess.run(
        [sys.executable, "-c", PASS, str(ROOT / "perfbench"), str(ROOT / "src"), workload],
        capture_output=True, text=True, timeout=300, cwd=str(ROOT),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["workloads"] == sorted(WORKLOADS)
    assert got["jobs"] > 0
    assert got["failed"] == []
