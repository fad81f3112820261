"""The benchmark harness in perfbench/ still runs against the package."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Runs in its own interpreter: importing run.py sets thread variables and
# sys.path for the whole process.
_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run
from cavity_toffoli import analysis, trajectories
tiny = run.workloads(anchor_n_traj=4, surface_n_traj=4)
outcomes = {name: w.op(5) for name, w in tiny.items()}
print(json.dumps({
    "failed": {name: o.failed for name, o in outcomes.items()},
    "means": [outcomes["anchor"].detail["mean"]]
             + [cell[2] for cell in outcomes["surface"].detail["cells"]],
    "bound": analysis.mcwf_trajectory is trajectories.mcwf_trajectory,
}))
"""


def test_benchmark_workloads_run_once():
    """Each workload's operation runs at tiny sizes.  The oracle and
    validate checks hold; at 4 trajectories per input the anchor check can
    fail on correct code, so only its and the surface's means are checked."""
    done = subprocess.run([sys.executable, "-c", _SCRIPT, str(ROOT / "perfbench")],
                          capture_output=True, text=True, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["failed"]["oracle"] == 0 and report["failed"]["validate"] == 0
    assert all(0.0 <= mean <= 1.0 for mean in report["means"])
    assert report["bound"]   # perfbench/selftest.py patches this binding
