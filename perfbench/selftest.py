"""Self-test of the benchmark on tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed for every
workload as a number, that a missing seam is null in the record and 0
in the summary, that the host slowdown is 1 at the kernels' nominal
speed and scales with them, and that each correctness check rejects a
deliberately wrong reference.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import unittest

import hostspeed
import run
from spans import Seam, Tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = run.workloads(anchor_n_traj=4, surface_n_traj=4)


def _printed_summary(workload, trace: bool) -> tuple[dict, dict]:
    """Run one tiny measurement, print it as main does and parse stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        run.report(*run.measure(workload, seed=5, seconds=0.0, trace=trace,
                                setup_samples=1))
    lines = out.getvalue().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class MetricsPrinted(unittest.TestCase):
    def test_every_named_metric_is_printed(self):
        e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
        layers = {m["name"] for m in BENCHMARK["per_layer"]}
        self.assertEqual({w["name"] for w in BENCHMARK["workloads"]}, set(TINY))
        self.assertEqual(layers, {name for name, _ in run.PER_LAYER})
        for name, workload in TINY.items():
            for trace, names in ((False, e2e), (True, layers)):
                with self.subTest(workload=name, trace=trace):
                    record, summary = _printed_summary(workload, trace)
                    self.assertEqual(set(summary), {"correct", "attempted",
                                                    "failed", "metrics"})
                    self.assertEqual(set(summary["metrics"]), names)
                    self.assertGreaterEqual(summary["attempted"], 1)
                    self.assertIn("failed_frac", record)
                    self.assertEqual(record["seed"], 5)
                    self.assertGreater(record["host_slowdown"], 0.0)
                    for metric, entry in summary["metrics"].items():
                        value = entry["value"]
                        self.assertIsInstance(value, (int, float), metric)
                        self.assertNotIsInstance(value, bool, metric)
                        self.assertTrue(math.isfinite(value), metric)
                    if not trace:
                        for metric, entry in summary["metrics"].items():
                            self.assertGreater(entry["value"], 0.0, metric)

    def test_missing_seam_is_null(self):
        tracer = Tracer([Seam("trajectories.compile",
                              (("cavity_toffoli.trajectories", "_gone"),))])
        with tracer:
            pass
        self.assertEqual(tracer.missing, {"trajectories.compile"})
        self.assertIsNone(run.layer_value("trajectories.compile.calls", tracer, 1))
        self.assertIsNone(run.layer_value("trajectories.compile.s", tracer, 1))
        value = run.layer_value("trajectories.compile.s", tracer, 1)
        printed = run._jsonable({"trajectories.compile.s": (value, "s/op")},
                                missing=0.0)
        self.assertEqual(printed["trajectories.compile.s"]["value"], 0.0)

    def test_tracer_restores_originals(self):
        original = run.trajectories.mcwf_trajectory
        with Tracer(run.SEAMS):
            self.assertIsNot(run.trajectories.mcwf_trajectory, original)
            self.assertIsNot(run.analysis.mcwf_trajectory, original)
        self.assertIs(run.trajectories.mcwf_trajectory, original)
        self.assertIs(run.analysis.mcwf_trajectory, original)


class HostSpeed(unittest.TestCase):
    def test_slowdown_is_relative_to_nominal(self):
        nominal = (hostspeed.TRAJECTORY_NOMINAL_S, hostspeed.DENSITY_MATRIX_NOMINAL_S)
        for weights in {w.engine_weights for w in TINY.values()}:
            with self.subTest(weights=weights):
                self.assertAlmostEqual(hostspeed.slowdown(weights, *nominal), 1.0)
                doubled = [2.0 * t for t in nominal]
                self.assertAlmostEqual(hostspeed.slowdown(weights, *doubled), 2.0)


class ChecksRejectWrongReferences(unittest.TestCase):
    def test_anchor(self):
        noise = run.trajectories.NoiseParams(tau=1e-3, epsilon=0.03, n_traj=4, seed=5)
        res = run.analysis.gate_fidelity(run.PARAMS, noise)
        self.assertFalse(run.check_anchor(res.mean, res.std_error, ref=(0.2, 0.001)))

    def test_surface(self):
        grid = run.analysis.sweep(run.PARAMS, run.SURFACE_TAUS,
                                  run.SURFACE_EPSILONS, 4, 5)
        cells = [cell for row in grid.cells for cell in row]
        wrong = {tau: 0.05 for tau in run.LINDBLAD_EPS0}
        verdicts = run.check_surface(cells, refs=wrong)
        checked = [ok for cell, ok in zip(cells, verdicts)
                   if cell.epsilon == 0.0 and cell.tau in wrong]
        self.assertEqual(len(checked), len(wrong))
        self.assertFalse(any(checked))

    def test_oracle(self):
        value = run.analysis.lindblad_gate_fidelity(run.PARAMS, run.ORACLE_TAU)
        self.assertTrue(run.check_oracle(value))
        self.assertFalse(run.check_oracle(value, ref=value + 1e-5))

    def test_validate(self):
        outcome = run.validate_op(5)
        code = outcome.detail["exit_code"]
        distances = outcome.detail["trace_distances"]
        self.assertTrue(run.check_validate(code, distances))
        self.assertFalse(run.check_validate(code, distances, max_distance=1e-9))
        self.assertFalse(run.check_validate(2, distances))


if __name__ == "__main__":
    unittest.main()
