"""Benchmark of the cavity-Toffoli simulator: four workloads, one process.

    python3 perfbench/run.py --workload anchor --seed 1 --seconds 20 --trace 0

Runs one workload in a closed loop with a single caller on one thread:
operations run back to back until ``--seconds`` have passed (at least
one, or one untraced and one traced with ``--trace 1``).  Operation ``i``
draws its inputs from a seed derived from ``(--seed, i)``; the simulator
receives only those derived seeds.  Every scientific output is checked.
The two reference kernels of ``hostspeed`` run before the first operation
and after each one; end-to-end times are divided by the host's slowdown
they show around the operation (see ``perfbench/README.md``).

stdout ends with two JSON lines.  The first is the full record: seed,
git sha, nproc, interpreter and library versions, thread variables,
workload size, every operation, ``failed_frac`` and all metrics.  The
last is the summary ``{"correct", "attempted", "failed", "metrics"}``
with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) named in ``BENCHMARK.json``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# one thread: BLAS pools would only add noise on 27x27 matrices
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, Optional  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import cavity_toffoli  # noqa: E402
from cavity_toffoli import analysis, cli, protocol, trajectories  # noqa: E402
from cavity_toffoli.model import PhysicalParams  # noqa: E402
import hostspeed  # noqa: E402
from spans import Seam, Tracer  # noqa: E402

if SRC not in Path(cavity_toffoli.__file__).resolve().parents:
    sys.exit(f"cavity_toffoli imported from {cavity_toffoli.__file__}, not {SRC}")

PARAMS = PhysicalParams.from_frequency()

# ---------------------------------------------------------------- references

#: anchor cell gate_fidelity(tau=1 ms, eps=3%, 2000/input) at seed 42 on
#: the seed commit: (mean, standard error)
ANCHOR_REF = (0.943737, 0.001593)
#: sampling-free Lindblad values of the epsilon = 0 column, as frozen in
#: tests/test_analysis.py
LINDBLAD_EPS0 = {
    0.5e-3: 0.9194737156338737,
    1.0e-3: 0.9563312652059228,
    5.0e-3: 0.9906606235969584,
}
ORACLE_TOL = 1e-6
VALIDATE_MAX_TRACE_DISTANCE = 0.05
#: surface cells are checked against the exact reference with the largest
#: standard error any [0, 1]-valued estimator of that mean can have,
#: sqrt(F (1 - F) / N).  Comparing two commits takes tens of runs and
#: several hundred such checks; at 5 of these errors correct code raises a
#: false alarm far less than once per comparison, where 3 would raise several.
SURFACE_Z = 5.0

# ---------------------------------------------------------------- sizes

ANCHOR_TAU, ANCHOR_EPSILON, ANCHOR_N_TRAJ = 1e-3, 0.03, 2000
SURFACE_TAUS = (0.2e-3, 0.5e-3, 1e-3, 5e-3, 10e-3)
SURFACE_EPSILONS = (0.0, 0.08)
SURFACE_N_TRAJ = 250
ORACLE_TAU = 1e-3
VALIDATE_N_TRAJ = 1000      # fixed by `validate --quick`
VALIDATE_TAUS = cli.SMOKE_TAUS
N_INPUTS = len(protocol.LOGICAL_BITS)

TARGET_SE = 1e-3
SETUP_SAMPLES = 5


# ---------------------------------------------------------------- checks

def check_anchor(mean: float, std_error: float, ref=ANCHOR_REF) -> bool:
    """Within 3 combined standard errors of the recorded anchor value."""
    ref_mean, ref_se = ref
    return abs(mean - ref_mean) <= 3.0 * math.hypot(std_error, ref_se)


def check_surface(cells, refs=LINDBLAD_EPS0) -> list[bool]:
    """Per cell: mean in [0, 1], and epsilon = 0 cells near their reference."""
    verdicts = []
    for cell in cells:
        ok = 0.0 <= cell.mean <= 1.0
        ref = refs.get(cell.tau) if cell.epsilon == 0.0 else None
        if ref is not None:
            bound_se = math.sqrt(ref * (1.0 - ref) / (N_INPUTS * cell.n_traj))
            ok = ok and abs(cell.mean - ref) <= SURFACE_Z * bound_se
        verdicts.append(ok)
    return verdicts


def check_oracle(value: float, ref: float = LINDBLAD_EPS0[ORACLE_TAU]) -> bool:
    return abs(value - ref) <= ORACLE_TOL


def check_validate(exit_code: int, distances,
                   max_distance: float = VALIDATE_MAX_TRACE_DISTANCE) -> bool:
    return (exit_code == 0 and len(distances) == len(VALIDATE_TAUS)
            and all(d <= max_distance for d in distances))


# ---------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Outcome:
    """What one operation produced, after its correctness checks.

    ``std_error`` is the largest standard error among its sampled
    fidelities, or None when the output is deterministic or a verdict.
    """

    failed: int
    std_error: Optional[float]
    detail: dict


@dataclass(frozen=True)
class Workload:
    name: str
    size: dict
    cells_per_op: int
    #: trajectories per operation; on `oracle`, which runs none,
    #: density-matrix evolutions (one per basis input)
    traj_per_op: int
    op: Callable[[int], Outcome]
    #: share of operation time in the (trajectory, density-matrix) engine,
    #: from the traced seed-commit runs; weights hostspeed's two kernels
    engine_weights: tuple[float, float]


def anchor_op(seed: int, n_traj: int) -> Outcome:
    noise = trajectories.NoiseParams(tau=ANCHOR_TAU, epsilon=ANCHOR_EPSILON,
                                     n_traj=n_traj, seed=seed)
    res = analysis.gate_fidelity(PARAMS, noise)
    ok = check_anchor(res.mean, res.std_error)
    return Outcome(int(not ok), res.std_error,
                   {"mean": res.mean, "std_error": res.std_error})


def surface_op(seed: int, n_traj: int) -> Outcome:
    grid = analysis.sweep(PARAMS, SURFACE_TAUS, SURFACE_EPSILONS, n_traj, seed)
    cells = [cell for row in grid.cells for cell in row]
    verdicts = check_surface(cells)
    return Outcome(verdicts.count(False),
                   max(cell.std_error for cell in cells),
                   {"cells": [[c.tau, c.epsilon, c.mean, c.std_error, ok]
                              for c, ok in zip(cells, verdicts)]})


def oracle_op(seed: int) -> Outcome:
    value = analysis.lindblad_gate_fidelity(PARAMS, ORACLE_TAU)
    return Outcome(int(not check_oracle(value)), None, {"fidelity": value})


_TRACE_DISTANCE = re.compile(r"trace distance ([0-9.eE+-]+)")


def validate_op(seed: int) -> Outcome:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["validate", "--quick", "--seed", str(seed)])
    distances = [float(d) for d in _TRACE_DISTANCE.findall(out.getvalue())]
    ok = check_validate(code, distances)
    return Outcome(int(not ok), None,
                   {"exit_code": code, "trace_distances": distances})


def workloads(anchor_n_traj: int = ANCHOR_N_TRAJ,
              surface_n_traj: int = SURFACE_N_TRAJ) -> dict[str, Workload]:
    """The four workloads; the sizes are parameters for the self-test."""
    cells = len(SURFACE_TAUS) * len(SURFACE_EPSILONS)
    return {w.name: w for w in (
        Workload("anchor",
                 {"n_traj_per_input": anchor_n_traj, "tau_s": ANCHOR_TAU,
                  "epsilon": ANCHOR_EPSILON},
                 1, N_INPUTS * anchor_n_traj,
                 functools.partial(anchor_op, n_traj=anchor_n_traj), (1.0, 0.0)),
        Workload("surface",
                 {"n_traj_per_input": surface_n_traj,
                  "tau_grid_s": list(SURFACE_TAUS),
                  "epsilon_grid": list(SURFACE_EPSILONS)},
                 cells, cells * N_INPUTS * surface_n_traj,
                 functools.partial(surface_op, n_traj=surface_n_traj), (1.0, 0.0)),
        Workload("oracle", {"tau_s": ORACLE_TAU, "epsilon": 0.0,
                            "density_matrix_inputs": N_INPUTS},
                 1, N_INPUTS, oracle_op, (0.0, 1.0)),
        Workload("validate",
                 {"n_traj_per_tau": VALIDATE_N_TRAJ,
                  "tau_grid_s": list(VALIDATE_TAUS), "epsilon": 0.0},
                 1, len(VALIDATE_TAUS) * VALIDATE_N_TRAJ, validate_op,
                 # lindblad_evolve is ~0.8 of cli.main, run_trajectories ~0.2
                 (0.2, 0.8)),
    )}


# ---------------------------------------------------------------- layers

_T = "cavity_toffoli.trajectories"


def _substeps(args, result) -> dict:
    # states_at(self, psi, times) requests len(times); propagate one time
    return {"substeps": int(np.size(args[2])) if len(args) > 2 else 1}


SEAMS = (
    Seam("analysis.gate_fidelity", (("cavity_toffoli.analysis", "gate_fidelity"),)),
    Seam("analysis.lindblad_gate_fidelity",
         (("cavity_toffoli.analysis", "lindblad_gate_fidelity"),)),
    Seam("analysis.dispersive_validation",
         (("cavity_toffoli.analysis", "dispersive_validation"),)),
    Seam("trajectories.mcwf_trajectory", ((_T, "mcwf_trajectory"),),
         count=lambda args, result: {"jumps": len(result.jump_times)}),
    Seam("trajectories.jitter_factors", ((_T, "jitter_factors"),)),
    Seam("trajectories.run_trajectories", ((_T, "run_trajectories"),)),
    Seam("trajectories.ensemble_density", ((_T, "ensemble_density"),)),
    Seam("trajectories.lindblad_evolve", ((_T, "lindblad_evolve"),)),
    Seam("qmath.propagator", (("cavity_toffoli.qmath", "propagator"),)),
    Seam("cli.main", (("cavity_toffoli.cli", "main"),)),
    Seam("protocol.toffoli_schedule",
         (("cavity_toffoli.protocol", "toffoli_schedule"),)),
    Seam("protocol.encode_logical", (("cavity_toffoli.protocol", "encode_logical"),)),
    # private seams: null in the record once a refactor removes them
    Seam("trajectories.compile", ((_T, "_compile"),)),
    Seam("trajectories.stream", ((_T, "_StreamFactory.stream"),)),
    Seam("trajectories.drift", ((_T, "_DriftEvolver.states_at"),
                                (_T, "_DriftEvolver.propagate")), count=_substeps),
    Seam("trajectories.pulse", ((_T, "_PulseEvolver.apply"),)),
)

#: (name, unit); every per-layer value is per traced operation
PER_LAYER = (
    ("analysis.gate_fidelity.self_s", "s/op"),
    ("trajectories.mcwf_trajectory.calls", "calls/op"),
    ("trajectories.mcwf_trajectory.s", "s/op"),
    ("trajectories.mcwf_trajectory.self_s", "s/op"),
    ("trajectories.jumps", "jumps/op"),
    ("trajectories.jumps_per_traj", "jumps/traj"),
    ("trajectories.jitter_factors.calls", "calls/op"),
    ("trajectories.jitter_factors.s", "s/op"),
    ("trajectories.run_trajectories.s", "s/op"),
    ("trajectories.ensemble_density.s", "s/op"),
    ("analysis.dispersive_validation.s", "s/op"),
    ("qmath.propagator.calls", "calls/op"),
    ("qmath.propagator.s", "s/op"),
    ("cli.main.s", "s/op"),
    ("trajectories.lindblad_evolve.calls", "calls/op"),
    ("trajectories.lindblad_evolve.s", "s/op"),
    ("analysis.lindblad_gate_fidelity.s", "s/op"),
    ("protocol.toffoli_schedule.s", "s/op"),
    ("protocol.encode_logical.calls", "calls/op"),
    ("protocol.encode_logical.s", "s/op"),
    ("trajectories.compile.calls", "calls/op"),
    ("trajectories.compile.s", "s/op"),
    ("trajectories.stream.calls", "calls/op"),
    ("trajectories.stream.s", "s/op"),
    ("trajectories.drift.calls", "calls/op"),
    ("trajectories.drift.s", "s/op"),
    ("trajectories.drift.substeps", "substeps/op"),
    ("trajectories.pulse.calls", "calls/op"),
    ("trajectories.pulse.s", "s/op"),
    ("trace.overhead_frac", "frac"),
)

def layer_value(name: str, tracer: Tracer, n_ops: int) -> Optional[float]:
    """One per-layer metric per traced operation.

    None when the seam is gone.  A layer the workload never called spent
    0 s in 0 calls, and has 0 jumps per trajectory.
    """
    if name == "trajectories.jumps_per_traj":
        traj = layer_value("trajectories.mcwf_trajectory.calls", tracer, n_ops)
        jumps = layer_value("trajectories.jumps", tracer, n_ops)
        return None if traj is None else jumps / traj if traj else 0.0
    if name == "trajectories.jumps":
        seam, counter = "trajectories.mcwf_trajectory", "jumps"
    else:
        seam, counter = name.rsplit(".", 1)
    if seam in tracer.missing:
        return None
    stats = tracer.stats[seam]
    if counter == "calls":
        return stats.calls / n_ops
    if counter in ("s", "self_s"):
        return getattr(stats, counter) / n_ops
    return stats.counts.get(counter, 0) / n_ops


# ---------------------------------------------------------------- harness

_SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "import cavity_toffoli as ct; "
               "ct.toffoli_schedule(ct.PhysicalParams.from_frequency()); "
               "print('ready', flush=True)")


def measure_setup(samples: int) -> float:
    """Median time from interpreter start to an importable package with a
    built schedule, each sample in a fresh process."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", _SETUP_CODE, str(SRC)],
                              stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up process failed with code {proc.returncode}")
    return statistics.median(times)


def op_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class OpRecord:
    index: int
    seed: int
    traced: bool
    wall_s: float
    outcome: Optional[Outcome]     # None when the operation raised
    #: hostspeed.slowdown over the kernel runs just before and after
    slowdown: float

    @property
    def host_s(self) -> float:
        """wall_s on a host at the kernels' nominal speed."""
        return self.wall_s / self.slowdown


def run_ops(workload: Workload, seed: int, seconds: float,
            tracer: Optional[Tracer]) -> list[OpRecord]:
    """Closed loop until ``seconds`` have passed; with a tracer, every
    second operation is traced and at least one of each kind runs."""
    records: list[OpRecord] = []
    start = time.perf_counter()
    kernels = hostspeed.sample()
    while True:
        index = len(records)
        traced = tracer is not None and index % 2 == 1
        s = op_seed(seed, index)
        t0 = time.perf_counter()
        try:
            with tracer if traced else contextlib.nullcontext():
                outcome = workload.op(s)
        except Exception:  # one failed operation must not end the run
            traceback.print_exc()
            outcome = None
        wall = time.perf_counter() - t0
        before, kernels = kernels, hostspeed.sample()
        slowdown = hostspeed.slowdown(workload.engine_weights,
                                      *((b + a) / 2 for b, a in zip(before, kernels)))
        records.append(OpRecord(index, s, traced, wall, outcome, slowdown))
        status = ("raised" if outcome is None
                  else f"{outcome.failed}/{workload.cells_per_op} failed")
        print(f"{workload.name} op {index} seed {s}"
              f"{' traced' if traced else ''}: {wall:.3f} s, {status}",
              file=sys.stderr)
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or len(records) >= 2):
            return records


def end_to_end(workload: Workload, records: list[OpRecord],
               setup_s: Optional[float]) -> dict:
    plain = [r for r in records if not r.traced]
    wall = statistics.median(r.host_s for r in plain)
    to_target = [r.host_s * (r.outcome.std_error / TARGET_SE) ** 2
                 if r.outcome.std_error is not None else r.host_s
                 for r in plain if r.outcome is not None]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "traj_per_s": (workload.traj_per_op / wall, "1/s"),
        # every operation raised: fall back to the time it took to fail
        "time_to_se_1e-3_s": (statistics.median(to_target) if to_target else wall, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }


def per_layer(records: list[OpRecord], tracer: Tracer) -> dict:
    traced = [r.host_s for r in records if r.traced]
    plain = [r.host_s for r in records if not r.traced]
    metrics = {name: (layer_value(name, tracer, len(traced)), unit)
               for name, unit in PER_LAYER if name != "trace.overhead_frac"}
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0, "frac")
    return metrics


def git_sha() -> Optional[str]:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _jsonable(metrics: dict, missing: Optional[float] = None) -> dict:
    """``{name: {"value", "unit"}}``; a None value becomes ``missing``."""
    return {name: {"value": missing if value is None else value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            setup_samples: int = SETUP_SAMPLES) -> tuple[dict, dict]:
    """(record, summary) for one run; see the module docstring."""
    tracer = Tracer(SEAMS) if trace else None
    setup_s = None if trace else measure_setup(setup_samples)
    records = run_ops(workload, seed, seconds, tracer)

    attempted = workload.cells_per_op * len(records)
    failed = sum(workload.cells_per_op if r.outcome is None else r.outcome.failed
                 for r in records)
    e2e = end_to_end(workload, records, setup_s)
    layers = per_layer(records, tracer) if trace else None
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS if v in os.environ},
        "size": workload.size,
        "ops": [{"index": r.index, "seed": r.seed, "traced": r.traced,
                 "wall_s": r.wall_s, "slowdown": r.slowdown,
                 "failed": None if r.outcome is None else r.outcome.failed,
                 "detail": None if r.outcome is None else r.outcome.detail}
                for r in records],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "raw_wall_s": statistics.median(r.wall_s for r in records if not r.traced),
        "host_slowdown": statistics.median(r.slowdown for r in records),
        "end_to_end": _jsonable(e2e),
    }
    if trace:
        record["per_layer"] = _jsonable(layers)
        record["missing_seams"] = sorted(tracer.missing)
    # the summary holds numbers only: a seam that is gone (null in the
    # record, named under missing_seams) spent 0 s in 0 calls
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": _jsonable(layers if trace else e2e, missing=0.0)}
    return record, summary


def report(record: dict, summary: dict) -> None:
    print(json.dumps(record))
    print(json.dumps(summary))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads()))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    record, summary = measure(workloads()[args.workload], args.seed,
                              args.seconds, bool(args.trace))
    report(record, summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
