#!/usr/bin/env python3
"""Time and minor page faults per in-process engine operation.

    PYTHONPATH=src python3 scripts/engine_faults.py --ops 20

The engine drops one 8 MB array at import so that, on glibc, its
block-sized arrays come from the reused heap rather than from fresh
pages; an operation then takes a few dozen minor faults at most.  A count
in the thousands means that no longer holds, and the engine's time then
moves with allocation order as well as with its arithmetic.

For each of perfbench's ``anchor`` workload (gate_fidelity at 1 ms, 3%,
2000 trajectories per input) and ``surface`` workload (the 5 x 2 sweep at
250 per input), after one warm-up operation, it runs ``--ops`` operations
back to back, operation i at seed i + 1 (the warm-up at seed 0), and
prints the mean ms and ``ru_minflt`` per operation.
"""

import os

# one thread, as in perfbench: BLAS pools would only add noise on 27x27 matrices
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

from cavity_toffoli.analysis import gate_fidelity, sweep  # noqa: E402
from cavity_toffoli.model import PhysicalParams  # noqa: E402
from cavity_toffoli.trajectories import NoiseParams  # noqa: E402

PARAMS = PhysicalParams.from_frequency()
#: perfbench/run.py's workload sizes
WORKLOADS = {
    "anchor": lambda seed: gate_fidelity(
        PARAMS, NoiseParams(tau=1e-3, epsilon=0.03, n_traj=2000, seed=seed)),
    "surface": lambda seed: sweep(PARAMS, (0.2e-3, 0.5e-3, 1e-3, 5e-3, 10e-3), (0.0, 0.08),
                                  250, seed),
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ops", type=int, default=20, help="timed operations per workload")
    args = ap.parse_args()
    if args.ops < 1:
        ap.error("--ops must be at least 1")

    for name, op in WORKLOADS.items():
        op(0)
        faults, start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
        for i in range(args.ops):
            op(i + 1)
        ms = (time.perf_counter() - start) * 1e3 / args.ops
        faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults) / args.ops
        print(f"{name:<8} {ms:9.2f} ms/op {faults:9.1f} minflt/op")


if __name__ == "__main__":
    main()
