#!/usr/bin/env python3
"""SHA-256 digests of what the trajectory engine samples, to check that a
change to the engine keeps every bit.  Run it on two trees and compare:

    PYTHONPATH=src python3 scripts/engine_digest.py

It digests the anchor cell's repr((mean, std_error)) at seed 42, the
perfbench surface sweep's CSV at seed 42, the CSV of a (0.3 ms, 2 ms) x
(0, 1%, 5%, 8%) sweep at 130 per input and seed 5, whose row sets straddle
engine blocks, the final-state bytes and jump times of 300-row
run_trajectories for each of the 8 logical inputs at (1 ms, 3%),
(0.2 ms, 8%) and (1 ms, 0), the final-state bytes and jump times of
mcwf_trajectory at trajectories 0, 2047, 2048 and 5000 of inputs 0 and 5 in
cell 3 at (0.2 ms, 8%) and (1 ms, 0), the bytes of the exact Lindblad
channel (_lindblad_stack) at 0.5, 1 and 5 ms of the 8 logical projectors and
of validate's equal superposition, each on its own Liouvillian memo, for the
default gate, loss_scope="collision_only" and fock_dim=4, the bytes of
_trajectory_density of the default gate's superposition at the same
lifetimes (1000 trajectories, epsilon 0, seed 42), and the ideal path: the
logical process matrix's bytes of those three gates, with the repr of
dispersive_validation's overlaps.
"""

import hashlib

import numpy as np

from cavity_toffoli.analysis import (_logical_basis, dispersive_validation, gate_fidelity,
                                     logical_process_matrix, sweep)
from cavity_toffoli.cli import SMOKE_TAUS
from cavity_toffoli.model import PhysicalParams
from cavity_toffoli.protocol import LOGICAL_BITS, encode_logical, toffoli_schedule
from cavity_toffoli.qmath import DensityMatrix, StateVector
from cavity_toffoli.trajectories import (NoiseParams, _lindblad_stack, _trajectory_density,
                                         mcwf_trajectory, run_trajectories)


def _superposition(gate) -> StateVector:
    """The equal superposition of the gate's 8 logical inputs."""
    amps = sum(encode_logical(bits, gate.space).amplitudes for bits in LOGICAL_BITS)
    return StateVector(gate.space, amps / np.linalg.norm(amps))


def main() -> None:
    params = PhysicalParams.from_frequency()
    anchor = gate_fidelity(params, NoiseParams(tau=1e-3, epsilon=0.03, n_traj=2000, seed=42))
    print("anchor", hashlib.sha256(repr((anchor.mean, anchor.std_error)).encode()).hexdigest())
    grid = sweep(params, (0.2e-3, 0.5e-3, 1e-3, 5e-3, 10e-3), (0.0, 0.08), 250, 42)
    print("surface", hashlib.sha256(grid.to_csv().encode()).hexdigest())
    grid = sweep(params, (0.3e-3, 2e-3), (0.0, 0.01, 0.05, 0.08), 130, 5)
    print("sweep", hashlib.sha256(grid.to_csv().encode()).hexdigest())
    schedule = toffoli_schedule(params)
    for tau, epsilon in ((1e-3, 0.03), (0.2e-3, 0.08), (1e-3, 0.0)):
        noise, h = NoiseParams(tau=tau, epsilon=epsilon, n_traj=300, seed=42), hashlib.sha256()
        for b, bits in enumerate(LOGICAL_BITS):
            psi0 = encode_logical(bits, schedule.space)
            for res in run_trajectories(schedule, psi0, noise, basis_input=b):
                h.update(res.final_state.amplitudes.tobytes())
                h.update(np.array(res.jump_times, dtype=np.float64).tobytes())
        print(f"trajectories tau={tau!r} epsilon={epsilon!r}", h.hexdigest())
    h = hashlib.sha256()
    for tau, epsilon in ((0.2e-3, 0.08), (1e-3, 0.0)):
        noise = NoiseParams(tau=tau, epsilon=epsilon, seed=42)
        for b in (0, 5):
            psi0 = encode_logical(LOGICAL_BITS[b], schedule.space)
            for traj in (0, 2047, 2048, 5000):
                res = mcwf_trajectory(schedule, psi0, noise, traj=traj, basis_input=b, cell=3)
                h.update(res.final_state.amplitudes.tobytes())
                h.update(np.array(res.jump_times, dtype=np.float64).tobytes())
    print("mcwf", h.hexdigest())
    gates, h = (schedule, toffoli_schedule(params, loss_scope="collision_only"),
                toffoli_schedule(PhysicalParams.from_frequency(fock_dim=4))), hashlib.sha256()
    for gate in gates:
        basis = _logical_basis(gate)
        for rho0s in (basis[:, :, None] * basis.conj()[:, None, :],
                      DensityMatrix.from_state(_superposition(gate)).entries[None]):
            h.update(_lindblad_stack(gate, rho0s, SMOKE_TAUS).tobytes())
    print("lindblad", h.hexdigest())
    superposition = _superposition(schedule)
    h = hashlib.sha256()
    for tau in SMOKE_TAUS:
        noise = NoiseParams(tau=tau, epsilon=0.0, n_traj=1000, seed=42)
        h.update(_trajectory_density(schedule, superposition, noise).entries.tobytes())
    print("density", h.hexdigest())
    h = hashlib.sha256()
    for gate in gates:
        h.update(logical_process_matrix(gate).tobytes())
    h.update(repr([rep.overlaps for rep in dispersive_validation(params)]).encode())
    print("ideal", h.hexdigest())


if __name__ == "__main__":
    main()
