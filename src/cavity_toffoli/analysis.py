"""Gate-fidelity estimation, parameter sweeps and dispersive validation.

Fidelity definition: uniform average over the 8 logical basis inputs of
the trajectory-averaged squared overlap with the exact Toffoli image,

    F = (1/8) sum_b  mean_k |<encode(Toffoli(b)) | psi_k(b)>|^2 .

This is the simplest reproducible choice; phase-sensitive process
characterization is available separately through
``protocol.logical_process_matrix``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (PhysicalParams, dispersive_hamiltonian,
                    full_detuned_hamiltonian, rabi_propagator, rig_pulse)
from .protocol import (LOGICAL_BITS, Schedule, encode_logical, toffoli_map,
                       toffoli_schedule)
from .qmath import DensityMatrix, propagator
from .trajectories import (NoiseParams, _compile, _trajectory_blocks,
                           lindblad_evolve)
# perfbench/selftest.py checks that its tracer patches this binding too
from .trajectories import mcwf_trajectory  # noqa: F401

#: default sweep resolution for the fidelity surface
DEFAULT_TAU_GRID = tuple(float(t) for t in np.geomspace(2e-4, 1e-2, 8))
DEFAULT_EPSILON_GRID = tuple(0.01 * k for k in range(9))

#: delta/omega ratios probed by the dispersive-approximation check
VALIDATION_RATIOS = (4.0, 8.0, 16.0, 50.0)


@dataclass(frozen=True)
class FidelityResult:
    """Mean gate fidelity with its Monte Carlo standard error."""

    mean: float
    std_error: float
    n_traj: int
    tau: float
    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.mean <= 1.0:
            raise ValueError(f"mean fidelity out of [0, 1]: {self.mean}")
        if not 0.0 <= self.std_error <= 0.5 / math.sqrt(self.n_traj):
            raise ValueError(f"std_error {self.std_error} out of range")

    def to_jsonable(self) -> dict:
        return {
            "mean": self.mean,
            "std_error": self.std_error,
            "n_traj": self.n_traj,
            "tau": "inf" if math.isinf(self.tau) else self.tau,
            "epsilon": self.epsilon,
        }


@dataclass(frozen=True)
class FidelityGrid:
    """Fidelity surface over a (tau, epsilon) grid, tau-major."""

    tau_values: tuple[float, ...]
    epsilon_values: tuple[float, ...]
    cells: tuple[tuple[FidelityResult, ...], ...]

    def __post_init__(self):
        if len(self.cells) != len(self.tau_values) or any(
                len(row) != len(self.epsilon_values) for row in self.cells):
            raise ValueError("cells shape must be |tau_values| x |epsilon_values|")

    def to_csv(self) -> str:
        lines = ["tau_s,epsilon,mean_fidelity,std_error,n_traj"]
        for row in self.cells:
            for cell in row:
                lines.append(f"{cell.tau!r},{cell.epsilon!r},{cell.mean!r},"
                             f"{cell.std_error!r},{cell.n_traj}")
        return "\n".join(lines) + "\n"

    def to_jsonable(self) -> dict:
        return {
            "tau_values": ["inf" if math.isinf(t) else t for t in self.tau_values],
            "epsilon_values": list(self.epsilon_values),
            "cells": [[cell.to_jsonable() for cell in row] for row in self.cells],
        }


def gate_fidelity(params: PhysicalParams, noise: NoiseParams, *,
                  schedule: Schedule | None = None,
                  cell_index: int = 0) -> FidelityResult:
    """Trajectory-averaged Toffoli fidelity over the 8 logical basis inputs.

    Per-trajectory fidelities are pooled across inputs for the standard
    error.  ``cell_index`` selects the RNG counter block; sweeps pass the
    row-major cell index so each cell is an independent stream family.
    """
    if schedule is None:
        schedule = toffoli_schedule(params)
    compiled = _compile(schedule, noise)
    fids = np.empty((len(LOGICAL_BITS), noise.n_traj))
    for b_idx, bits in enumerate(LOGICAL_BITS):
        psi0 = encode_logical(bits, schedule.space)
        target = encode_logical(toffoli_map(bits), schedule.space).amplitudes
        blocks = _trajectory_blocks(compiled, psi0, noise, basis_input=b_idx,
                                    cell=cell_index)
        overlaps = np.concatenate([block.states @ target.conj() for block in blocks])
        fids[b_idx] = np.minimum(overlaps.real ** 2 + overlaps.imag ** 2, 1.0)
    mean = float(fids.mean())
    std_error = float(fids.std(ddof=1) / math.sqrt(fids.size))
    return FidelityResult(mean=mean, std_error=std_error, n_traj=noise.n_traj,
                          tau=noise.tau, epsilon=noise.epsilon)


def lindblad_gate_fidelity(params: PhysicalParams, tau: float, *,
                           schedule: Schedule | None = None) -> float:
    """Deterministic (sampling-free) fidelity at epsilon = 0.

    Evolves each basis input's density matrix under the master equation
    and averages <target| rho |target>.  Oracle for the epsilon = 0
    column of the stochastic pipeline.
    """
    if schedule is None:
        schedule = toffoli_schedule(params)
    total = 0.0
    for bits in LOGICAL_BITS:
        rho0 = DensityMatrix.from_state(encode_logical(bits, schedule.space))
        rho = lindblad_evolve(schedule, rho0, tau)
        target = encode_logical(toffoli_map(bits), schedule.space).amplitudes
        total += float(np.vdot(target, rho.entries @ target).real)
    return total / len(LOGICAL_BITS)


def sweep(params: PhysicalParams, tau_values, epsilon_values, n_traj: int,
          seed: int, *, schedule: Schedule | None = None) -> FidelityGrid:
    """Fidelity surface on the (tau, epsilon) grid, deterministic per seed.

    Cell (i, j) uses the RNG stream family of cell index i*len(eps)+j, so
    a 1x1 grid reproduces a direct ``gate_fidelity`` call bit for bit.
    """
    tau_values = tuple(float(t) for t in tau_values)
    epsilon_values = tuple(float(e) for e in epsilon_values)
    if not tau_values or not epsilon_values:
        raise ValueError("sweep grids must be nonempty")
    rows = []
    for i, tau in enumerate(tau_values):
        row = []
        for j, eps in enumerate(epsilon_values):
            noise = NoiseParams(tau=tau, epsilon=eps, n_traj=n_traj, seed=seed)
            row.append(gate_fidelity(params, noise, schedule=schedule,
                                     cell_index=i * len(epsilon_values) + j))
        rows.append(tuple(row))
    return FidelityGrid(tau_values, epsilon_values, tuple(rows))


@dataclass(frozen=True)
class DispersiveOverlap:
    """Agreement between the dispersive collision and the full detuned model."""

    ratio: float          # delta / omega
    min_overlap: float    # worst encoded collision input
    overlaps: tuple[float, ...]

    def __post_init__(self):
        if any(o > 1.0 + 1e-12 for o in self.overlaps):
            raise ValueError("overlap above 1")


def _collision_inputs(params: PhysicalParams) -> list[np.ndarray]:
    """The 8 encoded states as they enter the collision (pi-Rabi then R_ig).

    The encoding depends only on omega, not on the collision detuning.
    """
    space = params.protocol_space()
    u_rabi, _ = rabi_propagator(params, 1, space, math.pi)
    u_encode = rig_pulse(1, space).entries @ u_rabi.entries
    return [u_encode @ encode_logical(bits, space).amplitudes
            for bits in LOGICAL_BITS]


def dispersive_validation(params: PhysicalParams,
                          ratios=VALIDATION_RATIOS) -> list[DispersiveOverlap]:
    """Compare exp(-i H_disp t_col) against the full detuned two-atom model.

    For each delta/omega ratio, reports min_b |<psi_b| U_full^dag U_disp
    |psi_b>|^2 over the 8 encoded collision-input states, with matched
    lambda = omega^2/(4 delta) and t_col = pi/lambda.
    """
    ratios = tuple(float(r) for r in ratios)
    if any(r < 1.0 for r in ratios):
        raise ValueError("delta/omega ratios must be >= 1")
    inputs = _collision_inputs(params)
    reports = []
    for ratio in ratios:
        p = replace(params, delta=ratio * params.omega)
        space = p.protocol_space()
        t_col = p.t_collision
        u_disp = propagator(dispersive_hamiltonian(p, 1, 2, space), t_col).entries
        u_full = propagator(full_detuned_hamiltonian(p, 1, 2, space), t_col).entries
        compare = u_full.conj().T @ u_disp
        overlaps = tuple(
            float(min(abs(np.vdot(psi, compare @ psi)) ** 2, 1.0)) for psi in inputs)
        reports.append(DispersiveOverlap(ratio=ratio, min_overlap=min(overlaps),
                                         overlaps=overlaps))
    return reports
