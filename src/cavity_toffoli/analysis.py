"""Gate-fidelity estimation, parameter sweeps and dispersive validation.

Fidelity definition: uniform average over the 8 logical basis inputs of
the trajectory-averaged squared overlap with the exact Toffoli image,

    F = (1/8) sum_b  mean_k |<encode(Toffoli(b)) | psi_k(b)>|^2 .

This is the simplest reproducible choice; phase-sensitive process
characterization of the ideal gate is available separately through
``logical_process_matrix``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import PhysicalParams, dispersive_hamiltonian, full_detuned_hamiltonian
from .protocol import (LOGICAL_BITS, Schedule, encode_logical, toffoli_map,
                       toffoli_schedule)
from .qmath import DensityMatrix, propagator
from .trajectories import (NoiseParams, _check_counter_words, _compile, _CompiledSchedule,
                           _ideal_states, _lindblad_stack, _rows_matmul, _trajectory_blocks)
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


#: row of LOGICAL_BITS holding the Toffoli image of each basis input
_IMAGES = [LOGICAL_BITS.index(toffoli_map(bits)) for bits in LOGICAL_BITS]


def _logical_basis(schedule: Schedule) -> np.ndarray:
    """Rows are the 8 encoded basis states, in LOGICAL_BITS order."""
    return np.stack([encode_logical(bits, schedule.space).amplitudes
                     for bits in LOGICAL_BITS])


def logical_process_matrix(schedule: Schedule) -> np.ndarray:
    """M[b', b] = <encode(b')| U_total |encode(b)> on the logical subspace.

    The 8 encoded inputs run through the ideal gate as one stack.  For the
    ideal schedule this is the Toffoli permutation up to one global phase.
    """
    basis = _logical_basis(schedule)
    outputs = np.stack([psi.amplitudes for psi in _ideal_states(schedule, basis)])
    return basis.conj() @ outputs.T


def truth_table_fidelities(schedule: Schedule) -> np.ndarray:
    """Per-input |<encode(Toffoli(b))| U |encode(b)>|^2, in LOGICAL_BITS order."""
    process = logical_process_matrix(schedule)
    return np.abs(process[_IMAGES, range(len(LOGICAL_BITS))]) ** 2


def gate_fidelity(params: PhysicalParams, noise: NoiseParams, *,
                  schedule: Schedule | None = None,
                  cell_index: int = 0) -> FidelityResult:
    """Trajectory-averaged Toffoli fidelity over the 8 logical basis inputs.

    The 8 inputs run as one input-major row set, so an input's rows in a
    block are contiguous and the overlaps come out in input-major order.
    Per-trajectory fidelities are pooled across inputs for the standard
    error.  ``cell_index`` selects the RNG counter block; sweeps pass the
    row-major cell index so each cell is an independent stream family.
    """
    _check_counter_words(cell_index=cell_index)
    if schedule is None:
        schedule = toffoli_schedule(params)
    return _cell_fidelity(_compile(schedule, noise), _logical_basis(schedule), noise,
                          cell_index)


def _cell_fidelity(compiled: _CompiledSchedule, basis: np.ndarray, noise: NoiseParams,
                   cell_index: int) -> FidelityResult:
    """``gate_fidelity`` on the schedule compiled at ``noise.tau`` and its basis."""
    targets = basis[_IMAGES].conj()
    blocks = _trajectory_blocks(compiled, basis, noise, np.arange(len(basis)), cell_index)
    overlaps = np.concatenate([_rows_matmul(block.states[block.inputs == b], targets[b])
                               for block in blocks for b in np.unique(block.inputs)])
    fids = np.minimum(overlaps.real ** 2 + overlaps.imag ** 2, 1.0).reshape(-1, noise.n_traj)
    mean = float(fids.mean())
    std_error = float(fids.std(ddof=1) / math.sqrt(fids.size))
    return FidelityResult(mean=mean, std_error=std_error, n_traj=noise.n_traj,
                          tau=noise.tau, epsilon=noise.epsilon)


def lindblad_gate_fidelity(params: PhysicalParams, tau: float, *,
                           schedule: Schedule | None = None) -> float:
    """Deterministic (sampling-free) fidelity at epsilon = 0.

    Evolves the 8 basis inputs as one stack through the exact Lindblad
    channel and averages <target| rho |target>.  Oracle for the
    epsilon = 0 column of the stochastic pipeline.
    """
    if schedule is None:
        schedule = toffoli_schedule(params)
    basis = _logical_basis(schedule)
    rho0s = [DensityMatrix(schedule.space, np.outer(ket, ket.conj())) for ket in basis]
    rhos = _lindblad_stack(schedule, rho0s, tau)
    return sum(float(np.vdot(target, rho.entries @ target).real)
               for target, rho in zip(basis[_IMAGES], rhos)) / len(LOGICAL_BITS)


def sweep(params: PhysicalParams, tau_values, epsilon_values, n_traj: int,
          seed: int, *, schedule: Schedule | None = None) -> FidelityGrid:
    """Fidelity surface on the (tau, epsilon) grid, deterministic per seed.

    Cell (i, j) uses the RNG stream family of cell index i*len(eps)+j, so a
    1x1 grid reproduces a direct ``gate_fidelity`` call bit for bit.  Every
    cell's settings are checked, and each tau compiled once, before any cell runs.
    """
    tau_values = tuple(float(t) for t in tau_values)
    epsilon_values = tuple(float(e) for e in epsilon_values)
    if not tau_values or not epsilon_values:
        raise ValueError("sweep grids must be nonempty")
    noises = [[NoiseParams(tau=tau, epsilon=eps, n_traj=n_traj, seed=seed)
               for eps in epsilon_values] for tau in tau_values]
    if schedule is None:
        schedule = toffoli_schedule(params)
    basis, compiled = _logical_basis(schedule), [_compile(schedule, row[0]) for row in noises]
    cells = tuple(tuple(_cell_fidelity(compiled[i], basis, noise, i * len(row) + j)
                        for j, noise in enumerate(row)) for i, row in enumerate(noises))
    return FidelityGrid(tau_values, epsilon_values, cells)


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
    """The 8 encoded states as they enter the collision: the ideal gate's
    first two segments (pi-Rabi then R_ig), as one stack.

    The encoding depends only on omega, not on the collision detuning, so
    the schedule is built at the reference delta = 4 omega.
    """
    schedule = toffoli_schedule(replace(params, delta=4.0 * params.omega))
    encoding = replace(schedule, segments=schedule.segments[:2])
    return [psi.amplitudes for psi in _ideal_states(encoding, _logical_basis(schedule))]


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
