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
from functools import lru_cache

import numpy as np

from .model import PhysicalParams, _detuned_family, _dispersive_family
from .protocol import (LOGICAL_BITS, Schedule, encode_logical, toffoli_map,
                       toffoli_schedule)
from .trajectories import (_STRUCTURES, NoiseParams, _check_counter_words, _compiled_groups,
                           _DriftEvolver, _ideal_states, _lindblad_stack, _rows_matmul,
                           _trajectory_blocks)
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


#: row of LOGICAL_BITS holding the Toffoli image of each basis input
_IMAGES = [LOGICAL_BITS.index(toffoli_map(bits)) for bits in LOGICAL_BITS]


@lru_cache(maxsize=_STRUCTURES)
def _logical_basis(schedule: Schedule) -> np.ndarray:
    """Rows are the 8 encoded basis states, in LOGICAL_BITS order; memoized, read-only."""
    basis = np.stack([encode_logical(bits, schedule.space).amplitudes for bits in LOGICAL_BITS])
    basis.flags.writeable = False
    return basis


def logical_process_matrix(schedule: Schedule) -> np.ndarray:
    """M[b', b] = <encode(b')| U_total |encode(b)> on the logical subspace.

    The 8 encoded inputs run through the ideal gate as one stack.  For the
    ideal schedule this is the Toffoli permutation up to one global phase.
    """
    basis = _logical_basis(schedule)
    outputs = np.stack([psi.amplitudes for psi in _ideal_states(schedule, basis)])
    return basis.conj() @ outputs.T


def _schedule_of(gate: Schedule | PhysicalParams) -> Schedule:
    """``gate`` itself, or the default ``toffoli_schedule`` of a ``PhysicalParams``."""
    return gate if isinstance(gate, Schedule) else toffoli_schedule(gate)


def gate_fidelity(gate: Schedule | PhysicalParams, noise: NoiseParams, *,
                  cell_index: int = 0) -> FidelityResult:
    """Trajectory-averaged Toffoli fidelity of ``gate`` over the 8 logical basis inputs.

    The inputs that reach one compiled basis run as one input-major row set
    on it (inputs 0-3 on 13 states, 4-7 on 7), so every row is bit for bit
    its ``run_trajectories`` row; fidelities are pooled for the standard
    error.  ``cell_index`` selects the RNG counter block; sweeps pass the
    row-major cell index so each cell is an independent stream family.
    """
    _check_counter_words(cell_index=cell_index)
    return _cell_fidelity(_schedule_of(gate), (noise,), np.array([cell_index]))[0]


def _cell_fidelity(schedule: Schedule, noises: tuple[NoiseParams, ...],
                   cells: np.ndarray) -> list[FidelityResult]:
    """``gate_fidelity`` of each cell ``cells[c]`` at ``noises[c]``, cells that
    differ in epsilon only: the logical inputs of each compiled basis, at the
    common tau, run all the cells as one cell-major row set."""
    basis = _logical_basis(schedule)
    targets, epsilons = basis[_IMAGES].conj(), np.array([noise.epsilon for noise in noises])
    fids = np.empty((len(noises), len(basis), noises[0].n_traj))
    for inputs, compiled in _compiled_groups(schedule, noises[0], basis):
        overlaps = []
        for block in _trajectory_blocks(compiled, basis[inputs], noises[0], inputs, cells,
                                        epsilons, np.arange(noises[0].n_traj)):
            # one overlap per distinct state, against its input's target on the basis
            state_inputs = np.empty(len(block.psi), dtype=np.intp)
            state_inputs[block.owner] = block.inputs
            per_state = np.empty(len(block.psi), dtype=np.complex128)
            for b in np.unique(state_inputs):
                mine = state_inputs == b
                per_state[mine] = _rows_matmul(block.psi[mine], targets[b, compiled.support])
            overlaps.append(per_state[block.owner])
        overlaps = np.concatenate(overlaps)
        fids[:, inputs] = np.minimum(overlaps.real ** 2 + overlaps.imag ** 2,
                                     1.0).reshape(len(noises), len(inputs), -1)
    return [FidelityResult(mean=float(cell.mean()),
                           std_error=float(cell.std(ddof=1) / math.sqrt(cell.size)),
                           n_traj=noise.n_traj, tau=noise.tau, epsilon=noise.epsilon)
            for cell, noise in zip(fids, noises)]


def lindblad_gate_fidelity(gate: Schedule | PhysicalParams, tau: float) -> float:
    """Deterministic (sampling-free) fidelity of ``gate`` at epsilon = 0.

    Evolves the 8 basis inputs as one stack through the exact Lindblad
    channel and averages <target| rho |target>.  Oracle for the
    epsilon = 0 column of the stochastic pipeline.
    """
    schedule = _schedule_of(gate)
    basis = _logical_basis(schedule)
    rhos = _lindblad_stack(schedule, basis[:, :, None] * basis.conj()[:, None, :], (tau,))[0]
    return sum(float(np.vdot(target, rho @ target).real)
               for target, rho in zip(basis[_IMAGES], rhos)) / len(LOGICAL_BITS)


def sweep(gate: Schedule | PhysicalParams, tau_values, epsilon_values, n_traj: int,
          seed: int) -> FidelityGrid:
    """Fidelity surface of ``gate`` on the (tau, epsilon) grid, deterministic per seed.

    Cell (i, j) uses the RNG stream family of cell index i*len(eps)+j, so
    it reproduces a direct ``gate_fidelity`` call with that ``cell_index``
    bit for bit.  Every cell's settings are checked before any cell runs;
    the cells of one tau run as one ``_cell_fidelity`` call.
    """
    tau_values = tuple(float(t) for t in tau_values)
    epsilon_values = tuple(float(e) for e in epsilon_values)
    if not tau_values or not epsilon_values:
        raise ValueError("sweep grids must be nonempty")
    noises = [[NoiseParams(tau=tau, epsilon=eps, n_traj=n_traj, seed=seed)
               for eps in epsilon_values] for tau in tau_values]
    schedule = _schedule_of(gate)
    cells = tuple(tuple(_cell_fidelity(schedule, row,
                                       np.arange(i * len(row), (i + 1) * len(row))))
                  for i, row in enumerate(noises))
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


def _collision_inputs(params: PhysicalParams) -> np.ndarray:
    """The 8 encoded states as they enter the collision: the ideal gate's
    first two segments (pi-Rabi then R_ig), as one stack.

    The encoding depends only on omega, not on the collision detuning, so
    the schedule is built at the reference delta = 4 omega.
    """
    schedule = toffoli_schedule(replace(params, delta=4.0 * params.omega))
    encoding = replace(schedule, segments=schedule.segments[:2])
    return np.stack([psi.amplitudes for psi in _ideal_states(encoding, _logical_basis(schedule))])


def dispersive_validation(params: PhysicalParams,
                          ratios=VALIDATION_RATIOS) -> list[DispersiveOverlap]:
    """Compare the dispersive collision against the full detuned two-atom model.

    For each delta/omega ratio, the 8 encoded collision-input states evolve
    as rows through the engine's lossless ``_DriftEvolver`` under each
    Hamiltonian for t_col = pi/lambda, with matched lambda = omega^2/(4 delta);
    reports |<U_full psi_b | U_disp psi_b>|^2 per input and its minimum.
    """
    ratios = tuple(float(r) for r in ratios)
    if any(r < 1.0 for r in ratios):
        raise ValueError("delta/omega ratios must be >= 1")
    inputs = _collision_inputs(params)
    space = params.protocol_space()
    h_disp, h_full = _dispersive_family(1, 2, space), _detuned_family(params, 1, 2, space)
    reports = []
    for ratio in ratios:
        p = replace(params, delta=ratio * params.omega)
        t_col = np.full(len(inputs), p.t_collision)
        evs = [_DriftEvolver(h.entries, 0.0, None) for h in (h_disp(p.lam), h_full(p.delta))]
        psi_disp, psi_full = (ev.evolve(ev.coefficients(inputs), t_col) for ev in evs)
        overlaps = tuple(float(abs(np.vdot(f, d)) ** 2) for f, d in zip(psi_full, psi_disp))
        reports.append(DispersiveOverlap(ratio=ratio, min_overlap=min(overlaps),
                                         overlaps=overlaps))
    return reports
