"""Evolution of a schedule: the ideal gate, quantum jumps and a Lindblad oracle.

Photon loss is the only decay channel (zero temperature): collapse
operator sqrt(kappa) a with kappa = 1/tau, tau the photon lifetime, so
<n> decays as exp(-t/tau).  Atomic decay is neglected (circular states).
The Lindblad oracle (``lindblad_evolve``) applies each timed segment's
exact channel exp(L T), block by block, to a stack of density matrices.

The jump unraveling is one batched quantum-jump engine.  The
trajectories of a basis input evolve together as the rows of an
(n, dim) array, in blocks of ``_BLOCK_ROWS`` rows so that memory does
not grow with n_traj; a single trajectory (``mcwf_trajectory``) is the
one-row case.  Each row evolves its unnormalized state under
K = H - (i/2) kappa a^dag a exactly per segment, at its own jittered
duration, by broadcasting exp(-i w t) over per-row times in the
eigenbasis of K.  Each row monitors its squared norm on its own grid of
substeps of at most dt_max and fires a jump when the norm crosses the
row's uniform threshold; the crossing time is refined by bisection to
dt_max/100 on the rows that crossed, and only those rows jump.  A row's
result does not depend on which other rows share its block.  The ideal
gate (``run_ideal``) is the same engine at kappa = 0 with unit jitter
factors: no row ever decays, so none draws or jumps.

Randomness contract: one root seed; the stream for trajectory k of basis
input b in grid cell c is the counter-based Philox block with counter
(0, k, b, c).  Streams are independent of execution order, so results
are bit-reproducible no matter how trajectories are scheduled.  Each
trajectory first draws its per-segment jitter factors (one truncated
Gaussian per jittered segment, in segment order), then jump thresholds
as needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Sequence

import numpy as np
import scipy.linalg

from .model import annihilation, number_operator, rge_block, rig_block
from .protocol import Schedule, Segment, segment_drift
from .qmath import (CompositeSpace, DensityMatrix, StateVector, embed_operator)

#: trajectories evolved together; bounds the engine's memory for any n_traj
_BLOCK_ROWS = 256


@dataclass(frozen=True)
class NoiseParams:
    """Decoherence and imprecision settings for trajectory runs.

    tau      cavity photon lifetime in seconds (math.inf for lossless)
    epsilon  relative timing/angle error, std of the per-segment Gaussian
    n_traj   trajectories per initial state
    seed     64-bit root seed
    dt_max   norm-monitoring substep bound; defaults to tau/100
    """

    tau: float = 1e-3
    epsilon: float = 0.03
    n_traj: int = 2000
    seed: int = 42
    dt_max: Optional[float] = None

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in [0, 1), got {self.epsilon}")
        if self.n_traj < 1:
            raise ValueError("n_traj must be positive")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.dt_max is not None:
            if not self.dt_max > 0:
                raise ValueError("dt_max must be positive")
            if math.isfinite(self.tau) and self.dt_max > self.tau / 100.0:
                raise ValueError("dt_max must not exceed tau/100")

    @property
    def kappa(self) -> float:
        return 0.0 if math.isinf(self.tau) else 1.0 / self.tau

    def effective_dt_max(self) -> float:
        """Norm-monitoring substep bound: dt_max, else tau/100 (inf if lossless)."""
        return self.tau / 100.0 if self.dt_max is None else self.dt_max


@dataclass(frozen=True)
class TrajectoryResult:
    """One quantum-jump realization of a schedule."""

    final_state: StateVector
    jump_times: tuple[float, ...]
    perturbed_durations: tuple[float, ...]


class _StreamFactory:
    """The counter-based streams of one root seed.

    Reuses a single Philox instance, resetting its counter block per call,
    which costs a fraction of a fresh construction; equality with a fresh
    ``Philox(key=seed, counter=[0, traj, basis_input, cell])`` is asserted
    in the test suite.  A stream is valid until the next ``stream`` call.
    """

    def __init__(self, seed: int):
        self._philox = np.random.Philox(key=np.uint64(seed))
        self._template = self._philox.state

    def stream(self, *, traj: int = 0, basis_input: int = 0,
               cell: int = 0) -> np.random.Generator:
        state = self._template
        state["state"]["counter"] = np.array(
            [0, traj, basis_input, cell], dtype=np.uint64)
        state["buffer_pos"] = 4  # mark the output buffer exhausted
        self._philox.state = state
        return np.random.Generator(self._philox)


def substream(seed: int, *, traj: int = 0, basis_input: int = 0,
              cell: int = 0) -> np.random.Generator:
    """Deterministic counter-based stream for one trajectory."""
    return _StreamFactory(seed).stream(traj=int(traj), basis_input=int(basis_input),
                                       cell=int(cell))


def jitter_factors(schedule: Schedule, epsilon: float,
                   rng: np.random.Generator) -> np.ndarray:
    """Per-segment scale factors 1 + eta, eta ~ N(0, epsilon^2) truncated > -1.

    Segments with jitter_applies=False get exactly 1.0; zero-duration
    segments use their factor as a rotation-angle scale instead.
    """
    factors = np.ones(len(schedule.segments))
    for k, seg in enumerate(schedule.segments):
        if not seg.jitter_applies:
            continue
        eta = rng.standard_normal() * epsilon
        while eta <= -1.0:
            eta = rng.standard_normal() * epsilon
        factors[k] = 1.0 + eta
    return factors


def _rows_matmul(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """rows @ matrix, with each row's bits independent of the other rows.

    BLAS takes another path for a one-row operand than for the same row
    inside a larger one, and the two round differently; a lone row is
    padded to two so that a trajectory gives the same bits alone as in a
    block.
    """
    if len(rows) == 1:
        return (np.concatenate((rows, rows)) @ matrix)[:1]
    return rows @ matrix


def _sq_norms(rows: np.ndarray) -> np.ndarray:
    """Squared norm of each row of a C-contiguous complex array."""
    pairs = rows.view(np.float64)
    return np.einsum("...i,...i->...", pairs, pairs)


class _PulseEvolver:
    """Instantaneous classical pulse, applied on the atom's tensor axis."""

    def __init__(self, schedule: Schedule, seg: Segment):
        self._seg = seg
        dims = schedule.space.subsystem_dims
        self._axis = seg.atom
        self.lossy = False
        # group the tensor axes around the pulsed one for a broadcast matmul
        self._lead = math.prod(dims[:self._axis])
        self._dim = dims[self._axis]
        self._trail = math.prod(dims[self._axis + 1:])

    def apply(self, psi: np.ndarray, angle_scales: np.ndarray) -> np.ndarray:
        """Rows of ``psi`` after the pulse, each at its own angle scale."""
        seg = self._seg
        if seg.pulse == "rig":
            blocks = rig_block(math.pi * angle_scales)
        else:
            blocks = rge_block(seg.theta * angle_scales, seg.phi)
        tensor = psi.reshape(len(psi), self._lead, self._dim, self._trail)
        return (blocks[:, None] @ tensor).reshape(len(psi), -1)


class _DriftEvolver:
    """Exact evolution under K = H - (i/2) kappa N for one timed segment.

    Diagonalizes K once; evolving rows for their own times is then an
    elementwise phase in the eigenbasis.  Falls back to dense expm if the
    eigendecomposition reconstructs poorly (never the case away from
    exceptional points, but cheap insurance).
    """

    def __init__(self, h: np.ndarray, kappa: float, n_cav: np.ndarray):
        self.lossy = kappa > 0.0
        self.kappa = kappa
        self.k = h - 0.5j * kappa * n_cav if self.lossy else h
        #: d|psi|^2/dt = -kappa <N> >= -max_decay_rate |psi|^2
        self.max_decay_rate = kappa * float(np.max(np.diag(n_cav).real))
        if not self.lossy:
            w, v = np.linalg.eigh(h)
            self._w = w.astype(np.complex128)
            self._v = v
            self._vinv = v.conj().T
            self._exact = True
            return
        w, v = np.linalg.eig(self.k)
        vinv = np.linalg.inv(v)
        recon_err = np.max(np.abs((v * w) @ vinv - self.k))
        scale = max(np.max(np.abs(self.k)), 1.0)
        self._exact = recon_err <= 1e-9 * scale
        if self._exact:
            self._w = w
            self._v = v
            self._vinv = vinv

    def coefficients(self, psi: np.ndarray) -> np.ndarray:
        """Rows of ``psi`` in the eigenbasis of K (unchanged on the expm path)."""
        return _rows_matmul(psi, self._vinv.T) if self._exact else psi

    def evolve(self, coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
        """exp(-iKt) on rows given by ``coefficients``, each for its own time."""
        if self._exact:
            phases = np.exp(np.multiply.outer(t, -1j * self._w))
            return _rows_matmul(phases * coeffs, self._v.T)
        return np.stack([scipy.linalg.expm(-1j * self.k * t_row) @ row
                         for row, t_row in zip(coeffs, t)])


@dataclass(frozen=True)
class _CompiledSchedule:
    """Per-segment evolvers plus the embedded jump operator (internal)."""

    schedule: Schedule
    evolvers: tuple
    annihilator: np.ndarray
    #: some timed segment decays, so every trajectory draws a first threshold
    decays: bool


def _compile(schedule: Schedule, noise: NoiseParams) -> _CompiledSchedule:
    space = schedule.space
    n_cav = embed_operator(space, [0],
                           number_operator(space.subsystem_dims[0])).entries
    evolvers = []
    for seg in schedule.segments:
        if seg.kind == "classical_pulse":
            evolvers.append(_PulseEvolver(schedule, seg))
        else:
            kappa = noise.kappa if seg.loss_active else 0.0
            h = segment_drift(schedule, seg).entries
            evolvers.append(_DriftEvolver(h, kappa, n_cav))
    decays = any(ev.lossy and seg.nominal_duration > 0.0
                 for seg, ev in zip(schedule.segments, evolvers))
    a = embed_operator(space, [0], annihilation(space.subsystem_dims[0])).entries
    return _CompiledSchedule(schedule, tuple(evolvers), a, decays)


@dataclass(frozen=True)
class _Block:
    """Final states and records of a block of trajectories, one row each."""

    space: CompositeSpace
    states: np.ndarray                          # (n, dim)
    jump_times: tuple[tuple[float, ...], ...]
    durations: np.ndarray                       # (n, n_segments)

    def normalized(self) -> "_Block":
        return replace(self, states=self.states / np.sqrt(_sq_norms(self.states))[:, None])

    def result(self, row: int) -> TrajectoryResult:
        return TrajectoryResult(StateVector(self.space, self.states[row]),
                                self.jump_times[row], tuple(self.durations[row]))


def _decay(ev: _DriftEvolver, psi: np.ndarray, duration: np.ndarray,
           dt_max: float, annihilator: np.ndarray, thresholds: np.ndarray,
           redraw: Callable[[int], float]) -> tuple[np.ndarray, list]:
    """Rows of ``psi`` through one lossy segment of per-row ``duration``.

    Each row runs from its last jump (or the segment start) on a grid of
    equal substeps of at most dt_max, checking its squared norm at every
    substep unless its threshold is too low to be reached on the grid.  A
    row whose norm falls below its threshold has the crossing bisected to
    dt_max/100, jumps there, draws its next threshold into
    ``thresholds`` and runs again from the jump.  Returns the final rows
    and, per pass with jumps, (rows, time done before the pass, jump time
    within the pass).
    """
    psi = psi.copy()
    t_done = np.zeros(len(psi))
    events = []
    running = np.arange(len(psi))
    while running.size:
        start = ev.coefficients(psi[running])
        remaining = duration[running] - t_done[running]
        n_sub = np.maximum(1.0, np.ceil(remaining / dt_max))
        step = remaining / n_sub
        norms = _sq_norms(psi[running])
        slack = 1e-12 * norms
        t_lo = np.zeros(len(running))
        t_hi = np.zeros(len(running))
        crossed = np.zeros(len(running), dtype=bool)
        # the squared norm decays no faster than exp(-max_decay_rate t), so a
        # row whose threshold lies below that bound at the end of its grid
        # cannot cross on it: its grid shrinks to that one end point
        floor = norms * np.exp(-ev.max_decay_rate * step * n_sub) * (1.0 - 1e-6)
        clear = thresholds[running] < floor
        step = np.where(clear, step * n_sub, step)
        n_sub = np.where(clear, 1.0, n_sub)
        scan = np.arange(len(running))
        substep = 0
        while scan.size:
            substep += 1
            times = step[scan] * substep
            states = ev.evolve(start[scan], times)
            new = _sq_norms(states)
            if not np.all(new <= norms[scan] + slack[scan]):
                raise RuntimeError("squared norm must be non-increasing between jumps")
            fell = new < thresholds[running[scan]]
            last = ~fell & (n_sub[scan] == substep)
            psi[running[scan[last]]] = states[last]
            hit = scan[fell]
            crossed[hit] = True
            t_lo[hit] = step[hit] * (substep - 1)
            t_hi[hit] = times[fell]
            norms[scan] = new
            scan = scan[~(fell | last)]

        hit = np.nonzero(crossed)[0]
        if hit.size == 0:
            break
        lo, hi, rows = t_lo[hit], t_hi[hit], running[hit]
        resolution = dt_max / 100.0
        bisect = np.nonzero(hi - lo > resolution)[0]
        while bisect.size:
            mid = 0.5 * (lo[bisect] + hi[bisect])
            fell = _sq_norms(ev.evolve(start[hit[bisect]], mid)) < thresholds[rows[bisect]]
            hi[bisect] = np.where(fell, mid, hi[bisect])
            lo[bisect] = np.where(fell, lo[bisect], mid)
            bisect = bisect[hi[bisect] - lo[bisect] > resolution]
        t_jump = 0.5 * (lo + hi)

        jumped = _rows_matmul(ev.evolve(start[hit], t_jump), annihilator.T)
        jumped_norms = np.sqrt(_sq_norms(jumped))
        if np.any(jumped_norms < 1e-15):
            raise RuntimeError("norm underflow: jump operator annihilated the state")
        psi[rows] = jumped / jumped_norms[:, None]
        events.append((rows, t_done[rows], t_jump))
        for row in rows:
            thresholds[row] = redraw(row)
        t_done[rows] += t_jump
        running = rows[duration[rows] - t_done[rows] > 0.0]
    return psi, events


def _evolve(compiled: _CompiledSchedule, psi: np.ndarray, noise: NoiseParams,
            factors: np.ndarray, thresholds: np.ndarray,
            redraw: Optional[Callable[[int], float]]) -> _Block:
    """Evolve the start rows ``psi`` (n, dim) together, one trajectory each.

    ``factors`` (n, n_segments) are the rows' jitter factors and
    ``thresholds`` (n,) their first jump thresholds; ``redraw(row)`` gives
    a row's next threshold after each of its jumps (None if no segment
    decays).  The final rows are not renormalized.
    """
    segments = compiled.schedule.segments
    n = len(factors)
    durations = np.array([seg.nominal_duration for seg in segments]) * factors
    thresholds = np.array(thresholds, dtype=np.float64)
    jump_times: list[list[float]] = [[] for _ in range(n)]
    elapsed = np.zeros(n)
    for k, (seg, ev) in enumerate(zip(segments, compiled.evolvers)):
        if seg.kind == "classical_pulse":
            psi = ev.apply(psi, factors[:, k])
            continue
        if seg.nominal_duration <= 0.0:
            continue
        if not ev.lossy:
            psi = ev.evolve(ev.coefficients(psi), durations[:, k])
        else:
            psi, events = _decay(ev, psi, durations[:, k], noise.effective_dt_max(),
                                 compiled.annihilator, thresholds, redraw)
            for rows, t_done, t_jump in events:
                for row, t in zip(rows, elapsed[rows] + t_done + t_jump):
                    jump_times[row].append(float(t))
        elapsed += durations[:, k]
    return _Block(compiled.schedule.space, psi,
                  tuple(tuple(times) for times in jump_times), durations)


def _draw(compiled: _CompiledSchedule, noise: NoiseParams,
          rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """A trajectory's draws before it runs: its jitter factors, then its
    first jump threshold when the schedule decays."""
    factors = jitter_factors(compiled.schedule, noise.epsilon, rng)
    return factors, (rng.random() if compiled.decays else math.inf)


def _check_initial_state(schedule: Schedule, psi0: StateVector) -> None:
    if psi0.space != schedule.space:
        raise ValueError("initial state does not live on the schedule's space")
    if not psi0.normalized:
        raise ValueError("initial state must be normalized")


def _run_block(compiled: _CompiledSchedule, psi0: StateVector, noise: NoiseParams,
               streams: _StreamFactory, trajs: range, basis_input: int,
               cell: int) -> _Block:
    """Trajectories ``trajs`` of one basis input as one block.

    A row that jumps draws its next threshold by replaying its own stream
    past the draws it has made, so no per-row generator is kept.
    """
    def stream(row: int) -> np.random.Generator:
        return streams.stream(traj=trajs[row], basis_input=basis_input, cell=cell)

    factors, thresholds = zip(*(_draw(compiled, noise, stream(row))
                                for row in range(len(trajs))))
    drawn = np.ones(len(trajs), dtype=np.int64)

    def redraw(row: int) -> float:
        rng = stream(row)
        _draw(compiled, noise, rng)
        threshold = rng.random(drawn[row])[-1]
        drawn[row] += 1
        return threshold

    psi = np.repeat(psi0.amplitudes[None, :], len(trajs), axis=0)
    return _evolve(compiled, psi, noise, np.array(factors), np.array(thresholds),
                   redraw).normalized()


def _trajectory_blocks(compiled: _CompiledSchedule, psi0: StateVector,
                       noise: NoiseParams, *, basis_input: int = 0,
                       cell: int = 0) -> Iterator[_Block]:
    """The n_traj trajectories of one basis input, ``_BLOCK_ROWS`` at a time."""
    _check_initial_state(compiled.schedule, psi0)
    streams = _StreamFactory(noise.seed)
    for first in range(0, noise.n_traj, _BLOCK_ROWS):
        trajs = range(first, min(first + _BLOCK_ROWS, noise.n_traj))
        yield _run_block(compiled, psi0, noise, streams, trajs, basis_input, cell)


def mcwf_trajectory(schedule: Schedule, psi0: StateVector, noise: NoiseParams,
                    rng: np.random.Generator) -> TrajectoryResult:
    """One Monte Carlo wavefunction realization of the schedule.

    The engine's one-row case.  Consumes ``rng`` in a fixed order: jitter
    factors first, then one uniform threshold per decay record.
    """
    _check_initial_state(schedule, psi0)
    compiled = _compile(schedule, noise)
    factors, threshold = _draw(compiled, noise, rng)
    block = _evolve(compiled, psi0.amplitudes[None, :], noise, factors[None, :],
                    np.array([threshold]), lambda row: rng.random())
    return block.normalized().result(0)


def _ideal_states(schedule: Schedule, psi: np.ndarray) -> list[StateVector]:
    """Rows ``psi`` (n, dim) through the lossless, jitter-free schedule.

    The engine's kappa = 0 case, with unit factors and no jumps.  Its rows
    are not renormalized, so a lossless evolution that leaks norm fails
    the StateVector unit-norm check here.
    """
    noise = NoiseParams(tau=math.inf, epsilon=0.0)
    n = len(psi)
    block = _evolve(_compile(schedule, noise), psi, noise,
                    np.ones((n, len(schedule.segments))), np.full(n, math.inf), None)
    return [StateVector(schedule.space, row) for row in block.states]


def run_ideal(schedule: Schedule, psi0: StateVector) -> StateVector:
    """Noiseless execution: the engine's one-row, lossless, jitter-free call."""
    _check_initial_state(schedule, psi0)
    return _ideal_states(schedule, psi0.amplitudes[None, :])[0]


def run_trajectories(schedule: Schedule, psi0: StateVector, noise: NoiseParams,
                     *, basis_input: int = 0, cell: int = 0) -> list[TrajectoryResult]:
    """n_traj independent trajectories with per-index derived streams."""
    blocks = _trajectory_blocks(_compile(schedule, noise), psi0, noise,
                                basis_input=basis_input, cell=cell)
    return [block.result(row) for block in blocks for row in range(len(block.states))]


def ensemble_density(results: Sequence[TrajectoryResult]) -> DensityMatrix:
    """(1/N) sum |psi_k><psi_k|, accumulated in trajectory-index order."""
    if len(results) == 0:
        raise ValueError("ensemble_density needs at least one trajectory")
    space = results[0].final_state.space
    acc = np.zeros((space.total_dim,) * 2, dtype=np.complex128)
    for res in results:
        if res.final_state.space != space:
            raise ValueError("trajectories live on different spaces")
        amps = res.final_state.amplitudes
        acc += np.outer(amps, amps.conj())
    return DensityMatrix(space, acc / len(results))


def _components(n: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Connected-component label of each of n nodes, with edges x[e] -- y[e]."""
    labels, old = np.arange(n), None
    while not np.array_equal(labels, old):
        old, labels = labels, labels.copy()
        np.minimum.at(labels, x, old[y])
        np.minimum.at(labels, y, old[x])
        labels = labels[labels]
    return np.unique(labels, return_inverse=True)[1]


def _liouvillian_blocks(ev: _DriftEvolver, annihilator: np.ndarray,
                        duration: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Exact channel exp(L T) of one timed segment, as independent blocks.

    L = -i(K kron 1 - 1 kron conj(K)) + kappa a kron conj(a) is the row-major
    vectorization of d rho/dt = -i(K rho - rho K^dag) + kappa a rho a^dag.  It
    couples the pair index i*dim + j only within products of K's connected
    components, joined where the jump lowers both indices, so it splits into
    small blocks read off the nonzero patterns of K and a.  Yields, per block
    size, the pair indices (n_blocks, size) and their exp(L T) blocks, from
    one stacked scipy.linalg.expm call; no dim^2 x dim^2 operand is formed,
    and a connected pattern gives one block, the dense expm.
    """
    k_op, dim = ev.k, len(ev.k)
    jump = math.sqrt(ev.kappa) * annihilator
    states = _components(dim, *np.nonzero(k_op))
    down, up = (states[axis] for axis in np.nonzero(jump))
    sectors = _components(dim * dim, np.add.outer(down * dim, down).ravel(),
                          np.add.outer(up * dim, up).ravel())
    labels = sectors[np.add.outer(states * dim, states)].ravel()
    sizes = np.bincount(labels)[labels]
    order = np.lexsort((labels, sizes))
    for size in np.unique(sizes):
        idx = order[sizes[order] == size].reshape(-1, size)
        i, j = divmod(idx[:, :, None], dim)
        k, l = divmod(idx[:, None, :], dim)
        gen = (-1j * (k_op[i, k] * (j == l) - (i == k) * k_op[j, l].conj())
               + jump[i, k] * jump[j, l].conj())
        yield idx, scipy.linalg.expm(gen * duration)


def _lindblad_stack(schedule: Schedule, rho0s: Sequence[DensityMatrix],
                    tau: float) -> list[DensityMatrix]:
    """Density matrices ``rho0s`` through the exact Lindblad channel, as one stack."""
    compiled = _compile(schedule, NoiseParams(tau=tau, epsilon=0.0))  # checks tau > 0
    if any(rho0.space != schedule.space for rho0 in rho0s):
        raise ValueError("initial state does not live on the schedule's space")
    dim = schedule.space.total_dim
    vecs = np.stack([rho0.entries.ravel() for rho0 in rho0s])
    for seg, ev in zip(schedule.segments, compiled.evolvers):
        if seg.kind == "classical_pulse":
            # the rows of the identity are the basis kets, so this gives U^T
            u = ev.apply(np.eye(dim, dtype=np.complex128), np.ones(dim)).T
            vecs = (u @ vecs.reshape(-1, dim, dim) @ u.conj().T).reshape(len(vecs), -1)
        elif seg.nominal_duration > 0.0:
            for idx, props in _liouvillian_blocks(ev, compiled.annihilator,
                                                  seg.nominal_duration):
                vecs[:, idx] = (props @ vecs[:, idx, None])[..., 0]
    return [DensityMatrix(schedule.space, vec.reshape(dim, dim)) for vec in vecs]


def lindblad_evolve(schedule: Schedule, rho0: DensityMatrix, tau: float) -> DensityMatrix:
    """Exact master-equation channel of the schedule at nominal durations:
    d rho/dt = -i[H, rho] + kappa (a rho a^dag - {a^dag a, rho}/2), exact
    per timed segment; the sampling-free oracle for the quantum-jump method.
    """
    return _lindblad_stack(schedule, [rho0], tau)[0]
