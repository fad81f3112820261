"""Evolution of a schedule: the ideal gate, quantum jumps and a Lindblad oracle.

Photon loss is the only decay channel (zero temperature): collapse
operator sqrt(kappa) a with kappa = 1/tau, tau the photon lifetime, so
<n> decays as exp(-t/tau).  Atomic decay is neglected (circular states).
The Lindblad oracle (``lindblad_evolve``) applies each timed segment's
exact exp(L T), block by block, to stacked density matrices; each block
size's stack takes one ``_expm`` call, Pade-13 in numpy, and no
eigendecomposition.

The jump unraveling is one batched quantum-jump engine.  The
trajectories of a cell's basis inputs evolve together as one input-major
row set of an (n, dim) array, in blocks of ``_BLOCK_ROWS`` rows so that
memory does not grow with n_traj; a single trajectory (``mcwf_trajectory``)
is the one-row case.  Each row evolves its unnormalized state under
K = H - (i/2) kappa a^dag a exactly per segment, at its own jittered
duration, by broadcasting exp(-i w t) over per-row times in the
eigenbasis of K.  Between jumps a row's squared norm only falls, so each
pass evaluates it once, at the end point of the row's remaining time; a
row whose norm has fallen below its uniform threshold there bisects the
crossing to tau/10^4, and only those rows jump.  A row's result does not
depend on which other rows share its block.  The ideal gate
(``run_ideal``) is the same engine at kappa = 0 with unit jitter factors:
no row ever decays, so none draws or jumps.

Randomness contract: one root seed.  Word j of trajectory k of basis
input b in grid cell c is element j % 4 of Philox4x64-10 (Salmon et al.,
SC'11) at counter (j // 4 + 1, k, b, c) under key (seed, 0), i.e. the j-th
``random_raw`` output of numpy's ``Philox(key=seed, counter=[0, k, b, c])``.
A word depends on its indices only, so results are bit-reproducible however
trajectories are scheduled, and a block's words come from one vectorised
pass.  Word k < n_segments is segment k's jitter word, used or not; word
n_segments + n is the n-th jump threshold.  Word w is used as the uniform
((w >> 12) + 1/2) 2^-52, never 0 or 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .model import annihilation, number_operator, rig_block
from .protocol import Schedule, Segment, segment_drift
from .qmath import (CompositeSpace, DensityMatrix, StateVector, embed_operator)

#: trajectories evolved together; bounds the engine's memory for any n_traj
_BLOCK_ROWS = 2048
#: cond_1(V) above which a generator takes expm, not V exp(w T) V^-1
_EIG_COND_MAX = 1e4
#: Pade-13 coefficients b_j = (26 - j)! / (j! (13 - j)!) and the 1-norm up to which
#: no squaring is needed (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005))
_PADE13 = [math.factorial(26 - j) // (math.factorial(j) * math.factorial(13 - j))
           for j in range(14)]
_PADE13_THETA = 5.371920351148152


@dataclass(frozen=True)
class NoiseParams:
    """Decoherence and imprecision settings for trajectory runs.

    tau      cavity photon lifetime in seconds (math.inf for lossless)
    epsilon  relative timing/angle error, std of the per-segment Gaussian
    n_traj   trajectories per initial state
    seed     64-bit root seed
    """

    tau: float = 1e-3
    epsilon: float = 0.03
    n_traj: int = 2000
    seed: int = 42

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in [0, 1), got {self.epsilon}")
        if self.n_traj < 1:
            raise ValueError("n_traj must be positive")
        _check_counter_words(seed=self.seed)

    @property
    def kappa(self) -> float:
        return 0.0 if math.isinf(self.tau) else 1.0 / self.tau


@dataclass(frozen=True)
class TrajectoryResult:
    """One quantum-jump realization of a schedule."""

    final_state: StateVector
    jump_times: tuple[float, ...]
    perturbed_durations: tuple[float, ...]


#: Philox4x64 multipliers, split into 32-bit halves for the 64-bit mulhi,
#: and Weyl key increments (Salmon et al., SC'11)
_LO32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _LO32, _PHILOX_M >> _32
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)

#: AS241 (Wichura, Appl. Statist. 37, 477 (1988)) numerator and denominator
#: coefficients, highest power first: |p - 1/2| <= 0.425, tails r <= 5, r > 5
_AS241 = (
    ((2509.0809287301227, 33430.57558358813, 67265.7709270087, 45921.95393154987,
      13731.69376550946, 1971.5909503065513, 133.14166789178438, 3.3871328727963665),
     (5226.495278852854, 28729.085735721943, 39307.89580009271, 21213.794301586597,
      5394.196021424751, 687.1870074920579, 42.31333070160091, 1.0)),
    ((0.0007745450142783414, 0.022723844989269184, 0.2417807251774506, 1.2704582524523684,
      3.6478483247632045, 5.769497221460691, 4.630337846156546, 1.4234371107496835),
     (1.0507500716444169e-09, 0.0005475938084995345, 0.015198666563616457,
      0.14810397642748008, 0.6897673349851, 1.6763848301838038, 2.053191626637759, 1.0)),
    ((2.0103343992922881e-07, 2.7115555687434876e-05, 0.0012426609473880784,
      0.026532189526576124, 0.29656057182850487, 1.7848265399172913, 5.463784911164114,
      6.657904643501103),
     (2.0442631033899397e-15, 1.421511758316446e-07, 1.8463183175100548e-05,
      0.0007868691311456133, 0.014875361290850615, 0.1369298809227358, 0.599832206555888,
      1.0)),
)


def _check_counter_words(**words: int) -> None:
    """Philox takes the seed and each counter index as one 64-bit word; a
    value outside [0, 2^64) would wrap onto another stream or overflow."""
    for name, value in words.items():
        if not 0 <= int(value) < 2 ** 64:
            raise ValueError(f"{name} must be in [0, 2^64), got {value}")


def _philox(seed: int, trajs, blocks, basis_inputs, cell: int) -> np.ndarray:
    """Philox4x64-10 at counters (blocks + 1, trajs, basis_inputs, cell), key
    (seed, 0): words 4 blocks .. 4 blocks + 3 of the streams, on a new last
    axis.  Counter words 0, 2 (``even``) and 1, 3 (``odd``) run as stacked
    pairs; the round keys are formed as Python ints mod 2^64.
    """
    counters = np.broadcast_arrays(np.add(blocks, 1), trajs, basis_inputs, cell)
    x = np.array(counters, dtype=np.uint64).reshape(4, -1)
    even, odd = x[0::2], x[1::2]
    keys = np.array([[(seed + r * _PHILOX_W[0]) % 2 ** 64, r * _PHILOX_W[1] % 2 ** 64]
                     for r in range(10)], dtype=np.uint64)
    for key in keys[:, :, None]:
        lo, hi = even & _LO32, even >> _32
        lo_lo, lo_hi, hi_lo = lo * _PHILOX_M_LO, lo * _PHILOX_M_HI, hi * _PHILOX_M_LO
        carry = ((lo_lo >> _32) + (lo_hi & _LO32) + (hi_lo & _LO32)) >> _32
        mul_hi = hi * _PHILOX_M_HI + (lo_hi >> _32) + (hi_lo >> _32) + carry
        even, odd = mul_hi[::-1] ^ odd ^ key, (even * _PHILOX_M)[::-1]
    return np.stack((even[0], odd[0], even[1], odd[1]), -1).reshape(*counters[0].shape, 4)


def _uniforms(words: np.ndarray) -> np.ndarray:
    """((w >> 12) + 1/2) 2^-52 per word: in [2^-53, 1 - 2^-53], never 0 or 1."""
    return ((words >> 12) + 0.5) * 2.0 ** -52


def _ndtri(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile by AS241, equal to ``NormalDist().inv_cdf``.

    Each branch runs on its own entries only.  The tails take ``math.log``
    per entry, as numpy's vectorised log can differ from libm's in the last bit.
    """
    q = p - 0.5
    x = np.empty_like(q)
    central = np.abs(q) <= 0.425
    qc, qt = q[central], q[~central]
    r = 0.180625 - qc * qc
    x[central] = np.polyval(_AS241[0][0], r) * qc / np.polyval(_AS241[0][1], r)
    lows = np.where(qt <= 0.0, p[~central], 1.0 - p[~central])
    r = np.sqrt(-np.array([math.log(v) for v in lows.tolist()]))
    xt = np.empty_like(r)
    for near, (num, den), shift in ((r <= 5.0, _AS241[1], 1.6), (r > 5.0, _AS241[2], 5.0)):
        xt[near] = np.polyval(num, r[near] - shift) / np.polyval(den, r[near] - shift)
    x[~central] = np.where(qt < 0.0, -xt, xt)
    return x


def jitter_factors(schedule: Schedule, epsilon: float, u: np.ndarray) -> np.ndarray:
    """Per-segment scale factors 1 + eta, eta ~ N(0, epsilon^2) truncated > -1.

    One row per row of the uniforms ``u`` (n, n_segments).  eta = epsilon
    Phi^-1(p0 + u (1 - p0)), p0 = Phi(-1/epsilon), inverts the truncated
    law's CDF, so the cut is exact; 1 + eta is clamped to the smallest
    positive normal double, as rounding next to the cut can give <= 0.
    Segments with jitter_applies=False, and all at epsilon = 0, get exactly
    1.0; zero-duration segments use their factor as a rotation-angle scale.
    """
    factors = np.ones(np.shape(u))
    if epsilon == 0.0:
        return factors
    jittered = np.array([seg.jitter_applies for seg in schedule.segments], dtype=bool)
    p0 = 0.5 * math.erfc(1.0 / (epsilon * math.sqrt(2.0)))
    eta = epsilon * _ndtri(p0 + u[:, jittered] * (1.0 - p0))
    factors[:, jittered] = np.maximum(1.0 + eta, np.finfo(np.float64).tiny)
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


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(A) per matrix A of the stack ``a`` (m, n, n): Pade-13 scaling and
    squaring (Higham 2005).  Each A is scaled by 2^-s to 1-norm <= theta_13,
    all r_13 come from one batched solve, and each is squared its own s times."""
    norms = np.abs(a).sum(axis=1).max(axis=1)
    s = np.ceil(np.log2(np.maximum(norms / _PADE13_THETA, 1.0))).astype(int)
    a = a / 2.0 ** s[:, None, None]
    b, eye = _PADE13, np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    x = np.linalg.solve(v - u, v + u)
    for k in range(s.max(initial=0)):
        x[s > k] = x[s > k] @ x[s > k]
    return x


def _eig(gen: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(w, V, V^-1, cond_1(V) <= _EIG_COND_MAX) of G = V diag(w) V^-1, the guard
    of ``_DriftEvolver``'s eigenbasis path.  V diag(exp(w T)) V^-1 errs by
    ~cond(V) x rounding, even where V, w reconstruct G to 1e-9."""
    w, v = np.linalg.eig(gen)
    vinv = np.linalg.inv(v)
    cond = np.abs(v).sum(axis=-2).max(axis=-1) * np.abs(vinv).sum(axis=-2).max(axis=-1)
    return w, v, vinv, cond <= _EIG_COND_MAX


class _PulseEvolver:
    """Instantaneous classical pulse, applied on the atom's tensor axis."""

    def __init__(self, schedule: Schedule, seg: Segment):
        dims = schedule.space.subsystem_dims
        self._axis = seg.atom
        self.lossy = False
        # group the tensor axes around the pulsed one for a broadcast matmul
        self._lead = math.prod(dims[:self._axis])
        self._dim = dims[self._axis]
        self._trail = math.prod(dims[self._axis + 1:])

    def apply(self, psi: np.ndarray, angle_scales: np.ndarray) -> np.ndarray:
        """Rows of ``psi`` after the R_ig pulse, each at its own angle scale."""
        blocks = rig_block(math.pi * angle_scales)
        tensor = psi.reshape(len(psi), self._lead, self._dim, self._trail)
        return (blocks[:, None] @ tensor).reshape(len(psi), -1)


class _DriftEvolver:
    """Exact evolution under K = H - (i/2) kappa N for one timed segment.

    Diagonalizes K on first use; evolving rows for their own times is then
    an elementwise phase in the eigenbasis.  Falls back to one batched
    ``_expm`` over the rows if ``_eig`` finds the eigenvectors ill
    conditioned (never on the gate's segments, whose K have cond_1(V) near 5).
    """

    def __init__(self, h: np.ndarray, kappa: float, n_cav: np.ndarray):
        self.lossy = kappa > 0.0
        self.kappa = kappa
        self.k = h - 0.5j * kappa * n_cav if self.lossy else h

    @cached_property
    def _eigen(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
        """(w, V, V^-1, eigenbasis path taken) of K."""
        if self.lossy:
            return _eig(self.k)
        w, v = np.linalg.eigh(self.k)
        return w.astype(complex), v, v.conj().T, True

    def coefficients(self, psi: np.ndarray) -> np.ndarray:
        """Rows of ``psi`` in the eigenbasis of K (unchanged on the expm path)."""
        _, _, vinv, exact = self._eigen
        return _rows_matmul(psi, vinv.T) if exact else psi

    def evolve(self, coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
        """exp(-iKt) on rows given by ``coefficients``, each for its own time."""
        w, v, _, exact = self._eigen
        if exact:
            return _rows_matmul(np.exp(np.multiply.outer(t, -1j * w)) * coeffs, v.T)
        return (_expm(-1j * self.k * t[:, None, None]) @ coeffs[..., None])[..., 0]


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
    inputs: Optional[np.ndarray] = None         # (n,) basis input of each row

    def result(self, row: int) -> TrajectoryResult:
        return TrajectoryResult(StateVector(self.space, self.states[row]),
                                self.jump_times[row], tuple(self.durations[row]))


def _decay(ev: _DriftEvolver, psi: np.ndarray, duration: np.ndarray,
           resolution: float, annihilator: np.ndarray, thresholds: np.ndarray,
           next_thresholds: Callable[..., np.ndarray]) -> tuple[np.ndarray, list]:
    """Rows of ``psi`` through one lossy segment of per-row ``duration``.

    Between jumps a row's squared norm only falls, so each pass evaluates
    every running row once, at the end of its remaining time.  A row still
    at or above its threshold there keeps that state and is done.  A row
    below it bisects [0, remaining] until the bracket is at most ``resolution``
    wide, jumps at the bracket's midpoint, takes its next threshold into
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
        norms = _sq_norms(psi[running])
        slack = 1e-12 * norms
        ends = ev.evolve(start, remaining)
        end_norms = _sq_norms(ends)
        if not np.all(end_norms <= norms + slack):
            raise RuntimeError("squared norm must be non-increasing between jumps")
        fell = end_norms < thresholds[running]
        psi[running[~fell]] = ends[~fell]
        hit = np.nonzero(fell)[0]
        if hit.size == 0:
            break
        rows = running[hit]
        lo, hi = np.zeros(hit.size), remaining[hit]
        lo_norms, hi_norms, slack = norms[hit], end_norms[hit], slack[hit]
        bisect = np.nonzero(hi - lo > resolution)[0]
        while bisect.size:
            mid = 0.5 * (lo[bisect] + hi[bisect])
            new = _sq_norms(ev.evolve(start[hit[bisect]], mid))
            if not np.all((new <= lo_norms[bisect] + slack[bisect])
                          & (new >= hi_norms[bisect] - slack[bisect])):
                raise RuntimeError("squared norm at a bisection midpoint must lie "
                                   "between the norms at its bracket's ends")
            fell = new < thresholds[rows[bisect]]
            hi[bisect[fell]], hi_norms[bisect[fell]] = mid[fell], new[fell]
            lo[bisect[~fell]], lo_norms[bisect[~fell]] = mid[~fell], new[~fell]
            bisect = bisect[hi[bisect] - lo[bisect] > resolution]
        t_jump = 0.5 * (lo + hi)

        jumped = _rows_matmul(ev.evolve(start[hit], t_jump), annihilator.T)
        jumped_norms = np.sqrt(_sq_norms(jumped))
        if np.any(jumped_norms < 1e-15):
            raise RuntimeError("norm underflow: jump operator annihilated the state")
        psi[rows] = jumped / jumped_norms[:, None]
        events.append((rows, t_done[rows], t_jump))
        thresholds[rows] = next_thresholds(rows)
        t_done[rows] += t_jump
        running = rows[duration[rows] - t_done[rows] > 0.0]
    return psi, events


def _evolve(compiled: _CompiledSchedule, psi: np.ndarray, noise: NoiseParams,
            factors: np.ndarray, thresholds: np.ndarray,
            next_thresholds: Optional[Callable[..., np.ndarray]]) -> _Block:
    """Evolve the start rows ``psi`` (n, dim) together, one trajectory each.

    ``factors`` (n, n_segments) are the rows' jitter factors and
    ``thresholds`` (n,) their first jump thresholds; ``next_thresholds(rows)``
    gives the next thresholds of ``rows`` after they jump (None if no
    segment decays).  The final rows are not renormalized.
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
            psi, events = _decay(ev, psi, durations[:, k], noise.tau / 100.0 / 100.0,
                                 compiled.annihilator, thresholds, next_thresholds)
            for rows, t_done, t_jump in events:
                for row, t in zip(rows, elapsed[rows] + t_done + t_jump):
                    jump_times[row].append(float(t))
        elapsed += durations[:, k]
    return _Block(compiled.schedule.space, psi,
                  tuple(tuple(times) for times in jump_times), durations)


def _check_initial_state(schedule: Schedule, psi0: StateVector) -> None:
    if psi0.space != schedule.space:
        raise ValueError("initial state does not live on the schedule's space")
    if not psi0.normalized:
        raise ValueError("initial state must be normalized")


def _run_block(compiled: _CompiledSchedule, psi: np.ndarray, noise: NoiseParams,
               trajs: np.ndarray, inputs: np.ndarray, cell: int) -> _Block:
    """Start rows ``psi`` (n, dim) as one block: row r is trajectory ``trajs[r]``
    of basis input ``inputs[r]``.

    One Philox call draws the whole 4-word blocks holding every row's jitter
    words and first threshold; a row whose thresholds outrun them gets the
    Philox block of its next one.
    """
    n_seg, seed = len(compiled.schedule.segments), int(noise.seed)
    n_cached = 4 * -(-(n_seg + compiled.decays) // 4)
    words = _philox(seed, trajs[:, None], np.arange(n_cached // 4), inputs[:, None],
                    cell).reshape(len(trajs), n_cached)
    next_word = np.full(len(trajs), n_seg)

    def next_thresholds(rows: np.ndarray) -> np.ndarray:
        j = next_word[rows]
        next_word[rows] += 1
        drawn = words[rows, np.minimum(j, n_cached - 1)]
        far = np.nonzero(j >= n_cached)[0]
        if far.size:
            blocks = _philox(seed, trajs[rows[far]], j[far] // 4, inputs[rows[far]], cell)
            drawn[far] = blocks[np.arange(far.size), j[far] % 4]
        return _uniforms(drawn)

    factors = jitter_factors(compiled.schedule, noise.epsilon, _uniforms(words[:, :n_seg]))
    thresholds = (next_thresholds(np.arange(len(trajs))) if compiled.decays
                  else np.full(len(trajs), math.inf))
    block = _evolve(compiled, psi, noise, factors, thresholds, next_thresholds)
    return replace(block, states=block.states / np.sqrt(_sq_norms(block.states))[:, None],
                   inputs=inputs)


def _trajectory_blocks(compiled: _CompiledSchedule, starts: np.ndarray, noise: NoiseParams,
                       inputs: np.ndarray, cell: int) -> Iterator[_Block]:
    """n_traj trajectories from each start row ``starts[i]`` (basis input
    ``inputs[i]``) as one input-major row set, ``_BLOCK_ROWS`` rows at a time."""
    rows = np.arange(len(starts) * noise.n_traj)
    for first in range(0, len(rows), _BLOCK_ROWS):
        which, trajs = np.divmod(rows[first:first + _BLOCK_ROWS], noise.n_traj)
        yield _run_block(compiled, starts[which], noise, trajs, inputs[which], cell)


def mcwf_trajectory(schedule: Schedule, psi0: StateVector, noise: NoiseParams, *,
                    traj: int = 0, basis_input: int = 0, cell: int = 0) -> TrajectoryResult:
    """One Monte Carlo wavefunction realization of the schedule.

    The engine's one-row block: bit for bit trajectory ``traj`` of
    ``run_trajectories`` at the same ``basis_input`` and ``cell``.
    """
    _check_initial_state(schedule, psi0)
    _check_counter_words(traj=traj, basis_input=basis_input, cell=cell)
    return _run_block(_compile(schedule, noise), psi0.amplitudes[None, :], noise,
                      np.array([traj]), np.array([basis_input]), cell).result(0)


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
    """n_traj independent trajectories, each on its own counter-based stream."""
    _check_initial_state(schedule, psi0)
    _check_counter_words(basis_input=basis_input, cell=cell)
    blocks = _trajectory_blocks(_compile(schedule, noise), psi0.amplitudes[None, :],
                                noise, np.array([basis_input]), cell)
    return [block.result(row) for block in blocks for row in range(len(block.states))]


def ensemble_density(results: Sequence[TrajectoryResult]) -> DensityMatrix:
    """(1/N) sum |psi_k><psi_k|, one stacked product per ``_BLOCK_ROWS`` states."""
    if len(results) == 0:
        raise ValueError("ensemble_density needs at least one trajectory")
    space = results[0].final_state.space
    if any(res.final_state.space != space for res in results):
        raise ValueError("trajectories live on different spaces")
    rows = [res.final_state.amplitudes for res in results]
    blocks = (np.stack(rows[i:i + _BLOCK_ROWS]) for i in range(0, len(rows), _BLOCK_ROWS))
    return DensityMatrix(space, sum(b.T @ b.conj() for b in blocks) / len(rows))


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
    size, the pair indices (n_blocks, size) and their exp(L T) blocks from one
    ``_expm`` call; no dim^2 x dim^2 operand is formed.
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
        yield idx, _expm(gen * duration)


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
