"""Evolution of a schedule: the ideal gate, quantum jumps and a Lindblad oracle.

Photon loss is the only decay channel (zero temperature): collapse
operator sqrt(kappa) a with kappa = 1/tau, tau the photon lifetime, so
<n> decays as exp(-t/tau).  Atomic decay is neglected (circular states).
Every path runs on the basis states its start states reach (``_compile``;
at any fock_dim 13 from the logical inputs, 7 from the four without a
photon).  The trajectory reductions stay on that basis; only per-trajectory
results and density matrices are embedded in the full space.  That basis, and
each segment's H, N, a and pulse maps on it, depend on the schedule and
the start support only, so ``_structure`` memoizes them, read-only;
``_compile`` builds new evolvers (K at the call's kappa, diagonalized on
first use) on every call.  The Lindblad oracle (``lindblad_evolve``)
applies each timed segment's exact exp(L T), block by block, to stacked
density matrices, only on the blocks its inputs' nonzero entries reach.
L = G_H + kappa G_loss is linear in kappa, so those blocks and both
kappa-free parts, each byte-distinct pair once, are memoized beside the
structure (``_liouvillian``), and the distinct blocks of each size, over
every tau of a call, take one Pade-13 ``_expm`` call.

The jump unraveling is one batched quantum-jump engine.  The trajectories
of the basis inputs that reach one compiled basis evolve together on it as
one row set, cell-major over the epsilon cells of one tau (a sweep runs
them all at once), then input-major, in blocks of ``_BLOCK_ROWS`` rows so
that memory does not grow with n_traj; a single trajectory
(``mcwf_trajectory``) is the one-row case.  Rows point at distinct states,
each evolved once: a row at epsilon > 0 has a state of its own from the
start, and the rows of one input in an epsilon = 0 cell share its no-jump
path, also beside jittered rows, until a row jumps into a state of its own.
A state evolves under K = H - (i/2) kappa a^dag a exactly per segment, at
its jittered duration, as exp(-i w t) in the eigenbasis of K.  Between
jumps its squared norm only falls, so each pass evaluates it once, at the
end point of its remaining time; a row whose uniform threshold is above
that norm bisects the crossing to tau/10^4 and jumps into a state of its
own.  Pulses swap amplitudes elementwise.  A row's result does not depend
on which other rows share its block.  The ideal gate (``run_ideal``) is
the same engine at kappa = 0 with unit jitter factors: no row ever
decays, so none draws or jumps.

Randomness contract: one root seed.  Word j of trajectory k of basis
input b in grid cell c is element j % 4 of Philox4x64-10 (Salmon et al.,
SC'11) at counter (j // 4 + 1, k, b, c) under key (seed, 0), i.e. the j-th
``random_raw`` output of numpy's ``Philox(key=seed, counter=c0)`` with c0 the
``np.uint64`` array [0, k, b, c] (a Python list goes through float64).
A word depends on its indices only, so results are bit-reproducible however
trajectories are scheduled, and a block's words come from one vectorised
pass.  Word k < n_segments is segment k's jitter word, used or not (at
epsilon = 0 none is, and the 4-word blocks that hold only jitter words are
not drawn, also in a block beside jittered rows); word n_segments + n is
the n-th jump threshold.  Word w is used as the uniform
((w >> 12) + 1/2) 2^-52, never 0 or 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable, Iterator, Optional

import numpy as np

from .model import Level, _is_int, _rig_amplitudes, annihilation, number_operator
from .protocol import Schedule, segment_drift
from .qmath import TRACE_TOL, CompositeSpace, DensityMatrix, StateVector, embed_operator

#: trajectories evolved together; bounds the engine's memory for any n_traj
_BLOCK_ROWS = 2048
# Freeing an mmapped array lifts glibc's dynamic mmap threshold to its size, so once this
# 8 MB one is dropped every block-sized array comes from the reused heap, not fresh pages
np.empty(2 ** 20)
#: (schedule, start support) structures ``_compile`` keeps, and Liouvillian memos
_STRUCTURES = 8
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
        if not self.kappa < math.inf:
            raise ValueError(f"tau = {self.tau!r} is too small: kappa = 1/tau overflows")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in [0, 1), got {self.epsilon}")
        if not _is_int(self.n_traj) or self.n_traj < 1:
            raise ValueError(f"n_traj must be a positive integer, got {self.n_traj!r}")
        _check_counter_words(seed=self.seed)

    @property
    def kappa(self) -> float:
        return 1.0 / self.tau


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
    """Philox takes the seed and each counter index as one 64-bit word; anything
    but an integer in [0, 2^64) would land on another stream or overflow."""
    for name, value in words.items():
        if not (_is_int(value) and 0 <= value < 2 ** 64):
            raise ValueError(f"{name} must be an integer in [0, 2^64), got {value!r}")


def _philox(seed: int, trajs, blocks, basis_inputs, cells) -> np.ndarray:
    """Philox4x64-10 at counters (blocks + 1, trajs, basis_inputs, cells), key
    (seed, 0): words 4 blocks .. 4 blocks + 3 of the streams, on a new last
    axis.  Counter words 0, 2 (``even``) and 1, 3 (``odd``) run as stacked
    pairs; the round keys are formed as Python ints mod 2^64.
    """
    counters = np.broadcast_arrays(np.add(blocks, 1), trajs, basis_inputs, cells)
    x = np.array(counters, dtype=np.uint64).reshape(4, -1)
    even, odd = x[0::2], x[1::2]
    keys = np.array([[(seed + r * _PHILOX_W[0]) % 2 ** 64, r * _PHILOX_W[1] % 2 ** 64]
                     for r in range(10)], dtype=np.uint64)
    for key in keys[:, :, None]:                    # mulhu of Hacker's Delight, 8-2
        lo, hi = even & _LO32, even >> _32
        mid = hi * _PHILOX_M_LO + ((lo * _PHILOX_M_LO) >> _32)
        mul_hi = hi * _PHILOX_M_HI + (mid >> _32) + ((lo * _PHILOX_M_HI + (mid & _LO32)) >> _32)
        even, odd = mul_hi[::-1] ^ odd ^ key, (even * _PHILOX_M)[::-1]
    return np.stack((even[0], odd[0], even[1], odd[1]), -1).reshape(*counters[0].shape, 4)


def _uniforms(words: np.ndarray) -> np.ndarray:
    """((w >> 12) + 1/2) 2^-52 per word: in [2^-53, 1 - 2^-53], never 0 or 1."""
    return ((words >> 12) + 0.5) * 2.0 ** -52


def _ndtri(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile by AS241, equal to ``NormalDist().inv_cdf``.

    The central rational runs on every entry (its denominator stays above 2e-3
    on the tails), then the tails are overwritten.  They take ``math.log`` per
    entry, as numpy's vectorised log can differ from libm's in the last bit.
    """
    flat = p.reshape(-1)
    q = flat - 0.5
    r = 0.180625 - q * q
    x = np.polyval(_AS241[0][0], r) * q / np.polyval(_AS241[0][1], r)
    tail = np.flatnonzero(np.abs(q) > 0.425)
    qt, pt = q[tail], flat[tail]
    lows = np.where(qt <= 0.0, pt, 1.0 - pt)
    r = np.sqrt(-np.fromiter(map(math.log, lows.tolist()), np.float64, tail.size))
    xt = np.empty_like(r)
    for near, (num, den), shift in ((r <= 5.0, _AS241[1], 1.6), (r > 5.0, _AS241[2], 5.0)):
        xt[near] = np.polyval(num, r[near] - shift) / np.polyval(den, r[near] - shift)
    x[tail] = np.where(qt < 0.0, -xt, xt)
    return x.reshape(p.shape)


def jitter_factors(schedule: Schedule, epsilon: float, u: np.ndarray) -> np.ndarray:
    """Per-segment scale factors 1 + eta, eta ~ N(0, epsilon^2) truncated > -1.

    One row per row of the uniforms ``u`` (n, n_segments).  eta = epsilon
    Phi^-1(p0 + u (1 - p0)), p0 = Phi(-1/epsilon), inverts the truncated
    law's CDF, so the cut is exact; 1 + eta is clamped to the smallest
    positive normal double, as rounding next to the cut can give <= 0.
    Segments with jitter_applies=False, and all at epsilon = 0, get exactly
    1.0; classical pulses use their factor as a rotation-angle scale.
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


class _PulseEvolver:
    """Instantaneous classical R_ig pulse on one atom, as an elementwise swap:
    at angle scale x a row becomes c psi + s psi[partner], with (c, s) =
    ``_rig_amplitudes(pi x)``, so psi[partner] at x = 1.
    ``partner[j]`` is compiled basis state j with the pulsed atom's |g> and
    |i> exchanged; states with that atom in |e> are fixed, self-partnered,
    and a pulse rewrites only the others, its ``moving`` states."""

    def __init__(self, partner: np.ndarray, moving: np.ndarray):
        self._partner, self._moving = partner, moving

    def apply(self, psi: np.ndarray, angle_scales: np.ndarray) -> np.ndarray:
        """Rows of ``psi`` after the R_ig pulse, each at its own angle scale."""
        if np.all(angle_scales == 1.0):
            return psi[:, self._partner]
        c, s = _rig_amplitudes(math.pi * angle_scales)
        out, moving = psi.copy(), self._moving
        out[:, moving] = c[:, None] * psi[:, moving] + s[:, None] * psi[:, self._partner[moving]]
        return out


class _DriftEvolver:
    """Exact evolution under K = H - (i/2) kappa N for one timed segment.

    Diagonalizes K on first use; evolving rows for their own times is then
    an elementwise phase in the eigenbasis.  Falls back to one batched
    ``_expm`` over the rows if K's eigenvectors V have cond_1(V) above
    ``_EIG_COND_MAX`` (never on the gate's segments, whose V have it near 5).
    """

    def __init__(self, h: np.ndarray, kappa: float, n_cav: np.ndarray):
        self.lossy = kappa > 0.0
        self.k = h - 0.5j * kappa * n_cav if self.lossy else h

    @cached_property
    def _eigen(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
        """(w, V, V^-1, eigenbasis path taken) of K.  V diag(exp(w T)) V^-1
        errs by ~cond(V) x rounding, even where V, w reconstruct K to 1e-9.
        K = H - (i/2) kappa N with N >= 0 has its spectrum in Im w <= 0; a
        rounded Im w > 0 is set to 0, as exp(-i w T) overflows over a long T."""
        if not self.lossy:
            w, v = np.linalg.eigh(self.k)
            return w.astype(complex), v, v.conj().T, True
        w, v = np.linalg.eig(self.k)
        w.imag[w.imag > 0.0] = 0.0
        vinv = np.linalg.inv(v)
        cond = np.abs(v).sum(axis=0).max() * np.abs(vinv).sum(axis=0).max()
        return w, v, vinv, cond <= _EIG_COND_MAX

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
    """Per-segment evolvers plus the jump operator on the compiled basis (internal)."""

    schedule: Schedule
    evolvers: tuple
    annihilator: np.ndarray
    #: full-space index of each compiled basis state, ascending
    support: np.ndarray


@lru_cache(maxsize=_STRUCTURES)
def _structure(schedule: Schedule, starts_mask: bytes) -> tuple:
    """The tau-independent part of ``_compile``, for the start support
    ``starts_mask`` (a bool mask over the full space, as bytes): the compiled
    basis, a and N on it, and per segment either a pulse's partner map and
    moving states or a timed segment's H, every array read-only."""
    space, dims = schedule.space, schedule.space.subsystem_dims
    levels = np.array(np.unravel_index(np.arange(space.total_dim), dims))
    n_cav = embed_operator(space, [0], number_operator(dims[0])).entries
    a = embed_operator(space, [0], annihilation(dims[0])).entries
    edges, ops = a != 0, []                         # edges[i, j]: j reaches i
    for seg in schedule.segments:
        if seg.kind == "classical_pulse":           # g = 0 <-> i = 2, e = 1 fixed
            ops.append(np.arange(space.total_dim) + (Level.e - levels[seg.atom])
                       * 2 * math.prod(dims[seg.atom + 1:]))
            edges[ops[-1], np.arange(space.total_dim)] = True
        else:
            ops.append(segment_drift(schedule, seg).entries)
            edges |= ops[-1] != 0
    steps = np.linalg.matrix_power(edges | np.eye(len(edges), dtype=bool), len(edges))
    reach = steps @ np.frombuffer(starts_mask, dtype=bool)
    support, index = np.flatnonzero(reach), np.cumsum(reach) - 1
    sub = np.ix_(support, support)
    ops = [(index[op[support]], np.flatnonzero(levels[seg.atom, support] != Level.e))
           if seg.kind == "classical_pulse" else (op[sub],)
           for seg, op in zip(schedule.segments, ops)]
    a, n_cav = a[sub], n_cav[sub]
    for x in (support, a, n_cav, *(x for op in ops for x in op)):
        x.flags.writeable = False
    return support, a, n_cav, tuple(ops)


def _compile(schedule: Schedule, noise: NoiseParams,
             starts: np.ndarray) -> _CompiledSchedule:
    """The evolvers on the compiled basis of the start rows ``starts`` (m, dim):
    the directed closure of their nonzeros under the nonzero patterns of
    every timed segment's K, of a and of each pulse's |g> <-> |i> partner
    map.  No evolution leaves it, so K, N and a restricted to it are exact.
    The structure is memoized per (schedule, start support); the evolvers,
    and so every eigendecomposition, are new on each call.
    """
    starts_mask = np.any(np.asarray(starts) != 0, axis=0).tobytes()
    support, annihilator, n_cav, ops = _structure(schedule, starts_mask)
    evolvers = tuple(
        _PulseEvolver(*op) if seg.kind == "classical_pulse" else
        _DriftEvolver(op[0], noise.kappa if seg.loss_active else 0.0, n_cav)
        for seg, op in zip(schedule.segments, ops))
    return _CompiledSchedule(schedule, evolvers, annihilator, support)


def _compiled_groups(schedule: Schedule, noise: NoiseParams, starts: np.ndarray
                     ) -> list[tuple[np.ndarray, _CompiledSchedule]]:
    """Indices of the start rows ``starts`` (m, dim) grouped by the compiled
    basis each reaches alone, each group with the schedule compiled at
    ``noise.tau`` from its first row, whose basis is the whole group's."""
    bases = [_structure(schedule, (row != 0).tobytes())[0].tobytes() for row in starts]
    return [(group, _compile(schedule, noise, starts[group[:1]]))
            for group in (np.flatnonzero([b == basis for b in bases])
                          for basis in dict.fromkeys(bases))]


@dataclass(frozen=True)
class _Block:
    """Final states and records of a block of trajectories: row i ends in the
    distinct state ``psi[owner[i]]`` on the compiled basis ``support``."""

    space: CompositeSpace
    support: np.ndarray                         # (r,) full-space index of each basis state
    psi: np.ndarray                             # (m, r) distinct final states
    owner: np.ndarray                           # (n,) state of each row
    events: tuple[tuple[np.ndarray, np.ndarray], ...]  # per pass with jumps: rows, times
    durations: np.ndarray                       # (n, n_segments)
    inputs: Optional[np.ndarray] = None         # (n,) basis input of each row

    @cached_property
    def states(self) -> np.ndarray:
        """(n, dim) final rows, embedded in the full space."""
        states = np.zeros((len(self.owner), self.space.total_dim), dtype=np.complex128)
        states[:, self.support] = self.psi[self.owner]
        return states

    @cached_property
    def jump_times(self) -> tuple[tuple[float, ...], ...]:
        times: list[list[float]] = [[] for _ in self.owner]
        for rows, at in self.events:
            for row, t in zip(rows.tolist(), at.tolist()):
                times[row].append(t)
        return tuple(map(tuple, times))

    def result(self, row: int) -> TrajectoryResult:
        return TrajectoryResult(StateVector(self.space, self.states[row]),
                                self.jump_times[row], tuple(self.durations[row]))


def _decay(ev: _DriftEvolver, psi: np.ndarray, owner: np.ndarray, t0: np.ndarray,
           duration: np.ndarray, resolution: float, annihilator: np.ndarray,
           thresholds: np.ndarray, next_thresholds: Callable[..., np.ndarray]
           ) -> tuple[np.ndarray, np.ndarray, list]:
    """The distinct states ``psi`` (m, r) through one lossy segment; row i is
    in state ``owner[i]``, and state j starts at ``t0[j]`` for ``duration[j]``.

    Between jumps a state's squared norm only falls, so each pass evaluates
    every running state once, at the end of its remaining time.  A row below
    its threshold there bisects [0, remaining], its open rows in compact
    arrays, to a bracket at most ``resolution`` wide, jumps at its midpoint
    into a state of its own (its old one if no other row shares it), takes
    its next threshold into ``thresholds`` and runs again from the jump.
    Returns the states, each row's state and, per pass with jumps, (rows,
    their jump times); every state returned has a row.
    """
    owner, t_done, events = owner.copy(), np.zeros(len(psi)), []
    # running states, the rows in them, and each row's place among the states;
    # the first pass runs every state in order, so it reads and replaces psi whole
    states, rows, at = np.arange(len(psi)), np.arange(len(owner)), owner
    psi = running = np.ascontiguousarray(psi)
    while states.size:
        start = ev.coefficients(running)
        remaining = duration[states] - t_done[states]
        norms = _sq_norms(running)
        slack = 1e-12 * norms
        ends = ev.evolve(start, remaining)
        end_norms = _sq_norms(ends)
        if not np.all(end_norms <= norms + slack):
            raise RuntimeError("squared norm must be non-increasing between jumps")
        if running is psi:
            psi = ends
        else:
            psi[states] = ends
        fell = np.flatnonzero(end_norms[at] < thresholds[rows])
        if fell.size == 0:
            break
        rows, at = rows[fell], at[fell]
        t_jump, open_ = 0.5 * remaining[at], np.flatnonzero(remaining[at] > resolution)
        # open rows: lo, hi, squared norms at lo and hi, slack, start, threshold
        bracket = [np.zeros(open_.size), *(x[at[open_]] for x in (
            remaining, norms, end_norms, slack, start)), thresholds[rows[open_]]]
        while open_.size:
            lo, hi, lo_norms, hi_norms, tol, coeffs, below = bracket
            mid = 0.5 * (lo + hi)
            new = _sq_norms(ev.evolve(coeffs, mid))
            if not np.all((new <= lo_norms + tol) & (new >= hi_norms - tol)):
                raise RuntimeError("squared norm at a bisection midpoint must lie "
                                   "between the norms at its bracket's ends")
            down = new < below
            bracket[:4] = (np.where(down, lo, mid), np.where(down, mid, hi),
                           np.where(down, lo_norms, new), np.where(down, new, hi_norms))
            wide = bracket[1] - bracket[0] > resolution
            if not wide.all():
                t_jump[open_[~wide]] = 0.5 * (bracket[0] + bracket[1])[~wide]
                open_, bracket = open_[wide], [x[wide] for x in bracket]

        jumped = _rows_matmul(ev.evolve(start[at], t_jump), annihilator.T)
        jumped_norms = np.sqrt(_sq_norms(jumped))
        if np.any(jumped_norms < 1e-15):
            raise RuntimeError("norm underflow: jump operator annihilated the state")
        old = states[at]
        events.append((rows, t0[old] + t_done[old] + t_jump))
        thresholds[rows] = next_thresholds(rows)
        new = old.copy()
        shared = np.bincount(owner, minlength=len(psi))[old] > 1
        if shared.any():
            new[shared] = len(psi) + np.arange(np.count_nonzero(shared))
            psi, t0, duration, t_done = (np.concatenate((x, x[old[shared]]))
                                         for x in (psi, t0, duration, t_done))
        psi[new] = jumped / jumped_norms[:, None]
        t_done[new] += t_jump
        owner[rows] = new
        keep = duration[new] - t_done[new] > 0.0
        states, rows, at = new[keep], rows[keep], np.arange(np.count_nonzero(keep))
        running = psi[states]
    live = np.bincount(owner, minlength=len(psi)) > 0
    if not live.all():
        psi, owner = psi[live], (np.cumsum(live) - 1)[owner]
    return psi, owner, events


def _evolve(compiled: _CompiledSchedule, psi: np.ndarray, owner: np.ndarray,
            noise: NoiseParams, factors: np.ndarray, thresholds: np.ndarray,
            next_thresholds: Optional[Callable[..., np.ndarray]]) -> _Block:
    """Evolve rows from the distinct start states ``psi`` (m, r) on the
    compiled basis ``compiled.support``, row i from ``psi[owner[i]]``, one
    trajectory each.  The rows of a state share its jitter factors, so each
    distinct state evolves once per segment, at the factor of any of its
    rows, until a row jumps into a state of its own (``_decay``).
    ``factors`` (n, n_segments) are the rows' jitter factors and
    ``thresholds`` (n,) their first jump thresholds; ``next_thresholds(rows)``
    gives the next thresholds of ``rows`` after they jump (None if no
    segment decays).  The block keeps the distinct final states on the
    compiled basis, not renormalized, and each row's.
    """
    segments = compiled.schedule.segments
    n = len(factors)
    durations = np.array([seg.nominal_duration for seg in segments]) * factors
    thresholds = np.array(thresholds, dtype=np.float64)
    events, elapsed = [], np.zeros(n)
    for k, (seg, ev) in enumerate(zip(segments, compiled.evolvers)):
        rep = np.zeros(len(psi), dtype=np.intp)     # a row of each state
        rep[owner] = np.arange(n)
        if seg.kind == "classical_pulse":
            psi = ev.apply(psi, factors[rep, k])
        elif not ev.lossy:
            psi = ev.evolve(ev.coefficients(psi), durations[rep, k])
        else:
            psi, owner, passes = _decay(ev, psi, owner, elapsed[rep], durations[rep, k],
                                        noise.tau / 100.0 / 100.0, compiled.annihilator,
                                        thresholds, next_thresholds)
            events += passes
        elapsed += durations[:, k]
    return _Block(compiled.schedule.space, compiled.support, psi, owner, tuple(events),
                  durations)


def _check_initial_state(schedule: Schedule, psi0: StateVector) -> None:
    if psi0.space != schedule.space:
        raise ValueError("initial state does not live on the schedule's space")
    if not psi0.normalized:
        raise ValueError("initial state must be normalized")


def _run_block(compiled: _CompiledSchedule, starts: np.ndarray, opened: np.ndarray,
               owner: np.ndarray, noise: NoiseParams, trajs: np.ndarray, inputs: np.ndarray,
               cells: np.ndarray, epsilons: np.ndarray) -> _Block:
    """Rows from the distinct start states ``starts[opened]`` (m, r) on the
    compiled basis as one block: row i starts from state ``owner[i]`` as
    trajectory ``trajs[i]`` of basis input ``inputs[i]`` in cell ``cells[i]``
    at timing imprecision ``epsilons[i]``; ``noise`` gives tau and the seed,
    not epsilon.  Only rows of one input at epsilon = 0 may share a start.
    ``_evolve`` alone holds the gathered states and drops them at its first segment.

    One Philox call draws the 4-word blocks of every row's jitter words and
    first threshold (drawn even if no segment decays) into a (rows, words)
    table, skipping for epsilon = 0 rows the blocks that hold only jitter
    words; a row whose thresholds outrun it gets the Philox block of its
    next one.  The rows of each nonzero epsilon take one ``jitter_factors``
    call.  The distinct final states come back renormalized, on the
    compiled basis.
    """
    n, n_seg, seed = len(trajs), len(compiled.schedule.segments), int(noise.seed)
    n_blocks = n_seg // 4 + 1                       # the last holds the first threshold
    rows, at = np.nonzero((epsilons[:, None] > 0.0) | (np.arange(n_blocks) == n_blocks - 1))
    words = np.zeros((n, n_blocks, 4), dtype=np.uint64)
    words[rows, at] = _philox(seed, trajs[rows], at, inputs[rows], cells[rows])
    words = words.reshape(n, -1)                    # row r's word j: words[r, j]
    factors = np.ones((n, n_seg))
    for epsilon in np.unique(epsilons[epsilons > 0.0]).tolist():
        mine = epsilons == epsilon
        factors[mine] = jitter_factors(compiled.schedule, epsilon, _uniforms(words[mine, :n_seg]))
    next_word = np.full(n, n_seg)

    def next_thresholds(rows: np.ndarray) -> np.ndarray:
        j = next_word[rows]
        next_word[rows] += 1
        drawn = words[rows, np.minimum(j, words.shape[1] - 1)]
        far = np.nonzero(j >= words.shape[1])[0]
        if far.size:
            blocks = _philox(seed, trajs[rows[far]], j[far] // 4, inputs[rows[far]],
                             cells[rows[far]])
            drawn[far] = blocks[np.arange(far.size), j[far] % 4]
        return _uniforms(drawn)

    block = _evolve(compiled, starts[opened], owner, noise, factors,
                    next_thresholds(np.arange(n)), next_thresholds)
    psi = np.ascontiguousarray(block.psi)           # a pulse's gather may leave it strided
    return replace(block, psi=psi * (1.0 / np.sqrt(_sq_norms(psi)))[:, None], inputs=inputs)


def _trajectory_blocks(compiled: _CompiledSchedule, starts: np.ndarray, noise: NoiseParams,
                       inputs: np.ndarray, cells: np.ndarray, epsilons: np.ndarray,
                       trajs: np.ndarray) -> Iterator[_Block]:
    """Trajectories ``trajs`` from each start row ``starts[i]`` (basis input
    ``inputs[i]``) in each grid cell ``cells[c]`` at its timing imprecision
    ``epsilons[c]``: one cell-, then input-, then trajectory-major row set on
    the basis ``compiled``, ``_BLOCK_ROWS`` rows at a time, the one way into
    ``_run_block``.  The starts are restricted to the basis once.  A row at
    epsilon > 0 opens a state of its own; the rows of one input in an
    epsilon = 0 cell share one start per block, as their factors never part."""
    shape = (len(cells), len(starts), len(trajs))
    rows, starts = np.arange(math.prod(shape)), starts[:, compiled.support]
    for first in range(0, len(rows), _BLOCK_ROWS):
        cell, which, k = np.unravel_index(rows[first:first + _BLOCK_ROWS], shape)
        # at row 0, at each trajectory 0 and at every row of an epsilon > 0 cell
        opens = np.concatenate(([True], k[1:] == 0)) | (epsilons[cell] > 0.0)
        yield _run_block(compiled, starts, which[opens], np.cumsum(opens) - 1, noise,
                         trajs[k], inputs[which], cells[cell], epsilons[cell])


def _start_blocks(schedule: Schedule, psi0: StateVector, noise: NoiseParams,
                  trajs: np.ndarray, basis_input: int, cell: int) -> Iterator[_Block]:
    """The blocks of trajectories ``trajs`` from the single start ``psi0`` as
    basis input ``basis_input`` in grid cell ``cell``, on its compiled basis."""
    _check_initial_state(schedule, psi0)
    _check_counter_words(basis_input=basis_input, cell=cell)
    start = psi0.amplitudes[None, :]
    return _trajectory_blocks(_compile(schedule, noise, start), start, noise,
                              np.array([basis_input]), np.array([cell]),
                              np.array([noise.epsilon]), trajs)


def mcwf_trajectory(schedule: Schedule, psi0: StateVector, noise: NoiseParams, *,
                    traj: int = 0, basis_input: int = 0, cell: int = 0) -> TrajectoryResult:
    """One Monte Carlo wavefunction realization of the schedule.

    The engine's one-row block: bit for bit trajectory ``traj`` of
    ``run_trajectories`` at the same ``basis_input`` and ``cell``.
    """
    _check_counter_words(traj=traj)
    return next(_start_blocks(schedule, psi0, noise, np.array([traj]), basis_input,
                              cell)).result(0)


def _ideal_states(schedule: Schedule, psi: np.ndarray) -> list[StateVector]:
    """Rows ``psi`` (n, dim) through the lossless, jitter-free schedule.

    The engine's kappa = 0 case, with unit factors and no jumps.  Its rows
    are not renormalized, so a lossless evolution that leaks norm fails
    the StateVector unit-norm check here.
    """
    noise = NoiseParams(tau=math.inf, epsilon=0.0)
    n, compiled = len(psi), _compile(schedule, noise, psi)
    block = _evolve(compiled, psi[:, compiled.support], np.arange(n), noise,
                    np.ones((n, len(schedule.segments))), np.full(n, math.inf), None)
    return [StateVector(schedule.space, row) for row in block.states]


def run_ideal(schedule: Schedule, psi0: StateVector) -> StateVector:
    """Noiseless execution: the engine's one-row, lossless, jitter-free call."""
    _check_initial_state(schedule, psi0)
    return _ideal_states(schedule, psi0.amplitudes[None, :])[0]


def run_trajectories(schedule: Schedule, psi0: StateVector, noise: NoiseParams,
                     *, basis_input: int = 0, cell: int = 0) -> list[TrajectoryResult]:
    """n_traj independent trajectories, each on its own counter-based stream."""
    blocks = _start_blocks(schedule, psi0, noise, np.arange(noise.n_traj), basis_input, cell)
    return [block.result(row) for block in blocks for row in range(len(block.owner))]


def _trajectory_density(schedule: Schedule, psi0: StateVector,
                        noise: NoiseParams) -> DensityMatrix:
    """(1/N) sum |psi_k><psi_k| over the final states of ``run_trajectories``,
    one stacked product per block on the compiled basis, embedded once,
    without per-trajectory objects."""
    total = 0
    for block in _start_blocks(schedule, psi0, noise, np.arange(noise.n_traj), 0, 0):
        rows = block.psi[block.owner]
        total = total + rows.T @ rows.conj()
    rho = np.zeros((schedule.space.total_dim,) * 2, dtype=np.complex128)
    rho[np.ix_(block.support, block.support)] = total / noise.n_traj
    return DensityMatrix(schedule.space, rho)


def _components(n: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Connected-component label of each of n nodes, with edges x[e] -- y[e]."""
    labels, old = np.arange(n), None
    while not np.array_equal(labels, old):
        old, labels = labels, labels.copy()
        np.minimum.at(labels, x, old[y])
        np.minimum.at(labels, y, old[x])
        labels = labels[labels]
    return np.unique(labels, return_inverse=True)[1]


@lru_cache(maxsize=_STRUCTURES)
def _liouvillian(schedule: Schedule, pairs_mask: bytes) -> tuple:
    """The kappa-free parts of the schedule's channel for inputs nonzero only
    on the pairs of ``pairs_mask`` (a (dim, dim) bool mask, as bytes), on the
    ``_structure`` of their support, with loss where the segment's is active,
    for every tau (tau = inf is kappa = 0 on the same blocks).  A timed segment's
    generator L = G_H + kappa G_loss, from K = H - (i/2) kappa N, vectorizes
    d rho/dt = -i(K rho - rho K^dag) + kappa a rho a^dag row-major; it couples
    the pair index i*dim + j only within products of K's connected components,
    joined where the jump lowers both indices, so only the nonzeros of H and a
    matter, not tau.  A pulse permutes the pairs that may be nonzero, and a
    timed segment keeps only the blocks that hold one (the others act on zeros),
    whose pairs all may be nonzero after it.  Returns the basis, per block size
    the byte-distinct (G_H T, G_loss T) pairs of the kept blocks of that size,
    each stacked once (blocks repeat within a segment and across equal
    segments), and per segment its steps: a pulse's pair permutation, or per
    block size the kept blocks' (pair indices (n_blocks, size), position of
    each in its stack).  Every array is read-only; no dim^2 x dim^2 operand is
    formed."""
    pairs = np.frombuffer(pairs_mask, dtype=bool).reshape(schedule.space.total_dim, -1)
    support, a, n_cav, ops = _structure(schedule, (pairs | pairs.T).any(axis=0).tobytes())
    dim, parts, steps = len(a), {}, []
    live = pairs[np.ix_(support, support)].ravel()  # the pairs that may be nonzero
    for seg, op in zip(schedule.segments, ops):
        if seg.kind == "classical_pulse":
            steps.append((np.add.outer(op[0] * dim, op[0]).ravel(), ()))
            live = live[steps[-1][0]]
            continue
        steps.append((None, []))
        h, t, decays = op[0], seg.nominal_duration, seg.loss_active
        states = _components(dim, *np.nonzero(h))
        down, up = (states[axis] for axis in np.nonzero(a * decays))
        sectors = _components(dim * dim, np.add.outer(down * dim, down).ravel(),
                              np.add.outer(up * dim, up).ravel())
        labels = sectors[np.add.outer(states * dim, states)].ravel()
        sizes = np.bincount(labels)[labels]
        order = np.lexsort((labels, sizes))
        for size in np.unique(sizes[live]).tolist():
            idx = order[sizes[order] == size].reshape(-1, size)
            idx = idx[live[idx].any(axis=1)]
            live[idx] = True
            (i, j), (k, l) = divmod(idx[:, :, None], dim), divmod(idx[:, None, :], dim)
            g_h = -1j * (h[i, k] * (j == l) - (i == k) * h[j, l].conj()) * t
            g_loss = decays * (a[i, k] * a[j, l].conj() - 0.5 * (
                n_cav[i, k] * (j == l) + (i == k) * n_cav[j, l].conj())) * t
            distinct = parts.setdefault(size, {})  # bytes -> (position, block): -0.0 != 0.0
            at = [distinct.setdefault(x.tobytes() + y.tobytes(), (len(distinct), (x, y)))[0]
                  for x, y in zip(g_h, g_loss)]
            steps[-1][1].append((idx, np.array(at)))
    stacks = {size: tuple(map(np.array, zip(*(block for _, block in distinct.values()))))
              for size, distinct in parts.items()}
    steps = tuple((pulse, tuple(blocks)) for pulse, blocks in steps)
    for x in (*(x for part in stacks.values() for x in part),
              *(x for pulse, blocks in steps for x in (pulse, *(y for b in blocks for y in b))
                if x is not None)):
        x.flags.writeable = False
    return support, stacks, steps


def _lindblad_stack(schedule: Schedule, rho0s: np.ndarray,
                    taus: tuple[float, ...]) -> np.ndarray:
    """Density matrices ``rho0s`` (m, dim, dim) through the exact Lindblad channel
    at each photon lifetime of ``taus``, finite or inf in any mix: (len(taus), m,
    dim, dim), on the compiled basis of their rows' and columns' support.  Only
    the blocks that the inputs' nonzero pairs reach run, with the bits they have
    when all run.  The memo's distinct blocks L T of one size, over all taus,
    take one ``_expm`` call, which treats each matrix on its own, so a block
    that recurs gives the bits it would alone; each block gathers its
    exponential by position, and they act in segment order.  An input's output
    bits depend on the other inputs of its stack, through their union basis and
    its blocks: the same stack always gives the same bits, but stacking
    unrelated inputs can move last bits (1.7e-16 seen).  Inputs have unit
    trace; a ValueError names the first tau whose outputs lose it (by more than
    TRACE_TOL; the error grows like kappa times a segment's duration)."""
    kappas = np.array([NoiseParams(tau=tau, epsilon=0.0).kappa for tau in taus])
    support, stacks, steps = _liouvillian(schedule, (rho0s != 0).any(axis=0).tobytes())
    exps = {size: _expm((g_h + np.multiply.outer(kappas, g_loss)).reshape(-1, size, size))
            .reshape(len(kappas), -1, size, size) for size, (g_h, g_loss) in stacks.items()}
    pairs, r = (slice(None), support[:, None], support), len(support)
    vecs = np.repeat(rho0s[pairs].reshape(1, len(rho0s), r * r), len(kappas), axis=0)
    for pulse, blocks in steps:
        if pulse is not None:
            vecs = vecs[..., pulse]
        for idx, at in blocks:
            vecs[..., idx] = (exps[idx.shape[1]][:, None, at] @ vecs[..., idx, None])[..., 0]
    rhos = np.zeros((len(kappas), *rho0s.shape), dtype=np.complex128)
    rhos[(slice(None), *pairs)] = vecs.reshape(len(kappas), -1, r, r)
    trace_errs = np.abs(np.trace(rhos, axis1=2, axis2=3) - 1.0)
    if not trace_errs.max() <= TRACE_TOL:  # NaN fails too
        k = int(np.argmin((trace_errs <= TRACE_TOL).all(axis=1)))
        raise ValueError(f"the Lindblad channel at tau = {taus[k]!r} is "
                         f"{float(trace_errs[k].max())!r} off unit trace")
    return rhos


def lindblad_evolve(schedule: Schedule, rho0: DensityMatrix, tau: float) -> DensityMatrix:
    """Exact master-equation channel of the schedule at nominal durations:
    d rho/dt = -i[H, rho] + kappa (a rho a^dag - {a^dag a, rho}/2), exact
    per timed segment; the sampling-free oracle for the quantum-jump method.
    """
    if rho0.space != schedule.space:
        raise ValueError("initial state does not live on the schedule's space")
    return DensityMatrix(rho0.space, _lindblad_stack(schedule, rho0.entries[None], (tau,))[0, 0])
