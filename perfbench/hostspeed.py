"""How fast the host runs right now, from two fixed reference kernels.

The benchmark's host is a share of a machine whose speed drifts by tens of
percent for minutes at a time.  Timing one of these kernels next to each
operation and dividing the operation's time by the host's slowdown takes
that drift out, while a change to the simulator still moves the result
one for one: the kernels are written here, use none of its code and do
the same kind of work as its two engines.

- ``trajectory_s``: the calls one Monte Carlo wavefunction trajectory
  makes on a 27-level state: an RNG stream reset, a 3x3 block on a tensor
  axis, exact evolution at a few times in an eigenbasis, a norm check.
  Python call overhead dominates, as in ``mcwf_trajectory``.
- ``density_matrix_s``: classical RK4 steps of a 27x27 master equation,
  dense complex matrix products, as in ``lindblad_evolve``.

``slowdown(weights, traj_s, dm_s)`` mixes the two by the share of time a
workload spends in each engine and is 1 on a host running the kernels in
their nominal times.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: median kernel times on the 2-core Xeon KVM host the benchmark was
#: defined on (Python 3.11, numpy 2.4); they set the scale of a
#: normalized time, not its relative changes
TRAJECTORY_NOMINAL_S = 0.125
DENSITY_MATRIX_NOMINAL_S = 0.13

TRAJECTORY_STEPS = 3000
DENSITY_MATRIX_STEPS = 450

_DIM = 27
_rng = np.random.default_rng(20260318)
_H = _rng.standard_normal((_DIM, _DIM)) + 1j * _rng.standard_normal((_DIM, _DIM))
_H = _H + _H.conj().T
_W, _V = np.linalg.eigh(_H)
_W = 0.01 * _W.astype(np.complex128)
_VINV = _V.conj().T
_VT = _V.T.copy()
_U3 = np.linalg.qr(_rng.standard_normal((3, 3)) + 1j * _rng.standard_normal((3, 3)))[0]
_PSI = _V[:, 0].copy()
_TIMES = np.arange(1.0, 7.0)
_A = 0.1 * (_rng.standard_normal((_DIM, _DIM)) + 1j * _rng.standard_normal((_DIM, _DIM)))


def trajectory_s() -> float:
    """Seconds for ``TRAJECTORY_STEPS`` trajectory-like steps."""
    philox = np.random.Philox(key=np.uint64(7))
    state = philox.state
    psi = _PSI
    t0 = time.perf_counter()
    for k in range(TRAJECTORY_STEPS):
        state["state"]["counter"] = np.array([0, k, 0, 0], dtype=np.uint64)
        state["buffer_pos"] = 4
        philox.state = state
        rng = np.random.Generator(philox)
        times = (1.0 + 0.03 * rng.standard_normal()) * _TIMES
        psi = (_U3 @ psi.reshape(3, 3, 3)).reshape(-1)
        states = (np.exp(np.outer(times, -1j * _W)) * (_VINV @ psi)) @ _VT
        norms = (states.real ** 2 + states.imag ** 2).sum(axis=1)
        psi = states[-1] / math.sqrt(norms[-1])
        if float(np.vdot(psi, psi).real) < rng.uniform():
            psi = psi / np.linalg.norm(psi)
    return time.perf_counter() - t0


def density_matrix_s() -> float:
    """Seconds for ``DENSITY_MATRIX_STEPS`` RK4 steps of a 27x27 master equation."""
    h = 0.005 * _H
    a, ad = _A, _A.conj().T
    n = ad @ a
    rho = np.outer(_PSI, _PSI.conj())
    dt = 0.01

    def rhs(r):
        return -1j * (h @ r - r @ h) + 0.1 * (a @ r @ ad - 0.5 * (n @ r + r @ n))

    t0 = time.perf_counter()
    for _ in range(DENSITY_MATRIX_STEPS):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt * k1)
        k3 = rhs(rho + 0.5 * dt * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
    return time.perf_counter() - t0


def sample() -> tuple[float, float]:
    """(trajectory_s, density_matrix_s), one run of each kernel."""
    return trajectory_s(), density_matrix_s()


def slowdown(weights: tuple[float, float], traj_s: float, dm_s: float) -> float:
    """The host's slowdown for a workload spending ``weights`` of its time
    in the trajectory and density-matrix engines; 1 at nominal speed."""
    w_traj, w_dm = weights
    return (w_traj * traj_s / TRAJECTORY_NOMINAL_S
            + w_dm * dm_s / DENSITY_MATRIX_NOMINAL_S) / (w_traj + w_dm)
