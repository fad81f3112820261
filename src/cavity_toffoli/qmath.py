"""Dense complex linear algebra for small composite quantum systems.

States, operators, tensor embedding and the trace distance.  Everything
is a plain numpy array wrapped in a frozen dataclass that validates its
own invariants at construction time.

Conventions (fixed once, asserted in tests):
  * hbar = 1: Hamiltonians are in rad/s, durations in seconds,
    U = exp(-i H t).
  * Composite indices are row-major: the leftmost subsystem (the cavity,
    by convention) varies slowest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

NORM_TOL = 1e-12
HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10

@dataclass(frozen=True)
class CompositeSpace:
    """Ordered tensor factors of a finite-dimensional Hilbert space."""

    subsystem_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.subsystem_dims)
        if len(dims) == 0:
            raise ValueError("a composite space needs at least one subsystem")
        if any(d < 2 for d in dims):
            raise ValueError(f"every subsystem dim must be >= 2, got {dims}")
        object.__setattr__(self, "subsystem_dims", dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.subsystem_dims)

    @property
    def n_subsystems(self) -> int:
        return len(self.subsystem_dims)

    def index_of(self, levels: Sequence[int]) -> int:
        """Composite index of a product basis state |levels[0], levels[1], ...>."""
        return int(np.ravel_multi_index(tuple(levels), self.subsystem_dims))

    def basis_state(self, levels: Sequence[int]) -> "StateVector":
        amps = np.zeros(self.total_dim, dtype=np.complex128)
        amps[self.index_of(levels)] = 1.0
        return StateVector(self, amps)


def _as_complex_array(values, shape, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.shape != shape:
        raise ValueError(f"{what}: expected shape {shape}, got {arr.shape}")
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise ValueError(f"{what}: entries must be finite (no NaN/Inf)")
    return arr


@dataclass(frozen=True)
class StateVector:
    """Complex amplitude vector over a composite space.

    Treated as immutable; the ``normalized`` flag asserts unit norm within
    NORM_TOL at construction.
    """

    space: CompositeSpace
    amplitudes: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        amps = _as_complex_array(self.amplitudes, (self.space.total_dim,), "StateVector")
        if self.normalized:
            norm_sq = float(np.vdot(amps, amps).real)
            if abs(norm_sq - 1.0) > NORM_TOL:
                raise ValueError(f"normalized flag set but sum |amp|^2 = {norm_sq!r}")
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def unit(self) -> "StateVector":
        """Normalized copy (errors on the zero vector)."""
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.space, self.amplitudes / n)

    def overlap(self, other: "StateVector") -> complex:
        """<self|other>."""
        if self.space != other.space:
            raise ValueError("overlap: states live on different spaces")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense square operator with optional hermitian/unitary assertions.

    The tags are validated at construction: tagging a matrix that is not
    hermitian (resp. unitary) within tolerance raises.
    """

    space: CompositeSpace
    entries: np.ndarray
    hermitian: bool = False
    unitary: bool = False

    def __post_init__(self):
        d = self.space.total_dim
        entries = _as_complex_array(self.entries, (d, d), "OperatorMatrix")
        if self.hermitian:
            err = np.max(np.abs(entries - entries.conj().T))
            if err > HERMITIAN_TOL:
                raise ValueError(f"hermitian tag violated: max|M - M^dag| = {err:.3e}")
        if self.unitary:
            err = np.max(np.abs(entries @ entries.conj().T - np.eye(d)))
            if err > UNITARY_TOL:
                raise ValueError(f"unitary tag violated: max|M M^dag - I| = {err:.3e}")
        object.__setattr__(self, "entries", entries)

    def apply(self, state: StateVector) -> StateVector:
        if self.space != state.space:
            raise ValueError("apply: operator and state spaces differ")
        return StateVector(self.space, self.entries @ state.amplitudes,
                           normalized=self.unitary and state.normalized)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator."""

    space: CompositeSpace
    entries: np.ndarray

    def __post_init__(self):
        d = self.space.total_dim
        entries = _as_complex_array(self.entries, (d, d), "DensityMatrix")
        herm_err = np.max(np.abs(entries - entries.conj().T))
        if herm_err > HERMITIAN_TOL:
            raise ValueError(f"density matrix not hermitian: {herm_err:.3e}")
        tr = complex(np.trace(entries))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace = {tr!r}, expected 1")
        min_eig = float(np.linalg.eigvalsh(entries).min())
        if min_eig < -POSITIVITY_TOL:
            raise ValueError(f"density matrix has eigenvalue {min_eig:.3e} < 0")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_state(cls, state: StateVector) -> "DensityMatrix":
        amps = state.unit().amplitudes
        return cls(state.space, np.outer(amps, amps.conj()))


def embed_operator(space: CompositeSpace, targets: Sequence[int],
                   op: OperatorMatrix) -> OperatorMatrix:
    """Lift ``op`` (acting on the targeted subsystems, in ``targets`` order)
    to the full space, identity elsewhere.
    """
    dims = space.subsystem_dims
    k = len(dims)
    targets = [int(t) for t in targets]
    if len(set(targets)) != len(targets):
        raise ValueError(f"targets must be distinct, got {targets}")
    if any(t < 0 or t >= k for t in targets):
        raise ValueError(f"target out of range for {k} subsystems: {targets}")
    target_dims = tuple(dims[t] for t in targets)
    if op.space.total_dim != math.prod(target_dims):
        raise ValueError(
            f"operator dim {op.space.total_dim} does not match targeted dims {target_dims}")

    rest = [s for s in range(k) if s not in targets]
    perm = targets + rest
    rest_dim = math.prod(dims[s] for s in rest)
    big = np.kron(op.entries, np.eye(rest_dim, dtype=np.complex128))
    perm_dims = tuple(dims[s] for s in perm)
    tensor = big.reshape(perm_dims + perm_dims)
    # axes[i] = where subsystem i sits in the permuted ordering
    axes = [perm.index(s) for s in range(k)]
    tensor = tensor.transpose(axes + [k + a for a in axes])
    full = tensor.reshape(space.total_dim, space.total_dim)
    return OperatorMatrix(space, full, hermitian=op.hermitian, unitary=op.unitary)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2) tr |a - b|."""
    if a.space != b.space:
        raise ValueError("trace_distance: spaces differ")
    eigs = np.linalg.eigvalsh(a.entries - b.entries)
    return float(0.5 * np.sum(np.abs(eigs)))
