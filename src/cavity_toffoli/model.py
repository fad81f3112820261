"""Physical model: Fock operators, three-level atoms and their couplings.

A single quantized cavity mode (subsystem 0) couples to circular-state
atoms with three relevant levels |g>, |e>, |i>.  The |i> level never
couples to the quantized field; it is addressed only by classical pulses.

All couplings are angular frequencies (rad/s); the resonant coupling
convention H = (i Omega/2)(a^dag |g><e| - a |e><g|) is the unique
standard form that makes the pi-Rabi map real:
    |1, g> -> -|0, e>,   |0, e> -> +|1, g>,
with a sign flip (-1 on the swapped subspace) after a full 2*pi cycle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .qmath import CompositeSpace, OperatorMatrix, embed_operator

ATOM_DIM = 3


class Level(IntEnum):
    """Atomic levels, fixed ordering within each 3-dim atom subsystem."""

    g = 0
    e = 1
    i = 2


@dataclass(frozen=True)
class PhysicalParams:
    """Operating point of the cavity-atom system.

    omega    vacuum Rabi coupling (rad/s)
    delta    cavity detuning used for the collision (rad/s)
    fock_dim cavity truncation, exact at 3: H and R_ig conserve N = n +
             [control in e] + [target in e], a lowers it, and inputs have N <= 2
    """

    omega: float
    delta: float
    fock_dim: int = 3

    def __post_init__(self):
        if not (self.omega > 0 and math.isfinite(self.omega)):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if self.fock_dim < 3:
            raise ValueError(f"fock_dim must be >= 3, got {self.fock_dim}")

    @classmethod
    def from_frequency(cls, omega_hz: float = 50e3, delta_over_omega: float = 4.0,
                       fock_dim: int = 3) -> "PhysicalParams":
        """Build from the coupling in Hz (omega/2pi) and the detuning ratio."""
        omega = 2.0 * math.pi * omega_hz
        return cls(omega=omega, delta=delta_over_omega * omega, fock_dim=fock_dim)

    @property
    def lam(self) -> float:
        """Dispersive collision rate, omega^2 / (4 delta).  Always recomputed."""
        return self.omega ** 2 / (4.0 * self.delta)

    @property
    def t_pi(self) -> float:
        """Duration of a resonant pi-Rabi rotation, pi/omega."""
        return math.pi / self.omega

    @property
    def t_collision(self) -> float:
        """Collision duration pi/lambda that realizes the conditional flip."""
        return math.pi / self.lam

    def protocol_space(self) -> CompositeSpace:
        """Cavity x control atom x target atom."""
        return CompositeSpace((self.fock_dim, ATOM_DIM, ATOM_DIM))


def require_dispersive_regime(params: PhysicalParams) -> None:
    """Guard for collision segments: delta >= 2 omega, warn below 4 omega."""
    if params.delta < 2.0 * params.omega:
        raise ValueError(
            f"collision requires delta >= 2*omega, got delta/omega = "
            f"{params.delta / params.omega:.3g}")
    if params.delta < 4.0 * params.omega:
        warnings.warn(
            f"delta/omega = {params.delta / params.omega:.3g} < 4: dispersive "
            "approximation is marginal", UserWarning, stacklevel=2)


def annihilation(fock_dim: int) -> OperatorMatrix:
    """Truncated annihilation operator: a|n> = sqrt(n)|n-1>, a|0> = 0."""
    if fock_dim < 2:
        raise ValueError(f"fock_dim must be >= 2, got {fock_dim}")
    a = np.diag(np.sqrt(np.arange(1, fock_dim, dtype=np.float64)), k=1)
    return OperatorMatrix(CompositeSpace((fock_dim,)), a.astype(np.complex128))


def number_operator(fock_dim: int) -> OperatorMatrix:
    a = annihilation(fock_dim).entries
    return OperatorMatrix(CompositeSpace((fock_dim,)), a.conj().T @ a, hermitian=True)


def _atom_matrix_unit(row: Level, col: Level) -> np.ndarray:
    m = np.zeros((ATOM_DIM, ATOM_DIM), dtype=np.complex128)
    m[int(row), int(col)] = 1.0
    return m


def _check_atom_subsystem(space: CompositeSpace, atom: int) -> None:
    if atom <= 0 or atom >= space.n_subsystems:
        raise ValueError(f"atom index {atom} out of range (cavity is subsystem 0)")
    if space.subsystem_dims[atom] != ATOM_DIM:
        raise ValueError(
            f"subsystem {atom} has dim {space.subsystem_dims[atom]}, expected {ATOM_DIM}")


def jc_hamiltonian(params: PhysicalParams, atom: int,
                   space: CompositeSpace) -> OperatorMatrix:
    """Resonant Jaynes-Cummings coupling of one atom to the cavity.

    H = (i omega/2)(a^dag |g><e| - a |e><g|), zero on |i>.
    """
    _check_atom_subsystem(space, atom)
    cav_dim = space.subsystem_dims[0]
    adag = annihilation(cav_dim).entries.conj().T
    raising_term = np.kron(adag, _atom_matrix_unit(Level.g, Level.e))
    h_pair = 0.5j * params.omega * (raising_term - raising_term.conj().T)
    pair = OperatorMatrix(CompositeSpace((cav_dim, ATOM_DIM)), h_pair, hermitian=True)
    return embed_operator(space, [0, atom], pair)


def dispersive_hamiltonian(params: PhysicalParams, atom1: int, atom2: int,
                           space: CompositeSpace) -> OperatorMatrix:
    """Effective two-atom collision Hamiltonian in the dispersive regime.

    H = lam * (|e1><e1| a a^dag - |g1><g1| a^dag a
             + |e2><e2| a a^dag - |g2><g2| a^dag a
             + |e1><g1| x |g2><e2|  +  |g1><e1| x |e2><g2|)

    No photon is exchanged with the field ([H, a^dag a] = 0); the atoms
    swap excitation virtually and pick up photon-number-conditioned phases.
    """
    _check_atom_subsystem(space, atom1)
    _check_atom_subsystem(space, atom2)
    if atom1 == atom2:
        raise ValueError("collision needs two distinct atoms")
    cav_dim = space.subsystem_dims[0]
    a = annihilation(cav_dim).entries
    num = a.conj().T @ a
    numbar = a @ a.conj().T
    proj_e = _atom_matrix_unit(Level.e, Level.e)
    proj_g = _atom_matrix_unit(Level.g, Level.g)
    pair_space = CompositeSpace((cav_dim, ATOM_DIM))

    shift = np.kron(numbar, proj_e) - np.kron(num, proj_g)
    total = np.zeros((space.total_dim,) * 2, dtype=np.complex128)
    for atom in (atom1, atom2):
        total += embed_operator(space, [0, atom],
                                OperatorMatrix(pair_space, shift, hermitian=True)).entries

    exchange = (np.kron(_atom_matrix_unit(Level.e, Level.g), _atom_matrix_unit(Level.g, Level.e))
                + np.kron(_atom_matrix_unit(Level.g, Level.e), _atom_matrix_unit(Level.e, Level.g)))
    atoms_space = CompositeSpace((ATOM_DIM, ATOM_DIM))
    total += embed_operator(space, [atom1, atom2],
                            OperatorMatrix(atoms_space, exchange, hermitian=True)).entries

    return OperatorMatrix(space, params.lam * total, hermitian=True)


# level order (g, e, i) is fixed by the Level enum; the literals below rely on it
_RIG_SWAP = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=np.complex128)


def rig_block(angle: float | np.ndarray = math.pi) -> np.ndarray:
    """3x3 unitary of the classical |i> <-> |g> pulse.

    At the nominal angle pi this is the exact real swap |i> <-> |g>
    (identity on |e>); other angles give the continuous pulse family
    exp(-i (angle/2)(X_gi - I_gi)) used to model angle imprecision.
    An array of angles gives one block per entry, stacked on its shape.
    """
    angle = np.asarray(angle, dtype=np.float64)
    half = 0.5 * angle
    phase = np.cos(half) + 1j * np.sin(half)
    c = phase * np.cos(half)
    s = -1j * phase * np.sin(half)
    block = np.zeros(angle.shape + (3, 3), dtype=np.complex128)
    block[..., 0, 0] = block[..., 2, 2] = c
    block[..., 0, 2] = block[..., 2, 0] = s
    block[..., 1, 1] = 1.0
    block[angle == math.pi] = _RIG_SWAP
    return block


def full_detuned_hamiltonian(params: PhysicalParams, atom1: int, atom2: int,
                             space: CompositeSpace) -> OperatorMatrix:
    """Two atoms resonantly coupled to a cavity detuned by delta (atom frame).

    H = delta a^dag a + sum_j (i omega/2)(a^dag |g_j><e_j| - a |e_j><g_j|).
    Used to validate the dispersive approximation numerically.
    """
    _check_atom_subsystem(space, atom1)
    _check_atom_subsystem(space, atom2)
    if atom1 == atom2:
        raise ValueError("need two distinct atoms")
    cav_dim = space.subsystem_dims[0]
    h = params.delta * embed_operator(space, [0], number_operator(cav_dim)).entries
    h = h + jc_hamiltonian(params, atom1, space).entries
    h = h + jc_hamiltonian(params, atom2, space).entries
    return OperatorMatrix(space, h, hermitian=True)
