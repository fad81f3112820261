"""Physical model: Fock operators, couplings, pulses, dispersive regime."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavity_toffoli.model import (Level, PhysicalParams, annihilation,
                                  dispersive_hamiltonian,
                                  full_detuned_hamiltonian, jc_hamiltonian,
                                  number_operator)
from cavity_toffoli.protocol import segment_drift, toffoli_schedule
from cavity_toffoli.qmath import (CompositeSpace, OperatorMatrix, StateVector,
                                  embed_operator)

from conftest import dense_unitary
from test_protocol import _marginal, _rig_block

G, E, I = int(Level.g), int(Level.e), int(Level.i)


@pytest.fixture
def space(params):
    return params.protocol_space()


@pytest.fixture
def pair_space(params):
    return CompositeSpace((params.fock_dim, 3))


# ---------------------------------------------------------------- params

def test_lambda_recomputed_from_omega_and_delta(params):
    assert params.lam == params.omega ** 2 / (4 * params.delta)
    assert params.lam == pytest.approx(params.omega / 16)


def test_derived_durations(params):
    assert params.t_pi == pytest.approx(math.pi / params.omega)
    assert params.t_collision == pytest.approx(16 * math.pi / params.omega)


def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(omega=-1.0, delta=4.0)
    with pytest.raises(ValueError):
        PhysicalParams(omega=1.0, delta=0.0)
    for bad in (2, 3.5, 4.0, True, np.float64(4.0)):
        with pytest.raises(ValueError, match="fock_dim"):
            PhysicalParams(omega=1.0, delta=4.0, fock_dim=bad)
    assert PhysicalParams(omega=1.0, delta=4.0, fock_dim=np.int64(4)).fock_dim == 4
    # omega ** 2 underflows to a zero lam, or overflows
    for omega_hz in (1e-200, 1e300):
        with pytest.raises(ValueError, match="t_collision"):
            PhysicalParams.from_frequency(omega_hz=omega_hz)
    with pytest.raises(ValueError, match="t_collision"):
        PhysicalParams(omega=5e-324, delta=1.0)


def test_collision_guard_on_detuning():
    bad = PhysicalParams(omega=1.0, delta=1.5)
    with pytest.raises(ValueError):
        toffoli_schedule(bad)
    marginal = PhysicalParams(omega=1.0, delta=3.0)
    with pytest.warns(UserWarning) as record:
        toffoli_schedule(marginal)
    assert record[0].filename == __file__


def test_no_warning_at_operating_point(params, recwarn):
    toffoli_schedule(params)
    assert len(recwarn) == 0


# ---------------------------------------------------------------- fock ops

def test_annihilation_action():
    a = annihilation(4).entries
    basis = np.eye(4)
    np.testing.assert_allclose(a @ basis[1], basis[0])
    np.testing.assert_allclose(a @ basis[0], np.zeros(4))
    np.testing.assert_allclose(a @ basis[2], math.sqrt(2) * basis[1])


def test_number_operator_counts_photons():
    n = number_operator(5).entries
    for k in range(5):
        vec = np.zeros(5)
        vec[k] = 1.0
        np.testing.assert_allclose(n @ vec, k * vec, atol=1e-15)


def test_annihilation_rejects_small_dim():
    with pytest.raises(ValueError):
        annihilation(1)


# ---------------------------------------------------------------- JC coupling

def test_jc_matrix_element_convention(params, pair_space):
    """<g,1|H|e,0> = i omega/2 fixes the pi-Rabi sign convention."""
    h = jc_hamiltonian(params, 1, pair_space).entries
    g1 = pair_space.index_of([1, G])
    e0 = pair_space.index_of([0, E])
    assert h[g1, e0] == pytest.approx(0.5j * params.omega)


def test_jc_leaves_i_level_dark(params, pair_space):
    h = jc_hamiltonian(params, 1, pair_space).entries
    for n in range(pair_space.subsystem_dims[0]):
        ket = pair_space.basis_state([n, I]).amplitudes
        np.testing.assert_allclose(h @ ket, np.zeros_like(ket), atol=1e-16)


def test_jc_exactly_hermitian(params, space):
    h = jc_hamiltonian(params, 1, space).entries
    assert np.max(np.abs(h - h.conj().T)) == 0.0


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_jc_conserves_i_population(seed):
    params = PhysicalParams.from_frequency()
    space = CompositeSpace((3, 3))
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    psi = StateVector(space, amps / np.linalg.norm(amps))
    u = dense_unitary(jc_hamiltonian(params, 1, space), rng.uniform(0.1, 6.0) / params.omega)
    before = _marginal(psi, 1)[I]
    after = _marginal(u.apply(psi), 1)[I]
    assert abs(before - after) <= 1e-10


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_collision_conserves_i_population_of_both_atoms(seed):
    params = PhysicalParams.from_frequency()
    space = params.protocol_space()
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(27) + 1j * rng.standard_normal(27)
    psi = StateVector(space, amps / np.linalg.norm(amps))
    u = dense_unitary(dispersive_hamiltonian(params, 1, 2, space),
                   rng.uniform(0.05, 1.5) * params.t_collision)
    out = u.apply(psi)
    for atom in (1, 2):
        before = _marginal(psi, atom)[I]
        after = _marginal(out, atom)[I]
        assert abs(before - after) <= 1e-10


# ---------------------------------------------------------------- pi-Rabi

def rabi(params, space, angle):
    """Resonant Rabi rotation of atom 1 by ``angle`` (duration angle/omega)."""
    return dense_unitary(jc_hamiltonian(params, 1, space), angle / params.omega)


def test_pi_rabi_swap_signs(params, pair_space):
    u = rabi(params, pair_space, math.pi)
    ket_1g = pair_space.basis_state([1, G]).amplitudes
    ket_0e = pair_space.basis_state([0, E]).amplitudes
    np.testing.assert_allclose(u.entries @ ket_1g, -ket_0e, atol=1e-12)
    np.testing.assert_allclose(u.entries @ ket_0e, ket_1g, atol=1e-12)


def test_two_pi_rabi_sign_flip(params, pair_space):
    u = rabi(params, pair_space, 2 * math.pi)
    ket_1g = pair_space.basis_state([1, G]).amplitudes
    ket_0e = pair_space.basis_state([0, E]).amplitudes
    np.testing.assert_allclose(u.entries @ ket_1g, -ket_1g, atol=1e-10)
    np.testing.assert_allclose(u.entries @ ket_0e, -ket_0e, atol=1e-10)


def test_pi_squared_equals_two_pi(params, pair_space):
    u_pi = rabi(params, pair_space, math.pi).entries
    u_2pi = rabi(params, pair_space, 2 * math.pi).entries
    np.testing.assert_allclose(u_pi @ u_pi, u_2pi, atol=1e-10)


def test_adjoint_rabi_inverts(params):
    """The decoding segment's sign-flipped generator inverts the encoding
    pulse over the same duration."""
    schedule = toffoli_schedule(params)
    encode, decode = schedule.segments[0], schedule.segments[-1]
    assert decode.adjoint and decode.nominal_duration == encode.nominal_duration
    assert encode.nominal_duration == pytest.approx(math.pi / params.omega)
    u = dense_unitary(segment_drift(schedule, encode), encode.nominal_duration)
    u_adj = dense_unitary(segment_drift(schedule, decode), decode.nominal_duration)
    np.testing.assert_allclose(u_adj.entries @ u.entries,
                               np.eye(schedule.space.total_dim), atol=1e-10)


# ---------------------------------------------------------------- collision

def test_dispersive_diagonal_elements(params, space):
    h = dispersive_hamiltonian(params, 1, 2, space).entries
    lam = params.lam
    ie0 = space.index_of([0, I, E])
    assert h[ie0, ie0] == pytest.approx(lam)
    gg1 = space.index_of([1, G, G])
    assert h[gg1, gg1] == pytest.approx(-2 * lam)


def test_dispersive_exchange_elements(params, space):
    h = dispersive_hamiltonian(params, 1, 2, space).entries
    for n in range(space.subsystem_dims[0]):
        eg = space.index_of([n, E, G])
        ge = space.index_of([n, G, E])
        assert h[eg, ge] == pytest.approx(params.lam)


def test_dispersive_commutes_with_photon_number(params, space):
    h = dispersive_hamiltonian(params, 1, 2, space).entries
    n_cav = embed_operator(space, [0], number_operator(space.subsystem_dims[0])).entries
    assert np.max(np.abs(h @ n_cav - n_cav @ h)) <= 1e-16 * params.lam


def test_dispersive_commutes_with_total_excitation(params, space):
    h = dispersive_hamiltonian(params, 1, 2, space).entries
    proj_e = np.zeros((3, 3))
    proj_e[E, E] = 1.0
    atom_op = OperatorMatrix(CompositeSpace((3,)), proj_e, hermitian=True)
    n_tot = embed_operator(space, [0], number_operator(space.subsystem_dims[0])).entries
    n_tot = n_tot + embed_operator(space, [1], atom_op).entries
    n_tot = n_tot + embed_operator(space, [2], atom_op).entries
    assert np.max(np.abs(h @ n_tot - n_tot @ h)) <= 1e-12 * params.lam


def test_collision_flips_target_conditioned_on_i_control(params, space):
    u = dense_unitary(dispersive_hamiltonian(params, 1, 2, space),
                   params.t_collision).entries
    s = 1 / math.sqrt(2)
    for sign in (+1.0, -1.0):
        amps = (space.basis_state([0, I, G]).amplitudes
                + sign * space.basis_state([0, I, E]).amplitudes) * s
        expected = (space.basis_state([0, I, G]).amplitudes
                    - sign * space.basis_state([0, I, E]).amplitudes) * s
        np.testing.assert_allclose(u @ amps, expected, atol=1e-9)


def test_collision_exchange_block_returns_with_plus_one(params, space):
    """|0, e, g> sits in the 2x2 exchange block with eigenphases {0, 2 pi}."""
    lam = params.lam
    block = lam * np.array([[1.0, 1.0], [1.0, 1.0]])
    eigs = np.linalg.eigvalsh(block)
    np.testing.assert_allclose(sorted(eigs * params.t_collision),
                               [0.0, 2 * math.pi], atol=1e-9)
    u = dense_unitary(dispersive_hamiltonian(params, 1, 2, space),
                   params.t_collision).entries
    ket = space.basis_state([0, E, G]).amplitudes
    out = u @ ket
    assert np.vdot(ket, out).real == pytest.approx(1.0, abs=1e-9)


def test_collision_ignores_double_i(params, space):
    u = dense_unitary(dispersive_hamiltonian(params, 1, 2, space),
                   0.37 * params.t_collision).entries
    for n in range(space.subsystem_dims[0]):
        ket = space.basis_state([n, I, I]).amplitudes
        np.testing.assert_allclose(u @ ket, ket, atol=1e-12)


def test_collision_basis_states_phase_map(params, space):
    """Exhaustive phase map at t_col.

    Every basis state with the control atom in {g, e} returns to itself
    with +1.  States with the control in the uncoupled |i> level pick up
    the photon- and target-conditioned phases of the diagonal terms:
    exp(-i pi (n+1)) for target e, exp(+i pi n) for target g.  The
    gate only ever reaches the (n=0, i) pair, whose e-component flip is
    the conditional dynamics the protocol exploits.
    """
    u = dense_unitary(dispersive_hamiltonian(params, 1, 2, space),
                   params.t_collision).entries
    expected_phase = {
        (0, I, G): 1.0, (0, I, E): -1.0,   # the conditional flip pair
        (1, I, G): -1.0, (1, I, E): 1.0,   # unreachable by the protocol
    }
    for n in (0, 1):
        for c in (G, E, I):
            for t in (G, E):
                ket = space.basis_state([n, c, t]).amplitudes
                amp = np.vdot(ket, u @ ket)
                expected = expected_phase.get((n, c, t), 1.0)
                assert abs(amp - expected) <= 1e-9, (n, c, t, amp)
                # and no leakage out of the state
                assert abs(abs(amp) - 1.0) <= 1e-9, (n, c, t)


# ---------------------------------------------------------------- pulses

def pulse(space, atom, block):
    """A 3x3 classical-pulse block embedded on ``atom``; asserts unitarity."""
    op = OperatorMatrix(CompositeSpace((3,)), block, unitary=True)
    return embed_operator(space, [atom], op)


def test_rig_pulse_swaps_i_and_g(params, space):
    u = pulse(space, 1, _rig_block()).entries
    ig = space.basis_state([0, I, G]).amplitudes
    gg = space.basis_state([0, G, G]).amplitudes
    np.testing.assert_allclose(u @ ig, gg, atol=0)
    np.testing.assert_allclose(u @ gg, ig, atol=0)


def test_rig_pulse_involution_and_e_invariance(params, space):
    u = pulse(space, 1, _rig_block()).entries
    np.testing.assert_allclose(u @ u, np.eye(space.total_dim), atol=0)
    eg = space.basis_state([1, E, G]).amplitudes
    np.testing.assert_allclose(u @ eg, eg, atol=0)


def test_rig_pulse_angle_family_hits_swap_at_pi(params, space):
    u_exact = pulse(space, 1, _rig_block()).entries
    u_near = pulse(space, 1, _rig_block(math.pi * (1 + 1e-12))).entries
    assert np.max(np.abs(u_exact - u_near)) < 1e-10
    u_j = pulse(space, 1, _rig_block(math.pi * 1.05))
    assert u_j.unitary  # construction asserts unitarity


# ---------------------------------------------------------------- full model

def test_full_detuned_reduces_to_jc_sum_at_zero_detuning(space):
    base = PhysicalParams.from_frequency()
    tiny = PhysicalParams(omega=base.omega, delta=base.omega * 1e-12, fock_dim=3)
    h_full = full_detuned_hamiltonian(tiny, 1, 2, space).entries
    h_jc = (jc_hamiltonian(tiny, 1, space).entries
            + jc_hamiltonian(tiny, 2, space).entries)
    assert np.max(np.abs(h_full - h_jc)) <= 1e-9 * base.omega


def test_full_detuned_second_order_shift(params, space):
    """Dressed energy of |0, e, i> sits ~ lambda from the bare energy."""
    h = full_detuned_hamiltonian(params, 1, 2, space).entries
    w, v = np.linalg.eigh(h)
    ket = space.basis_state([0, E, I]).amplitudes
    overlaps = np.abs(v.conj().T @ ket) ** 2
    dressed = w[int(np.argmax(overlaps))]
    assert abs(abs(dressed) - params.lam) <= 0.1 * params.lam


def test_full_detuned_hermitian(params, space):
    h = full_detuned_hamiltonian(params, 1, 2, space).entries
    assert np.max(np.abs(h - h.conj().T)) == 0.0
