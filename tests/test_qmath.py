"""Linear-algebra layer: tensor structure, propagation, density matrices."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from cavity_toffoli.qmath import (CompositeSpace, DensityMatrix, OperatorMatrix,
                                  StateVector, embed_operator, propagator,
                                  trace_distance)

SEEDS = st.integers(0, 2 ** 32 - 1)


def random_state(space, rng):
    amps = rng.standard_normal(space.total_dim) + 1j * rng.standard_normal(space.total_dim)
    return StateVector(space, amps / np.linalg.norm(amps))


def random_hermitian(dim, rng, scale=1.0):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = 0.5 * (m + m.conj().T) * scale
    return OperatorMatrix(CompositeSpace((dim,)), h, hermitian=True)


# ---------------------------------------------------------------- spaces

def test_space_dims_and_indexing():
    space = CompositeSpace((3, 3, 2))
    assert space.total_dim == 18
    assert space.index_of([0, 0, 0]) == 0
    assert space.index_of([0, 0, 1]) == 1      # rightmost fastest
    assert space.index_of([1, 0, 0]) == 6      # leftmost slowest
    assert space.basis_state([1, 2, 0]).amplitudes[space.index_of([1, 2, 0])] == 1.0


def test_space_rejects_trivial_subsystems():
    with pytest.raises(ValueError):
        CompositeSpace((2, 1))
    with pytest.raises(ValueError):
        CompositeSpace(())


def test_state_normalization_flag_enforced():
    space = CompositeSpace((2,))
    with pytest.raises(ValueError):
        StateVector(space, [1.0, 1.0])
    StateVector(space, [1.0, 1.0], normalized=False)  # fine unflagged


def test_state_rejects_non_finite():
    with pytest.raises(ValueError):
        StateVector(CompositeSpace((2,)), [np.nan, 0.0], normalized=False)
    with pytest.raises(ValueError):
        OperatorMatrix(CompositeSpace((2,)), [[np.inf, 0], [0, 0]])


def test_operator_tags_are_assertions():
    space = CompositeSpace((2,))
    with pytest.raises(ValueError):
        OperatorMatrix(space, [[0, 1], [0, 0]], hermitian=True)
    with pytest.raises(ValueError):
        OperatorMatrix(space, [[1, 0], [0, 2]], unitary=True)
    OperatorMatrix(space, [[0, 1], [1, 0]], hermitian=True, unitary=True)


# ---------------------------------------------------------------- embedding

def test_embed_identity_is_identity():
    space = CompositeSpace((3, 3, 3))
    eye = OperatorMatrix(CompositeSpace((3,)), np.eye(3), hermitian=True, unitary=True)
    out = embed_operator(space, [1], eye)
    np.testing.assert_allclose(out.entries, np.eye(27))


def test_embed_annihilation_on_cavity():
    from cavity_toffoli.model import annihilation
    space = CompositeSpace((3, 3, 3))
    a = embed_operator(space, [0], annihilation(3))
    one_gg = space.basis_state([1, 0, 0])
    out = a.entries @ one_gg.amplitudes
    np.testing.assert_allclose(out, space.basis_state([0, 0, 0]).amplitudes)


def test_embed_x_on_second_qubit():
    space = CompositeSpace((2, 2))
    x = OperatorMatrix(CompositeSpace((2,)), [[0, 1], [1, 0]], hermitian=True,
                       unitary=True)
    out = embed_operator(space, [1], x)
    np.testing.assert_allclose(out.entries @ space.basis_state([0, 0]).amplitudes,
                               space.basis_state([0, 1]).amplitudes)


def test_embed_on_middle_subsystem():
    space = CompositeSpace((2, 2, 2))
    x = OperatorMatrix(CompositeSpace((2,)), [[0, 1], [1, 0]], unitary=True)
    out = embed_operator(space, [1], x)
    np.testing.assert_allclose(out.entries @ space.basis_state([0, 0, 0]).amplitudes,
                               space.basis_state([0, 1, 0]).amplitudes)
    np.testing.assert_allclose(out.entries @ space.basis_state([1, 0, 1]).amplitudes,
                               space.basis_state([1, 1, 1]).amplitudes)


def test_embed_dimension_mismatch_raises():
    space = CompositeSpace((3, 3))
    x = OperatorMatrix(CompositeSpace((2,)), [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        embed_operator(space, [0], x)
    with pytest.raises(ValueError):
        embed_operator(space, [0, 0], x)
    with pytest.raises(ValueError):
        embed_operator(space, [5], x)


def test_embed_reversed_targets_transposes_factors():
    rng = np.random.default_rng(0)
    space = CompositeSpace((2, 3))
    a = random_hermitian(2, rng)
    b = random_hermitian(3, rng)
    # embedding (b (x) a) on targets [1, 0] must equal a (x) b on [0, 1]
    ba = OperatorMatrix(CompositeSpace((3, 2)), np.kron(b.entries, a.entries),
                        hermitian=True)
    out = embed_operator(space, [1, 0], ba)
    np.testing.assert_allclose(out.entries, np.kron(a.entries, b.entries), atol=1e-14)


# ---------------------------------------------------------------- propagator

def test_propagator_of_zero_is_identity():
    h = OperatorMatrix(CompositeSpace((4,)), np.zeros((4, 4)), hermitian=True)
    np.testing.assert_allclose(propagator(h, 3.7).entries, np.eye(4), atol=1e-15)


def test_propagator_sigma_y_quarter_turn():
    # H = (w/2) sigma_y for t = pi/w rotates by pi/2: [[0, -1], [1, 0]]
    omega = 2 * math.pi * 50e3
    sy = np.array([[0, -1j], [1j, 0]])
    h = OperatorMatrix(CompositeSpace((2,)), 0.5 * omega * sy, hermitian=True)
    u = propagator(h, math.pi / omega)
    np.testing.assert_allclose(u.entries, [[0, -1], [1, 0]], atol=1e-12)


def test_propagator_requires_hermitian_tag():
    h = OperatorMatrix(CompositeSpace((2,)), [[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        propagator(h, 1.0)


@given(SEEDS)
@settings(max_examples=25, deadline=None)
def test_propagator_unitarity(seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(5, rng, scale=1e5)
    u = propagator(h, 1e-5).entries
    assert np.max(np.abs(u @ u.conj().T - np.eye(5))) <= 1e-10


@given(SEEDS)
@settings(max_examples=25, deadline=None)
def test_propagator_matches_pade_exponential(seed):
    """Cross-check the eigendecomposition route against scipy's expm."""
    rng = np.random.default_rng(seed)
    h = random_hermitian(6, rng, scale=1e5)
    t = rng.uniform(0, 2e-5)
    np.testing.assert_allclose(propagator(h, t).entries,
                               scipy.linalg.expm(-1j * h.entries * t), atol=1e-9)


@given(SEEDS)
@settings(max_examples=25, deadline=None)
def test_propagator_composition(seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(4, rng, scale=1e5)
    t1, t2 = rng.uniform(0, 1e-5, size=2)
    lhs = propagator(h, t1).entries @ propagator(h, t2).entries
    np.testing.assert_allclose(lhs, propagator(h, t1 + t2).entries, atol=1e-10)


@given(SEEDS)
@settings(max_examples=25, deadline=None)
def test_propagator_adjoint_inverts(seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(4, rng, scale=1e5)
    u = propagator(h, 7e-6)
    np.testing.assert_allclose(u.entries @ u.entries.conj().T, np.eye(4), atol=1e-10)


@given(SEEDS)
@settings(max_examples=25, deadline=None)
def test_propagator_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    space = CompositeSpace((6,))
    h = random_hermitian(6, rng, scale=1e5)
    psi = random_state(space, rng)
    out = propagator(h, 1.3e-5).apply(psi)
    assert abs(out.norm() - psi.norm()) <= 1e-10


# ---------------------------------------------------------------- trace distance

def test_trace_distance_extremes():
    space = CompositeSpace((2,))
    r0 = DensityMatrix.from_state(space.basis_state([0]))
    r1 = DensityMatrix.from_state(space.basis_state([1]))
    assert trace_distance(r0, r0) <= 1e-12
    assert abs(trace_distance(r0, r1) - 1.0) <= 1e-12


def test_density_matrix_validation():
    space = CompositeSpace((2,))
    with pytest.raises(ValueError):
        DensityMatrix(space, [[0.5, 0], [0, 0.4]])        # trace != 1
    with pytest.raises(ValueError):
        DensityMatrix(space, [[1.5, 0], [0, -0.5]])       # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix(space, [[0.5, 0.5], [0, 0.5]])      # not hermitian
