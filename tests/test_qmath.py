"""Linear-algebra layer: tensor structure, density matrices."""

import numpy as np
import pytest

from cavity_toffoli.qmath import (CompositeSpace, DensityMatrix, OperatorMatrix,
                                  StateVector, embed_operator, trace_distance)

def random_hermitian(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = 0.5 * (m + m.conj().T)
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
