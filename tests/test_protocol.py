"""Protocol layer: encoding, schedule, ideal execution, truth table."""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavity_toffoli.analysis import (_IMAGES, _collision_inputs, dispersive_validation,
                                     logical_process_matrix)
from cavity_toffoli.model import (ATOM_DIM, Level, PhysicalParams, _rig_amplitudes,
                                  dispersive_hamiltonian,
                                  full_detuned_hamiltonian, jc_hamiltonian)
from cavity_toffoli.protocol import (LOGICAL_BITS, Segment, encode_logical,
                                     process_phase_spread, segment_drift,
                                     toffoli_map, toffoli_schedule)
from cavity_toffoli.qmath import (CompositeSpace, OperatorMatrix, StateVector,
                                  embed_operator)
from cavity_toffoli.trajectories import run_ideal

from conftest import dense_unitary

G, E, I = int(Level.g), int(Level.e), int(Level.i)


def _rig_block(angle=math.pi):
    """3x3 unitary of the classical |i> <-> |g> pulse at ``angle``, in the
    level order (g, e, i), from the engine's (c, s) amplitudes."""
    c, s = _rig_amplitudes(angle)
    return np.array([[c, 0, s], [0, 1, 0], [s, 0, c]], dtype=np.complex128)


def _segment_unitary(schedule, seg, *, duration=None, angle_scale=1.0):
    """Dense unitary of one segment, built without the engine.

    Timed segments: exp(-i H t) at ``duration`` (the nominal one by
    default), an adjoint Rabi segment as the adjoint of the forward pulse;
    classical pulses: their 3x3 block at ``angle_scale`` times the nominal
    angle, embedded on the pulsed atom.  Construction asserts unitarity.
    """
    if seg.kind == "classical_pulse":
        block = _rig_block(math.pi * angle_scale)
        op = OperatorMatrix(CompositeSpace((ATOM_DIM,)), block, unitary=True)
        return embed_operator(schedule.space, [seg.atom], op)
    t = seg.nominal_duration if duration is None else duration
    if seg.kind == "resonant_rabi":
        u = dense_unitary(jc_hamiltonian(schedule.params, seg.atom, schedule.space), t)
        return OperatorMatrix(u.space, u.entries.conj().T, unitary=True) if seg.adjoint else u
    return dense_unitary(segment_drift(schedule, seg), t)


def _dense_ideal(schedule, amps):
    """``amps`` (one state or rows of states) through every segment's
    dense unitary, in order."""
    for seg in schedule.segments:
        amps = amps @ _segment_unitary(schedule, seg).entries.T
    return amps


def _prefix(schedule, k):
    """The schedule cut after its first k segments."""
    return replace(schedule, segments=schedule.segments[:k])


def _marginal(psi, subsystem):
    """Occupation probabilities of one subsystem of the state ``psi``."""
    probs = np.abs(psi.amplitudes.reshape(psi.space.subsystem_dims)) ** 2
    return probs.sum(axis=tuple(k for k in range(probs.ndim) if k != subsystem))


@pytest.fixture
def schedule(params):
    return toffoli_schedule(params)


# ---------------------------------------------------------------- encoding

def test_encode_000(schedule):
    psi = encode_logical((0, 0, 0), schedule.space)
    s = 1 / math.sqrt(2)
    expect = np.zeros(27, dtype=complex)
    expect[schedule.space.index_of([1, I, G])] = s
    expect[schedule.space.index_of([1, I, E])] = s
    np.testing.assert_allclose(psi.amplitudes, expect, atol=1e-15)


def test_encode_110(schedule):
    psi = encode_logical((1, 1, 0), schedule.space)
    s = 1 / math.sqrt(2)
    expect = np.zeros(27, dtype=complex)
    expect[schedule.space.index_of([0, G, G])] = s
    expect[schedule.space.index_of([0, G, E])] = s
    np.testing.assert_allclose(psi.amplitudes, expect, atol=1e-15)


@pytest.mark.parametrize("fock_dim", [3, 4])
def test_encode_equals_kronecker_product(fock_dim):
    """Every input equals |cavity> kron |control> kron |target> built from
    one-subsystem kets, entry for entry."""
    space = CompositeSpace((fock_dim, ATOM_DIM, ATOM_DIM))
    s = 1 / math.sqrt(2)
    for c1, c2, t in LOGICAL_BITS:
        cavity, control = np.eye(fock_dim)[1 - c1], np.eye(ATOM_DIM)[I if c2 == 0 else G]
        target = np.array([s, s if t == 0 else -s, 0.0])
        expect = np.kron(np.kron(cavity, control), target)
        assert np.array_equal(encode_logical((c1, c2, t), space).amplitudes, expect)


def test_encoded_states_orthonormal(schedule):
    states = [encode_logical(b, schedule.space) for b in LOGICAL_BITS]
    gram = np.array([[a.overlap(b) for b in states] for a in states])
    np.testing.assert_allclose(gram, np.eye(8), atol=1e-12)


def test_encode_rejects_bad_bits(schedule):
    with pytest.raises(ValueError):
        encode_logical((0, 2, 0), schedule.space)
    with pytest.raises(ValueError):
        encode_logical((0, 0, 0), CompositeSpace((3, 2, 3)))


def test_toffoli_map_truth_table():
    assert toffoli_map((1, 1, 0)) == (1, 1, 1)
    assert toffoli_map((1, 1, 1)) == (1, 1, 0)
    for bits in LOGICAL_BITS:
        if bits[:2] != (1, 1):
            assert toffoli_map(bits) == bits


# ---------------------------------------------------------------- schedule

def test_schedule_has_five_segments_in_order(schedule, params):
    kinds = [seg.kind for seg in schedule.segments]
    assert kinds == ["resonant_rabi", "classical_pulse", "collision",
                     "classical_pulse", "resonant_rabi"]
    assert not schedule.segments[0].adjoint
    assert schedule.segments[4].adjoint
    durations = [seg.nominal_duration for seg in schedule.segments]
    assert durations == pytest.approx([params.t_pi, 0.0, params.t_collision,
                                       0.0, params.t_pi])


def test_schedule_total_duration(schedule):
    assert 1.7e-4 <= schedule.total_duration <= 1.9e-4


def test_default_schedule_loss_everywhere(schedule):
    assert all(seg.loss_active for seg in schedule.segments)
    assert all(seg.jitter_applies for seg in schedule.segments)


def test_loss_and_jitter_scopes(params):
    sched = toffoli_schedule(params, loss_scope="collision_only",
                             jitter_scope="interactions_only")
    assert [seg.loss_active for seg in sched.segments] == [
        False, False, True, False, False]
    assert [seg.jitter_applies for seg in sched.segments] == [
        True, False, True, False, True]
    with pytest.raises(ValueError):
        toffoli_schedule(params, loss_scope="nowhere")
    with pytest.raises(ValueError):
        toffoli_schedule(params, jitter_scope="sometimes")


def test_schedule_json_round_trip(schedule):
    doc = json.loads(schedule.to_json())
    assert doc["subsystem_dims"] == [3, 3, 3]
    assert len(doc["segments"]) == 5
    assert doc["segments"][1]["nominal_duration"] == 0.0
    assert doc["segments"][2]["kind"] == "collision"
    assert doc["total_duration"] == pytest.approx(1.8e-4)


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment("classical_pulse", 1e-5, atom=1)
    with pytest.raises(ValueError):
        Segment("resonant_rabi", 1e-5)
    with pytest.raises(ValueError):
        Segment("warp", 1e-5)
    for bad in (-1e-5, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            Segment("idle", bad)


# ---------------------------------------------------------------- ideal run

def test_gate_flips_target_iff_both_controls_set(schedule):
    out = run_ideal(schedule, encode_logical((1, 1, 0), schedule.space))
    target = encode_logical((1, 1, 1), schedule.space)
    assert abs(np.vdot(out.amplitudes, target.amplitudes)) ** 2 >= 1 - 1e-9
    # and with the exact +1 coefficient
    assert target.overlap(out).real == pytest.approx(1.0, abs=1e-9)


def test_gate_identity_on_000(schedule):
    psi0 = encode_logical((0, 0, 0), schedule.space)
    out = run_ideal(schedule, psi0)
    assert psi0.overlap(out).real == pytest.approx(1.0, abs=1e-9)


def test_branch_01_returns_with_plus_one(schedule):
    """The |1_c g_c> branch exercises the adjoint-decode choice."""
    for t in (0, 1):
        psi0 = encode_logical((0, 1, t), schedule.space)
        out = run_ideal(schedule, psi0)
        assert psi0.overlap(out).real == pytest.approx(1.0, abs=1e-9)


def test_truth_table_all_inputs(schedule):
    """Every input reaches its Toffoli image with fidelity >= 1 - 1e-9, read
    from the process matrix as ``truth-table`` reads it."""
    process = logical_process_matrix(schedule)
    assert np.all(np.abs(process[_IMAGES, range(len(LOGICAL_BITS))]) ** 2 >= 1 - 1e-9)


def test_run_ideal_validates_input(schedule, params):
    other = CompositeSpace((4, 3, 3)).basis_state([0, 0, 0])
    with pytest.raises(ValueError):
        run_ideal(schedule, other)
    unnormalized = StateVector(schedule.space, 2 * schedule.space.basis_state(
        [0, 0, 0]).amplitudes, normalized=False)
    with pytest.raises(ValueError):
        run_ideal(schedule, unnormalized)


_IDEAL_CASES = {
    "default": ({}, {}),
    "decode-forward": ({}, {"decode_adjoint": False}),
    "fock-4": ({"fock_dim": 4}, {}),
    "collision-loss": ({}, {"loss_scope": "collision_only"}),
}

#: the [2, 4) edge below ``VALIDATION_RATIOS`` and the range of
#: scripts/collision_accuracy.py
_DISPERSIVE_RATIOS = (1.0, 2.0, 3.0, 4.0, 8.0, 16.0, 50.0)


@pytest.mark.parametrize("case", list(_IDEAL_CASES))
def test_ideal_path_matches_dense_reference(case):
    """The engine's ideal path equals the product of dense segment
    unitaries within 1e-12: the process matrix, each run_ideal output, and
    the collision inputs of the dispersive check, whose overlaps, for every
    input at every ratio of ``_DISPERSIVE_RATIOS``, then equal those of the
    dense route (the computation they were first made by), with no warning."""
    param_kw, schedule_kw = _IDEAL_CASES[case]
    params = PhysicalParams.from_frequency(**param_kw)
    schedule = toffoli_schedule(params, **schedule_kw)
    space = schedule.space
    basis = np.stack([encode_logical(b, space).amplitudes for b in LOGICAL_BITS])
    dense = _dense_ideal(schedule, basis)
    assert np.max(np.abs(logical_process_matrix(schedule)
                         - basis.conj() @ dense.T)) <= 1e-12
    for psi, expected in zip(basis, dense):
        out = run_ideal(schedule, StateVector(space, psi)).amplitudes
        assert np.max(np.abs(out - expected)) <= 1e-12

    inputs = _dense_ideal(_prefix(schedule, 2), basis)
    assert np.max(np.abs(_collision_inputs(params) - inputs)) <= 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = dispersive_validation(params, _DISPERSIVE_RATIOS)
    assert [rep.ratio for rep in reports] == list(_DISPERSIVE_RATIOS)
    for rep in reports:
        p = replace(params, delta=rep.ratio * params.omega)
        u_disp = dense_unitary(dispersive_hamiltonian(p, 1, 2, space), p.t_collision)
        u_full = dense_unitary(full_detuned_hamiltonian(p, 1, 2, space), p.t_collision)
        compare = u_full.entries.conj().T @ u_disp.entries
        overlaps = [min(abs(np.vdot(psi, compare @ psi)) ** 2, 1.0) for psi in inputs]
        np.testing.assert_allclose(rep.overlaps, overlaps, rtol=0, atol=1e-12)


# ---------------------------------------------------------------- process matrix

def test_process_matrix_is_toffoli_permutation(schedule):
    m = logical_process_matrix(schedule)
    perm = np.zeros((8, 8))
    for k, bits in enumerate(LOGICAL_BITS):
        perm[LOGICAL_BITS.index(toffoli_map(bits)), k] = 1.0
    np.testing.assert_allclose(np.abs(m), perm, atol=1e-9)


def test_process_matrix_unitary(schedule):
    m = logical_process_matrix(schedule)
    np.testing.assert_allclose(m @ m.conj().T, np.eye(8), atol=1e-9)


def test_process_phase_uniformity(schedule):
    assert process_phase_spread(logical_process_matrix(schedule)) <= 1e-9


def test_non_adjoint_decode_breaks_phase_uniformity(params):
    sched = toffoli_schedule(params, decode_adjoint=False)
    m = logical_process_matrix(sched)
    assert process_phase_spread(m) > 1.0  # -1 on the (0,1,.) branch
    for t in (0, 1):
        k = LOGICAL_BITS.index((0, 1, t))
        assert m[k, k].real == pytest.approx(-1.0, abs=1e-9)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=15, deadline=None)
def test_linearity_on_superpositions(seed):
    """U (sum a_b |b>) = e^{i gamma} sum a_b |Toffoli(b)> for one gamma."""
    params = PhysicalParams.from_frequency()
    schedule = toffoli_schedule(params)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    coeffs /= np.linalg.norm(coeffs)
    amps = sum(c * encode_logical(b, schedule.space).amplitudes
               for c, b in zip(coeffs, LOGICAL_BITS))
    out = run_ideal(schedule, StateVector(schedule.space, amps))
    expected = sum(c * encode_logical(toffoli_map(b), schedule.space).amplitudes
                   for c, b in zip(coeffs, LOGICAL_BITS))
    overlap = np.vdot(expected, out.amplitudes)
    assert abs(overlap) >= 1 - 1e-9  # equal up to one global phase


# ---------------------------------------------------------------- intermediates

def test_photon_population_never_escapes_single_excitation(schedule):
    """Population of n >= 2 stays below 1e-12 throughout, for every input."""
    ceiling = 0.0
    for bits in LOGICAL_BITS:
        psi0 = encode_logical(bits, schedule.space)
        for k in range(1, len(schedule.segments) + 1):
            pops = _marginal(run_ideal(_prefix(schedule, k), psi0), 0)
            ceiling = max(ceiling, float(pops[2:].sum()))
    assert ceiling <= 1e-12


def test_encoding_step_flips_1g_branch(schedule):
    """After segment 1: |1_c>|g_c> -> -|0_c>|e_c> (amplitude exactly -1)."""
    for t in (0, 1):
        psi = run_ideal(_prefix(schedule, 1), encode_logical((0, 1, t), schedule.space))
        sign = 1.0 if t == 0 else -1.0
        s = 1 / math.sqrt(2)
        expect = np.zeros(27, dtype=complex)
        expect[schedule.space.index_of([0, E, G])] = -s
        expect[schedule.space.index_of([0, E, E])] = -s * sign
        np.testing.assert_allclose(psi.amplitudes, expect, atol=1e-10)


def test_collision_stage_swaps_11_branch(schedule):
    """After segment 3 the (1,1,t) input carries the +/- swapped target."""
    for t in (0, 1):
        psi = run_ideal(_prefix(schedule, 3), encode_logical((1, 1, t), schedule.space))
        s = 1 / math.sqrt(2)
        sign = 1.0 if t == 0 else -1.0
        expect = np.zeros(27, dtype=complex)
        expect[schedule.space.index_of([0, I, G])] = s
        expect[schedule.space.index_of([0, I, E])] = -s * sign  # swapped
        np.testing.assert_allclose(psi.amplitudes, expect, atol=1e-9)

