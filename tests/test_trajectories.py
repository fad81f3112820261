"""Quantum-jump engine and Lindblad oracle."""

import collections
import itertools
import math
import os
import statistics
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

import cavity_toffoli
from cavity_toffoli import trajectories
from cavity_toffoli.analysis import (DEFAULT_TAU_GRID, _logical_basis, gate_fidelity,
                                     lindblad_gate_fidelity, logical_process_matrix)
from cavity_toffoli.model import Level, PhysicalParams, _rig_amplitudes, annihilation
from cavity_toffoli.protocol import (LOGICAL_BITS, Schedule, Segment,
                                     encode_logical, segment_drift,
                                     toffoli_map, toffoli_schedule)
from cavity_toffoli.qmath import (CompositeSpace, DensityMatrix, OperatorMatrix,
                                  StateVector, embed_operator, trace_distance)
from cavity_toffoli.trajectories import (_BLOCK_ROWS, NoiseParams, jitter_factors,
                                         lindblad_evolve, mcwf_trajectory,
                                         run_ideal, run_trajectories)

from test_protocol import _dense_ideal, _marginal, _segment_unitary


@pytest.fixture
def schedule(params):
    return toffoli_schedule(params)


def idle_schedule(params, duration, fock_dim=3):
    space = CompositeSpace((fock_dim,))
    return Schedule(space, (Segment("idle", duration),), params)


def stream_uniforms(seed, n_rows, n_words):
    """Uniforms of words 0 .. n_words - 1 of trajectories 0 .. n_rows - 1
    of basis input 0 in cell 0."""
    blocks = np.arange(-(-n_words // 4))
    words = trajectories._philox(seed, np.arange(n_rows)[:, None], blocks,
                                 0, 0).reshape(n_rows, -1)
    return trajectories._uniforms(words[:, :n_words])


# ---------------------------------------------------------------- NoiseParams

def test_noise_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(tau=0.0)
    with pytest.raises(ValueError):
        NoiseParams(epsilon=1.0)
    with pytest.raises(ValueError):
        NoiseParams(epsilon=-0.1)
    for bad in (0, 2.5, 2.0, True, np.float64(2.0)):
        with pytest.raises(ValueError, match="n_traj"):
            NoiseParams(n_traj=bad)
    with pytest.raises(ValueError, match="overflows"):
        NoiseParams(tau=5e-324)
    NoiseParams(tau=math.inf, epsilon=0.0)


def test_numpy_integer_settings_equal_python_ints(schedule):
    """The integer checks accept numpy integers, with the same stream."""
    psi0 = encode_logical((0, 0, 0), schedule.space)
    noise = NoiseParams(tau=1e-3, epsilon=0.03, n_traj=2, seed=5)
    wide = NoiseParams(tau=1e-3, epsilon=0.03, n_traj=np.int64(2), seed=np.uint64(5))
    a = mcwf_trajectory(schedule, psi0, wide, traj=np.int32(1), cell=np.uint8(2))
    b = mcwf_trajectory(schedule, psi0, noise, traj=1, cell=2)
    assert a.jump_times == b.jump_times
    assert np.array_equal(a.final_state.amplitudes, b.final_state.amplitudes)


def test_kappa_definition():
    assert NoiseParams(tau=2e-3).kappa == pytest.approx(500.0)
    assert NoiseParams(tau=math.inf).kappa == 0.0


# ---------------------------------------------------------------- RNG contract

def test_substream_counter_blocks_are_independent():
    """Distinct (traj, input, cell) counters give distinct words, for a traj
    beyond 32 bits and a cell beyond 63, and the same counter gives the same
    words again."""
    trajs = [0, 17, 2 ** 32 + 5]
    for seed in (0, 123, 2 ** 64 - 1):
        seen = set()
        for basis_input, cell in [(0, 0), (7, 65)]:
            words = trajectories._philox(seed, np.array(trajs)[:, None], np.arange(3),
                                         basis_input, cell).reshape(len(trajs), -1)
            again = trajectories._philox(seed, np.array(trajs)[:, None], np.arange(3),
                                         basis_input, cell).reshape(len(trajs), -1)
            np.testing.assert_array_equal(words, again)
            seen.update(words.reshape(-1).tolist())
        assert len(seen) == 12 * 2 * len(trajs)


def test_stream_factory_matches_substream():
    """Word j of stream (traj, input, cell) is the j-th raw output of numpy's
    Philox(key=seed, counter=[0, traj, input, cell]), bit for bit, across
    4-word blocks, whether the stream is drawn alone or batched with others
    and whatever was drawn before it."""
    trajs = [0, 17, 2 ** 32 + 5]
    for seed in (0, 123, 2 ** 64 - 1):
        for basis_input, cell in [(0, 0), (7, 65), (0, 0)]:
            batched = trajectories._philox(seed, np.array(trajs)[:, None], np.arange(3),
                                           basis_input, cell).reshape(len(trajs), -1)
            for row, traj in enumerate(trajs):
                expected = np.random.Philox(
                    key=seed, counter=[0, traj, basis_input, cell]).random_raw(11)
                alone = trajectories._philox(seed, traj, np.arange(3), basis_input, cell)
                np.testing.assert_array_equal(alone.reshape(-1)[:11], expected)
                np.testing.assert_array_equal(batched[row, :11], expected)
    # full-width 64-bit seeds and counters carry through every limb of the
    # mulhi; numpy takes a list counter through float64, so it gets uint64 words
    rng = np.random.default_rng(21)
    for seed, traj, basis_input, cell in rng.integers(0, 2 ** 64, (40, 4), np.uint64).tolist():
        counter = np.array([0, traj, basis_input, cell], dtype=np.uint64)
        expected = np.random.Philox(key=seed, counter=counter).random_raw(11)
        alone = trajectories._philox(seed, traj, np.arange(3), basis_input, cell)
        np.testing.assert_array_equal(alone.reshape(-1)[:11], expected)


def test_ndtri_equals_stdlib_inv_cdf():
    """The AS241 port gives NormalDist().inv_cdf exactly, extremes included."""
    rng = np.random.default_rng(9)
    deep = np.exp(-745.0 * rng.random(5000))
    p = np.concatenate([
        stream_uniforms(5, 2500, 4).reshape(-1), deep, 1.0 - deep,
        [2.0 ** -53, 1.0 - 2.0 ** -53, 0.5, 0.075, 0.925, math.exp(-25.0)]])
    p = p[(p > 0.0) & (p < 1.0)]
    assert p.size >= 10 ** 4
    expected = np.array([statistics.NormalDist().inv_cdf(v) for v in p.tolist()])
    np.testing.assert_array_equal(trajectories._ndtri(p), expected)
    # jitter_factors passes (n, k) arrays; the shape comes back, and an input
    # may hold no tail entry, only tail entries, or nothing at all
    central = np.abs(p - 0.5) <= 0.425
    assert central.any() and not central.all()
    for part in (np.arange(9000), central, ~central, np.arange(0)):
        x, want = p[part], expected[part]
        n = x.size // 4 * 4
        for got, ref in ((trajectories._ndtri(x), want),
                         (trajectories._ndtri(x[:n].reshape(-1, 4)), want[:n].reshape(-1, 4))):
            assert got.shape == ref.shape
            np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("n_traj, traj", [
    (8, 5),
    (_BLOCK_ROWS + 1, _BLOCK_ROWS - 1),   # last row of a full block
    (_BLOCK_ROWS + 1, _BLOCK_ROWS),       # alone in the run's second block
], ids=["one-block", "block-end", "next-block"])
def test_trajectory_bit_reproducible_out_of_order(schedule, n_traj, traj):
    """(seed, index) alone fixes the result, whatever ran before or beside it."""
    noise = NoiseParams(tau=1e-3, epsilon=0.03, n_traj=n_traj, seed=77)
    psi0 = encode_logical((0, 0, 0), schedule.space)
    batch = run_trajectories(schedule, psi0, noise)
    solo = mcwf_trajectory(schedule, psi0, noise, traj=traj)
    np.testing.assert_array_equal(solo.final_state.amplitudes,
                                  batch[traj].final_state.amplitudes)
    assert solo.jump_times == batch[traj].jump_times
    assert solo.perturbed_durations == batch[traj].perturbed_durations


def test_counter_indices_outside_64_bits_raise(params, schedule):
    """A seed, trajectory, basis-input or cell index outside [0, 2^64), or not
    an integer, is a ValueError at every public entry point, not a wrapped or
    truncated stream (traj -1 would be trajectory 2^64 - 1, 1.5 would be 1).
    The largest index draws numpy's own Philox words at that counter."""
    psi0 = encode_logical((0, 0, 0), schedule.space)
    noise = NoiseParams(tau=1e-3, epsilon=0.03, n_traj=2, seed=5)
    for bad in (-1, 2 ** 64, 1.5, 3.0, True, np.bool_(True)):
        for name in ("traj", "basis_input", "cell"):
            with pytest.raises(ValueError, match=name):
                mcwf_trajectory(schedule, psi0, noise, **{name: bad})
        for name in ("basis_input", "cell"):
            with pytest.raises(ValueError, match=name):
                run_trajectories(schedule, psi0, noise, **{name: bad})
        with pytest.raises(ValueError, match="cell_index"):
            gate_fidelity(params, noise, cell_index=bad)
        with pytest.raises(ValueError, match="seed"):
            NoiseParams(seed=bad)
    top = 2 ** 64 - 1
    res = mcwf_trajectory(schedule, psi0, noise, traj=top, basis_input=top, cell=top)
    counter = np.array([0, top, top, top], dtype=np.uint64)
    words = np.random.Philox(key=5, counter=counter).random_raw(5)
    factors = jitter_factors(schedule, 0.03, trajectories._uniforms(words)[None])[0]
    nominal = np.array([seg.nominal_duration for seg in schedule.segments])
    np.testing.assert_array_equal(res.perturbed_durations, nominal * factors)


# ---------------------------------------------------------------- jitter

def test_jitter_zero_epsilon_is_exact(schedule):
    u = stream_uniforms(1, 4, len(schedule.segments))
    factors = jitter_factors(schedule, 0.0, u)
    assert factors.tolist() == [[1.0] * len(schedule.segments)] * 4


@pytest.mark.parametrize("eps", [0.03, 0.08, 0.5, 0.9, 0.999])
def test_jitter_extreme_words_give_positive_factors(schedule, eps):
    """The lowest and highest words land next to the cut and far in the
    tail; both give finite positive factors."""
    words = np.array([[0], [2 ** 64 - 1]], dtype=np.uint64).repeat(
        len(schedule.segments), axis=1)
    factors = jitter_factors(schedule, eps, trajectories._uniforms(words))
    assert np.all(np.isfinite(factors)) and np.all(factors > 0.0)


def test_jitter_sample_mean(schedule):
    """Mean of T(1+eta) over 1e5 draws lands within 3 standard errors of T."""
    eps = 0.05
    u = stream_uniforms(2024, 20000, len(schedule.segments))  # 5 segments -> 1e5
    factors = jitter_factors(schedule, eps, u).reshape(-1)
    se = eps / math.sqrt(factors.size)
    assert abs(factors.mean() - 1.0) <= 3 * se
    assert np.all(factors > 0.0)


def test_jitter_truncated_mean(schedule):
    """At eps = 0.5 the cut eta > -1 matters: the mean of 1e5 factors is
    the truncated law's, 1 + eps phi(1/eps) / (1 - Phi(-1/eps)), within 3
    standard errors."""
    eps = 0.5
    u = stream_uniforms(2025, 20000, len(schedule.segments))
    factors = jitter_factors(schedule, eps, u).reshape(-1)
    phi = math.exp(-0.5 / eps ** 2) / math.sqrt(2.0 * math.pi)
    mean = 1.0 + eps * phi / (1.0 - 0.5 * math.erfc(1.0 / (eps * math.sqrt(2.0))))
    se = factors.std() / math.sqrt(factors.size)
    assert abs(factors.mean() - mean) <= 3 * se


def test_jitter_respects_segment_flags(params):
    sched = toffoli_schedule(params, jitter_scope="interactions_only")
    factors = jitter_factors(sched, 0.5, stream_uniforms(3, 1, len(sched.segments)))[0]
    assert factors[1] == 1.0 and factors[3] == 1.0    # classical pulses exempt
    assert factors[0] != 1.0 and factors[2] != 1.0


# ---------------------------------------------------------------- MCWF

def test_lossless_trajectory_reproduces_ideal(schedule):
    noise = NoiseParams(tau=math.inf, epsilon=0.0, n_traj=1, seed=4)
    for bits in LOGICAL_BITS:
        psi0 = encode_logical(bits, schedule.space)
        res = mcwf_trajectory(schedule, psi0, noise)
        assert res.jump_times == ()
        ideal = StateVector(schedule.space, _dense_ideal(schedule, psi0.amplitudes))
        assert abs(np.vdot(res.final_state.amplitudes, ideal.amplitudes)) ** 2 >= 1 - 1e-8
        assert res.perturbed_durations == tuple(
            seg.nominal_duration for seg in schedule.segments)


def test_lossless_jittered_trajectory_matches_manual_replay(schedule):
    """tau = inf with jitter equals the unitary product at the drawn durations."""
    noise = NoiseParams(tau=math.inf, epsilon=0.05, n_traj=1, seed=11)
    psi0 = encode_logical((0, 1, 0), schedule.space)
    res = mcwf_trajectory(schedule, psi0, noise, traj=3)
    u = stream_uniforms(11, 4, len(schedule.segments))[3:]   # segment k: word k
    factors = jitter_factors(schedule, 0.05, u)[0]
    psi = psi0
    for k, seg in enumerate(schedule.segments):
        if seg.kind == "classical_pulse":
            psi = _segment_unitary(schedule, seg, angle_scale=factors[k]).apply(psi)
        else:
            psi = _segment_unitary(
                schedule, seg, duration=seg.nominal_duration * factors[k]).apply(psi)
    assert abs(np.vdot(res.final_state.amplitudes, psi.amplitudes)) ** 2 >= 1 - 1e-8
    np.testing.assert_allclose(
        res.perturbed_durations,
        [seg.nominal_duration * f for seg, f in zip(schedule.segments, factors)])


def test_idle_decay_no_jump_fraction(params):
    """|1> idling for tau: no-jump survival e^{-1} within 3 standard errors."""
    tau = 1e-3
    sched = idle_schedule(params, tau)
    one = sched.space.basis_state([1])
    noise = NoiseParams(tau=tau, epsilon=0.0, n_traj=4000, seed=5)
    results = run_trajectories(sched, one, noise)
    survival = sum(1 for r in results if not r.jump_times) / len(results)
    p = math.exp(-1.0)
    se = math.sqrt(p * (1 - p) / len(results))
    assert abs(survival - p) <= 3 * se
    # a single photon can decay at most once
    assert max(len(r.jump_times) for r in results) <= 1


def test_jump_times_ordered_and_in_range(schedule):
    noise = NoiseParams(tau=2e-4, epsilon=0.05, n_traj=200, seed=13)
    psi0 = encode_logical((0, 0, 0), schedule.space)
    for res in run_trajectories(schedule, psi0, noise):
        total = sum(res.perturbed_durations)
        times = list(res.jump_times)
        assert times == sorted(times)
        assert all(0.0 <= t <= total for t in times)
        assert abs(res.final_state.norm() - 1.0) <= 1e-12


def _reference_trajectory(schedule, psi0, noise, traj, basis_input):
    """The quantum-jump algorithm as a plain loop over one trajectory.

    Same draws, end-point check, bisection and jump rule as the engine, with
    every state computed afresh from a dense eigendecomposition.  The draws
    are numpy's own Philox words, read in order: one per segment, then one
    per threshold.
    """
    bits = np.random.Philox(key=noise.seed, counter=[0, traj, basis_input, 0])

    def uniform():
        return ((int(bits.random_raw()) >> 12) + 0.5) * 2.0 ** -52

    space = schedule.space
    a = embed_operator(space, [0], annihilation(space.subsystem_dims[0])).entries
    n_cav = a.conj().T @ a
    dt_max = noise.tau / 100.0
    u = np.array([[uniform() for _ in schedule.segments]])
    factors = jitter_factors(schedule, noise.epsilon, u)[0]
    psi, threshold, jumps, elapsed = psi0.amplitudes, None, [], 0.0
    for seg, factor in zip(schedule.segments, factors):
        if seg.kind == "classical_pulse":
            psi = _segment_unitary(schedule, seg, angle_scale=factor).entries @ psi
            continue
        duration = seg.nominal_duration * factor
        kappa = noise.kappa if seg.loss_active else 0.0
        w, v = np.linalg.eig(segment_drift(schedule, seg).entries
                             - 0.5j * kappa * n_cav)
        vinv = np.linalg.inv(v)

        def norm_sq(state):
            return float(np.vdot(state, state).real)

        if kappa == 0.0:
            psi = v @ (np.exp(-1j * w * duration) * (vinv @ psi))
            elapsed += duration
            continue
        if threshold is None:
            threshold = uniform()
        t_done = 0.0
        while duration - t_done > 0.0:
            def at(t, start=psi):
                return v @ (np.exp(-1j * w * t) * (vinv @ start))

            remaining = duration - t_done
            end = at(remaining)
            if norm_sq(end) >= threshold:
                psi = end
                break
            lo, hi = 0.0, remaining
            while hi - lo > dt_max / 100.0:
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if norm_sq(at(mid)) < threshold else (mid, hi)
            t_jump = 0.5 * (lo + hi)
            psi = a @ at(t_jump)
            psi = psi / math.sqrt(norm_sq(psi))
            jumps.append(elapsed + t_done + t_jump)
            threshold = uniform()
            t_done += t_jump
        elapsed += duration
    return psi / math.sqrt(norm_sq(psi)), jumps


@pytest.mark.parametrize("case", ["toffoli", "two_photons", "three_photons"])
def test_batched_engine_matches_reference_loop(params, case):
    """Every row of a block follows the one-trajectory algorithm, jumps included."""
    if case == "toffoli":
        schedule = toffoli_schedule(params)
        psi0 = encode_logical((0, 0, 0), schedule.space)   # photon-carrying
    elif case == "two_photons":   # one by one: a second threshold, a second pass
        schedule = idle_schedule(params, 3e-4)
        psi0 = schedule.space.basis_state([2])
    else:   # a fourth threshold: word 4, past the one Philox block drawn up front
        schedule = idle_schedule(params, 6e-4, fock_dim=4)
        psi0 = schedule.space.basis_state([3])
    noise = NoiseParams(tau=2e-4, epsilon=0.05, n_traj=40, seed=31)
    batch = run_trajectories(schedule, psi0, noise, basis_input=3)
    n_jumps = [len(res.jump_times) for res in batch]
    expected = {"toffoli": {1: 10}, "two_photons": {1: 10, 2: 10},
                "three_photons": {3: 10}}[case]
    for count, at_least in expected.items():
        assert n_jumps.count(count) >= at_least
    for k, res in enumerate(batch):
        final, jumps = _reference_trajectory(schedule, psi0, noise, k, 3)
        assert len(res.jump_times) == len(jumps)
        np.testing.assert_allclose(res.jump_times, jumps, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(res.final_state.amplitudes, final, atol=1e-10)


def test_jump_times_match_closed_form(params):
    """In Fock state n the squared norm is exactly exp(-n kappa t), so from
    |3> waiting time k is -ln(u_k) / ((4 - k) kappa), u_k the k-th threshold
    (word k of the one-segment stream), to within half the bisection
    resolution; a row that stops short of three jumps would have jumped
    next only past the segment's end."""
    duration = 6e-4
    schedule = idle_schedule(params, duration, fock_dim=4)
    noise = NoiseParams(tau=2e-4, epsilon=0.0, n_traj=200, seed=5)
    dt_max = noise.tau / 100.0
    u = stream_uniforms(noise.seed, noise.n_traj, 4)
    results = run_trajectories(schedule, schedule.space.basis_state([3]), noise)
    assert sum(len(res.jump_times) for res in results) >= 400
    for row, res in enumerate(results):
        exact = [-math.log(u[row, k]) / ((4 - k) * noise.kappa) for k in (1, 2, 3)]
        t_prev = 0.0
        for t, wait in zip(res.jump_times, exact):
            assert abs((t - t_prev) - wait) <= dt_max / 200.0
            t_prev = t
        if len(res.jump_times) < 3:
            assert t_prev + exact[len(res.jump_times)] > duration - dt_max / 100.0


def test_bisection_midpoint_outside_bracket_raises(params, monkeypatch):
    """A norm that dips below its bracket at a bisection midpoint, while
    the end point is in order, is a RuntimeError, not a silent jump time."""
    duration = 6e-4
    schedule = idle_schedule(params, duration, fock_dim=4)
    compile_exact = trajectories._compile

    def compile_dipping(sched, noise_params, starts):
        compiled = compile_exact(sched, noise_params, starts)
        for ev in compiled.evolvers:
            if ev.lossy:
                def evolve(coeffs, t, exact=ev.evolve):
                    dip = 1.0 - 0.999 * np.sin(np.pi * t / duration)   # 1.0 at the end
                    return exact(coeffs, t) * dip[:, None]
                ev.evolve = evolve
        return compiled

    monkeypatch.setattr(trajectories, "_compile", compile_dipping)
    noise = NoiseParams(tau=2e-4, epsilon=0.0, n_traj=20, seed=5)
    with pytest.raises(RuntimeError, match="bisection midpoint"):
        run_trajectories(schedule, schedule.space.basis_state([3]), noise)


def test_expm_fallback_matches_eigenbasis(schedule, monkeypatch):
    """The dense expm path, taken when ``_DriftEvolver._eigen`` finds K's
    eigenvectors ill conditioned, gives the eigenbasis path's trajectories."""
    noise = NoiseParams(tau=2e-4, epsilon=0.05, n_traj=20, seed=3)
    psi0 = encode_logical((0, 0, 0), schedule.space)
    exact = run_trajectories(schedule, psi0, noise)
    compile_exact = trajectories._compile

    def compile_fallback(sched, noise_params, starts):
        compiled = compile_exact(sched, noise_params, starts)
        for ev in compiled.evolvers:
            if isinstance(ev, trajectories._DriftEvolver) and ev.lossy:
                ev._eigen = ev._eigen[:3] + (False,)
        return compiled

    monkeypatch.setattr(trajectories, "_compile", compile_fallback)
    dense = run_trajectories(schedule, psi0, noise)
    assert sum(len(res.jump_times) for res in exact) >= 5
    for a, b in zip(exact, dense):
        np.testing.assert_allclose(a.jump_times, b.jump_times, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(a.final_state.amplitudes,
                                   b.final_state.amplitudes, atol=1e-12)


def test_drift_evolver_falls_back_on_ill_conditioned_k():
    """Behind ``_DriftEvolver._eigen``'s cond_1(V) guard, a nearly defective K
    (cond ~ 1e8) evolves its rows through one batched ``_expm``, each for its
    own time, and matches scipy's expm."""
    h = np.array([[0.0, 1.0], [0.0, 0.0]])   # with the loss, K is nearly a Jordan block
    ev = trajectories._DriftEvolver(h, 1e-8, np.diag([0.0, 1.0]))
    assert not ev._eigen[3]
    rows = np.array([[1.0, 0.0], [0.3, 0.8j]], dtype=complex)
    times = np.array([0.4, 1.3])
    out = ev.evolve(ev.coefficients(rows), times)
    for row, t, got in zip(rows, times, out):
        expected = scipy.linalg.expm(-1j * ev.k * t) @ row
        assert np.max(np.abs(got - expected)) <= 1e-14


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_lossless_drift_evolver_matches_pade_exponential(seed):
    """At kappa = 0, the route of ``dispersive_validation``, the evolver takes
    rows through exp(-i H t) of a hermitian H, each for its own time: it
    matches scipy's expm and keeps every norm."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    ev = trajectories._DriftEvolver(0.5e5 * (m + m.conj().T), 0.0, None)
    rows = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    times = rng.uniform(0, 2e-5, size=3)
    out = ev.evolve(ev.coefficients(rows), times)
    for row, t, got in zip(rows, times, out):
        np.testing.assert_allclose(got, scipy.linalg.expm(-1j * ev.k * t) @ row, atol=1e-9)
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), np.linalg.norm(rows, axis=1),
                               rtol=1e-10)


def test_gate_drift_generators_stay_on_eigenbasis_path():
    """Every lossy segment's K, at 3 to 5 Fock levels, under both loss scopes,
    over the default tau grid and tau = 2e-5, 1e-5 and 1e-6, compiled from
    the logical inputs and from every basis state, has cond_1(V) below 10,
    far under the guard, so no trajectory takes the expm path."""
    for fock_dim in (3, 4, 5):
        params = PhysicalParams.from_frequency(fock_dim=fock_dim)
        for scope, tau, starts in itertools.product(
                ("all_segments", "collision_only"), DEFAULT_TAU_GRID + (2e-5, 1e-5, 1e-6),
                ("logical", "all")):
            schedule = toffoli_schedule(params, loss_scope=scope)
            rows = (_logical_basis(schedule) if starts == "logical"
                    else np.eye(schedule.space.total_dim))
            compiled = trajectories._compile(schedule, NoiseParams(tau=tau), rows)
            for ev in compiled.evolvers:
                if isinstance(ev, trajectories._DriftEvolver) and ev.lossy:
                    _, v, _, exact = ev._eigen
                    assert exact, (fock_dim, scope, tau, starts)
                    assert np.linalg.cond(v, 1) < 10.0, (fock_dim, scope, tau, starts)


def test_lossy_drift_spectrum_stays_in_the_lower_half_plane():
    """K = H - (i/2) kappa N with N >= 0 has no eigenvalue above the real
    axis.  At a 1e-50 Hz coupling eig rounds one of the collision's K to
    Im w ~ +6e-31, which exp(-i w T) would blow up over its 8e50 s; every
    lossy evolver of ``run``'s compiled groups keeps Im w <= 0."""
    schedule = toffoli_schedule(PhysicalParams.from_frequency(omega_hz=1e-50))
    groups = trajectories._compiled_groups(schedule, NoiseParams(),
                                           _logical_basis(schedule))
    lossy = [ev for _, compiled in groups for ev in compiled.evolvers
             if isinstance(ev, trajectories._DriftEvolver) and ev.lossy]
    assert len(lossy) == 6
    for ev in lossy:
        assert ev._eigen[0].imag.max() <= 0.0


@pytest.mark.parametrize("fock_dim", [3, 4, 5])
def test_compiled_basis_is_the_reachable_sector(fock_dim):
    """From the 8 logical inputs the compiled basis is exactly the 13 states
    with N = n + [control in e] + [target in e] <= 2 and the target not in
    |i>, at every cavity truncation."""
    schedule = toffoli_schedule(PhysicalParams.from_frequency(fock_dim=fock_dim))
    compiled = trajectories._compile(schedule, NoiseParams(), _logical_basis(schedule))
    n, control, target = np.unravel_index(np.arange(schedule.space.total_dim),
                                          schedule.space.subsystem_dims)
    excitations = n + (control == Level.e) + (target == Level.e)
    expected = np.flatnonzero((excitations <= 2) & (target != Level.i))
    assert len(expected) == 13
    np.testing.assert_array_equal(compiled.support, expected)


def test_pulse_rewrites_only_moving_amplitudes(schedule):
    """At per-row angle scales a pulse gives c psi + s psi[partner] on the
    states whose pulsed atom is not in |e> and keeps the others, bit for bit
    as the whole-row swap masked back; its input array stays as it was."""
    compiled = trajectories._compile(schedule, NoiseParams(), _logical_basis(schedule))
    levels = np.unravel_index(compiled.support, schedule.space.subsystem_dims)
    rng = np.random.default_rng(31)
    pulses = 0
    for seg, ev in zip(schedule.segments, compiled.evolvers):
        if seg.kind != "classical_pulse":
            continue
        pulses += 1
        fixed = levels[seg.atom] == Level.e
        assert fixed.any() and not fixed.all()
        for order in ("C", "F"):                    # a pulse's gather leaves rows strided
            psi = np.asarray(rng.normal(size=(50, len(fixed), 2)) @ [1.0, 1j], order=order)
            scales = 1.0 + 0.05 * rng.normal(size=len(psi))
            before = psi.copy()
            c, s = _rig_amplitudes(math.pi * scales)
            expected = np.where(fixed, psi, c[:, None] * psi + s[:, None] * psi[:, ev._partner])
            assert np.array_equal(ev.apply(psi, scales), expected)
            assert np.array_equal(psi, before)
    assert pulses > 0


def test_compile_memoizes_structure_not_evolvers(params, schedule, monkeypatch):
    """Two compiles of one (schedule, starts) share the same read-only
    structure arrays and build their own evolvers, each diagonalizing its
    own K: mutating one call's evolver leaves the next call's unchanged.
    fock_dim 4, collision_only and another start support each get their
    own structure."""
    starts, noise = _logical_basis(schedule), NoiseParams()
    first, second = (trajectories._compile(schedule, noise, starts) for _ in range(2))
    assert first.support is second.support
    assert first.annihilator is second.annihilator
    shared = [first.support, first.annihilator]
    for a, b in zip(first.evolvers, second.evolvers):
        assert a is not b
        if isinstance(a, trajectories._PulseEvolver):
            assert a._partner is b._partner and a._moving is b._moving
            shared += [a._partner, a._moving]
        else:
            assert a.k is not b.k
    for x in shared:
        assert not x.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            x[(0,) * x.ndim] = x[(0,) * x.ndim]

    lossy = [k for k, ev in enumerate(first.evolvers) if getattr(ev, "lossy", False)]
    w, v, vinv, exact = first.evolvers[lossy[0]]._eigen
    first.evolvers[lossy[0]]._eigen = w.conj(), v, vinv, exact
    first.evolvers[lossy[0]].k[0, 0] += 1.0
    third = trajectories._compile(schedule, noise, starts)
    for k in lossy:
        np.testing.assert_array_equal(third.evolvers[k].k, second.evolvers[k].k)
        np.testing.assert_array_equal(third.evolvers[k]._eigen[0],
                                      second.evolvers[k]._eigen[0])

    eig, calls = np.linalg.eig, []
    monkeypatch.setattr(np.linalg, "eig", lambda k: calls.append(1) or eig(k))
    for _ in range(2):
        mcwf_trajectory(schedule, encode_logical((0, 0, 0), schedule.space), noise)
    assert len(calls) == 2 * len(lossy)

    trajectories._structure.cache_clear()
    variants = [(schedule, starts),
                (toffoli_schedule(PhysicalParams.from_frequency(fock_dim=4)), None),
                (toffoli_schedule(params, loss_scope="collision_only"), starts),
                (schedule, np.eye(schedule.space.total_dim)[:1])]
    for _ in range(2):
        for sched, rows in variants:
            rows = _logical_basis(sched) if rows is None else rows
            trajectories._compile(sched, noise, rows)
    info = trajectories._structure.cache_info()
    assert (info.misses, info.hits, info.currsize) == (4, 4, 4)


def test_full_support_ket_matches_dense_evolution():
    """A ket on every basis state at fock_dim = 4 compiles to the full space:
    ``run_ideal`` equals the product of scipy's expm segment unitaries and
    the embedded pulses, and ``lindblad_evolve`` of its projector equals
    scipy's expm_multiply of each segment's dense Liouvillian, within 1e-12."""
    schedule = toffoli_schedule(PhysicalParams.from_frequency(fock_dim=4))
    space, tau = schedule.space, 1e-3
    rng = np.random.default_rng(4)
    ket = rng.standard_normal(space.total_dim) + 1j * rng.standard_normal(space.total_dim)
    psi0 = StateVector(space, ket / np.linalg.norm(ket))
    rho0 = DensityMatrix.from_state(psi0)
    ket = psi0.amplitudes
    compiled = trajectories._compile(schedule, NoiseParams(tau=tau), ket[None])
    np.testing.assert_array_equal(compiled.support, np.arange(space.total_dim))
    a = embed_operator(space, [0], annihilation(4)).entries
    vec = rho0.entries.reshape(-1)
    for seg in schedule.segments:
        if seg.kind == "classical_pulse":
            u = _segment_unitary(schedule, seg).entries
            vec = np.kron(u, u.conj()) @ vec
        else:
            h = segment_drift(schedule, seg).entries
            u = scipy.linalg.expm(-1j * h * seg.nominal_duration)
            liouv = _dense_liouvillian(h, a, 1.0 / tau if seg.loss_active else 0.0)
            vec = scipy.sparse.linalg.expm_multiply(
                scipy.sparse.csr_array(liouv * seg.nominal_duration), vec)
        ket = u @ ket
    assert np.max(np.abs(run_ideal(schedule, psi0).amplitudes - ket)) <= 1e-12
    rho = lindblad_evolve(schedule, rho0, tau).entries
    assert np.max(np.abs(rho.reshape(-1) - vec)) <= 1e-12


@pytest.mark.parametrize("epsilon", [0.05, 0.0], ids=["eps-0.05", "eps-0"])
def test_block_partition_leaves_results_unchanged(schedule, monkeypatch, epsilon):
    """1, 7, 256 and the default rows per block give byte-identical
    trajectories.  At epsilon = 0 the 1-row blocks take the per-row
    phases and the blocks of more rows their one shared row."""
    noise = NoiseParams(tau=2e-4, epsilon=epsilon, n_traj=20, seed=3)
    psi0 = encode_logical((0, 0, 0), schedule.space)
    runs = []
    for block_rows in (1, 7, 256, _BLOCK_ROWS):
        monkeypatch.setattr(trajectories, "_BLOCK_ROWS", block_rows)
        runs.append(run_trajectories(schedule, psi0, noise))
    assert sum(len(res.jump_times) for res in runs[0]) >= 5
    for run in runs[1:]:
        for a, b in zip(runs[0], run):
            assert a.final_state.amplitudes.tobytes() == b.final_state.amplitudes.tobytes()
            assert a.jump_times == b.jump_times
            assert a.perturbed_durations == b.perturbed_durations


def test_gate_fidelity_row_sets_cross_inputs(params, schedule, monkeypatch):
    """gate_fidelity runs the inputs of each compiled basis as one
    input-major row set: 1, 7, 256 and the default rows per block give
    byte-identical mean and standard error, with 256-row blocks ending
    inside an input.  Row (b, k) draws its jitter from numpy's
    Philox(counter=[0, k, b, cell]) and starts from input b, and its final
    state is byte for byte row k of input b's ``run_trajectories``, with
    jitter and without (where the rows of an input share their states)."""
    real_run_block, blocks = trajectories._run_block, []

    def recording_run_block(*args):
        blocks[-1].append(real_run_block(*args))
        return blocks[-1][-1]

    monkeypatch.setattr(trajectories, "_run_block", recording_run_block)
    n_seg = len(schedule.segments)
    nominal = np.array([seg.nominal_duration for seg in schedule.segments])
    for epsilon in (0.05, 0.0):
        noise = NoiseParams(tau=2e-4, epsilon=epsilon, n_traj=40, seed=3)
        results, blocks[:] = [], []
        for block_rows in (1, 7, 256, _BLOCK_ROWS):
            blocks.append([])
            monkeypatch.setattr(trajectories, "_BLOCK_ROWS", block_rows)
            res = gate_fidelity(params, noise, cell_index=4)
            results.append((res.mean.hex(), res.std_error.hex()))
        assert 256 % noise.n_traj != 0 and len(LOGICAL_BITS) * noise.n_traj > 256
        assert results[1:] == results[:1] * 3
        assert sum(len(t) for block in blocks[-1] for t in block.jump_times) >= 20
        per_input, runs = [], []
        for b, bits in enumerate(LOGICAL_BITS):
            target = encode_logical(toffoli_map(bits), schedule.space).amplitudes
            runs += run_trajectories(schedule, encode_logical(bits, schedule.space), noise,
                                     basis_input=b, cell=4)
            per_input += [abs(np.vdot(target, r.final_state.amplitudes)) ** 2
                          for r in runs[-noise.n_traj:]]
        for run in blocks:
            inputs = np.concatenate([block.inputs for block in run])
            durations = np.concatenate([block.durations for block in run])
            states = np.concatenate([block.states for block in run])
            jump_times = [t for block in run for t in block.jump_times]
            for row, (b, k) in enumerate(np.ndindex(len(LOGICAL_BITS), noise.n_traj)):
                words = np.random.Philox(key=3, counter=[0, k, b, 4]).random_raw(n_seg)
                factors = jitter_factors(schedule, epsilon, trajectories._uniforms(words)[None])
                assert inputs[row] == b
                np.testing.assert_array_equal(durations[row], nominal * factors[0])
                assert states[row].tobytes() == runs[row].final_state.amplitudes.tobytes()
                assert jump_times[row] == runs[row].jump_times
        assert float.fromhex(results[0][0]) == pytest.approx(np.mean(per_input), abs=1e-14)


@pytest.mark.parametrize("epsilon", [0.0, 0.08], ids=["eps-0", "eps-0.08"])
def test_gate_fidelity_reduces_distinct_states_on_the_basis(params, schedule, monkeypatch,
                                                            epsilon):
    """``gate_fidelity`` takes one overlap per distinct final state on the
    compiled basis; at epsilon = 0 a block holds far fewer of them than rows.
    Its mean and standard error match a full-space reference within 1e-15,
    over both input groups: every row embedded in the full space, divided by
    its norm and overlapped with its input's full-space target."""
    evolve, run_block, raw, blocks = trajectories._evolve, trajectories._run_block, [], []

    def recording_evolve(*args):
        raw.append(evolve(*args))
        return raw[-1]

    def recording_run_block(*args):
        blocks.append(run_block(*args))
        return blocks[-1]

    monkeypatch.setattr(trajectories, "_evolve", recording_evolve)
    monkeypatch.setattr(trajectories, "_run_block", recording_run_block)
    noise = NoiseParams(tau=1e-3, epsilon=epsilon, n_traj=250, seed=8)
    res = gate_fidelity(params, noise, cell_index=2)
    assert sorted(len(block.support) for block in blocks) == [7, 13]
    if epsilon == 0.0:
        assert all(4 * len(block.psi) < len(block.owner) for block in blocks)
    targets = _logical_basis(schedule)[[LOGICAL_BITS.index(toffoli_map(bits))
                                        for bits in LOGICAL_BITS]]
    fids = np.empty((len(LOGICAL_BITS), noise.n_traj))
    for evolved, block in zip(raw, blocks):
        rows = np.zeros((len(block.owner), schedule.space.total_dim), dtype=np.complex128)
        rows[:, block.support] = evolved.psi[evolved.owner]
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        overlaps = np.einsum("ij,ij->i", targets[block.inputs].conj(), rows)
        fids[np.unique(block.inputs)] = np.minimum(np.abs(overlaps) ** 2,
                                                   1.0).reshape(-1, noise.n_traj)
    assert abs(res.mean - fids.mean()) <= 1e-15
    assert abs(res.std_error - fids.std(ddof=1) / math.sqrt(fids.size)) <= 1e-15


@pytest.mark.parametrize("tau", [1e3, 2e-4])
def test_rows_share_a_state_until_they_jump(schedule, monkeypatch, tau):
    """At epsilon = 0 the rows of one start share one state until they
    jump: every state evaluation of a 1000-row ``run_trajectories`` (each
    end-point pass and lossless segment maps its rows to K's eigenbasis
    once) sees at most one row for the start plus one per row jumped so
    far, so one row while none jumps (tau = 1000 s)."""
    psi0 = encode_logical((0, 0, 0), schedule.space)
    noise = NoiseParams(tau=tau, epsilon=0.0, n_traj=1000, seed=3)
    annihilator = trajectories._compile(schedule, noise, psi0.amplitudes[None]).annihilator
    seen, jumped = [], [0]
    coefficients = trajectories._DriftEvolver.coefficients
    rows_matmul = trajectories._rows_matmul

    def counting_coefficients(self, psi):
        seen.append((len(psi), jumped[0]))
        return coefficients(self, psi)

    def counting_matmul(rows, matrix):
        if matrix.base is annihilator:      # the jump of each row that jumps
            jumped[0] += len(rows)
        return rows_matmul(rows, matrix)

    monkeypatch.setattr(trajectories._DriftEvolver, "coefficients", counting_coefficients)
    monkeypatch.setattr(trajectories, "_rows_matmul", counting_matmul)
    results = run_trajectories(schedule, psi0, noise)
    assert jumped[0] == sum(len(res.jump_times) for res in results)
    assert len(seen) >= 3 and all(size <= 1 + so_far for size, so_far in seen)
    if tau < 1.0:
        assert jumped[0] >= 100 and max(size for size, _ in seen) > 1
    else:
        assert jumped[0] == 0 and {size for size, _ in seen} == {1}


def _mixed_block(schedule, n_traj, cells, epsilons):
    """One engine block of inputs 0-3 at tau = 0.2 ms, cell-major over the
    cells ``cells`` at ``epsilons``; also returns the function that runs it
    for other cells, and the inputs."""
    basis = _logical_basis(schedule)
    noise = NoiseParams(tau=2e-4, epsilon=0.0, n_traj=n_traj, seed=11)
    (inputs, compiled), _ = trajectories._compiled_groups(schedule, noise, basis)
    assert len(cells) * len(inputs) * n_traj <= _BLOCK_ROWS

    def run(cells, epsilons):
        (block,) = trajectories._trajectory_blocks(compiled, basis[inputs], noise, inputs,
                                                   np.array(cells), np.array(epsilons),
                                                   np.arange(n_traj))
        return block
    return run(cells, epsilons), run, inputs


def test_trajectory_blocks_open_a_state_per_jittered_row(schedule, monkeypatch):
    """``_trajectory_blocks`` decides which rows share a state when a block
    opens: in a block of an epsilon = 0 and an epsilon > 0 cell, ``_evolve``
    gets its starts on the compiled basis, one per epsilon = 0 input (that
    input's start) plus one per epsilon > 0 row, and the rows of each
    epsilon = 0 input point at a single state."""
    evolve, calls = trajectories._evolve, []

    def recording_evolve(compiled, psi, owner, *args):
        calls.append((compiled.support, psi.copy(), owner.copy()))
        return evolve(compiled, psi, owner, *args)

    monkeypatch.setattr(trajectories, "_evolve", recording_evolve)
    _, _, inputs = _mixed_block(schedule, 60, (3, 4), (0.0, 0.05))
    ((support, psi, owner),) = calls
    n = len(inputs) * 60                        # rows per cell; epsilon = 0 first
    assert psi.shape == (len(inputs) + n, len(support))
    calm = owner[:n].reshape(len(inputs), 60)
    assert all(len(np.unique(states)) == 1 for states in calm)
    assert np.array_equal(psi[calm[:, 0]], _logical_basis(schedule)[inputs][:, support])
    assert sorted(owner[n:].tolist() + calm[:, 0].tolist()) == list(range(len(psi)))


def test_unjittered_first_pulse_keeps_rows_bit_for_bit(schedule):
    """At epsilon > 0 behind an unjittered first pulse, where every row has
    the same factor in segment 0 before lossy segments, every
    ``run_trajectories`` row equals its one-row ``mcwf_trajectory`` bit for
    bit, in final state and jump times."""
    pulse = Segment("classical_pulse", 0.0, atom=schedule.segments[1].atom,
                    jitter_applies=False)
    sched = Schedule(schedule.space, (pulse, *schedule.segments), schedule.params)
    psi0 = encode_logical((0, 1, 1), sched.space)
    noise = NoiseParams(tau=2e-4, epsilon=0.05, n_traj=40, seed=17)
    runs = run_trajectories(sched, psi0, noise, basis_input=3, cell=2)
    assert len({res.perturbed_durations[1] for res in runs}) == noise.n_traj
    assert sum(len(res.jump_times) for res in runs) >= 10
    for k, res in enumerate(runs):
        alone = mcwf_trajectory(sched, psi0, noise, traj=k, basis_input=3, cell=2)
        assert res.final_state.amplitudes.tobytes() == alone.final_state.amplitudes.tobytes()
        assert res.jump_times == alone.jump_times


def test_mixed_block_shares_states_only_at_epsilon_zero(schedule, monkeypatch):
    """A block holding an epsilon = 0 cell and an epsilon > 0 cell of the same
    inputs shares states only among the epsilon = 0 rows of one input: after
    segment 0, the first lossy one, those that have not jumped still share
    one state per input, so the block holds one state per epsilon = 0 input,
    one per epsilon > 0 row and one per epsilon = 0 row that jumped in
    segment 0.  Each cell's rows equal a block of that cell alone bit for bit."""
    decay, after = trajectories._decay, []

    def recording_decay(*args):
        after.append(decay(*args))
        return after[-1]

    monkeypatch.setattr(trajectories, "_decay", recording_decay)
    cells, epsilons = (3, 4), (0.0, 0.05)
    mixed, run, inputs = _mixed_block(schedule, 60, cells, epsilons)
    psi, owner, passes = after[0]               # segment 0 is the first lossy one
    n = len(inputs) * 60                        # rows per cell; epsilon = 0 first
    jumped = np.unique(np.concatenate([rows for rows, _ in passes]))
    jumped_calm = jumped[jumped < n]
    assert jumped_calm.size >= 1 and jumped.size > jumped_calm.size
    assert len(psi) == len(inputs) + n + jumped_calm.size
    calm = np.setdiff1d(np.arange(n), jumped_calm)
    shared = [np.unique(owner[calm[mixed.inputs[calm] == b]]) for b in inputs]
    assert [len(states) for states in shared] == [1] * len(inputs)
    assert len(np.unique(np.concatenate(shared))) == len(inputs)
    for c, (cell, eps) in enumerate(zip(cells, epsilons)):
        alone, rows = run((cell,), (eps,)), slice(c * n, (c + 1) * n)
        assert np.array_equal(mixed.states[rows], alone.states)
        assert mixed.jump_times[rows] == alone.jump_times
        np.testing.assert_array_equal(mixed.durations[rows], alone.durations)
    assert sum(map(len, mixed.jump_times[:n])) >= 20


def test_mixed_block_draws_no_jitter_block_for_epsilon_zero_rows(schedule, monkeypatch):
    """In a block mixing an epsilon = 0 and an epsilon > 0 cell, no Philox
    counter in a 4-word block that holds only jitter words (block 0 of the
    5-segment gate) is requested for an epsilon = 0 row, while every
    epsilon > 0 row draws it and every row draws its first threshold's."""
    philox, counters = trajectories._philox, []

    def recording_philox(seed, trajs, blocks, basis_inputs, cells):
        counters.append(np.stack(np.broadcast_arrays(blocks, trajs, basis_inputs, cells),
                                 axis=-1).reshape(-1, 4))
        return philox(seed, trajs, blocks, basis_inputs, cells)

    monkeypatch.setattr(trajectories, "_philox", recording_philox)
    n_seg = len(schedule.segments)
    assert n_seg // 4 == 1                      # words 0-3 are jitter words only
    mixed, _, inputs = _mixed_block(schedule, 50, (3, 4), (0.0, 0.05))
    drawn = np.concatenate(counters)
    rows = {(k, b) for b in inputs.tolist() for k in range(50)}
    for cell, first in ((3, 1), (4, 0)):
        mine = drawn[drawn[:, 3] == cell]
        assert mine[:, 0].min() == first, cell
        assert {tuple(x) for x in mine[mine[:, 0] == first, 1:3].tolist()} == rows
    assert sum(map(len, mixed.jump_times)) >= 20


def test_jumped_state_ends_in_vacuum_sector(params):
    """After the only photon leaks out the cavity stays empty."""
    sched = idle_schedule(params, 5e-3)
    one = sched.space.basis_state([1])
    noise = NoiseParams(tau=5e-4, epsilon=0.0, n_traj=50, seed=21)
    for res in run_trajectories(sched, one, noise):
        if res.jump_times:
            np.testing.assert_allclose(_marginal(res.final_state, 0),
                                       [1.0, 0.0, 0.0], atol=1e-12)


_GAINING_DRIFT = textwrap.dedent("""
    import sys
    from cavity_toffoli import trajectories as tr
    from cavity_toffoli.model import PhysicalParams
    from cavity_toffoli.protocol import encode_logical, toffoli_schedule

    compile_lossy = tr._compile

    def compile_gaining(schedule, noise, starts):
        compiled = compile_lossy(schedule, noise, starts)
        for ev in compiled.evolvers:
            if isinstance(ev, tr._DriftEvolver) and ev.lossy:
                w, v, vinv, exact = ev._eigen
                ev._eigen = w.conj(), v, vinv, exact    # decay rates become gain rates
        return compiled

    tr._compile = compile_gaining
    schedule = toffoli_schedule(PhysicalParams.from_frequency())
    psi0 = encode_logical((0, 0, 0), schedule.space)
    try:
        tr.mcwf_trajectory(schedule, psi0, tr.NoiseParams())
    except RuntimeError as exc:
        print(exc)
        sys.exit(0)
    sys.exit(1)
""")


def test_norm_growth_raises_under_optimize():
    """The norm-monotonicity check is a real error, kept under python -O."""
    src = str(Path(cavity_toffoli.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", _GAINING_DRIFT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "non-increasing" in proc.stdout


def test_mcwf_validates_input(schedule):
    noise = NoiseParams()
    with pytest.raises(ValueError):
        mcwf_trajectory(schedule, CompositeSpace((2, 3, 3)).basis_state([0, 0, 0]),
                        noise)


# ---------------------------------------------------------------- ensembles

@pytest.mark.parametrize("n_traj, epsilon",
                         [(1, 0.03), (1000, 0.03), (2500, 0.03), (1000, 0.0), (2500, 0.0)],
                         ids=["1", "1000", "2500", "1000-eps-0", "2500-eps-0"])
def test_trajectory_density_equals_ensemble_of_trajectories(schedule, n_traj, epsilon):
    """``validate``'s reducer is (1/N) sum |psi_k><psi_k| over the final states
    of ``run_trajectories``, summed as one outer product per ``_BLOCK_ROWS``
    stack of rows on the compiled basis and embedded once, bit for bit, also
    past the block boundary (2500 > 2048 rows) and at epsilon = 0, where rows
    share their states.  The rows are exactly 0 off that basis."""
    amps = sum(encode_logical(b, schedule.space).amplitudes for b in LOGICAL_BITS)
    psi0 = StateVector(schedule.space, amps / np.linalg.norm(amps))
    noise = NoiseParams(tau=0.5e-3, epsilon=epsilon, n_traj=n_traj, seed=4)
    rho = trajectories._trajectory_density(schedule, psi0, noise)
    rows = np.stack([res.final_state.amplitudes
                     for res in run_trajectories(schedule, psi0, noise)])
    support = trajectories._compile(schedule, noise, psi0.amplitudes[None]).support
    off = np.setdiff1d(np.arange(schedule.space.total_dim), support)
    assert off.size and np.all(rows[:, off] == 0.0)
    stacks = (rows[i:i + _BLOCK_ROWS, support] for i in range(0, n_traj, _BLOCK_ROWS))
    expected = np.zeros_like(rho.entries)
    expected[np.ix_(support, support)] = sum(b.T @ b.conj() for b in stacks) / n_traj
    assert np.array_equal(rho.entries, expected)


def test_ensemble_of_identical_trajectories_is_that_projector(schedule):
    """Without loss or jitter every trajectory is the ideal one."""
    noise = NoiseParams(tau=math.inf, epsilon=0.0, n_traj=3, seed=6)
    psi0 = encode_logical((1, 0, 1), schedule.space)
    rho = trajectories._trajectory_density(schedule, psi0, noise)
    amps = run_ideal(schedule, psi0).amplitudes
    np.testing.assert_allclose(rho.entries, np.outer(amps, amps.conj()),
                               atol=1e-14)


def test_trajectory_density_checks_its_start(schedule):
    """``validate``'s reducer rejects the starts ``run_trajectories`` rejects,
    with its errors: an unnormalized state of norm 2 (which would otherwise
    come back as a unit-trace density matrix) and a state of another space."""
    noise = NoiseParams(tau=1e-3, epsilon=0.0, n_traj=10, seed=1)
    doubled = StateVector(schedule.space, 2 * encode_logical((0, 0, 0), schedule.space)
                          .amplitudes, normalized=False)
    foreign = CompositeSpace((2, 3, 3)).basis_state([0, 0, 0])
    for psi0, message in ((doubled, "must be normalized"),
                          (foreign, "does not live on the schedule's space")):
        for reducer in (run_trajectories, trajectories._trajectory_density):
            with pytest.raises(ValueError, match=message):
                reducer(schedule, psi0, noise)


# ---------------------------------------------------------------- Lindblad

def test_lindblad_lossless_matches_unitary_conjugation(schedule):
    psi0 = encode_logical((1, 1, 0), schedule.space)
    rho = lindblad_evolve(schedule, DensityMatrix.from_state(psi0), math.inf)
    ideal = run_ideal(schedule, psi0).amplitudes
    np.testing.assert_allclose(rho.entries, np.outer(ideal, ideal.conj()),
                               atol=1e-8)


def test_lindblad_rejects_bad_tau_and_foreign_space(params, schedule):
    rho0 = DensityMatrix.from_state(encode_logical((0, 0, 0), schedule.space))
    for tau in (0.0, -1e-3, math.nan):
        with pytest.raises(ValueError):
            lindblad_evolve(schedule, rho0, tau)
    with pytest.raises(ValueError):
        lindblad_evolve(idle_schedule(params, 1e-4), rho0, 1e-3)


def test_lindblad_evolve_rejects_a_channel_off_unit_trace(schedule):
    """At tau = 1e-12 s the channel's arithmetic loses unit trace (by ~1e-8);
    ``_lindblad_stack`` raises, so ``lindblad_evolve`` returns no state."""
    rho0 = DensityMatrix.from_state(encode_logical((0, 0, 0), schedule.space))
    with pytest.raises(ValueError, match=r"tau = 1e-12 is .* off unit trace"):
        lindblad_evolve(schedule, rho0, 1e-12)


def _dense_liouvillian(h, a, kappa):
    """Row-major vectorization of d rho/dt = -i[H, rho] + kappa D[a] rho."""
    eye, n = np.eye(len(h)), a.conj().T @ a
    return (-1j * (np.kron(h, eye) - np.kron(eye, h.T))
            + kappa * (np.kron(a, a.conj()) - 0.5 * (np.kron(n, eye) + np.kron(eye, n.T))))


def _full_rank_rho(space, support=None):
    """A random density matrix on ``space`` of full rank on the basis states
    ``support`` (by default all): every pair of them nonzero, no other."""
    support = np.arange(space.total_dim) if support is None else support
    rng, r = np.random.default_rng(8), len(support)
    g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    rho = np.zeros((space.total_dim,) * 2, dtype=np.complex128)
    rho[np.ix_(support, support)] = g @ g.conj().T / np.trace(g @ g.conj().T)
    return rho


def _memo_blocks(memo, k, kappa):
    """(pair indices, G_H T + kappa G_loss T) of each block of segment k of
    a ``_liouvillian`` memo, at the call's kappa, as ``_lindblad_stack`` forms it."""
    _, stacks, steps = memo
    for idx, at in steps[k][1]:
        g_h, g_loss = (x[at] for x in stacks[idx.shape[1]])
        yield idx, g_h + kappa * g_loss


@pytest.mark.parametrize("fock_dim, tau, loss_scope",
                         [(3, 1e-3, "all_segments"), (3, math.inf, "all_segments"),
                          (4, 1e-3, "all_segments"), (3, 1e-3, "collision_only")],
                         ids=["tau-1ms", "lossless", "fock-4", "collision-only"])
def test_lindblad_blocks_match_dense_liouvillian(fock_dim, tau, loss_scope):
    """Each timed segment's memoized blocks partition the pair indices with
    no nonzero of the dense Liouvillian L between two blocks, and each
    G_H T + kappa G_loss T, at the call's kappa, is its block of L T at the
    segment's own kappa (0 where its loss is off), so its ``_expm`` is
    scipy's expm of that block; on a random full-rank rho,
    ``lindblad_evolve`` of the segment alone equals scipy's blockwise
    channel within 1e-12."""
    schedule = toffoli_schedule(PhysicalParams.from_frequency(fock_dim=fock_dim),
                                loss_scope=loss_scope)
    space = schedule.space
    dim = space.total_dim
    kappa = 0.0 if math.isinf(tau) else 1.0 / tau
    memo = trajectories._liouvillian(schedule, np.ones((dim, dim), dtype=bool).tobytes())
    a = embed_operator(space, [0], annihilation(space.subsystem_dims[0])).entries
    rho0 = DensityMatrix(space, _full_rank_rho(space))
    assert float(np.linalg.eigvalsh(rho0.entries).min()) > 1e-6   # full rank
    timed = [k for k, seg in enumerate(schedule.segments) if seg.kind != "classical_pulse"]
    assert [k for k, (_, blocks) in enumerate(memo[2]) if blocks] == timed
    for k in timed:
        seg = schedule.segments[k]
        liouv = _dense_liouvillian(segment_drift(schedule, seg).entries, a,
                                   kappa if seg.loss_active else 0.0)
        block_of = np.full(dim * dim, -1)
        first = 0
        vec0, exact = rho0.entries.reshape(-1), np.empty(dim * dim, dtype=complex)
        for idx, gen_t in _memo_blocks(memo, k, kappa):
            assert np.all(block_of[idx] == -1)
            block_of[idx] = first + np.arange(len(idx))[:, None]
            first += len(idx)
            dense = liouv[idx[:, :, None], idx[:, None, :]]
            gen = gen_t / seg.nominal_duration
            assert np.max(np.abs(gen - dense)) <= 1e-9 * max(1.0, np.max(np.abs(dense)))
            ref = scipy.linalg.expm(dense * seg.nominal_duration)
            props = trajectories._expm(gen_t)
            assert np.max(np.abs(props - ref)) <= 1e-12, (seg.kind, idx.shape)
            exact[idx] = (ref @ vec0[idx][..., None])[..., 0]
        assert np.all(block_of >= 0)
        rows, cols = np.nonzero(liouv)
        assert np.array_equal(block_of[rows], block_of[cols]), seg.kind

        one_segment = Schedule(space, (seg,), schedule.params)
        rho = lindblad_evolve(one_segment, rho0, tau).entries.reshape(-1)
        assert np.max(np.abs(rho - exact)) <= 1e-12, seg.kind


@pytest.mark.parametrize("fock_dim, loss_scope",
                         [(3, "all_segments"), (4, "all_segments"), (3, "collision_only")],
                         ids=["fock-3", "fock-4", "fock-3-collision-only"])
def test_liouvillian_block_exponentials_match_expm(fock_dim, loss_scope):
    """Over the default tau grid, tau = 2e-5 and tau = inf, ``_expm`` of every
    memoized G_H T + kappa G_loss T block of every timed segment equals
    scipy's expm of that block of the dense Liouvillian times T, at the
    segment's own kappa, within 1e-12; one memo serves every tau."""
    schedule = toffoli_schedule(PhysicalParams.from_frequency(fock_dim=fock_dim),
                                loss_scope=loss_scope)
    dim = schedule.space.total_dim
    a = embed_operator(schedule.space, [0], annihilation(fock_dim)).entries
    timed = {k: seg for k, seg in enumerate(schedule.segments)
             if seg.kind != "classical_pulse"}
    hamiltonian_part = {k: _dense_liouvillian(segment_drift(schedule, seg).entries, a, 0.0)
                        for k, seg in timed.items()}
    loss_part = _dense_liouvillian(np.zeros_like(a), a, 1.0)
    memo = trajectories._liouvillian(schedule, np.ones((dim, dim), dtype=bool).tobytes())
    for tau in (*DEFAULT_TAU_GRID, 2e-5, math.inf):
        for k, seg in timed.items():
            liouv = hamiltonian_part[k] + (1.0 / tau if seg.loss_active else 0.0) * loss_part
            for idx, gen_t in _memo_blocks(memo, k, 1.0 / tau):
                for rows, prop in zip(idx, trajectories._expm(gen_t)):
                    block = liouv[rows[:, None], rows[None, :]] * seg.nominal_duration
                    err = np.max(np.abs(prop - scipy.linalg.expm(block)))
                    assert err <= 1e-12, (tau, seg.kind, len(rows), err)


def _projectors(schedule):
    """``lindblad_gate_fidelity``'s inputs: the 8 logical projectors."""
    basis = _logical_basis(schedule)
    return basis[:, :, None] * basis.conj()[:, None, :]


def _oracle_memo(schedule, rho0s=None):
    """The ``_liouvillian`` memo of the pairs the inputs ``rho0s`` (m, dim, dim)
    hold nonzero, by default the 8 logical projectors, keyed as
    ``_lindblad_stack`` keys it."""
    rho0s = _projectors(schedule) if rho0s is None else rho0s
    return trajectories._liouvillian(schedule, (rho0s != 0).any(axis=0).tobytes())


def _every_pair(schedule, support):
    """A one-input stack nonzero on every pair of the basis states ``support``."""
    mask = np.zeros((1, schedule.space.total_dim, schedule.space.total_dim))
    mask[:, support[:, None], support] = 1.0
    return mask


def _applications(memo):
    """The number of block applications of a ``_liouvillian`` memo's steps."""
    return sum(len(idx) for _, blocks in memo[2] for idx, _ in blocks)


def test_lindblad_takes_one_expm_per_block_size(params, schedule, monkeypatch):
    """One ``lindblad_gate_fidelity`` call exponentiates every timed
    segment's kept blocks of one size together: of the 213 blocks of the
    13-state basis (102 distinct), the 8 logical projectors reach 41 (28
    distinct, in 7 sizes), so it takes 7 ``_expm`` calls, one per size, each
    stack holding each distinct kept block of that size once, every one of
    them used."""
    _, stacks, steps = _oracle_memo(schedule)
    count, used = collections.Counter(), collections.defaultdict(set)
    for idx, at in (block for _, blocks in steps for block in blocks):
        count[idx.shape[1]] += len(idx)
        used[idx.shape[1]].update(at.tolist())
    distinct = {size: len(g_h) for size, (g_h, _) in stacks.items()}
    assert (len(count), sum(count.values()), sum(distinct.values())) == (7, 41, 28)
    assert {size: sorted(at) for size, at in used.items()} == {
        size: list(range(n)) for size, n in distinct.items()}
    support = _oracle_memo(schedule)[0]
    unpruned = _oracle_memo(schedule, _every_pair(schedule, support))
    assert (len(support), _applications(unpruned),
            sum(len(g_h) for g_h, _ in unpruned[1].values())) == (13, 213, 102)
    expm, calls = trajectories._expm, []
    monkeypatch.setattr(trajectories, "_expm", lambda a: calls.append(a.shape) or expm(a))
    lindblad_gate_fidelity(params, 1e-3)
    assert sorted(calls) == sorted((n, size, size) for size, n in distinct.items())
    assert len(calls) == 7


def test_lindblad_stack_takes_every_tau_in_one_expm_per_block_size(params, schedule,
                                                                   monkeypatch):
    """Finite and infinite taus in one ``_lindblad_stack`` call take one
    ``_expm`` call per block size, holding 4x that size's blocks, and each
    tau's slice equals the one-tau ``lindblad_evolve`` bit for bit."""
    amps = _logical_basis(schedule).sum(axis=0)
    rho0 = DensityMatrix.from_state(StateVector(schedule.space, amps / np.linalg.norm(amps)))
    taus = (0.5e-3, 1e-3, math.inf, 5e-3)
    singles = [lindblad_evolve(schedule, rho0, tau).entries for tau in taus]
    expm, calls = trajectories._expm, []
    monkeypatch.setattr(trajectories, "_expm", lambda a: calls.append(a.shape) or expm(a))
    rhos = trajectories._lindblad_stack(schedule, rho0.entries[None], taus)
    _, stacks, _ = _oracle_memo(schedule, rho0.entries[None])
    assert sorted(calls) == sorted((4 * len(g_h), size, size)
                                   for size, (g_h, _) in stacks.items())
    assert rhos.shape == (4, 1, *rho0.entries.shape)
    for rho, single in zip(rhos[:, 0], singles):
        assert np.array_equal(rho, single)


def test_lindblad_partition_is_memoized_read_only(params, schedule, monkeypatch):
    """Oracle calls at 0.5, 1 and 5 ms and at inf build the kappa-free memo
    once: one miss, no ``_components`` call after the first, hits after it;
    every memoized array, the blocks' stack positions too, is read-only."""
    trajectories._liouvillian.cache_clear()
    first = lindblad_gate_fidelity(params, 0.5e-3)
    assert trajectories._liouvillian.cache_info().misses == 1
    components, calls = trajectories._components, []
    monkeypatch.setattr(trajectories, "_components",
                        lambda *args: calls.append(1) or components(*args))
    assert lindblad_gate_fidelity(params, 1e-3) != first
    assert lindblad_gate_fidelity(params, 5e-3) != first
    assert lindblad_gate_fidelity(params, math.inf) != first
    assert lindblad_gate_fidelity(params, 0.5e-3) == first
    assert calls == []
    info = trajectories._liouvillian.cache_info()
    assert (info.misses, info.hits) == (1, 4)
    support, stacks, steps = _oracle_memo(schedule)
    assert trajectories._liouvillian.cache_info().misses == 1
    arrays = [support, *(x for part in stacks.values() for x in part),
              *(pulse for pulse, _ in steps if pulse is not None),
              *(x for _, blocks in steps for block in blocks for x in block)]
    assert len(arrays) > 1 + 2 * len(stacks)
    for x in arrays:
        assert not x.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            x[(0,) * x.ndim] = x[(0,) * x.ndim]


_GATES = [(3, "all_segments"), (4, "all_segments"), (3, "collision_only")]
_GATE_IDS = ["fock-3", "fock-4", "fock-3-collision-only"]


@pytest.mark.parametrize("fock_dim, loss_scope", _GATES, ids=_GATE_IDS)
def test_liouvillian_stacks_hold_each_block_once(fock_dim, loss_scope):
    """In the memo of the logical projectors and of a full-rank rho, no two
    entries (G_H T, G_loss T) of one size's stack are byte-equal."""
    schedule = toffoli_schedule(PhysicalParams.from_frequency(fock_dim=fock_dim),
                                loss_scope=loss_scope)
    for rho0s in (_projectors(schedule), _full_rank_rho(schedule.space)[None]):
        _, stacks, _ = _oracle_memo(schedule, rho0s)
        for g_h, g_loss in stacks.values():
            keys = [h.tobytes() + l.tobytes() for h, l in zip(g_h, g_loss)]
            assert len(set(keys)) == len(keys)


def test_rabi_segments_share_stack_positions(params, schedule):
    """Without the adjoint decode the two Rabi segments are the same segment:
    their blocks have the same pair indices and the same stack positions, so
    the channel exponentiates them once.  Bytes, not values, decide: the
    default gate's decoding Rabi (-H) has one-pair blocks equal in value to
    the encoding one's but for a signed zero, and they keep their own.  A
    full-rank rho keeps every block of both segments."""
    plain = toffoli_schedule(params, decode_adjoint=False)
    assert plain.segments[0] == plain.segments[4]
    full_rank = _full_rank_rho(schedule.space)[None]
    steps = _oracle_memo(plain, full_rank)[2]
    assert len(steps[0][1]) == len(steps[4][1]) > 1
    for (idx, at), (idx_4, at_4) in zip(steps[0][1], steps[4][1]):
        assert np.array_equal(idx, idx_4) and np.array_equal(at, at_4)
    _, stacks, steps = _oracle_memo(schedule, full_rank)
    (idx, encode), (_, decode) = steps[0][1][0], steps[4][1][0]
    assert idx.shape[1] == 1 and not set(encode.tolist()) & set(decode.tolist())
    for x in stacks[1]:
        assert np.array_equal(x[encode], x[decode])


def _blockwise_channel(schedule, rho0s, taus):
    """The vectorized ``_lindblad_stack`` of ``rho0s`` at ``taus`` on its
    compiled basis, each segment block exponentiated alone (a one-matrix
    ``_expm`` call per block and tau)."""
    kappas = np.array([NoiseParams(tau=tau, epsilon=0.0).kappa for tau in taus])
    support, stacks, steps = _oracle_memo(schedule, rho0s)
    r = len(support)
    vecs = np.repeat(rho0s[:, support[:, None], support].reshape(1, len(rho0s), r * r),
                     len(kappas), axis=0)
    for pulse, blocks in steps:
        if pulse is not None:
            vecs = vecs[..., pulse]
        for idx, at in blocks:
            g_h, g_loss = (x[at] for x in stacks[idx.shape[1]])
            gens = g_h + np.multiply.outer(kappas, g_loss)
            exp = np.array([[trajectories._expm(gen[None])[0] for gen in per_tau]
                            for per_tau in gens])
            vecs[..., idx] = (exp[:, None] @ vecs[..., idx, None])[..., 0]
    return support, vecs


@pytest.mark.parametrize("fock_dim, loss_scope", _GATES, ids=_GATE_IDS)
def test_lindblad_stack_equals_blockwise_walk(fock_dim, loss_scope):
    """``_lindblad_stack`` of the 8 logical projectors at 0.5 ms, 1 ms and
    inf equals, byte for byte, the walk that exponentiates each segment
    block alone."""
    schedule = toffoli_schedule(PhysicalParams.from_frequency(fock_dim=fock_dim),
                                loss_scope=loss_scope)
    projectors = _projectors(schedule)
    taus = (0.5e-3, 1e-3, math.inf)
    rhos = trajectories._lindblad_stack(schedule, projectors, taus)
    support, vecs = _blockwise_channel(schedule, projectors, taus)
    assert np.array_equal(rhos[:, :, support[:, None], support].reshape(vecs.shape), vecs)


@pytest.mark.parametrize("fock_dim, loss_scope", _GATES, ids=_GATE_IDS)
def test_full_rank_input_keeps_every_block(fock_dim, loss_scope):
    """The channel exponentiates only the blocks that hold a pair some input
    may hold nonzero.  A rho of full rank on the inputs' compiled basis,
    appended to the stack, reaches every pair of it, so the stack takes the
    memo of every pair of that basis, every block kept; the other inputs'
    outputs, the 8 logical projectors or validate's equal superposition,
    stay ``np.array_equal`` at 0.2, 0.5, 1 and 5 ms and inf.  (On a larger
    basis the blocks are others, and the bits may differ.)"""
    schedule = toffoli_schedule(PhysicalParams.from_frequency(fock_dim=fock_dim),
                                loss_scope=loss_scope)
    taus = (0.2e-3, 0.5e-3, 1e-3, 5e-3, math.inf)
    amps = _logical_basis(schedule).sum(axis=0)
    superposition = DensityMatrix.from_state(
        StateVector(schedule.space, amps / np.linalg.norm(amps))).entries[None]
    for rho0s in (_projectors(schedule), superposition):
        pruned = _oracle_memo(schedule, rho0s)
        every_block = _oracle_memo(schedule, _every_pair(schedule, pruned[0]))
        both = np.concatenate((rho0s, _full_rank_rho(schedule.space, pruned[0])[None]))
        assert _oracle_memo(schedule, both) is every_block
        assert _applications(pruned) < _applications(every_block)
        alone = trajectories._lindblad_stack(schedule, rho0s, taus)
        together = trajectories._lindblad_stack(schedule, both, taus)
        assert np.array_equal(together[:, :-1], alone)


def test_lindblad_oracle_runs_no_eigendecomposition(params, schedule, monkeypatch):
    """The density-matrix path exponentiates its blocks by Pade alone: with
    ``numpy.linalg.eig`` raising, ``lindblad_gate_fidelity`` and
    ``lindblad_evolve`` give their usual values, while the trajectory
    engine, which diagonalizes K, fails."""
    rho0 = DensityMatrix.from_state(encode_logical((1, 1, 0), schedule.space))
    fidelity = lindblad_gate_fidelity(params, 1e-3)
    rho = lindblad_evolve(schedule, rho0, 1e-3).entries

    def no_eig(a):
        raise RuntimeError("numpy.linalg.eig called")

    monkeypatch.setattr(np.linalg, "eig", no_eig)
    assert lindblad_gate_fidelity(params, 1e-3) == fidelity
    assert np.array_equal(lindblad_evolve(schedule, rho0, 1e-3).entries, rho)
    with pytest.raises(RuntimeError, match="numpy.linalg.eig"):
        mcwf_trajectory(schedule, encode_logical((1, 1, 0), schedule.space),
                        NoiseParams(tau=1e-3))


def test_expm_matches_scipy_on_mixed_stack():
    """One ``_expm`` call over a stack mixing a block that needs no scaling,
    one that needs at least 3 squarings, a complex non-normal block and a
    Jordan block equals scipy's expm of each within 1e-13 relative."""
    rng = np.random.default_rng(11)
    lam = -0.5 + 2j
    stack = np.stack([
        0.3 * rng.standard_normal((4, 4)) + 0j,
        12.0 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))),
        np.triu(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) * 3.0,
        np.pad(0.7 * np.array([[lam, 1.0], [0.0, lam]]), ((0, 2), (0, 2))),
    ])
    norms = np.abs(stack).sum(axis=1).max(axis=1)
    assert norms[0] <= trajectories._PADE13_THETA
    assert norms[1] > 4 * trajectories._PADE13_THETA
    props = trajectories._expm(stack)
    for block, prop in zip(stack, props):
        exact = scipy.linalg.expm(block)
        assert np.max(np.abs(prop - exact)) <= 1e-13 * np.max(np.abs(exact))


def test_expm_of_a_stack_equals_one_matrix_calls(schedule):
    """``_expm`` treats each matrix of a stack on its own: over a stack that
    mixes blocks needing no scaling with ones needing several squarings, and
    over every block stack of the oracle's memo at 1 ms, each result equals
    the one-matrix call byte for byte.  Exponentiating a repeated block once
    rests on this."""
    rng = np.random.default_rng(29)
    mixed = np.concatenate([scale * (rng.standard_normal((3, 4, 4))
                                     + 1j * rng.standard_normal((3, 4, 4)))
                            for scale in (0.05, 1.0, 40.0)])[rng.permutation(9)]
    _, stacks, _ = _oracle_memo(schedule)
    for stack in (mixed, *(g_h + 1e3 * g_loss for g_h, g_loss in stacks.values())):
        together = trajectories._expm(stack)
        for matrix, exp in zip(stack, together):
            assert trajectories._expm(matrix[None])[0].tobytes() == exp.tobytes()


def test_runtime_does_not_import_scipy():
    """The trajectory estimate, the Lindblad oracle and `validate --quick`
    run without importing scipy, which is a test-only dependency."""
    code = textwrap.dedent("""
        import contextlib, io, sys
        import cavity_toffoli
        from cavity_toffoli import analysis, cli
        from cavity_toffoli.trajectories import NoiseParams
        params = cavity_toffoli.PhysicalParams.from_frequency()
        analysis.gate_fidelity(params, NoiseParams(tau=2e-4, n_traj=20, seed=1))
        analysis.lindblad_gate_fidelity(params, 1e-3)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["validate", "--quick"]) == 0
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    src = str(Path(cavity_toffoli.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_lindblad_idle_photon_decay_curve(params):
    """<n>(t) = e^{-t/tau} for the damped single-photon mode, within 1e-6."""
    tau = 1e-3
    for t_over_tau in (0.3, 1.0):
        sched = idle_schedule(params, t_over_tau * tau)
        rho0 = DensityMatrix.from_state(sched.space.basis_state([1]))
        rho = lindblad_evolve(sched, rho0, tau)
        n_mean = float(np.real(np.trace(np.diag([0, 1, 2]) @ rho.entries)))
        assert abs(n_mean - math.exp(-t_over_tau)) <= 1e-6


def test_lindblad_output_is_valid_density_matrix(schedule):
    psi0 = encode_logical((0, 0, 0), schedule.space)
    rho = lindblad_evolve(schedule, DensityMatrix.from_state(psi0), 1e-3)
    assert abs(np.trace(rho.entries) - 1.0) <= 1e-8
    assert float(np.linalg.eigvalsh(rho.entries).min()) >= -1e-8


def test_mcwf_ensemble_agrees_with_lindblad(schedule):
    """Trace distance between the trajectory average and the master equation."""
    psi0 = encode_logical((0, 0, 0), schedule.space)   # photon-carrying branch
    noise = NoiseParams(tau=1e-3, epsilon=0.0, n_traj=1500, seed=12)
    rho_mc = trajectories._trajectory_density(schedule, psi0, noise)
    rho_ref = lindblad_evolve(schedule, DensityMatrix.from_state(psi0), 1e-3)
    assert trace_distance(rho_mc, rho_ref) <= 0.03


def test_lindblad_respects_loss_scope(params):
    """With loss confined to the collision, the pulses act unitarily."""
    sched = toffoli_schedule(params, loss_scope="collision_only")
    psi0 = encode_logical((0, 0, 0), sched.space)
    rho = lindblad_evolve(sched, DensityMatrix.from_state(psi0), 1e-3)
    sched_all = toffoli_schedule(params)
    rho_all = lindblad_evolve(sched_all, DensityMatrix.from_state(psi0), 1e-3)
    # less exposure -> strictly more population left in the target state
    target = encode_logical((0, 0, 0), sched.space).amplitudes
    f_scoped = float(np.vdot(target, rho.entries @ target).real)
    f_all = float(np.vdot(target, rho_all.entries @ target).real)
    assert f_scoped > f_all


def test_zero_length_timed_segments_change_nothing(params, schedule):
    """A zero-length idle, Rabi and collision segment inserted into the gate
    evolve for zero time on every path: the process matrix and the exact
    channel of the 8 logical projectors at 1 and 5 ms stay within 1e-15 of
    the plain gate's, the compiled supports are the plain gate's, and
    gate_fidelity at (0.2 ms, 0), seed 31 and 500 trajectories per input,
    lies within 3 standard errors of the plain gate's exact channel."""
    segments = list(schedule.segments)
    segments.insert(3, Segment("collision", 0.0))
    segments.insert(1, Segment("resonant_rabi", 0.0, atom=1))
    segments.insert(0, Segment("idle", 0.0))
    padded = Schedule(schedule.space, tuple(segments), params)
    assert np.max(np.abs(logical_process_matrix(padded)
                         - logical_process_matrix(schedule))) <= 1e-15
    basis = _logical_basis(schedule)
    projectors = basis[:, :, None] * basis.conj()[:, None, :]
    rhos = [trajectories._lindblad_stack(gate, projectors, (1e-3, 5e-3))
            for gate in (padded, schedule)]
    assert rhos[0].shape == rhos[1].shape
    assert np.max(np.abs(rhos[0] - rhos[1])) <= 1e-15
    noise = NoiseParams(tau=0.2e-3, epsilon=0.0, n_traj=500, seed=31)
    groups = [trajectories._compiled_groups(gate, noise, basis) for gate in (padded, schedule)]
    assert [len(compiled.support) for _, compiled in groups[0]] == [13, 7]
    for (inputs, compiled), (plain_inputs, plain) in zip(*groups):
        np.testing.assert_array_equal(inputs, plain_inputs)
        np.testing.assert_array_equal(compiled.support, plain.support)
    result = gate_fidelity(padded, noise)
    assert abs(result.mean - lindblad_gate_fidelity(params, 0.2e-3)) <= 3 * result.std_error
