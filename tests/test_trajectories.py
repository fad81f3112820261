"""Quantum-jump engine and Lindblad oracle."""

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

import cavity_toffoli
from cavity_toffoli import trajectories
from cavity_toffoli.analysis import (DEFAULT_TAU_GRID, gate_fidelity,
                                     lindblad_gate_fidelity)
from cavity_toffoli.model import PhysicalParams, annihilation
from cavity_toffoli.protocol import (LOGICAL_BITS, Schedule, Segment,
                                     encode_logical, segment_drift,
                                     toffoli_map, toffoli_schedule)
from cavity_toffoli.qmath import (CompositeSpace, DensityMatrix, StateVector,
                                  embed_operator, trace_distance)
from cavity_toffoli.trajectories import (_BLOCK_ROWS, NoiseParams,
                                         TrajectoryResult,
                                         ensemble_density, jitter_factors,
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
    with pytest.raises(ValueError):
        NoiseParams(n_traj=0)
    NoiseParams(tau=math.inf, epsilon=0.0)


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
    """A seed, trajectory, basis-input or cell index outside [0, 2^64) is a
    ValueError at every public entry point, not a wrapped stream (traj -1
    would be trajectory 2^64 - 1).  The largest index draws numpy's own
    Philox words at that counter."""
    psi0 = encode_logical((0, 0, 0), schedule.space)
    noise = NoiseParams(tau=1e-3, epsilon=0.03, n_traj=2, seed=5)
    for bad in (-1, 2 ** 64):
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

    def compile_dipping(sched, noise_params):
        compiled = compile_exact(sched, noise_params)
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
    """The dense expm path, taken when ``_eig`` finds K's eigenvectors ill
    conditioned, gives the eigenbasis path's trajectories."""
    noise = NoiseParams(tau=2e-4, epsilon=0.05, n_traj=20, seed=3)
    psi0 = encode_logical((0, 0, 0), schedule.space)
    exact = run_trajectories(schedule, psi0, noise)
    compile_exact = trajectories._compile

    def compile_fallback(sched, noise_params):
        compiled = compile_exact(sched, noise_params)
        for ev in compiled.evolvers:
            if ev.lossy:
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
    """Behind ``_eig``'s cond_1(V) guard, a nearly defective K (cond ~ 1e8)
    evolves its rows through one batched ``_expm``, each for its own time,
    and matches scipy's expm."""
    h = np.array([[0.0, 1.0], [0.0, 0.0]])   # with the loss, K is nearly a Jordan block
    ev = trajectories._DriftEvolver(h, 1e-8, np.diag([0.0, 1.0]))
    assert not ev._eigen[3]
    rows = np.array([[1.0, 0.0], [0.3, 0.8j]], dtype=complex)
    times = np.array([0.4, 1.3])
    out = ev.evolve(ev.coefficients(rows), times)
    for row, t, got in zip(rows, times, out):
        expected = scipy.linalg.expm(-1j * ev.k * t) @ row
        assert np.max(np.abs(got - expected)) <= 1e-14


def test_gate_drift_generators_stay_on_eigenbasis_path():
    """Every lossy segment's K, at 3 to 5 Fock levels, under both loss scopes,
    over the default tau grid and tau = 2e-5, 1e-5 and 1e-6, has cond_1(V)
    below 10, far under the guard, so no trajectory takes the expm path."""
    for fock_dim in (3, 4, 5):
        params = PhysicalParams.from_frequency(fock_dim=fock_dim)
        for scope in ("all_segments", "collision_only"):
            schedule = toffoli_schedule(params, loss_scope=scope)
            for tau in DEFAULT_TAU_GRID + (2e-5, 1e-5, 1e-6):
                compiled = trajectories._compile(schedule, NoiseParams(tau=tau, epsilon=0.0))
                for ev in compiled.evolvers:
                    if ev.lossy:
                        _, v, _, exact = ev._eigen
                        assert exact, (fock_dim, scope, tau)
                        assert np.linalg.cond(v, 1) < 10.0, (fock_dim, scope, tau)


def test_block_partition_leaves_results_unchanged(schedule, monkeypatch):
    """1, 7, 256 and the default rows per block give byte-identical
    trajectories."""
    noise = NoiseParams(tau=2e-4, epsilon=0.05, n_traj=20, seed=3)
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
    """gate_fidelity runs its 8 inputs as one input-major row set: 1, 7, 256
    and the default rows per block give byte-identical mean and standard
    error, with 256-row blocks ending inside an input.  Row (b, k) draws its
    jitter from numpy's Philox(counter=[0, k, b, cell]) and starts from input
    b, so each input's rows are its own ``run_trajectories``."""
    noise = NoiseParams(tau=2e-4, epsilon=0.05, n_traj=40, seed=3)
    real_run_block, blocks = trajectories._run_block, []

    def recording_run_block(*args):
        blocks.append(real_run_block(*args))
        return blocks[-1]

    monkeypatch.setattr(trajectories, "_run_block", recording_run_block)
    results = []
    for block_rows in (1, 7, 256, _BLOCK_ROWS):
        blocks.clear()
        monkeypatch.setattr(trajectories, "_BLOCK_ROWS", block_rows)
        res = gate_fidelity(params, noise, cell_index=4)
        results.append((res.mean.hex(), res.std_error.hex()))
    assert 256 % noise.n_traj != 0 and len(LOGICAL_BITS) * noise.n_traj > 256
    assert results[1:] == results[:1] * 3
    assert sum(len(t) for block in blocks for t in block.jump_times) >= 20
    inputs = np.concatenate([block.inputs for block in blocks])
    durations = np.concatenate([block.durations for block in blocks])
    n_seg = len(schedule.segments)
    nominal = np.array([seg.nominal_duration for seg in schedule.segments])
    for row, (b, k) in enumerate(np.ndindex(len(LOGICAL_BITS), noise.n_traj)):
        words = np.random.Philox(key=3, counter=[0, k, b, 4]).random_raw(n_seg)
        factors = jitter_factors(schedule, 0.05, trajectories._uniforms(words)[None])
        assert inputs[row] == b
        np.testing.assert_array_equal(durations[row], nominal * factors[0])
    per_input = []
    for b, bits in enumerate(LOGICAL_BITS):
        target = encode_logical(toffoli_map(bits), schedule.space).amplitudes
        runs = run_trajectories(schedule, encode_logical(bits, schedule.space), noise,
                                basis_input=b, cell=4)
        per_input += [abs(np.vdot(target, r.final_state.amplitudes)) ** 2 for r in runs]
    assert float.fromhex(results[0][0]) == pytest.approx(np.mean(per_input), abs=1e-14)


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

    def compile_gaining(schedule, noise):
        compiled = compile_lossy(schedule, noise)
        for ev in compiled.evolvers:
            if ev.lossy:
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

def test_ensemble_density_single_trajectory_is_projector(schedule):
    noise = NoiseParams(tau=math.inf, epsilon=0.0, n_traj=1, seed=6)
    psi0 = encode_logical((0, 0, 0), schedule.space)
    res = run_trajectories(schedule, psi0, noise)
    rho = ensemble_density(res)
    assert abs(np.trace(rho.entries @ rho.entries) - 1.0) <= 1e-10
    amps = res[0].final_state.amplitudes
    np.testing.assert_allclose(rho.entries, np.outer(amps, amps.conj()),
                               atol=1e-14)


def test_ensemble_density_trace_and_validation(schedule, monkeypatch):
    noise = NoiseParams(tau=1e-3, epsilon=0.0, n_traj=64, seed=8)
    psi0 = encode_logical((0, 0, 1), schedule.space)
    results = run_trajectories(schedule, psi0, noise)
    monkeypatch.setattr(trajectories, "_BLOCK_ROWS", 10)   # 6 full stacks and a partial one
    rho = ensemble_density(results)
    assert abs(np.trace(rho.entries) - 1.0) <= 1e-12
    loop = sum(np.outer(r.final_state.amplitudes, r.final_state.amplitudes.conj())
               for r in results) / len(results)
    assert np.max(np.abs(rho.entries - loop)) <= len(results) * np.finfo(float).eps
    with pytest.raises(ValueError):
        ensemble_density([])
    foreign = TrajectoryResult(CompositeSpace((2,)).basis_state([0]), (), ())
    with pytest.raises(ValueError):
        ensemble_density([*results, foreign])


def test_ensemble_of_identical_trajectories_is_that_projector(schedule):
    noise = NoiseParams(tau=math.inf, epsilon=0.0, n_traj=1, seed=6)
    psi0 = encode_logical((1, 0, 1), schedule.space)
    res = run_trajectories(schedule, psi0, noise)[0]
    rho = ensemble_density([res, res, res])
    amps = res.final_state.amplitudes
    np.testing.assert_allclose(rho.entries, np.outer(amps, amps.conj()),
                               atol=1e-14)


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


def _dense_liouvillian(h, a, kappa):
    """Row-major vectorization of d rho/dt = -i[H, rho] + kappa D[a] rho."""
    eye, n = np.eye(len(h)), a.conj().T @ a
    return (-1j * (np.kron(h, eye) - np.kron(eye, h.T))
            + kappa * (np.kron(a, a.conj()) - 0.5 * (np.kron(n, eye) + np.kron(eye, n.T))))


@pytest.mark.parametrize("fock_dim, tau", [(3, 1e-3), (3, math.inf), (4, 1e-3)],
                         ids=["tau-1ms", "lossless", "fock-4"])
def test_lindblad_blocks_match_dense_liouvillian(fock_dim, tau):
    """Each timed segment's blocks partition the pair indices with no
    nonzero of the dense Liouvillian L between two blocks, so exp(L T) is
    scipy's expm of each block of L; the blockwise channel equals it on a
    random full-rank rho within 1e-12."""
    schedule = toffoli_schedule(PhysicalParams.from_frequency(fock_dim=fock_dim))
    space = schedule.space
    dim = space.total_dim
    compiled = trajectories._compile(schedule, NoiseParams(tau=tau, epsilon=0.0))
    kappa = 0.0 if math.isinf(tau) else 1.0 / tau
    a = embed_operator(space, [0], annihilation(space.subsystem_dims[0])).entries
    rng = np.random.default_rng(8)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho0 = DensityMatrix(space, g @ g.conj().T / np.trace(g @ g.conj().T))
    assert float(np.linalg.eigvalsh(rho0.entries).min()) > 1e-6   # full rank
    for seg, ev in zip(schedule.segments, compiled.evolvers):
        if seg.kind == "classical_pulse":
            continue
        liouv = _dense_liouvillian(segment_drift(schedule, seg).entries, a, kappa)
        block_of = np.full(dim * dim, -1)
        first = 0
        vec0, exact = rho0.entries.reshape(-1), np.empty(dim * dim, dtype=complex)
        for idx, _ in trajectories._liouvillian_blocks(ev, compiled.annihilator,
                                                       seg.nominal_duration):
            assert np.all(block_of[idx] == -1)
            block_of[idx] = first + np.arange(len(idx))[:, None]
            first += len(idx)
            blocks = scipy.linalg.expm(liouv[idx[:, :, None], idx[:, None, :]]
                                       * seg.nominal_duration)
            exact[idx] = (blocks @ vec0[idx][..., None])[..., 0]
        assert np.all(block_of >= 0)
        rows, cols = np.nonzero(liouv)
        assert np.array_equal(block_of[rows], block_of[cols]), seg.kind

        one_segment = Schedule(space, (seg,), schedule.params)
        rho = lindblad_evolve(one_segment, rho0, tau).entries.reshape(-1)
        assert np.max(np.abs(rho - exact)) <= 1e-12, seg.kind


@pytest.mark.parametrize("fock_dim", [3, 4], ids=["fock-3", "fock-4"])
def test_liouvillian_block_exponentials_match_expm(fock_dim):
    """Over the default tau grid and tau = 2e-5, every exp(L T) block of every
    timed segment's channel equals scipy's expm of that block of the dense
    Liouvillian within 1e-12."""
    schedule = toffoli_schedule(PhysicalParams.from_frequency(fock_dim=fock_dim))
    a = embed_operator(schedule.space, [0], annihilation(fock_dim)).entries
    timed = [(k, seg) for k, seg in enumerate(schedule.segments)
             if seg.kind != "classical_pulse" and seg.nominal_duration > 0.0]
    hamiltonian_part = {k: _dense_liouvillian(segment_drift(schedule, seg).entries, a, 0.0)
                        for k, seg in timed}
    loss_part = _dense_liouvillian(np.zeros_like(a), a, 1.0)
    for tau in (*DEFAULT_TAU_GRID, 2e-5):
        compiled = trajectories._compile(schedule, NoiseParams(tau=tau, epsilon=0.0))
        for k, seg in timed:
            ev = compiled.evolvers[k]
            liouv = hamiltonian_part[k] + ev.kappa * loss_part
            for idx, props in trajectories._liouvillian_blocks(ev, compiled.annihilator,
                                                               seg.nominal_duration):
                for rows, prop in zip(idx, props):
                    block = liouv[rows[:, None], rows[None, :]] * seg.nominal_duration
                    err = np.max(np.abs(prop - scipy.linalg.expm(block)))
                    assert err <= 1e-12, (tau, seg.kind, len(rows), err)


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
    rho_mc = ensemble_density(run_trajectories(schedule, psi0, noise))
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
