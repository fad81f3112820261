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
from cavity_toffoli.model import PhysicalParams, annihilation
from cavity_toffoli.protocol import (LOGICAL_BITS, Schedule, Segment,
                                     encode_logical, segment_drift,
                                     toffoli_schedule)
from cavity_toffoli.qmath import (CompositeSpace, DensityMatrix, StateVector,
                                  embed_operator, state_fidelity,
                                  trace_distance)
from cavity_toffoli.trajectories import (_BLOCK_ROWS, NoiseParams,
                                         ensemble_density, jitter_factors,
                                         lindblad_evolve, mcwf_trajectory,
                                         run_ideal, run_trajectories)

from test_protocol import _dense_ideal, _segment_unitary


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
    with pytest.raises(ValueError):
        NoiseParams(dt_max=2e-5, tau=1e-3)   # above tau/100
    NoiseParams(dt_max=1e-5, tau=1e-3)
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
        assert state_fidelity(res.final_state, ideal) >= 1 - 1e-8
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
    assert state_fidelity(res.final_state, psi) >= 1 - 1e-8
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

    Same draws, substep grid, bisection and jump rule as the engine, with
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
    dt_max = noise.effective_dt_max()
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
            n_sub = max(1, math.ceil(remaining / dt_max))
            times = (remaining / n_sub) * np.arange(1, n_sub + 1)
            crossing = next((j for j, t in enumerate(times)
                             if norm_sq(at(t)) < threshold), None)
            if crossing is None:
                psi = at(times[-1])
                break
            lo = 0.0 if crossing == 0 else times[crossing - 1]
            hi = times[crossing]
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


def test_expm_fallback_matches_eigenbasis(schedule, monkeypatch):
    """The dense expm path, taken when an eigendecomposition reconstructs
    poorly, gives the eigenbasis path's trajectories."""
    noise = NoiseParams(tau=2e-4, epsilon=0.05, n_traj=20, seed=3)
    psi0 = encode_logical((0, 0, 0), schedule.space)
    exact = run_trajectories(schedule, psi0, noise)
    compile_exact = trajectories._compile

    def compile_fallback(sched, noise_params):
        compiled = compile_exact(sched, noise_params)
        for ev in compiled.evolvers:
            if ev.lossy:
                ev._exact = False
        return compiled

    monkeypatch.setattr(trajectories, "_compile", compile_fallback)
    dense = run_trajectories(schedule, psi0, noise)
    assert sum(len(res.jump_times) for res in exact) >= 5
    for a, b in zip(exact, dense):
        np.testing.assert_allclose(a.jump_times, b.jump_times, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(a.final_state.amplitudes,
                                   b.final_state.amplitudes, atol=1e-12)


def test_block_partition_leaves_results_unchanged(schedule, monkeypatch):
    """1, 7 and 256 rows per block give byte-identical trajectories."""
    noise = NoiseParams(tau=2e-4, epsilon=0.05, n_traj=20, seed=3)
    psi0 = encode_logical((0, 0, 0), schedule.space)
    runs = []
    for block_rows in (1, 7, 256):
        monkeypatch.setattr(trajectories, "_BLOCK_ROWS", block_rows)
        runs.append(run_trajectories(schedule, psi0, noise))
    assert sum(len(res.jump_times) for res in runs[0]) >= 5
    for run in runs[1:]:
        for a, b in zip(runs[0], run):
            assert a.final_state.amplitudes.tobytes() == b.final_state.amplitudes.tobytes()
            assert a.jump_times == b.jump_times
            assert a.perturbed_durations == b.perturbed_durations


def test_jumped_state_ends_in_vacuum_sector(params):
    """After the only photon leaks out the cavity stays empty."""
    sched = idle_schedule(params, 5e-3)
    one = sched.space.basis_state([1])
    noise = NoiseParams(tau=5e-4, epsilon=0.0, n_traj=50, seed=21)
    for res in run_trajectories(sched, one, noise):
        if res.jump_times:
            np.testing.assert_allclose(res.final_state.subsystem_populations(0),
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
                ev._w = ev._w.conj()    # decay rates become gain rates
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
    assert abs(rho.purity() - 1.0) <= 1e-10
    amps = res[0].final_state.amplitudes
    np.testing.assert_allclose(rho.entries, np.outer(amps, amps.conj()),
                               atol=1e-14)


def test_ensemble_density_trace_and_validation(schedule):
    noise = NoiseParams(tau=1e-3, epsilon=0.0, n_traj=64, seed=8)
    psi0 = encode_logical((0, 0, 1), schedule.space)
    rho = ensemble_density(run_trajectories(schedule, psi0, noise))
    assert abs(np.trace(rho.entries) - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        ensemble_density([])


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


@pytest.mark.parametrize("fock_dim, tau", [(3, 1e-3), (3, math.inf), (4, 1e-3)],
                         ids=["tau-1ms", "lossless", "fock-4"])
def test_lindblad_blocks_match_dense_liouvillian(fock_dim, tau):
    """Each timed segment's blockwise channel equals scipy's expm of the
    dense Liouvillian on a random full-rank rho, within 1e-12, and its
    blocks partition the pair indices with no nonzero of L between two
    blocks."""
    schedule = toffoli_schedule(PhysicalParams.from_frequency(fock_dim=fock_dim))
    space = schedule.space
    dim = space.total_dim
    compiled = trajectories._compile(schedule, NoiseParams(tau=tau, epsilon=0.0))
    kappa = 0.0 if math.isinf(tau) else 1.0 / tau
    a = embed_operator(space, [0], annihilation(space.subsystem_dims[0])).entries
    n = a.conj().T @ a
    eye = np.eye(dim)
    rng = np.random.default_rng(8)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho0 = DensityMatrix(space, g @ g.conj().T / np.trace(g @ g.conj().T))
    assert float(np.linalg.eigvalsh(rho0.entries).min()) > 1e-6   # full rank
    for seg, ev in zip(schedule.segments, compiled.evolvers):
        if seg.kind == "classical_pulse":
            continue
        h = segment_drift(schedule, seg).entries
        liouv = (-1j * (np.kron(h, eye) - np.kron(eye, h.T))
                 + kappa * (np.kron(a, a.conj())
                            - 0.5 * (np.kron(n, eye) + np.kron(eye, n.T))))
        block_of = np.full(dim * dim, -1)
        first = 0
        for idx, _ in trajectories._liouvillian_blocks(ev, compiled.annihilator,
                                                       seg.nominal_duration):
            assert np.all(block_of[idx] == -1)
            block_of[idx] = first + np.arange(len(idx))[:, None]
            first += len(idx)
        assert np.all(block_of >= 0)
        rows, cols = np.nonzero(liouv)
        assert np.array_equal(block_of[rows], block_of[cols]), seg.kind

        one_segment = Schedule(space, (seg,), schedule.params)
        rho = lindblad_evolve(one_segment, rho0, tau).entries.reshape(-1)
        exact = scipy.linalg.expm(liouv * seg.nominal_duration) @ rho0.entries.reshape(-1)
        assert np.max(np.abs(rho - exact)) <= 1e-12, seg.kind


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
