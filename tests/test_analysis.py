"""Fidelity estimation, sweeps, dispersive validation."""

import math

import numpy as np
import pytest

from cavity_toffoli import analysis, trajectories
from cavity_toffoli.analysis import (DEFAULT_EPSILON_GRID, DEFAULT_TAU_GRID,
                                     FidelityGrid, FidelityResult, _logical_basis,
                                     dispersive_validation, gate_fidelity,
                                     lindblad_gate_fidelity, sweep)
from cavity_toffoli.model import PhysicalParams
from cavity_toffoli.protocol import LOGICAL_BITS, toffoli_schedule
from cavity_toffoli.trajectories import NoiseParams

# Sampling-free Lindblad reference for the epsilon = 0 column, frozen from
# the former RK4 integration (phase step 5e-3 rad); the exact blockwise
# channel reproduces each value to 5e-13.  The tolerance is the original.
LINDBLAD_EPS0 = {
    0.5e-3: 0.9194737156338737,
    1.0e-3: 0.9563312652059228,
    5.0e-3: 0.9906606235969584,
}

# Frozen first-run overlaps of the dispersive collision against the full
# detuned model (deterministic eigendecompositions).
DISPERSIVE_MIN_OVERLAP = {
    4.0: 0.9176532387555264,
    8.0: 0.9938522401532851,
    16.0: 0.9996003297952896,
    50.0: 0.9999957614815771,
}


# ---------------------------------------------------------------- results

def test_fidelity_result_validation():
    with pytest.raises(ValueError):
        FidelityResult(mean=1.2, std_error=0.0, n_traj=10, tau=1e-3, epsilon=0.0)
    with pytest.raises(ValueError):
        FidelityResult(mean=0.5, std_error=0.4, n_traj=100, tau=1e-3, epsilon=0.0)
    r = FidelityResult(mean=0.5, std_error=0.01, n_traj=100, tau=math.inf,
                       epsilon=0.0)
    assert r.to_jsonable()["tau"] == "inf"


def test_grid_shape_validation():
    cell = FidelityResult(mean=1.0, std_error=0.0, n_traj=1, tau=1e-3, epsilon=0.0)
    with pytest.raises(ValueError):
        FidelityGrid((1e-3,), (0.0, 0.01), ((cell,),))


# ---------------------------------------------------------------- gate fidelity

def test_ideal_limit(params):
    noise = NoiseParams(tau=math.inf, epsilon=0.0, n_traj=3, seed=1)
    res = gate_fidelity(params, noise)
    assert res.mean >= 1 - 1e-8
    assert res.n_traj == 3 and res.epsilon == 0.0


def test_fidelity_deterministic_for_fixed_seed(params):
    noise = NoiseParams(tau=1e-3, epsilon=0.03, n_traj=40, seed=9)
    a = gate_fidelity(params, noise)
    b = gate_fidelity(params, noise)
    assert a.mean == b.mean and a.std_error == b.std_error


@pytest.mark.parametrize("tau", sorted(LINDBLAD_EPS0))
def test_trajectory_estimate_pinned_to_lindblad_reference(params, tau):
    """epsilon = 0 stochastic estimate vs the frozen deterministic value,
    for every lifetime in the smoke grid."""
    noise = NoiseParams(tau=tau, epsilon=0.0, n_traj=600, seed=42)
    res = gate_fidelity(params, noise)
    assert abs(res.mean - LINDBLAD_EPS0[tau]) <= 3 * res.std_error


def test_loss_dominated_estimate_pinned_to_lindblad(params):
    """At tau = 0.2 ms, where jumps are most frequent, the epsilon = 0
    estimate lies within 3 SE of the exact channel (0.83948)."""
    exact = lindblad_gate_fidelity(params, 0.2e-3)
    assert exact == pytest.approx(0.83948, abs=1e-5)
    noise = NoiseParams(tau=0.2e-3, epsilon=0.0, n_traj=2000, seed=42)
    res = gate_fidelity(params, noise)
    assert abs(res.mean - exact) <= 3 * res.std_error


@pytest.mark.parametrize("tau", sorted(LINDBLAD_EPS0))
def test_lindblad_reference_regression(params, tau):
    assert lindblad_gate_fidelity(params, tau) == pytest.approx(
        LINDBLAD_EPS0[tau], abs=1e-6)


def _exact_per_input(params):
    """Per input of the exact channel at (1 ms, epsilon = 0): the fidelity and
    the leakage 1 - sum_b' <L_b'| rho |L_b'> out of the logical span."""
    schedule = toffoli_schedule(params)
    basis = _logical_basis(schedule)
    rhos = trajectories._lindblad_stack(
        schedule, basis[:, :, None] * basis.conj()[:, None, :], (1e-3,))[0]
    fids = [float(np.vdot(target, rho @ target).real)
            for target, rho in zip(basis[analysis._IMAGES], rhos)]
    leaks = [1.0 - sum(float(np.vdot(logical, rho @ logical).real) for logical in basis)
             for rho in rhos]
    return fids, leaks


def test_exact_per_input_fidelities_match_the_readme(params):
    """The README's loss story at (1 ms, epsilon = 0), per input of the exact
    channel: the inputs with c1 = c2 = 0 keep about e^-0.18 = 0.835, those
    with c1 = 0, c2 = 1 keep 0.990, and the c1 = 1 inputs, which carry no
    photon, keep 1 within 1e-12.  Their mean, summed in the same order, is
    ``lindblad_gate_fidelity`` bit for bit.  Only inputs 2 and 3 leak out of
    the logical span, by 4.6e-6: a photon lost from inputs 0 and 1 turns
    |1_c> into |0_c>, the c1 = 1 encoding.  Four Fock levels give every
    fidelity and leakage within 1e-12."""
    fids, leaks = _exact_per_input(params)
    assert [bits[:2] for bits in LOGICAL_BITS[:4]] == [(0, 0), (0, 0), (0, 1), (0, 1)]
    assert all(bits[0] == 1 for bits in LOGICAL_BITS[4:])
    assert [round(f, 3) for f in fids[:4]] == [round(math.exp(-0.18), 3)] * 2 + [0.990] * 2
    assert max(abs(f - 1.0) for f in fids[4:]) <= 1e-12
    assert sum(fids) / len(LOGICAL_BITS) == lindblad_gate_fidelity(params, 1e-3)
    assert max(abs(leak) for leak in (*leaks[:2], *leaks[4:])) <= 1e-12
    assert leaks[2:4] == pytest.approx([4.645811257919519e-6] * 2, abs=1e-12)
    fids_4, leaks_4 = _exact_per_input(PhysicalParams.from_frequency(fock_dim=4))
    assert np.max(np.abs(np.subtract(fids_4, fids))) <= 1e-12
    assert np.max(np.abs(np.subtract(leaks_4, leaks))) <= 1e-12


def test_lossless_oracle_fidelity_is_one(params):
    """At tau = inf the exact channel is the ideal gate: fidelity 1."""
    assert lindblad_gate_fidelity(params, math.inf) == pytest.approx(1.0, abs=1e-12)


def test_entry_points_answer_for_the_gate_they_are_given(params):
    """``lindblad_gate_fidelity``, ``gate_fidelity`` and ``sweep`` given a
    60 kHz ``Schedule`` answer for that gate, not the 50 kHz default: at 1 ms
    the oracle reads 0.96310, not 0.95633.  Each result is ``==`` to the one
    from the schedule's ``PhysicalParams``."""
    other = PhysicalParams.from_frequency(omega_hz=60e3)
    schedule, noise = toffoli_schedule(other), NoiseParams(tau=1e-3, n_traj=20, seed=1)
    own = lindblad_gate_fidelity(schedule, 1e-3)
    assert own == lindblad_gate_fidelity(other, 1e-3) == pytest.approx(0.96310, abs=1e-5)
    assert lindblad_gate_fidelity(params, 1e-3) == pytest.approx(0.95633, abs=1e-5)
    for call in (lambda gate: gate_fidelity(gate, noise),
                 lambda gate: sweep(gate, (1e-3,), (0.0, 0.03), 20, 1)):
        result = call(schedule)
        assert result == call(other) and result != call(params)


def test_oracle_rejects_a_channel_off_unit_trace(params):
    """At tau = 1e-20 s the exact channel loses unit trace (0.1349 was read
    as a fidelity); the oracle raises instead of reporting a number."""
    with pytest.raises(ValueError, match="off unit trace"):
        lindblad_gate_fidelity(params, 1e-20)


def test_repeated_oracle_call_encodes_nothing(params, monkeypatch):
    """The 8 encoded kets are memoized per schedule: a repeated
    ``lindblad_gate_fidelity`` call, on a schedule rebuilt equal, makes no
    ``encode_logical`` call and gives the same number; the basis is read-only."""
    first = lindblad_gate_fidelity(params, 1e-3)
    encode, calls = analysis.encode_logical, []
    monkeypatch.setattr(analysis, "encode_logical",
                        lambda *args: calls.append(args) or encode(*args))
    assert lindblad_gate_fidelity(params, 1e-3) == first
    assert calls == []
    basis = _logical_basis(toffoli_schedule(params))
    assert not basis.flags.writeable
    with pytest.raises(ValueError):
        basis[0, 0] = 0.0


def test_fock_dim_4_reproduces_the_anchor(params):
    """fock_dim = 3 is exact: H and R_ig conserve N = n + [control in e] +
    [target in e], a lowers it and the inputs have N <= 2, so the level
    n = 3 is never reached.  A fourth level gives the anchor bit for bit
    and the 1 ms oracle within 1e-14."""
    noise = NoiseParams(tau=1e-3, epsilon=0.03, n_traj=2000, seed=42)
    four = PhysicalParams.from_frequency(fock_dim=4)
    anchor, anchor_4 = gate_fidelity(params, noise), gate_fidelity(four, noise)
    assert (anchor_4.mean, anchor_4.std_error) == (anchor.mean, anchor.std_error)
    assert anchor.mean == pytest.approx(0.9440827276252367, abs=1e-12)
    assert anchor.std_error == pytest.approx(0.0015836002602116882, abs=1e-12)
    oracle, oracle_4 = (lindblad_gate_fidelity(p, 1e-3) for p in (params, four))
    assert abs(oracle_4 - oracle) <= 1e-14


# Cells evolved on the full fock_dim x 3 x 3 space, before the engine moved
# to the 13 states the logical inputs reach: ((tau, epsilon, n_traj, seed,
# cell index, fock_dim), (mean, standard error, jumps)).  Products on the
# smaller basis round differently, so the values may move in their last bits.
FULL_SPACE_CELLS = [
    ((1e-3, 0.03, 2000, 42, 0, 3), (0.9440827276252367, 0.0015836002602116882, 683)),
    ((0.2e-3, 0.08, 2000, 42, 0, 3), (0.7724047002532338, 0.0027768330191304193, 2625)),
    ((0.5e-3, 0.05, 500, 7, 3, 4), (0.8901228945662745, 0.004118987928466129, 306)),
]
#: sweep(SURFACE_TAUS, (0, 0.08), 250/input, seed 3) on the full space, tau-major
SURFACE_TAUS = (0.2e-3, 0.5e-3, 1e-3, 5e-3, 10e-3)
FULL_SPACE_SURFACE = [
    (0.8394780534116927, 0.008209753551131177, 321),
    (0.7660150762631833, 0.007989123877082728, 341),
    (0.9214957204440016, 0.00601553259482065, 157),
    (0.8276055830822595, 0.006459924169603725, 198),
    (0.9554988503467889, 0.004611990792705966, 89),
    (0.8786015480355369, 0.004546029105802526, 79),
    (0.9954999503362042, 0.001496995415541983, 9),
    (0.9008909944970396, 0.0031790906297013144, 21),
    (0.9954999874604712, 0.0014969954713668985, 9),
    (0.9079913772928588, 0.002770337500127274, 11),
]


@pytest.fixture
def jumps_per_cell(monkeypatch):
    """Jumps of every cell run while the fixture is live, by cell index: each
    block's jumps (its events' rows) counted per row cell."""
    counts, run_block = {}, trajectories._run_block

    def counting_run_block(compiled, starts, opened, owner, noise, trajs, inputs, cells,
                           epsilons):
        block = run_block(compiled, starts, opened, owner, noise, trajs, inputs, cells,
                          epsilons)
        for rows, _ in block.events:
            for cell, jumps in zip(*np.unique(cells[rows], return_counts=True)):
                counts[int(cell)] = counts.get(int(cell), 0) + int(jumps)
        return block

    monkeypatch.setattr(trajectories, "_run_block", counting_run_block)
    return counts


def test_subspace_engine_reproduces_full_space_cells(jumps_per_cell):
    """The anchor, the loss-dominated cell, a lossy fock_dim = 4 cell and the
    benchmark's 5 x 2 surface agree with the full-space engine within 1e-12,
    with the same number of jumps in every cell."""
    for (tau, eps, n_traj, seed, cell, fock_dim), (mean, se, jumps) in FULL_SPACE_CELLS:
        jumps_per_cell.clear()
        res = gate_fidelity(PhysicalParams.from_frequency(fock_dim=fock_dim),
                            NoiseParams(tau=tau, epsilon=eps, n_traj=n_traj, seed=seed),
                            cell_index=cell)
        assert abs(res.mean - mean) <= 1e-12 and abs(res.std_error - se) <= 1e-12
        assert jumps_per_cell == {cell: jumps}, (tau, eps, fock_dim)
    jumps_per_cell.clear()
    grid = sweep(PhysicalParams.from_frequency(), SURFACE_TAUS, (0.0, 0.08), 250, 3)
    cells = [cell for row in grid.cells for cell in row]
    for k, (res, (mean, se, jumps)) in enumerate(zip(cells, FULL_SPACE_SURFACE)):
        assert abs(res.mean - mean) <= 1e-12 and abs(res.std_error - se) <= 1e-12
        assert jumps_per_cell[k] == jumps, (res.tau, res.epsilon)


# ---------------------------------------------------------------- sweep

def test_single_cell_sweep_equals_direct_call(params):
    """Sweep cell (i, j) equals ``gate_fidelity`` at cell index i*len(eps)+j
    bit for bit: on a 1x1 grid, and on a 2 x 3 grid at 200 per input whose
    row sets (3 cells x 4 inputs x 200 = 2400 rows) straddle a block."""
    for taus, epsilons, n_traj in (((1e-3,), (0.02,), 30),
                                   ((0.5e-3, 2e-3), (0.0, 0.02, 0.05), 200)):
        grid = sweep(params, taus, epsilons, n_traj=n_traj, seed=17)
        for i, tau in enumerate(taus):
            for j, eps in enumerate(epsilons):
                direct = gate_fidelity(params, NoiseParams(tau=tau, epsilon=eps,
                                                           n_traj=n_traj, seed=17),
                                       cell_index=i * len(epsilons) + j)
                cell = grid.cells[i][j]
                assert cell.mean == direct.mean, (tau, eps)
                assert cell.std_error == direct.std_error, (tau, eps)
    assert len(epsilons) * 4 * n_traj > trajectories._BLOCK_ROWS


def test_sweep_deterministic_and_tau_major(params):
    taus, epss = (5e-4, 1e-3), (0.0, 0.05)
    g1 = sweep(params, taus, epss, n_traj=25, seed=3)
    g2 = sweep(params, taus, epss, n_traj=25, seed=3)
    assert g1.to_csv() == g2.to_csv()
    lines = g1.to_csv().strip().split("\n")
    assert lines[0] == "tau_s,epsilon,mean_fidelity,std_error,n_traj"
    assert len(lines) == 1 + 4
    assert lines[1].startswith("0.0005,0.0,")
    assert lines[2].startswith("0.0005,0.05,")
    assert lines[3].startswith("0.001,0.0,")


@pytest.mark.parametrize("fock_dim", [3, 4])
def test_inputs_run_on_the_basis_they_reach(fock_dim):
    """Inputs 0-3 (one photon) reach 13 basis states and inputs 4-7 (none)
    reach 7, at any cavity truncation; each group compiles to the basis of
    each of its inputs alone."""
    schedule = toffoli_schedule(PhysicalParams.from_frequency(fock_dim=fock_dim))
    basis, noise = _logical_basis(schedule), NoiseParams()
    groups = trajectories._compiled_groups(schedule, noise, basis)
    assert [group.tolist() for group, _ in groups] == [[0, 1, 2, 3], [4, 5, 6, 7]]
    for (group, compiled), size in zip(groups, (13, 7)):
        support = trajectories._compile(schedule, noise, basis[group]).support
        assert len(support) == size
        np.testing.assert_array_equal(compiled.support, support)
        for b in group:
            np.testing.assert_array_equal(
                trajectories._compile(schedule, noise, basis[b:b + 1]).support, support)


def test_sweep_compiles_once_per_tau_and_group(params, monkeypatch):
    """A 3 x 2 sweep compiles each (tau, input group) once, 6 calls, and
    builds one structure per input support (4), the ones its groups
    compile from: a second sweep builds none."""
    compile_, calls = trajectories._compile, []
    monkeypatch.setattr(trajectories, "_compile",
                        lambda *args: calls.append(args[1].tau) or compile_(*args))
    trajectories._structure.cache_clear()
    taus = (5e-4, 1e-3, 5e-3)
    sweep(params, taus, (0.0, 0.05), n_traj=5, seed=1)
    assert calls == [tau for tau in taus for _ in range(2)]
    info = trajectories._structure.cache_info()
    assert info.misses == info.currsize == 4
    sweep(params, taus, (0.0, 0.05), n_traj=5, seed=1)
    assert trajectories._structure.cache_info().misses == 4


def test_sweep_rejects_empty_grid(params):
    with pytest.raises(ValueError):
        sweep(params, (), (0.0,), n_traj=5, seed=1)


def test_sweep_checks_every_cell_before_any_runs(params, monkeypatch):
    """A bad epsilon or tau last in its grid raises before any cell runs."""
    calls = []
    monkeypatch.setattr(analysis, "_cell_fidelity", lambda *args: calls.append(args))
    for taus, epsilons in (((1e-3, 2e-3), (0.0, 0.03, 1.5)), ((1e-3, 2e-3, -1.0), (0.0,))):
        with pytest.raises(ValueError):
            sweep(params, taus, epsilons, 5, 0)
    assert calls == []


def test_default_grids():
    assert len(DEFAULT_TAU_GRID) == 8
    assert len(DEFAULT_EPSILON_GRID) == 9
    assert DEFAULT_TAU_GRID[0] == pytest.approx(2e-4)
    assert DEFAULT_TAU_GRID[-1] == pytest.approx(1e-2)
    assert DEFAULT_EPSILON_GRID == tuple(0.01 * k for k in range(9))


# ---------------------------------------------------------------- dispersive

def test_dispersive_overlap_regression(params):
    reports = dispersive_validation(params)
    for rep in reports:
        assert rep.min_overlap == pytest.approx(
            DISPERSIVE_MIN_OVERLAP[rep.ratio], abs=1e-9)


def test_dispersive_overlap_bounds_and_monotonicity(params):
    reports = dispersive_validation(params)
    assert reports[0].min_overlap >= 0.90          # operating point
    assert reports[-1].min_overlap >= 0.999        # deep dispersive regime
    mins = [rep.min_overlap for rep in reports]
    assert mins == sorted(mins)
    for rep in reports:
        assert all(o <= 1.0 + 1e-12 for o in rep.overlaps)


def test_dispersive_overlap_above_one_raises(params, monkeypatch):
    """Overlaps reach ``DispersiveOverlap`` unclamped: an evolver that
    inflates norms by 1% makes the check fire."""
    inputs = analysis._collision_inputs(params)
    monkeypatch.setattr(analysis, "_collision_inputs", lambda p: inputs)
    evolve = trajectories._DriftEvolver.evolve
    monkeypatch.setattr(trajectories._DriftEvolver, "evolve",
                        lambda self, coeffs, t: 1.01 * evolve(self, coeffs, t))
    with pytest.raises(ValueError, match="overlap above 1"):
        dispersive_validation(params)


def test_dispersive_rejects_sub_unit_ratio(params):
    with pytest.raises(ValueError):
        dispersive_validation(params, (0.5,))
