"""Fidelity estimation, sweeps, dispersive validation."""

import math

import pytest

from cavity_toffoli.analysis import (DEFAULT_EPSILON_GRID, DEFAULT_TAU_GRID,
                                     FidelityGrid, FidelityResult,
                                     dispersive_validation, gate_fidelity,
                                     lindblad_gate_fidelity, sweep)
from cavity_toffoli.model import PhysicalParams
from cavity_toffoli.trajectories import NoiseParams

# Sampling-free Lindblad reference for the epsilon = 0 column, frozen from
# the former RK4 integration (phase step 5e-3 rad); the exact blockwise
# channel reproduces each value to 5e-13.  The tolerance is the original.
LINDBLAD_EPS0 = {
    0.5e-3: 0.9194737156338737,
    1.0e-3: 0.9563312652059228,
    5.0e-3: 0.9906606235969584,
}

# Frozen first-run overlaps of the dispersive propagator against the full
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


# ---------------------------------------------------------------- sweep

def test_single_cell_sweep_equals_direct_call(params):
    grid = sweep(params, (1e-3,), (0.02,), n_traj=30, seed=17)
    direct = gate_fidelity(params, NoiseParams(tau=1e-3, epsilon=0.02,
                                               n_traj=30, seed=17))
    cell = grid.cells[0][0]
    assert cell.mean == direct.mean
    assert cell.std_error == direct.std_error


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


def test_sweep_rejects_empty_grid(params):
    with pytest.raises(ValueError):
        sweep(params, (), (0.0,), n_traj=5, seed=1)


def test_default_grids():
    assert len(DEFAULT_TAU_GRID) == 8
    assert len(DEFAULT_EPSILON_GRID) == 9
    assert DEFAULT_TAU_GRID[0] == pytest.approx(2e-4)
    assert DEFAULT_TAU_GRID[-1] == pytest.approx(1e-2)
    assert DEFAULT_EPSILON_GRID == tuple(0.01 * k for k in range(9))


def test_grid_json_mirrors_result_fields(params):
    grid = sweep(params, (1e-3, math.inf), (0.0,), n_traj=5, seed=2)
    doc = grid.to_jsonable()
    assert doc["tau_values"] == [1e-3, "inf"]
    assert doc["epsilon_values"] == [0.0]
    cell = doc["cells"][0][0]
    assert set(cell) == {"mean", "std_error", "n_traj", "tau", "epsilon"}
    assert doc["cells"][1][0]["tau"] == "inf"


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


def test_dispersive_rejects_sub_unit_ratio(params):
    with pytest.raises(ValueError):
        dispersive_validation(params, (0.5,))
