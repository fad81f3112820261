"""Command-line interface: exit codes, formats, determinism, precedence."""

import json
import subprocess
import sys

from cavity_toffoli.cli import main

FAST = ["--n-traj", "25", "--seed", "7"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- truth table

def test_truth_table_passes_by_default(capsys):
    code, out, _ = run_cli(capsys, ["truth-table"])
    assert code == 0
    assert out.count("fidelity 1.000000000") == 8
    assert "truth table: OK" in out


def test_truth_table_reports_decode_defect(capsys):
    code, out, _ = run_cli(capsys, ["truth-table", "--no-decode-adjoint"])
    assert code == 2
    assert "PHASE DEFECT on input 010" in out
    assert "PHASE DEFECT on input 011" in out
    assert "truth table: FAILED" in out


def test_dump_schedule_emits_five_segments(capsys):
    code, out, _ = run_cli(capsys, ["truth-table", "--dump-schedule"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["segments"]) == 5
    kinds = [seg["kind"] for seg in doc["segments"]]
    assert kinds == ["resonant_rabi", "classical_pulse", "collision",
                     "classical_pulse", "resonant_rabi"]


# ---------------------------------------------------------------- run

def test_run_emits_fidelity_json(capsys):
    code, out, _ = run_cli(capsys, ["run", *FAST])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"mean", "std_error", "n_traj", "tau", "epsilon"}
    assert doc["n_traj"] == 25
    assert 0.0 <= doc["mean"] <= 1.0


def test_run_lossless_limit(capsys):
    code, out, _ = run_cli(capsys, ["run", "--tau", "inf", "--epsilon", "0",
                                    "--n-traj", "5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["mean"] >= 1 - 1e-8
    assert doc["tau"] == "inf"


def test_run_byte_identical_for_same_seed(capsys):
    _, out1, _ = run_cli(capsys, ["run", *FAST])
    _, out2, _ = run_cli(capsys, ["run", *FAST])
    assert out1 == out2


def test_invalid_values_exit_1(capsys):
    for argv in (["run", "--epsilon", "1.5", "--n-traj", "5"],
                 ["run", "--tau", "-2"],
                 ["run", "--fock-dim", "2"],
                 ["run", "--epsilon", "abc"],
                 ["bogus-command"]):
        code, _, err = run_cli(capsys, argv)
        assert code == 1, argv
        assert "error" in err.lower()


# ---------------------------------------------------------------- config file

def test_config_precedence_flag_beats_file_beats_default(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_traj": 11, "epsilon": 0.0, "tau_s": "inf",
                               "seed": 5}))
    # file value wins over default
    code, out, _ = run_cli(capsys, ["run", "--config", str(cfg)])
    assert code == 0
    assert json.loads(out)["n_traj"] == 11
    # flag wins over file
    code, out, _ = run_cli(capsys, ["run", "--config", str(cfg),
                                    "--n-traj", "13"])
    assert json.loads(out)["n_traj"] == 13
    # untouched fields keep their defaults
    assert json.loads(out)["epsilon"] == 0.0


def test_config_file_errors(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    code, _, err = run_cli(capsys, ["run", "--config", str(missing)])
    assert code == 1 and "config" in err

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"volume": 11}))
    code, _, err = run_cli(capsys, ["run", "--config", str(bad)])
    assert code == 1 and "unknown config keys" in err

    scope = tmp_path / "scope.json"
    scope.write_text(json.dumps({"loss_scope": "sometimes"}))
    code, _, err = run_cli(capsys, ["run", "--config", str(scope)])
    assert code == 1 and "loss_scope" in err


# ---------------------------------------------------------------- sweep

def test_sweep_writes_csv(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    code, out, _ = run_cli(capsys, [
        "sweep", "--tau-grid", "0.001,0.005", "--eps-grid", "0:0.04:3",
        "--out", str(out_path), "--n-traj", "10", "--seed", "3"])
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "tau_s,epsilon,mean_fidelity,std_error,n_traj"
    assert len(lines) == 1 + 2 * 3
    assert lines[1].startswith("0.001,0.0,")
    assert lines[4].startswith("0.005,0.0,")   # tau-major ordering
    assert "wrote" in out


def test_sweep_reruns_bit_identical(capsys, tmp_path):
    args = ["sweep", "--tau-grid", "0.001", "--eps-grid", "0,0.03",
            "--n-traj", "10", "--seed", "3"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, args + ["--out", str(p1)])
    run_cli(capsys, args + ["--out", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()


def test_sweep_unwritable_path_exits_1(capsys, tmp_path):
    code, _, err = run_cli(capsys, [
        "sweep", "--tau-grid", "0.001", "--eps-grid", "0",
        "--n-traj", "5", "--out", str(tmp_path / "no" / "dir" / "x.csv")])
    assert code == 1
    assert "cannot write" in err


def test_sweep_bad_grid_spec_exits_1(capsys):
    code, _, err = run_cli(capsys, ["sweep", "--tau-grid", "1:2:3:4",
                                    "--n-traj", "5"])
    assert code == 1


# ---------------------------------------------------------------- validate

def test_validate_quick_passes(capsys):
    code, out, _ = run_cli(capsys, ["validate", "--quick", "--seed", "2"])
    assert code == 0
    assert "delta/omega   4.0" in out
    assert "1000 trajectories, threshold 0.05" in out
    assert "validation: OK" in out


# ---------------------------------------------------------------- end to end

def test_module_entry_point_end_to_end(tmp_path):
    """Exit codes through the real process boundary."""
    ok = subprocess.run([sys.executable, "-m", "cavity_toffoli", "truth-table"],
                        capture_output=True, text=True)
    assert ok.returncode == 0

    sci = subprocess.run([sys.executable, "-m", "cavity_toffoli", "truth-table",
                          "--no-decode-adjoint"], capture_output=True, text=True)
    assert sci.returncode == 2

    usage = subprocess.run([sys.executable, "-m", "cavity_toffoli", "run",
                            "--tau", "never"], capture_output=True, text=True)
    assert usage.returncode == 1
