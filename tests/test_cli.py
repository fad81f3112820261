"""Command-line interface: exit codes, formats, determinism, precedence."""

import json
import platform
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cavity_toffoli
from cavity_toffoli import analysis, cli
from cavity_toffoli.analysis import gate_fidelity
from cavity_toffoli.cli import main
from cavity_toffoli.protocol import JITTER_SCOPES, LOSS_SCOPES, toffoli_schedule
from cavity_toffoli.trajectories import NoiseParams

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


@pytest.mark.parametrize("spelling", ["inf", "INF", "Infinity"])
def test_run_lossless_limit(capsys, spelling):
    """--tau reads any spelling of infinity that float reads."""
    code, out, _ = run_cli(capsys, ["run", "--tau", spelling, "--epsilon", "0",
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
                 ["truth-table", "--omega-hz", "1e-200"],
                 ["truth-table", "--omega-hz", "1e300"],
                 ["run", "--tau", "5e-324"],
                 ["validate", "--quick", "--omega-hz", "1e-2"],
                 ["bogus-command"]):
        code, _, err = run_cli(capsys, argv)
        assert code == 1, argv
        assert "error" in err.lower()
    code, _, err = run_cli(capsys, ["run", "--tau", "never"])
    assert code == 1
    assert "invalid float value: 'never'" in err and "_parse" not in err


def test_run_at_a_vanishing_coupling(capsys):
    """At a 1e-50 Hz coupling the collision lasts 8e50 s; ``run`` still
    prints its one JSON line, with no overflow on the way."""
    code, out, err = run_cli(capsys, ["run", "--omega-hz", "1e-50"])
    assert code == 0, err
    assert len(out.splitlines()) == 1
    assert 0.0 <= json.loads(out)["mean"] <= 1.0


@pytest.mark.parametrize("command", ["run", "truth-table", "validate"])
def test_outside_dispersive_regime_exits_1(capsys, command):
    """delta < 2 omega is a usage error, reported before any output."""
    code, out, err = run_cli(capsys, [command, "--delta-over-omega", "1.5"])
    assert code == 1
    assert err.startswith("error:") and "delta >= 2*omega" in err
    assert out == ""


def test_defaults_are_the_librarys(capsys, params):
    """A setting no flag or file sets takes the library's default."""
    code, out, _ = run_cli(capsys, ["run", "--n-traj", "25"])
    assert code == 0
    result = gate_fidelity(params, NoiseParams(n_traj=25))
    assert out == json.dumps(result.to_jsonable()) + "\n"
    code, out, _ = run_cli(capsys, ["truth-table", "--dump-schedule"])
    assert code == 0 and out == toffoli_schedule(params).to_json() + "\n"


def test_scope_choices_are_the_protocols():
    """Every command offers exactly the scopes that ``toffoli_schedule`` takes."""
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    for sub in commands.values():
        choices = {action.dest: action.choices for action in sub._actions}
        assert (choices["loss_scope"], choices["jitter_scope"]) == (LOSS_SCOPES, JITTER_SCOPES)


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


@pytest.mark.parametrize("doc", [{"seed": 1.5}, {"seed": True}, {"fock_dim": 3.5},
                                 {"n_traj": 2.5}, {"n_traj": True}, {"tau_s": "abc"},
                                 {"omega_hz": "abc"}, {"tau_s": True}, {"epsilon": "0.1"},
                                 {"delta_over_omega": None}, {"epsilon": 1.5},
                                 {"n_traj": 0}],
                         ids=["seed-float", "seed-bool", "fock-float", "ntraj-float",
                              "ntraj-bool", "tau-text", "omega-text", "tau-bool",
                              "eps-text", "delta-null", "eps-range", "ntraj-zero"])
def test_config_file_bad_value_exits_1(capsys, tmp_path, doc):
    """A value of the wrong kind is a usage error, not a truncated setting
    or a traceback from inside the engine.  Every command checks the whole
    file, the noise fields too, though only run and sweep read them."""
    cfg, csv = tmp_path / "cfg.json", tmp_path / "grid.csv"
    cfg.write_text(json.dumps(doc))
    for argv in (["run"], ["truth-table"], ["validate", "--quick"],
                 ["sweep", "--out", str(csv)]):
        code, out, err = run_cli(capsys, [*argv, "--config", str(cfg)])
        assert code == 1, argv
        assert err.startswith("error:") and next(iter(doc)) in err, argv
        assert "Traceback" not in err and out == "", argv
    assert not csv.exists()


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
    assert err.startswith("error: cannot write")


def test_sweep_bad_grid_spec_exits_1(capsys, tmp_path, monkeypatch):
    """A malformed or out-of-range grid is a usage error before any cell runs."""
    out, calls = tmp_path / "s.csv", []
    monkeypatch.setattr(analysis, "_cell_fidelity", lambda *args: calls.append(args))
    for grid in (["--tau-grid", "1:2:3:4"], ["--tau-grid", ","],
                 ["--eps-grid", "0,1.5"], ["--tau-grid", "nan"],
                 ["--eps-grid", "0,0.03,1.5"]):
        code, _, err = run_cli(capsys, ["sweep", *grid, "--n-traj", "5", "--out", str(out)])
        assert code == 1, grid
        assert err.startswith("error:"), grid
        assert not out.exists()
    assert calls == []


def test_sweep_grid_range_needs_finite_ends(capsys, tmp_path):
    """A start:stop:count grid with a non-finite end is a usage error that
    names the spec, raised before numpy warns (the suite turns a
    RuntimeWarning into an error); a comma list still takes inf for tau."""
    out = tmp_path / "s.csv"
    for flag, spec in (("--tau-grid", "inf:1:2"), ("--tau-grid", "1e-3:nan:2"),
                       ("--eps-grid", "-inf:0.01:3")):
        code, _, err = run_cli(capsys, ["sweep", f"{flag}={spec}", "--n-traj", "5",
                                        "--out", str(out)])
        assert code == 1, spec
        assert err == f"error: grid spec {spec!r} needs a finite start and stop\n"
        assert not out.exists()
    code, _, _ = run_cli(capsys, ["sweep", "--tau-grid", "1e-3,inf", "--eps-grid", "0",
                                  "--n-traj", "5", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[2].startswith("inf,0.0,")


# ---------------------------------------------------------------- validate

def test_validate_quick_passes(capsys):
    code, out, _ = run_cli(capsys, ["validate", "--quick", "--seed", "2"])
    assert code == 0
    assert "delta/omega   4.0" in out
    assert "1000 trajectories, threshold 0.05" in out
    assert "validation: OK" in out


@pytest.mark.parametrize("command, flag", [
    (command, flag)
    for command, flags in ((["validate", "--quick"], ["--tau", "--epsilon", "--n-traj"]),
                           (["sweep", "--tau-grid", "1e-3", "--eps-grid", "0", "--n-traj", "5"],
                            ["--tau", "--epsilon"]),
                           (["truth-table"], ["--tau", "--epsilon", "--n-traj"]))
    for flag in flags
], ids=lambda x: x[0] if isinstance(x, list) else x.lstrip("-"))
def test_commands_reject_flags_they_would_ignore(capsys, tmp_path, command, flag):
    """A command registers only the noise flags it reads: validate fixes its
    own tau grid, epsilon 0 and n_traj, sweep takes tau and epsilon from its
    grids, and truth-table runs the ideal gate.  Any other noise flag is a
    usage error, reported before any output or file."""
    out_path = tmp_path / "grid.csv"
    extra = ["--out", str(out_path)] if command[0] == "sweep" else []
    code, out, err = run_cli(capsys, [*command, *extra, flag, "5"])
    assert code == 1
    assert err.startswith("error:") and flag in err
    assert out == "" and not out_path.exists()


@pytest.mark.parametrize("command, flag", [
    ([], ["--he"]), (["run"], ["--eps", "0.05"]), (["run"], ["--n", "5"]),
    (["truth-table"], ["--dump"]), (["sweep"], ["--tau", "1e-3"]), (["validate"], ["--q"]),
], ids=["top-level-he", "run-eps", "run-n", "truth-table-dump", "sweep-tau", "validate-q"])
def test_no_command_takes_an_abbreviated_flag(capsys, tmp_path, monkeypatch, command, flag):
    """A prefix of a flag is a usage error, not that flag, so dropping or
    renaming a flag never rebinds it to another: exit 1, nothing on stdout,
    no file written."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, [*command, *flag])
    assert code == 1 and err.startswith("error:")
    assert out == "" and list(tmp_path.iterdir()) == []


def test_validate_accepts_and_ignores_noise_fields_in_config_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau_s": 2e-3, "epsilon": 0.01, "n_traj": 50, "seed": 2}))
    code, out, _ = run_cli(capsys, ["validate", "--quick", "--config", str(cfg)])
    assert code == 0
    assert out == run_cli(capsys, ["validate", "--quick", "--seed", "2"])[1]


def test_main_builds_its_parser_once(capsys):
    """Repeated ``main`` calls share one parser: the same stdout, and a usage
    error between them still exits 1."""
    cli.build_parser.cache_clear()
    first = run_cli(capsys, ["truth-table"])
    assert run_cli(capsys, ["run", "--tau", "never"])[0] == 1
    assert run_cli(capsys, ["truth-table"]) == first
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


# ---------------------------------------------------------------- end to end

def test_package_exports_resolve():
    """Every name in ``__all__`` is bound, so no deletion leaves a stale export."""
    missing = [name for name in cavity_toffoli.__all__ if not hasattr(cavity_toffoli, name)]
    assert missing == []


def test_collision_accuracy_script_runs():
    script = Path(__file__).resolve().parents[1] / "scripts" / "collision_accuracy.py"
    done = subprocess.run([sys.executable, str(script), "--ratios", "4,50"],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) >= 3


def test_engine_faults_script_runs():
    """The script runs, and on glibc the engine takes fewer than 50 minor page
    faults per operation: the import-time warm-up keeps block arrays on the heap."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "engine_faults.py"
    done = subprocess.run([sys.executable, str(script), "--ops", "3"],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    lines = [line.split() for line in done.stdout.splitlines()]
    assert [line[0] for line in lines] == ["anchor", "surface"]
    if platform.libc_ver()[0] == "glibc":
        assert all(float(line[3]) < 50.0 for line in lines), done.stdout


def test_engine_digest_script_runs():
    script = Path(__file__).resolve().parents[1] / "scripts" / "engine_digest.py"
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["anchor", "surface", "sweep",
                                                   *["trajectories"] * 3, "mcwf",
                                                   "lindblad", "density", "ideal"]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.split()[-1]) for line in lines)

def test_engine_digest_matches_golden_file():
    """``engine_digest.py --check`` finds every digest line and stdout hash
    of ``scripts/golden.json`` unchanged.  On another environment (numpy,
    BLAS, machine, C library or SIMD extensions) the bits may differ, so the
    test skips and shows the fingerprint it saw; a mismatch never passes."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "engine_digest.py"
    golden = json.loads(script.with_name("golden.json").read_text(encoding="utf-8"))
    assert (len(golden["digests"]), len(golden["stdout"])) == (10, 5)
    done = subprocess.run([sys.executable, str(script), "--check"],
                          capture_output=True, text=True)
    if done.returncode == 3:
        pytest.skip(done.stderr.strip())
    assert done.returncode == 0, done.stdout + done.stderr


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
