"""Command-line interface: configure, run and export the simulator.

Subcommands
    truth-table   ideal-protocol check of all 8 logical inputs
    run           one gate-fidelity evaluation, JSON on stdout
    sweep         (tau, epsilon) fidelity surface, CSV output
    validate      dispersive-approximation and quantum-jump cross-checks

Exit codes: 0 success, 1 usage/config error, 2 scientific-check failure.
Every command is deterministic for a fixed seed: repeated invocations
produce byte-identical primary output (floats printed with shortest
round-trip formatting).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .analysis import (DEFAULT_EPSILON_GRID, DEFAULT_TAU_GRID,
                       VALIDATION_RATIOS, dispersive_validation, gate_fidelity,
                       logical_process_matrix, sweep)
from .model import PhysicalParams
from .protocol import (LOGICAL_BITS, Schedule, encode_logical,
                       process_phase_spread, toffoli_map, toffoli_schedule)
from .qmath import DensityMatrix, StateVector, trace_distance
from .trajectories import (NoiseParams, ensemble_density, lindblad_evolve,
                           run_trajectories)

SMOKE_TAUS = (0.5e-3, 1e-3, 5e-3)


class UsageError(Exception):
    """Bad flags or config; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for science
        raise UsageError(message)


@dataclass
class RunConfig:
    """Operating point; defaults are the reference setting of the study:
    50 kHz coupling, delta = 4 omega, 1 ms photon lifetime, 3% timing
    imprecision."""

    omega_hz: float = 50e3
    delta_over_omega: float = 4.0
    tau_s: float = 1e-3
    epsilon: float = 0.03
    n_traj: int = 2000
    seed: int = 42
    fock_dim: int = 3
    loss_scope: str = "all_segments"
    jitter_scope: str = "all"

    def physical_params(self) -> PhysicalParams:
        return PhysicalParams.from_frequency(
            omega_hz=self.omega_hz, delta_over_omega=self.delta_over_omega,
            fock_dim=self.fock_dim)

    def noise_params(self) -> NoiseParams:
        return NoiseParams(tau=self.tau_s, epsilon=self.epsilon,
                           n_traj=self.n_traj, seed=self.seed)

    def schedule(self, *, decode_adjoint: bool = True):
        return toffoli_schedule(self.physical_params(),
                                decode_adjoint=decode_adjoint,
                                loss_scope=self.loss_scope,
                                jitter_scope=self.jitter_scope)


def _parse_tau(text: str) -> float:
    if text.strip().lower() == "inf":
        return math.inf
    return float(text)


def _parse_grid(text: str, *, tau: bool = False) -> tuple[float, ...]:
    """Comma-separated values, or start:stop:count (linearly spaced)."""
    parse_one = _parse_tau if tau else float
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid spec must be start:stop:count, got {text!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError("grid count must be >= 1")
        return tuple(float(x) for x in np.linspace(start, stop, count))
    values = tuple(parse_one(v) for v in text.split(",") if v.strip())
    if not values:
        raise ValueError(f"grid spec {text!r} holds no value")
    return values


_CONFIG_FIELDS = {f.name: f.type for f in fields(RunConfig)}


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    unknown = set(data) - set(_CONFIG_FIELDS)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    if isinstance(data.get("tau_s"), str):
        data["tau_s"] = _parse_tau(data["tau_s"])
    return data


def _resolve_config(args: argparse.Namespace) -> tuple[RunConfig, Schedule]:
    """flag > config-file value > default; returns the config and its schedule."""
    values: dict = {}
    if getattr(args, "config", None):
        values.update(_load_config_file(args.config))
    for name in _CONFIG_FIELDS:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            values[name] = flag_value
    try:
        config = RunConfig(**values)
        # the schedule checks the physical point, the dispersive regime and
        # the scopes (a config-file value bypasses argparse choices)
        schedule = config.schedule(
            decode_adjoint=not getattr(args, "no_decode_adjoint", False))
        config.noise_params()
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    return config, schedule


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH",
                        help="JSON file with RunConfig field names")
    parser.add_argument("--omega-hz", dest="omega_hz", type=float)
    parser.add_argument("--delta-over-omega", dest="delta_over_omega", type=float)
    parser.add_argument("--tau", dest="tau_s", type=_parse_tau,
                        help="photon lifetime in s, or 'inf'")
    parser.add_argument("--epsilon", dest="epsilon", type=float)
    parser.add_argument("--n-traj", dest="n_traj", type=int)
    parser.add_argument("--seed", dest="seed", type=int)
    parser.add_argument("--fock-dim", dest="fock_dim", type=int)
    parser.add_argument("--loss-scope", dest="loss_scope",
                        choices=("all_segments", "collision_only"))
    parser.add_argument("--jitter-scope", dest="jitter_scope",
                        choices=("all", "interactions_only"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cavity-toffoli",
                     description="Cavity-QED Toffoli gate simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tt = sub.add_parser("truth-table", help="run the ideal protocol on all "
                          "8 logical inputs and check the gate action")
    _add_common_options(p_tt)
    p_tt.add_argument("--dump-schedule", action="store_true",
                      help="print the schedule as JSON and exit")
    p_tt.add_argument("--no-decode-adjoint", action="store_true",
                      help="debug: decode with the forward pulse instead of "
                           "the inverse (introduces a -1 phase defect)")

    p_run = sub.add_parser("run", help="one fidelity evaluation, JSON output")
    _add_common_options(p_run)

    p_sweep = sub.add_parser("sweep", help="fidelity over a (tau, epsilon) grid")
    _add_common_options(p_sweep)
    p_sweep.add_argument("--tau-grid", metavar="SPEC",
                         help="comma list or start:stop:count (seconds)")
    p_sweep.add_argument("--eps-grid", metavar="SPEC",
                         help="comma list or start:stop:count")
    p_sweep.add_argument("--out", default="sweep.csv", metavar="PATH",
                         help="CSV output path (default sweep.csv)")

    p_val = sub.add_parser("validate", help="dispersive-approximation and "
                           "quantum-jump oracle checks")
    _add_common_options(p_val)
    p_val.add_argument("--quick", action="store_true",
                       help="10^3 trajectories and a relaxed 0.05 threshold")
    return parser


def cmd_truth_table(config: RunConfig, schedule: Schedule,
                    args: argparse.Namespace) -> int:
    if args.dump_schedule:
        print(schedule.to_json())
        return 0

    process = logical_process_matrix(schedule)
    entries = [process[LOGICAL_BITS.index(toffoli_map(bits)), k]
               for k, bits in enumerate(LOGICAL_BITS)]
    ok = True
    print("ideal truth table (fidelity and process-entry phase per input):")
    for bits, entry in zip(LOGICAL_BITS, entries):
        fid = abs(entry) ** 2
        label = "".join(str(b) for b in bits)
        target = "".join(str(b) for b in toffoli_map(bits))
        flag = ""
        if not fid >= 1.0 - 1e-9:
            ok = False
            flag = "  FIDELITY DEFECT"
        print(f"  {label} -> {target}  fidelity {fid:.9f}  "
              f"phase {np.angle(entry):+.9f} rad{flag}")

    spread = process_phase_spread(process)
    print("process matrix moduli:")
    for row in np.abs(process):
        print("  " + " ".join(f"{x:.6f}" for x in row))
    print(f"phase spread: {spread!r} rad")
    if not spread <= 1e-9:
        ok = False
        for bits, entry in zip(LOGICAL_BITS, entries):
            if abs(np.angle(entry / entries[0])) > 1e-9:
                label = "".join(str(b) for b in bits)
                print(f"  PHASE DEFECT on input {label}: "
                      f"relative phase {np.angle(entry / entries[0]):+.6f} rad")
    print("truth table: " + ("OK" if ok else "FAILED"))
    return 0 if ok else 2


def cmd_run(config: RunConfig, schedule: Schedule, args: argparse.Namespace) -> int:
    result = gate_fidelity(schedule.params, config.noise_params(), schedule=schedule)
    print(json.dumps(result.to_jsonable()))
    return 0


def cmd_sweep(config: RunConfig, schedule: Schedule, args: argparse.Namespace) -> int:
    try:
        tau_values = (_parse_grid(args.tau_grid, tau=True)
                      if args.tau_grid else DEFAULT_TAU_GRID)
        eps_values = (_parse_grid(args.eps_grid)
                      if args.eps_grid else DEFAULT_EPSILON_GRID)
        # a bad value fails here, not after every cell before it has run
        for tau in tau_values:
            for eps in eps_values:
                replace(config, tau_s=tau, epsilon=eps).noise_params()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    grid = sweep(schedule.params, tau_values, eps_values,
                 config.n_traj, config.seed, schedule=schedule)
    csv_text = grid.to_csv()
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    means = [cell.mean for row in grid.cells for cell in row]
    print(f"wrote {args.out}: {len(tau_values)}x{len(eps_values)} cells, "
          f"n_traj {config.n_traj} per input")
    print(f"mean fidelity range [{min(means)!r}, {max(means)!r}]")
    return 0


def cmd_validate(config: RunConfig, schedule: Schedule,
                 args: argparse.Namespace) -> int:
    ok = True

    reports = dispersive_validation(schedule.params, VALIDATION_RATIOS)
    print("dispersive approximation vs full detuned model "
          "(min overlap over encoded collision inputs):")
    for rep in reports:
        print(f"  delta/omega {rep.ratio:>5.1f}: min overlap {rep.min_overlap:.9f}")
    if reports[0].min_overlap < 0.90:
        ok = False
        print("  FAIL: overlap at ratio 4 below 0.90")
    if reports[-1].min_overlap < 0.999:
        ok = False
        print("  FAIL: overlap at ratio 50 below 0.999")
    if any(a.min_overlap > b.min_overlap for a, b in zip(reports, reports[1:])):
        ok = False
        print("  FAIL: overlap not monotone in delta/omega")

    n_traj = 1000 if args.quick else 10000
    threshold = 0.05 if args.quick else 0.02
    amps = sum(encode_logical(b, schedule.space).amplitudes for b in LOGICAL_BITS)
    psi0 = StateVector(schedule.space, amps / np.linalg.norm(amps))
    print(f"quantum jumps vs master equation ({n_traj} trajectories, "
          f"threshold {threshold}):")
    for tau in SMOKE_TAUS:
        noise = NoiseParams(tau=tau, epsilon=0.0, n_traj=n_traj, seed=config.seed)
        rho_mc = ensemble_density(run_trajectories(schedule, psi0, noise))
        rho_ref = lindblad_evolve(schedule, DensityMatrix.from_state(psi0), tau)
        dist = trace_distance(rho_mc, rho_ref)
        verdict = "ok" if dist <= threshold else "FAIL"
        if dist > threshold:
            ok = False
        print(f"  tau {tau!r}: trace distance {dist:.6f}  {verdict}")

    print("validation: " + ("OK" if ok else "FAILED"))
    return 0 if ok else 2


_COMMANDS = {
    "truth-table": cmd_truth_table,
    "run": cmd_run,
    "sweep": cmd_sweep,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config, schedule = _resolve_config(args)
        return _COMMANDS[args.command](config, schedule, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
