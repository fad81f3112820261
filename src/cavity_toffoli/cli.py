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
import functools
import json
import math
import sys

import numpy as np

from .analysis import (_IMAGES, DEFAULT_EPSILON_GRID, DEFAULT_TAU_GRID,
                       dispersive_validation, gate_fidelity, logical_process_matrix, sweep)
from .model import PhysicalParams
from .protocol import (JITTER_SCOPES, LOGICAL_BITS, LOSS_SCOPES, Schedule, encode_logical,
                       process_phase_spread, toffoli_map, toffoli_schedule)
from .qmath import DensityMatrix, StateVector, trace_distance
from .trajectories import NoiseParams, _lindblad_stack, _trajectory_density

SMOKE_TAUS = (0.5e-3, 1e-3, 5e-3)

#: config-file keys, which are also the flags' dests, by the library call they
#: go to (PhysicalParams.from_frequency, toffoli_schedule, NoiseParams, whose
#: tau the file calls tau_s); an unset key takes the library's default
_PHYSICAL_KEYS = ("omega_hz", "delta_over_omega", "fock_dim")
_SCOPE_KEYS = ("loss_scope", "jitter_scope")
_NOISE_KEYS = {"tau_s": "tau", "epsilon": "epsilon", "n_traj": "n_traj", "seed": "seed"}
_FLOAT_KEYS = ("omega_hz", "delta_over_omega", "tau_s", "epsilon")


class UsageError(Exception):
    """Bad flags or config; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for science
        raise UsageError(message)


def _parse_grid(text: str) -> tuple[float, ...]:
    """Comma-separated values, or start:stop:count (linearly spaced)."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid spec must be start:stop:count, got {text!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError(f"grid spec {text!r} needs a finite start and stop")
        if count < 1:
            raise ValueError("grid count must be >= 1")
        return tuple(float(x) for x in np.linspace(start, stop, count))
    values = tuple(float(v) for v in text.split(",") if v.strip())
    if not values:
        raise ValueError(f"grid spec {text!r} holds no value")
    return values


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    unknown = set(data) - {*_PHYSICAL_KEYS, *_SCOPE_KEYS, *_NOISE_KEYS}
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    if isinstance(data.get("tau_s"), str):
        try:
            data["tau_s"] = float(data["tau_s"])
        except ValueError as exc:
            raise UsageError(f"config file {path}: bad tau_s: {exc}") from exc
    for name, value in data.items():
        if name in _FLOAT_KEYS and (isinstance(value, bool)
                                    or not isinstance(value, (int, float))):
            raise UsageError(f"config file {path}: {name} must be a number")
    return data


def _resolve_config(args: argparse.Namespace) -> tuple[NoiseParams, Schedule]:
    """flag > config-file value > library default; returns the noise settings
    and the schedule."""
    values = _load_config_file(args.config) if getattr(args, "config", None) else {}
    for name in (*_PHYSICAL_KEYS, *_SCOPE_KEYS, *_NOISE_KEYS):
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            values[name] = flag_value
    try:
        params = PhysicalParams.from_frequency(
            **{k: values[k] for k in _PHYSICAL_KEYS if k in values})
        # the schedule checks the dispersive regime and the scopes (a
        # config-file value bypasses argparse choices)
        schedule = toffoli_schedule(
            params, decode_adjoint=not getattr(args, "no_decode_adjoint", False),
            **{k: values[k] for k in _SCOPE_KEYS if k in values})
        noise = NoiseParams(**{arg: values[k] for k, arg in _NOISE_KEYS.items() if k in values})
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    return noise, schedule


def _add_common_options(parser: argparse.ArgumentParser, *, noise: tuple[str, ...] = ()) -> None:
    """The setting flags, but of the noise flags --tau, --epsilon and
    --n-traj only those in ``noise``, the ones the command reads."""
    parser.add_argument("--config", metavar="PATH",
                        help="JSON file of flag values, keyed omega_hz, tau_s, ...")
    parser.add_argument("--omega-hz", dest="omega_hz", type=float)
    parser.add_argument("--delta-over-omega", dest="delta_over_omega", type=float)
    if "--tau" in noise:
        parser.add_argument("--tau", dest="tau_s", type=float,
                            help="photon lifetime in s, or 'inf'")
    if "--epsilon" in noise:
        parser.add_argument("--epsilon", dest="epsilon", type=float)
    if "--n-traj" in noise:
        parser.add_argument("--n-traj", dest="n_traj", type=int)
    parser.add_argument("--seed", dest="seed", type=int)
    parser.add_argument("--fock-dim", dest="fock_dim", type=int)
    parser.add_argument("--loss-scope", dest="loss_scope", choices=LOSS_SCOPES)
    parser.add_argument("--jitter-scope", dest="jitter_scope", choices=JITTER_SCOPES)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (``main`` reuses it)."""
    parser = _Parser(prog="cavity-toffoli", allow_abbrev=False,
                     description="Cavity-QED Toffoli gate simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tt = sub.add_parser("truth-table", allow_abbrev=False, help="run the ideal "
                          "protocol on all 8 logical inputs and check the gate action")
    _add_common_options(p_tt)
    p_tt.add_argument("--dump-schedule", action="store_true",
                      help="print the schedule as JSON and exit")
    p_tt.add_argument("--no-decode-adjoint", action="store_true",
                      help="debug: decode with the forward pulse instead of "
                           "the inverse (introduces a -1 phase defect)")

    p_run = sub.add_parser("run", allow_abbrev=False,
                           help="one fidelity evaluation, JSON output")
    _add_common_options(p_run, noise=("--tau", "--epsilon", "--n-traj"))

    p_sweep = sub.add_parser("sweep", allow_abbrev=False,
                             help="fidelity over a (tau, epsilon) grid")
    _add_common_options(p_sweep, noise=("--n-traj",))
    p_sweep.add_argument("--tau-grid", metavar="SPEC",
                         help="comma list or start:stop:count (seconds)")
    p_sweep.add_argument("--eps-grid", metavar="SPEC",
                         help="comma list or start:stop:count")
    p_sweep.add_argument("--out", default="sweep.csv", metavar="PATH",
                         help="CSV output path (default sweep.csv)")

    p_val = sub.add_parser("validate", allow_abbrev=False, help="dispersive-"
                           "approximation and quantum-jump oracle checks")
    _add_common_options(p_val)
    p_val.add_argument("--quick", action="store_true",
                       help="10^3 trajectories and a relaxed 0.05 threshold")
    return parser


def cmd_truth_table(noise: NoiseParams, schedule: Schedule,
                    args: argparse.Namespace) -> int:
    if args.dump_schedule:
        print(schedule.to_json())
        return 0

    process = logical_process_matrix(schedule)
    entries = process[_IMAGES, range(len(LOGICAL_BITS))]
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


def cmd_run(noise: NoiseParams, schedule: Schedule, args: argparse.Namespace) -> int:
    result = gate_fidelity(schedule, noise)
    print(json.dumps(result.to_jsonable()))
    return 0


def cmd_sweep(noise: NoiseParams, schedule: Schedule, args: argparse.Namespace) -> int:
    try:
        tau_values = _parse_grid(args.tau_grid) if args.tau_grid else DEFAULT_TAU_GRID
        eps_values = _parse_grid(args.eps_grid) if args.eps_grid else DEFAULT_EPSILON_GRID
        grid = sweep(schedule, tau_values, eps_values, noise.n_traj, noise.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(grid.to_csv())
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc}") from exc
    means = [cell.mean for row in grid.cells for cell in row]
    print(f"wrote {args.out}: {len(tau_values)}x{len(eps_values)} cells, "
          f"n_traj {noise.n_traj} per input")
    print(f"mean fidelity range [{min(means)!r}, {max(means)!r}]")
    return 0


def cmd_validate(noise: NoiseParams, schedule: Schedule,
                 args: argparse.Namespace) -> int:
    amps = sum(encode_logical(b, schedule.space).amplitudes for b in LOGICAL_BITS)
    psi0 = StateVector(schedule.space, amps / np.linalg.norm(amps))
    try:  # the exact references, checked before any output
        rho_refs = _lindblad_stack(schedule, DensityMatrix.from_state(psi0).entries[None],
                                   SMOKE_TAUS)[:, 0]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    ok = True

    reports = dispersive_validation(schedule.params)
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
    print(f"quantum jumps vs master equation ({n_traj} trajectories, "
          f"threshold {threshold}):")
    for tau, rho_ref in zip(SMOKE_TAUS, rho_refs):
        rho_mc = _trajectory_density(
            schedule, psi0, NoiseParams(tau=tau, epsilon=0.0, n_traj=n_traj, seed=noise.seed))
        dist = trace_distance(rho_mc, DensityMatrix(schedule.space, rho_ref))
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
        noise, schedule = _resolve_config(args)
        return _COMMANDS[args.command](noise, schedule, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
