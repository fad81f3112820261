#!/usr/bin/env python3
"""SHA-256 digests of what the trajectory engine samples, to check that a
change to the engine keeps every bit.

    PYTHONPATH=src python3 scripts/engine_digest.py           # print the 10 lines
    PYTHONPATH=src python3 scripts/engine_digest.py --check   # compare with golden.json
    PYTHONPATH=src python3 scripts/engine_digest.py --write   # rewrite golden.json

It digests the anchor cell's repr((mean, std_error)) at seed 42, the
perfbench surface sweep's CSV at seed 42, the CSV of a (0.3 ms, 2 ms) x
(0, 1%, 5%, 8%) sweep at 130 per input and seed 5, whose row sets straddle
engine blocks, the final-state bytes and jump times of 300-row
run_trajectories for each of the 8 logical inputs at (1 ms, 3%),
(0.2 ms, 8%) and (1 ms, 0), the final-state bytes and jump times of
mcwf_trajectory at trajectories 0, 2047, 2048 and 5000 of inputs 0 and 5 in
cell 3 at (0.2 ms, 8%) and (1 ms, 0), the bytes of the exact Lindblad
channel (_lindblad_stack) at 0.5, 1 and 5 ms of the 8 logical projectors and
of validate's equal superposition, each on its own Liouvillian memo, for the
default gate, loss_scope="collision_only" and fock_dim=4, the bytes of
_trajectory_density of the default gate's superposition at the same
lifetimes (1000 trajectories, epsilon 0, seed 42), and the ideal path: the
logical process matrix's bytes of those three gates, with the repr of
dispersive_validation's overlaps.

``golden.json`` beside this script holds those 10 lines, the SHA-256 of the
stdout of ``run``, ``run --n-traj 200``, ``validate --quick`` and
``truth-table`` and of the CSV that ``sweep`` writes for the surface grid,
and the fingerprint of the environment the bits depend on: numpy's version,
its BLAS, the machine, the C library and numpy's SIMD extensions (numpy's
vectorised log, for one, differs in the last bit between SIMD paths).
``--check`` exits 0 if every entry matches, 1 if any differs (each listed
on stderr), and 3, without running anything, if the fingerprint differs.
A change that moves bits on purpose rewrites the file with ``--write``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from cavity_toffoli import cli
from cavity_toffoli.analysis import (_logical_basis, dispersive_validation, gate_fidelity,
                                     logical_process_matrix, sweep)
from cavity_toffoli.cli import SMOKE_TAUS
from cavity_toffoli.model import PhysicalParams
from cavity_toffoli.protocol import LOGICAL_BITS, encode_logical, toffoli_schedule
from cavity_toffoli.qmath import DensityMatrix, StateVector
from cavity_toffoli.trajectories import (NoiseParams, _lindblad_stack, _trajectory_density,
                                         mcwf_trajectory, run_trajectories)

GOLDEN = Path(__file__).resolve().with_name("golden.json")
_SURFACE_TAUS = (0.2e-3, 0.5e-3, 1e-3, 5e-3, 10e-3)
_COMMANDS = (["run"], ["run", "--n-traj", "200"], ["validate", "--quick"], ["truth-table"])


def _superposition(gate) -> StateVector:
    """The equal superposition of the gate's 8 logical inputs."""
    amps = sum(encode_logical(bits, gate.space).amplitudes for bits in LOGICAL_BITS)
    return StateVector(gate.space, amps / np.linalg.norm(amps))


def digest_lines():
    """(label, hex digest) of each of the 10 lines."""
    params = PhysicalParams.from_frequency()
    anchor = gate_fidelity(params, NoiseParams(tau=1e-3, epsilon=0.03, n_traj=2000, seed=42))
    yield "anchor", hashlib.sha256(repr((anchor.mean, anchor.std_error)).encode()).hexdigest()
    grid = sweep(params, _SURFACE_TAUS, (0.0, 0.08), 250, 42)
    yield "surface", hashlib.sha256(grid.to_csv().encode()).hexdigest()
    grid = sweep(params, (0.3e-3, 2e-3), (0.0, 0.01, 0.05, 0.08), 130, 5)
    yield "sweep", hashlib.sha256(grid.to_csv().encode()).hexdigest()
    schedule = toffoli_schedule(params)
    for tau, epsilon in ((1e-3, 0.03), (0.2e-3, 0.08), (1e-3, 0.0)):
        noise, h = NoiseParams(tau=tau, epsilon=epsilon, n_traj=300, seed=42), hashlib.sha256()
        for b, bits in enumerate(LOGICAL_BITS):
            psi0 = encode_logical(bits, schedule.space)
            for res in run_trajectories(schedule, psi0, noise, basis_input=b):
                h.update(res.final_state.amplitudes.tobytes())
                h.update(np.array(res.jump_times, dtype=np.float64).tobytes())
        yield f"trajectories tau={tau!r} epsilon={epsilon!r}", h.hexdigest()
    h = hashlib.sha256()
    for tau, epsilon in ((0.2e-3, 0.08), (1e-3, 0.0)):
        noise = NoiseParams(tau=tau, epsilon=epsilon, seed=42)
        for b in (0, 5):
            psi0 = encode_logical(LOGICAL_BITS[b], schedule.space)
            for traj in (0, 2047, 2048, 5000):
                res = mcwf_trajectory(schedule, psi0, noise, traj=traj, basis_input=b, cell=3)
                h.update(res.final_state.amplitudes.tobytes())
                h.update(np.array(res.jump_times, dtype=np.float64).tobytes())
    yield "mcwf", h.hexdigest()
    gates, h = (schedule, toffoli_schedule(params, loss_scope="collision_only"),
                toffoli_schedule(PhysicalParams.from_frequency(fock_dim=4))), hashlib.sha256()
    for gate in gates:
        basis = _logical_basis(gate)
        for rho0s in (basis[:, :, None] * basis.conj()[:, None, :],
                      DensityMatrix.from_state(_superposition(gate)).entries[None]):
            h.update(_lindblad_stack(gate, rho0s, SMOKE_TAUS).tobytes())
    yield "lindblad", h.hexdigest()
    superposition = _superposition(schedule)
    h = hashlib.sha256()
    for tau in SMOKE_TAUS:
        noise = NoiseParams(tau=tau, epsilon=0.0, n_traj=1000, seed=42)
        h.update(_trajectory_density(schedule, superposition, noise).entries.tobytes())
    yield "density", h.hexdigest()
    h = hashlib.sha256()
    for gate in gates:
        h.update(logical_process_matrix(gate).tobytes())
    h.update(repr([rep.overlaps for rep in dispersive_validation(params)]).encode())
    yield "ideal", h.hexdigest()


def stdout_digests():
    """(command, SHA-256 of its stdout) of each of ``_COMMANDS``, and of the
    CSV that ``sweep`` writes for the surface grid at 250/input, seed 42."""
    for argv in _COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if cli.main(argv) != 0:
                raise SystemExit(f"{' '.join(argv)} failed")
        yield " ".join(argv), hashlib.sha256(out.getvalue().encode()).hexdigest()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        path = Path(tmp) / "surface.csv"
        argv = ["sweep", "--tau-grid", ",".join(map(repr, _SURFACE_TAUS)), "--eps-grid",
                "0,0.08", "--n-traj", "250", "--seed", "42", "--out", str(path)]
        if cli.main(argv) != 0:
            raise SystemExit("sweep failed")
        yield " ".join(argv[:-2]) + " (CSV)", hashlib.sha256(path.read_bytes()).hexdigest()


def fingerprint() -> dict:
    """What the bits depend on besides the source: numpy, its BLAS, the
    machine, the C library (``math.log``) and numpy's SIMD extensions."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:                       # numpy < 1.26 prints its build only as text
        return {"numpy": np.__version__}
    blas = config["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "machine": platform.machine(), "libc": " ".join(platform.libc_ver()),
            "simd": config["SIMD Extensions"]["found"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true", help=f"rewrite {GOLDEN.name}")
    mode.add_argument("--check", action="store_true", help=f"compare with {GOLDEN.name}")
    args = parser.parse_args()
    if not (args.write or args.check):
        for label, digest in digest_lines():
            print(label, digest)
        return 0
    env = fingerprint()
    if args.check:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        if golden["fingerprint"] != env:
            print(f"fingerprint {json.dumps(env)} is not {GOLDEN.name}'s "
                  f"{json.dumps(golden['fingerprint'])}; nothing checked", file=sys.stderr)
            return 3
    seen = {"fingerprint": env, "digests": dict(digest_lines()),
            "stdout": dict(stdout_digests())}
    if args.write:
        GOLDEN.write_text(json.dumps(seen, indent=2) + "\n", encoding="utf-8")
        return 0
    moved = [f"{part} {key!r}: {golden[part].get(key)} -> {seen[part].get(key)}"
             for part in ("digests", "stdout")
             for key in {**golden[part], **seen[part]}
             if golden[part].get(key) != seen[part].get(key)]
    print("\n".join(moved) or f"every entry of {GOLDEN.name} matches",
          file=sys.stderr if moved else sys.stdout)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
