"""The Toffoli protocol: logical encoding and pulse schedule.

Logical basis (control 1 = cavity, control 2 = atom A_c, target = atom A_t):

    c1 = 0 -> |1_c>        c1 = 1 -> |0_c>
    c2 = 0 -> |i_c>        c2 = 1 -> |g_c>
    t  = 0 -> (|g_t> + |e_t>)/sqrt(2)
    t  = 1 -> (|g_t> - |e_t>)/sqrt(2)

The gate is five segments: pi-Rabi on A_c, R_ig swap pulse, dispersive
collision for pi/lambda, R_ig again, and the ADJOINT pi-Rabi.  Segments
store durations, not angles (t_pi = pi/omega is the pi rotation), and
every classical pulse is the R_ig swap.  Decoding with the inverse pulse
(rather than repeating the forward pulse) is what keeps the |1_c g_c>
branch free of a spurious -1: two identical pi pulses would compose to -1
on the swapped subspace.  The engine in ``trajectories`` runs a schedule;
``trajectories.run_ideal`` is the noiseless gate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .model import (ATOM_DIM, Level, PhysicalParams, jc_hamiltonian,
                    dispersive_hamiltonian, require_dispersive_regime)
from .qmath import CompositeSpace, OperatorMatrix, StateVector

CONTROL_ATOM = 1
TARGET_ATOM = 2

SEGMENT_KINDS = ("resonant_rabi", "classical_pulse", "collision", "idle")
#: the values toffoli_schedule takes for loss_scope and for jitter_scope
LOSS_SCOPES = ("all_segments", "collision_only")
JITTER_SCOPES = ("all", "interactions_only")

#: the 8 logical inputs in enumeration order (c1, c2, t)
LOGICAL_BITS = tuple((c1, c2, t) for c1 in (0, 1) for c2 in (0, 1) for t in (0, 1))


@dataclass(frozen=True)
class Segment:
    """One timed (or instantaneous) step of the protocol.  The duration sets
    a Rabi segment's rotation; a classical pulse is the R_ig swap on ``atom``."""

    kind: str
    nominal_duration: float
    jitter_applies: bool = True
    loss_active: bool = True
    atom: Optional[int] = None
    adjoint: bool = False

    def __post_init__(self):
        if self.kind not in SEGMENT_KINDS:
            raise ValueError(f"unknown segment kind {self.kind!r}")
        if not 0 <= self.nominal_duration < math.inf:
            raise ValueError(f"segment duration must be finite and >= 0, "
                             f"got {self.nominal_duration!r}")
        if self.kind == "classical_pulse":
            if self.nominal_duration != 0.0:
                raise ValueError("classical pulses are instantaneous")
            if self.atom is None:
                raise ValueError("classical pulse needs a target atom")
        if self.kind == "resonant_rabi" and self.atom is None:
            raise ValueError("resonant_rabi needs an atom")

    def to_jsonable(self) -> dict:
        out = {"kind": self.kind, "nominal_duration": self.nominal_duration,
               "jitter_applies": self.jitter_applies, "loss_active": self.loss_active}
        if self.atom is not None:
            out["atom"] = self.atom
        if self.kind == "resonant_rabi":
            out["adjoint"] = self.adjoint
        return out


@dataclass(frozen=True)
class Schedule:
    """Ordered segment list over a fixed composite space."""

    space: CompositeSpace
    segments: tuple[Segment, ...]
    params: PhysicalParams

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def total_duration(self) -> float:
        return float(sum(seg.nominal_duration for seg in self.segments))

    def to_jsonable(self) -> dict:
        return {
            "subsystem_dims": list(self.space.subsystem_dims),
            "total_duration": self.total_duration,
            "segments": [seg.to_jsonable() for seg in self.segments],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2)


def toffoli_schedule(params: PhysicalParams, *, decode_adjoint: bool = True,
                     loss_scope: str = "all_segments",
                     jitter_scope: str = "all") -> Schedule:
    """The five-segment gate sequence, each Rabi segment t_pi long.

    loss_scope:   "all_segments" (default; the cavity always decays) or
                  "collision_only" (decay modeled during the collision only).
    jitter_scope: "all" (default) or "interactions_only" (classical pulses
                  exempt from timing/angle imprecision).
    decode_adjoint=False is a debug knob reproducing the -1 phase defect of
    a naive repeated decoding pulse.
    """
    if loss_scope not in LOSS_SCOPES:
        raise ValueError(f"unknown loss_scope {loss_scope!r}")
    if jitter_scope not in JITTER_SCOPES:
        raise ValueError(f"unknown jitter_scope {jitter_scope!r}")
    require_dispersive_regime(params)

    space = params.protocol_space()
    loss_all = loss_scope == "all_segments"
    jitter_pulses = jitter_scope == "all"
    segments = (
        Segment("resonant_rabi", params.t_pi, atom=CONTROL_ATOM, loss_active=loss_all),
        Segment("classical_pulse", 0.0, atom=CONTROL_ATOM,
                jitter_applies=jitter_pulses, loss_active=loss_all),
        Segment("collision", params.t_collision, loss_active=True),
        Segment("classical_pulse", 0.0, atom=CONTROL_ATOM,
                jitter_applies=jitter_pulses, loss_active=loss_all),
        Segment("resonant_rabi", params.t_pi, atom=CONTROL_ATOM,
                adjoint=decode_adjoint, loss_active=loss_all),
    )
    return Schedule(space, segments, params)


def encode_logical(bits: Iterable[int], space: CompositeSpace) -> StateVector:
    """Physical ket for one logical basis input (c1, c2, t)."""
    c1, c2, t = (int(b) for b in bits)
    if any(b not in (0, 1) for b in (c1, c2, t)):
        raise ValueError(f"bits must be 0/1, got {(c1, c2, t)}")
    dims = space.subsystem_dims
    if len(dims) != 3 or dims[1] != ATOM_DIM or dims[2] != ATOM_DIM:
        raise ValueError(f"expected a (fock, 3, 3) space, got dims {dims}")

    control = Level.i if c2 == 0 else Level.g
    amps = np.zeros(space.total_dim, dtype=np.complex128)
    amps[space.index_of([1 - c1, control, Level.g])] = 1.0 / math.sqrt(2.0)
    amps[space.index_of([1 - c1, control, Level.e])] = (1.0 - 2 * t) / math.sqrt(2.0)
    return StateVector(space, amps)


def toffoli_map(bits: Iterable[int]) -> tuple[int, int, int]:
    """Ideal gate action: flip the target iff both controls are 1."""
    c1, c2, t = (int(b) for b in bits)
    return (c1, c2, t ^ (c1 & c2))


def segment_drift(schedule: Schedule, seg: Segment) -> Optional[OperatorMatrix]:
    """Hermitian generator of a timed segment (None for classical pulses).

    Adjoint Rabi segments return the sign-flipped generator, so that
    exp(-i H t) is the inverse pulse for any duration.
    """
    if seg.kind == "classical_pulse":
        return None
    if seg.kind == "idle":
        zero = np.zeros((schedule.space.total_dim,) * 2, dtype=np.complex128)
        return OperatorMatrix(schedule.space, zero, hermitian=True)
    if seg.kind == "resonant_rabi":
        h = jc_hamiltonian(schedule.params, seg.atom, schedule.space)
        if seg.adjoint:
            h = OperatorMatrix(schedule.space, -h.entries, hermitian=True)
        return h
    if seg.kind == "collision":
        return dispersive_hamiltonian(schedule.params, CONTROL_ATOM, TARGET_ATOM,
                                      schedule.space)
    raise ValueError(f"unknown segment kind {seg.kind!r}")


def process_phase_spread(process: np.ndarray) -> float:
    """Largest phase deviation (rad) among the process-matrix entries of
    modulus above 1/2, relative to the first one.  Zero for a gate that
    equals its permutation target up to one global phase."""
    significant = process[np.abs(process) > 0.5]
    if significant.size == 0:
        return math.pi
    rel = significant / significant[0]
    return float(np.max(np.abs(np.angle(rel))))
