"""Cavity-QED Toffoli gate simulator.

Builds the gate's pulse/interaction schedule and runs it through one
propagation engine: exactly in the ideal case (``run_ideal``), and with
quantum-jump trajectories under photon loss and timing imprecision,
cross-checked against an exact Lindblad master-equation oracle.
"""

from .analysis import (DispersiveOverlap, FidelityGrid, FidelityResult,
                       dispersive_validation, gate_fidelity,
                       lindblad_gate_fidelity, logical_process_matrix, sweep)
from .model import (Level, PhysicalParams, annihilation, dispersive_hamiltonian,
                    full_detuned_hamiltonian, jc_hamiltonian, number_operator)
from .protocol import (LOGICAL_BITS, Schedule, Segment, encode_logical,
                       prepare_cavity, retrieve_cavity, toffoli_map,
                       toffoli_schedule)
from .qmath import (CompositeSpace, DensityMatrix, OperatorMatrix, StateVector,
                    embed_operator, propagator, state_fidelity, tensor_state,
                    trace_distance)
from .trajectories import (NoiseParams, TrajectoryResult, ensemble_density,
                           lindblad_evolve, mcwf_trajectory, run_ideal,
                           run_trajectories)

__version__ = "0.1.0"

__all__ = [
    "CompositeSpace", "StateVector", "OperatorMatrix", "DensityMatrix",
    "tensor_state", "embed_operator", "propagator", "state_fidelity",
    "trace_distance",
    "Level", "PhysicalParams", "annihilation", "number_operator",
    "jc_hamiltonian", "dispersive_hamiltonian", "full_detuned_hamiltonian",
    "Segment", "Schedule", "LOGICAL_BITS", "encode_logical", "toffoli_map",
    "toffoli_schedule", "prepare_cavity", "retrieve_cavity",
    "NoiseParams", "TrajectoryResult", "run_ideal",
    "mcwf_trajectory", "run_trajectories", "ensemble_density",
    "lindblad_evolve",
    "FidelityResult", "FidelityGrid", "DispersiveOverlap", "gate_fidelity",
    "lindblad_gate_fidelity", "logical_process_matrix", "sweep",
    "dispersive_validation",
    "__version__",
]
