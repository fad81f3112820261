"""Cavity-QED Toffoli gate simulator.

Builds the gate's pulse/interaction schedule, evolves the composite
cavity-atom state exactly in the ideal case, and estimates gate fidelity
under photon loss and timing imprecision with quantum-jump trajectories
cross-checked against a Lindblad master-equation oracle.
"""

from .analysis import (DispersiveOverlap, FidelityGrid, FidelityResult,
                       dispersive_validation, gate_fidelity,
                       lindblad_gate_fidelity, sweep)
from .model import (Level, PhysicalParams, annihilation, collision_propagator,
                    dispersive_hamiltonian, full_detuned_hamiltonian,
                    jc_hamiltonian, number_operator, rabi_propagator,
                    rge_pulse, rig_pulse)
from .protocol import (LOGICAL_BITS, Schedule, Segment, encode_logical,
                       logical_process_matrix, prepare_cavity, retrieve_cavity,
                       run_ideal, toffoli_map, toffoli_schedule)
from .qmath import (CompositeSpace, DensityMatrix, OperatorMatrix, StateVector,
                    embed_operator, partial_trace, propagator, state_fidelity,
                    tensor_operator, tensor_state, trace_distance)
from .trajectories import (NoiseParams, TrajectoryResult, ensemble_density,
                           lindblad_evolve, mcwf_trajectory, run_trajectories,
                           substream)

__version__ = "0.1.0"

__all__ = [
    "CompositeSpace", "StateVector", "OperatorMatrix", "DensityMatrix",
    "tensor_state", "tensor_operator", "embed_operator", "propagator",
    "state_fidelity", "partial_trace", "trace_distance",
    "Level", "PhysicalParams", "annihilation", "number_operator",
    "jc_hamiltonian", "rabi_propagator", "dispersive_hamiltonian",
    "collision_propagator", "rig_pulse", "rge_pulse",
    "full_detuned_hamiltonian",
    "Segment", "Schedule", "LOGICAL_BITS", "encode_logical", "toffoli_map",
    "toffoli_schedule", "run_ideal", "logical_process_matrix",
    "prepare_cavity", "retrieve_cavity",
    "NoiseParams", "TrajectoryResult", "substream", "mcwf_trajectory",
    "run_trajectories", "ensemble_density",
    "lindblad_evolve",
    "FidelityResult", "FidelityGrid", "DispersiveOverlap", "gate_fidelity",
    "lindblad_gate_fidelity", "sweep", "dispersive_validation",
    "__version__",
]
