"""Simulator for reservoir cooling powered by one-body fermionic entanglement."""

from .gaussian import (
    binary_entropy,
    coherent_information,
    energy_expectation,
    evolve_step,
    fermi_occupation,
    subsystem_entropy,
)
from .master_eq import (
    NoCrossingError,
    Relaxation,
    SweepSchedule,
    find_zero_crossing,
    integrate_population,
    sweep_heat_curve,
)
from .exact_bath import (
    ReservoirSpec,
    build_full_hamiltonian,
    build_reservoir,
    compare_with_master_equation,
    initial_state,
    interaction_energy,
    simulate,
)
from .protocol import (
    EngineError,
    ProtocolConfig,
    ThermoLedger,
    prepare_one_body_state,
    run_purification,
    run_witness_sequence,
    step1_rotate,
    step2_quasistatic,
    step3_swap,
    theorem1_check,
    witness_from_ledger,
    witness_value,
)

__all__ = [
    "EngineError",
    "NoCrossingError",
    "ProtocolConfig",
    "Relaxation",
    "ReservoirSpec",
    "SweepSchedule",
    "ThermoLedger",
    "binary_entropy",
    "build_full_hamiltonian",
    "build_reservoir",
    "coherent_information",
    "compare_with_master_equation",
    "energy_expectation",
    "evolve_step",
    "fermi_occupation",
    "find_zero_crossing",
    "initial_state",
    "integrate_population",
    "interaction_energy",
    "prepare_one_body_state",
    "run_purification",
    "run_witness_sequence",
    "simulate",
    "step1_rotate",
    "step2_quasistatic",
    "step3_swap",
    "subsystem_entropy",
    "sweep_heat_curve",
    "theorem1_check",
    "witness_from_ledger",
    "witness_value",
]

__version__ = "0.1.0"
