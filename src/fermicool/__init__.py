"""Simulator for reservoir cooling powered by one-body fermionic entanglement."""

from types import ModuleType as _ModuleType

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
    step3_swap,
    theorem1_check,
    witness_from_ledger,
    witness_value,
)

# every public name imported above; the submodules bound by those imports are left out
__all__ = sorted(
    name for name, value in globals().items()
    if not (name.startswith("_") or isinstance(value, _ModuleType))
)

__version__ = "0.1.0"
