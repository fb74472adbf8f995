"""Simulator for reservoir cooling powered by one-body fermionic entanglement.

A public name imports its module on first use (PEP 562), so `import fermicool`
loads no numpy.
"""

import importlib

# module -> the public names it defines
_EXPORTS = {
    "gaussian": ("binary_entropy", "coherent_information", "energy_expectation", "evolve_step",
                 "fermi_occupation", "subsystem_entropy"),
    "master_eq": ("Relaxation", "find_zero_crossing", "integrate_population",
                  "sweep_heat_curve"),
    "exact_bath": ("build_full_hamiltonian", "build_reservoir", "compare_with_master_equation",
                   "initial_state", "interaction_energy", "simulate"),
    "protocol": ("ThermoLedger", "prepare_one_body_state", "run_purification",
                 "run_witness_sequence", "step1_rotate", "step3_swap", "theorem1_check",
                 "witness_from_ledger", "witness_value"),
    "params": ("EngineError", "NoCrossingError", "ProtocolConfig", "ReservoirSpec",
               "SweepSchedule"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
