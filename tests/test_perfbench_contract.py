"""The benchmark harness in perfbench/ still runs against the package.

perfbench/ reads the package's results by attribute (a run's times, n_S,
schedule, spec, C_final, gamma_t_f and minus_Q_tf, a report's
max_population_deviation) and calls `exact_bath.initial_state`,
`sweep_heat_curve` and `find_zero_crossing`.  These tests run some of its
operations (a bath run, a Fig. 1 point, a fast sweep, the ledgers) with the
harness's own checks, so a refactor that breaks the benchmark fails here.
Its tracer wraps the functions that `fermicool.__all__` names, so that list
is pinned here too.
"""

import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import fermicool

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    # imported here, not at collection: the harness's references load scipy
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def test_bath_operation_at_K50(workloads):
    op = next(op for op in workloads.bath_ops() if op.call.args == (50,))
    assert op.check(op.call()) == []


def test_sweep_point(workloads):
    pair = workloads.PAIRS[0]
    want = workloads.ref.rate_equation_minus_q(*pair, workloads.GAMMA, 1.0)
    assert workloads._check_fast_sweep(pair, want, workloads._point(pair, 1.0)) == []


class _SolvedOnRead:
    """One curve's reference -Q values, each solved when a check reads it."""

    def __init__(self, workloads, pair):
        self.workloads, self.pair = workloads, pair

    def __getitem__(self, i):
        w = self.workloads
        return w.ref.rate_equation_minus_q(*self.pair, w.GAMMA, float(w.CURVE_GRID[i]))


def test_sweep_operations(workloads, monkeypatch):
    # the references of the points run here, not of all 250 curve points
    monkeypatch.setattr(workloads.RateReference, "curve",
                        lambda self, pair: _SolvedOnRead(workloads, pair))
    monkeypatch.setattr(workloads.RateReference, "crossing", lambda self: None)
    ops = workloads.sweep_ops(np.random.default_rng(0), workloads.RateReference())
    # a Fig. 1 point that crosses in the hold (the published pair at
    # Gamma*tau = 1.93) and a Gamma*tau = 0.01 fast sweep, each with its own check
    point = (workloads.PAIRS[0], float(workloads.CURVE_GRID[21]))
    curve_op = next(op for op in ops if op.kind == "main" and op.call.args == point)
    fast_op = next(op for op in ops if op.kind == "aux")
    assert fast_op.call.args[1] == workloads.FAST_GAMMA_TAU
    for op in (curve_op, fast_op):
        assert op.check(op.call()) == []


def test_ledger_operations(workloads):
    ops = workloads.ledger_ops(np.random.default_rng(0))
    assert [problem for op in ops for problem in op.check(op.call())] == []


# the names perfbench/spans.py wraps (besides cli.main and cli.write_table)
EXPORTS = [
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
    "step3_swap",
    "subsystem_entropy",
    "sweep_heat_curve",
    "theorem1_check",
    "witness_from_ledger",
    "witness_value",
]


def test_export_list():
    assert fermicool.__all__ == EXPORTS
    assert not any(inspect.ismodule(getattr(fermicool, name)) for name in fermicool.__all__)
