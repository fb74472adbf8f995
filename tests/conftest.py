import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import fermicool as fc

FIG2 = dict(gamma=0.02, gamma_tau=10.0, gamma_dt=0.06, K=200, eps1=-5.0, eps2=1.0)

# one line per acceptance criterion, echoed in the terminal summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def fig2_run():
    """Exact bath run at the published comparison parameters (shared, ~0.4 s)."""
    spec = fc.ReservoirSpec(K=FIG2["K"], gamma=FIG2["gamma"])
    schedule = fc.SweepSchedule(FIG2["eps1"], FIG2["eps2"], FIG2["gamma_tau"] / FIG2["gamma"])
    start = time.perf_counter()
    run = fc.simulate(spec, schedule, n_S0=1.0, dt=FIG2["gamma_dt"] / FIG2["gamma"])
    run.wall_time = time.perf_counter() - start
    return run


@pytest.fixture(scope="session")
def fig2_report(fig2_run):
    return fc.compare_with_master_equation(fig2_run)


@pytest.fixture(scope="session")
def bath_bookkeeping():
    """Per-step trace and energy series of a 40-step K=30 exact-bath run.

    `simulate` keeps only n_S and -Q per step, so C after step k is read as
    the C_final of the same run stopped at max_time = k * dt, k = 0..40.
    Step k+1 runs under H[k], the full Hamiltonian at eps(t_k).  Returns
    arrays: the trace of each C; each step's energy under its own H before
    and after it; and, from the second step on, the actual energy jump when
    the quench replaces H[k-1] by H[k] against the expected
    (eps_k - eps_{k-1}) * n_S before the step.
    """
    steps, dt = 40, 1.0
    spec = fc.ReservoirSpec(K=30, gamma=0.05)
    schedule = fc.SweepSchedule(-5.0, 1.0, 10.0 / 0.05)
    runs = [fc.simulate(spec, schedule, dt=dt, threshold=None, max_time=k * dt)
            for k in range(steps + 1)]
    C = [run.C_final for run in runs]
    times, n_S = runs[-1].times, runs[-1].n_S
    levels, t_amp = fc.build_reservoir(spec)
    eps = [schedule.energy(t) for t in times[:-1]]
    H = [fc.build_full_hamiltonian(e, levels, t_amp) for e in eps]

    def energy(k, j):
        return float(np.real(np.trace(H[k] @ C[j])))

    return {
        "trace": np.array([np.trace(c).real for c in C]),
        "energy_pre": np.array([energy(k, k) for k in range(steps)]),
        "energy_post": np.array([energy(k, k + 1) for k in range(steps)]),
        "quench_jump_actual": np.array(
            [energy(k, k) - energy(k - 1, k) for k in range(1, steps)]),
        "quench_jump_expected": np.array(
            [(eps[k] - eps[k - 1]) * n_S[k] for k in range(1, steps)]),
    }
