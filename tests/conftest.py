import sys
import time
from pathlib import Path

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
