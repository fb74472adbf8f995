"""Acceptance gate: one pass/fail line per criterion, printed unconditionally.

Each criterion is a single test so the suite reports them independently.
The lines are written past pytest's capture so they always appear.
"""

import math
import sys
import time

import numpy as np
import pytest

import conftest
import fermicool as fc
from fermicool.protocol import (
    ProtocolConfig,
    prepare_one_body_state,
    run_purification,
    run_witness_sequence,
    theorem1_check,
    witness_from_ledger,
)

import oracle

LN2 = math.log(2.0)


def report(num: int, ok: bool, detail: str):
    verdict = "PASS" if ok else "FAIL"
    line = f"CRITERION {num}: {verdict} - {detail}"
    print(line, file=sys.__stdout__, flush=True)
    conftest.ACCEPTANCE_LINES.append(line)


def test_criterion_1_quasistatic_protocol():
    """Ideal protocol: -Q = -ln 2 and -Q = -I exactly, in under a millisecond."""
    run_purification(ProtocolConfig())  # warmup
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        ledger = run_purification(ProtocolConfig())
        best = min(best, time.perf_counter() - start)
    heat_ok = abs(ledger.total_minus_q + LN2) < 1e-12
    info_ok = abs(ledger.total_minus_q + ledger.initial_coherent_information) < 1e-12
    time_ok = best < 1e-3
    report(1, heat_ok and info_ok and time_ok,
           f"-Q = {ledger.total_minus_q:.15f}, -Q + I = "
           f"{ledger.total_minus_q + ledger.initial_coherent_information:.2e}, "
           f"runtime {best * 1e6:.0f} us")
    assert heat_ok and info_ok and time_ok


def test_criterion_2_heat_vs_sweep_time_curve():
    """50-point -Q(Gamma*tau) curve: end value, zero crossing, runtime."""
    start = time.perf_counter()
    rows = fc.sweep_heat_curve(-5.0, 1.0, 0.02, np.geomspace(0.1, 100.0, 50))
    elapsed = time.perf_counter() - start
    crossing = fc.find_zero_crossing(rows)
    end_value = rows[-1][1]
    end_ok = abs(end_value - (-0.653)) <= 0.02
    time_ok = elapsed < 1.0
    crossing_ok = crossing is not None and 3.5 <= crossing <= 4.5
    report(2, end_ok and time_ok and crossing_ok,
           f"-Q(100) = {end_value:.4f} (target -0.653 +/- 0.02), zero crossing at "
           f"Gamma*tau = {crossing:.3f} (required [3.5, 4.5]), runtime {elapsed:.2f} s")
    assert end_ok and time_ok
    # the model's crossing sits near 2.57 for this sweep; the requirement
    # window [3.5, 4.5] is not attainable and this assertion stays red
    assert crossing_ok


def test_criterion_3_exact_bath_run(fig2_run):
    """Published-parameter exact run: switch-off time and heat."""
    tf_ok = abs(fig2_run.gamma_t_f - 9.3) <= 0.5
    q_ok = abs(fig2_run.minus_Q_tf - (-0.42)) <= 0.05
    time_ok = fig2_run.wall_time < 60.0
    report(3, tf_ok and q_ok and time_ok,
           f"Gamma*t_f = {fig2_run.gamma_t_f:.3f} (9.3 +/- 0.5), -Q(t_f) = "
           f"{fig2_run.minus_Q_tf:.4f} (-0.42 +/- 0.05), "
           f"runtime {fig2_run.wall_time:.1f} s")
    assert tf_ok and q_ok and time_ok


def test_criterion_4_master_exact_agreement(fig2_report):
    """Rate equation tracks the exact populations to 0.02 up to t_f."""
    dev = fig2_report.max_population_deviation
    ok = dev <= 0.02
    report(4, ok, f"max |n_exact - n_master| = {dev:.4f} (required <= 0.02)")
    assert ok


def test_criterion_5_second_law_suite(fig2_run):
    """Entropy production nonnegative along every acceptance run."""
    # exact run: sigma(t) = h(n_S(t)) - h(n_S(0)) + (-Q(t)) at every sample
    h = np.array([fc.binary_entropy(min(max(n, 0.0), 1.0)) for n in fig2_run.n_S])
    sigma_exact = h - h[0] + fig2_run.minus_Q
    exact_ok = sigma_exact.min() >= -1e-4

    # rate equation at the same parameters, full trajectory
    schedule = fig2_run.schedule
    traj = fc.integrate_population(schedule, fig2_run.spec.gamma, threshold=None,
                                   max_time=fig2_run.times[-1])
    hm = np.array([fc.binary_entropy(n) for n in traj.populations])
    sigma_me = hm - hm[0] + fc.cumulative_heat(traj)
    me_ok = sigma_me.min() >= -1e-6

    # quasistatic runs: ledger entropy production
    quasi_ok = all(
        run_purification(cfg).steps[-1].entropy_production >= -1e-6
        for cfg in (
            ProtocolConfig(),
            ProtocolConfig(p=1.0),
            ProtocolConfig(diagonal=(0.5, 0.5)),
            ProtocolConfig(diagonal=(0.2, 0.9), step2_target=1.0),
        )
    )
    ok = exact_ok and me_ok and quasi_ok
    report(5, ok,
           f"min sigma: exact {sigma_exact.min():.2e} (>= -1e-4), rate equation "
           f"{sigma_me.min():.2e} (>= -1e-6), quasistatic ledgers "
           f"{'ok' if quasi_ok else 'VIOLATED'}")
    assert ok


def test_criterion_6_separability_bound_suite():
    """1000 randomized separable runs respect the heat and witness bounds."""
    rng = np.random.default_rng(2024)
    worst_mq = math.inf
    worst_witness = math.inf
    for _ in range(1000):
        n_m, n_s = rng.uniform(0.0, 1.0, size=2)
        ledger = run_purification(ProtocolConfig(
            diagonal=(n_m, n_s), step2_target=float(rng.integers(0, 2)),
        ))
        assert theorem1_check(ledger, initially_separable=True).passed
        worst_mq = min(worst_mq, ledger.total_minus_q)
        worst_witness = min(worst_witness, witness_from_ledger(ledger))
    sep_ok = worst_mq >= -1e-9 and worst_witness >= -1e-9

    entangled = run_witness_sequence(
        prepare_one_body_state(0.5, math.pi / 2), [{"op": "rotate"}]
    )
    ent_ok = abs(entangled.value + LN2) < 1e-12
    ok = sep_ok and ent_ok
    report(6, ok,
           f"1000 separable runs: min -Q = {worst_mq:.2e}, min witness = "
           f"{worst_witness:.2e} (>= -1e-9); entangled witness = "
           f"{entangled.value:.15f} (-ln 2 +/- 1e-12)")
    assert ok


def test_criterion_7_bruteforce_oracle():
    """Correlation-matrix entropies and evolution match the 2^N construction."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for dim in (2, 3):
        for _ in range(10):
            C = oracle.random_correlation(rng, dim)
            rho = oracle.density_from_correlation(C)
            worst = max(worst, abs(
                fc.subsystem_entropy(C, range(dim)) - oracle.von_neumann_entropy(rho)
            ))
            keep = sorted(rng.choice(dim, size=int(rng.integers(1, dim)), replace=False))
            worst = max(worst, abs(
                fc.subsystem_entropy(C, keep)
                - oracle.subsystem_entropy_bruteforce(C, keep)
            ))
            h = oracle.random_hermitian(rng, dim)
            t = float(rng.uniform(0.0, 3.0))
            slow = oracle.correlation_from_density(oracle.evolve_density(rho, h, t))
            worst = max(worst, float(np.abs(fc.evolve_step(C, h, t) - slow).max()))
    ok = worst < 1e-8
    report(7, ok, f"max deviation from brute-force construction = {worst:.2e} (< 1e-8)")
    assert ok


def test_criterion_8_conservation_suite(bath_bookkeeping):
    """Trace, spectrum, inter-quench energy and quench jumps to 1e-10."""
    rng = np.random.default_rng(8)
    worst_trace = worst_spec = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 6))
        C = oracle.random_correlation(rng, dim)
        H = oracle.random_hermitian(rng, dim)
        out = fc.evolve_step(C, H, float(rng.uniform(0.0, 2.0)))
        worst_trace = max(worst_trace, abs(np.trace(out).real - np.trace(C).real))
        worst_spec = max(
            worst_spec, np.abs(np.linalg.eigvalsh(out) - np.linalg.eigvalsh(C)).max()
        )

    log = bath_bookkeeping
    trace_drift = float(np.abs(np.diff(log["trace"])).max())
    energy_drift = float(np.abs(log["energy_post"] - log["energy_pre"]).max())
    jump_err = float(np.abs(log["quench_jump_actual"] - log["quench_jump_expected"]).max())
    ok = (worst_trace < 1e-10 and worst_spec < 1e-10 and trace_drift < 1e-10
          and energy_drift < 1e-10 and jump_err < 1e-10)
    report(8, ok,
           f"trace {max(worst_trace, trace_drift):.2e}, spectrum {worst_spec:.2e}, "
           f"inter-quench energy {energy_drift:.2e}, quench jumps {jump_err:.2e} "
           f"(all < 1e-10)")
    assert ok
