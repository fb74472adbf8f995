"""Exact system-plus-reservoir dynamics against the rate-equation prediction.

The reservoir is discretized into K = 200 levels and the joint correlation
matrix is evolved exactly while the system level sweeps from -5 to 1 over
Gamma*tau = 10, holding at the endpoint until the population reaches one
half.  The rate equation tracks the exact population within a couple of
percent, and both descriptions agree on the heat extracted at switch-off.
"""

from fermicool import (
    ReservoirSpec,
    SweepSchedule,
    compare_with_master_equation,
    simulate,
)

GAMMA = 0.02


def main():
    spec = ReservoirSpec(K=200, gamma=GAMMA)
    schedule = SweepSchedule(-5.0, 1.0, 10.0 / GAMMA)
    print(f"evolving {spec.K + 1} modes exactly (about a second)...")
    run = simulate(spec, schedule, n_S0=1.0, dt=0.06 / GAMMA)
    report = compare_with_master_equation(run)

    print("\nGamma*t    n_exact   n_rate    -Q_exact")
    for i in range(0, len(run.times), len(run.times) // 12):
        print(f"{GAMMA * run.times[i]:7.2f}   {run.n_S[i]:7.4f}   "
              f"{report.n_master[i]:7.4f}   {run.minus_Q[i]:+8.4f}")

    print(f"\nswitch-off: Gamma*t_f = {run.gamma_t_f:.3f}, "
          f"-Q(t_f) = {run.minus_Q_tf:+.4f}")
    print(f"rate equation: Gamma*t_f = {GAMMA * report.master_t_f:.3f}, "
          f"-Q(t_f) = {report.master_minus_Q_tf:+.4f}")
    print(f"max population deviation: {report.max_population_deviation:.4f}")


if __name__ == "__main__":
    main()
