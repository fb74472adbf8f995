"""Heat dissipated during the finite-time relaxation step vs sweep duration.

The system level is dragged linearly from eps1 = -5 to eps2 = 1 while a
weakly coupled reservoir relaxes its population towards the instantaneous
Fermi factor; the bath is switched off when the population first reaches
one half.  Fast sweeps dissipate heat into the reservoir (-Q > 0); slow
sweeps extract heat (-Q < 0), approaching
-Q_inf = -(eps1 (f(eps1) - 1) + ln 2 - h(f(eps1))) ~ -0.686 in the slow-sweep
limit: the instant relaxation from n = 1 to f(-5), then the reversible heat
ln 2 - h(f(-5)) ~ 0.653 from f(-5) to one half.  The sign change marks the
break-even sweep time.
"""

import numpy as np

from fermicool import find_zero_crossing, sweep_heat_curve


def bar(value, scale=40.0, span=0.7):
    n = int(round(abs(value) / span * scale))
    return ("+" if value >= 0 else "-") * n


def main():
    grid = np.geomspace(0.1, 100.0, 25)
    rows = sweep_heat_curve(-5.0, 1.0, 0.02, grid)

    print("Gamma*tau    -Q")
    for gtau, mq in rows:
        print(f"{gtau:9.3f}  {mq:+.4f}  {bar(mq)}")

    crossing = find_zero_crossing(rows)
    print(f"\nbreak-even sweep time: Gamma*tau = {crossing:.3f}")
    print("beyond it the relaxation step cools the system at the reservoir's expense")


if __name__ == "__main__":
    main()
