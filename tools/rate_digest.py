"""Print one SHA-256 over a fixed corpus of rate-equation results.

    python3 tools/rate_digest.py

Runs the rate equation of `fermicool.master_eq`, importing it from the `src/`
of the checkout this script sits in:
- the Fig. 1 loop `_heat_curve` for the five (eps1, eps2) pairs of the
  ROADMAP's break-even table, on Gamma*tau in {0.001, 0.01, 0.03} followed by
  `np.geomspace(0.1, 100, 50)`, at n0 = 1 and n0 = 0.8: every row, every
  failure's text and each curve's `find_zero_crossing`;
- `integrate_population` on the published sweep with threshold 0.5 and with
  threshold None, and on a Gamma*tau = 1 sweep that crosses in the hold:
  times, n_S, -Q, t_f and -Q(t_f).  Sweeps of Gamma*tau <= 0.01 stay out of
  this set, because their runs to max_time build 10^5 to 10^6 hold samples.
Every float enters the hash through its `repr`, which keeps every bit and
the sign of zero.  Run it in two checkouts and compare the two lines; a
change that keeps its numbers prints the same digest.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fermicool import master_eq  # noqa: E402

GAMMA = master_eq.GAMMA
PAIRS = ((-5.0, 1.0), (-5.0, 2.0), (-5.0, 3.0), (-3.0, 1.0), (-10.0, 1.0))
GRID = [0.001, 0.01, 0.03] + np.geomspace(0.1, 100.0, 50).tolist()
RUNS = [  # (Gamma*tau, threshold) of the integrate_population runs
    (master_eq.GAMMA_TAU, 0.5), (master_eq.GAMMA_TAU, None), (1.0, 0.5),
]


def _curve_entry(pair, n0: float) -> dict:
    rows, failures = master_eq._heat_curve(*pair, GAMMA, GRID, n0=n0)
    return {
        "pair": pair,
        "n0": n0,
        "rows": rows,
        "failures": [(gtau, type(exc).__name__, str(exc)) for gtau, exc in failures],
        "crossing": master_eq.find_zero_crossing(rows),
    }


def _run_entry(gamma_tau: float, threshold: float | None) -> dict:
    schedule = master_eq.SweepSchedule(master_eq.EPS1, master_eq.EPS2, gamma_tau / GAMMA)
    run = master_eq.integrate_population(schedule, GAMMA, threshold=threshold)
    return {
        "gamma_tau": gamma_tau,
        "threshold": threshold,
        "times": run.times.tolist(),
        "n_S": run.n_S.tolist(),
        "minus_Q": run.minus_Q.tolist(),
        "t_f": run.t_f,
        "minus_Q_tf": run.minus_Q_tf,
    }


def corpus() -> list[dict]:
    entries = [_curve_entry(pair, n0) for n0 in (1.0, 0.8) for pair in PAIRS]
    return entries + [_run_entry(*run) for run in RUNS]


def digest() -> str:
    text = json.dumps(corpus(), sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


if __name__ == "__main__":
    if len(sys.argv) != 1:
        sys.exit(__doc__)
    print(digest())
