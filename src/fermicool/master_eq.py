"""Rate-equation model of the driven system mode.

Integrates n_S' = -Gamma * [n_S - f(eps_S(t))] for a linear energy sweep
and computes the dissipated heat -Q = -int eps_S(t) n_S'(t) dt up to the
time t_f at which the population first reaches 1/2.

The integrator is classical fixed-step RK4.  A run is one scan and two
readouts: `_scan` steps the sweep, `_switch_off` reads t_f and -Q(t_f) off it,
and `integrate_population` builds the samples up to the crossing.  From the
first grid point at or after tau the steps have a closed form, which only the
grid evaluates beyond the crossing's bracket.

Both finite-time engines (this one and exact_bath.simulate) sample one time
grid, t_k = k*dt for k = 0..nsteps, where nsteps is the smallest k with
k*dt >= max_time; `_horizon` sets it, with the stop and step-budget checks,
and `_grid_index` is the rule for the smallest such k.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .gaussian import _require_finite, _require_positive, _require_probability, fermi_occupation

# the published parameters of Figs. 1 and 2 (units of k_B*T), the only place they are set
EPS1 = -5.0
EPS2 = 1.0
GAMMA = 0.02
GAMMA_TAU = 10.0
RESERVOIR_MODES = 200
GAMMA_DT = 0.06

# steps per scan block; since Gamma*dt <= 0.01, A**-m stays below about e**41
_BLOCK_STEPS = 4096
# longest time grid accepted; a grid this long already takes seconds and gigabytes
_MAX_STEPS = 10**8


class EngineError(RuntimeError):
    """A finite-time engine did not finish (e.g. an unreachable target, no crossing)."""


class NoCrossingError(EngineError):
    """Population never reached the switch-off threshold."""


@dataclass(frozen=True)
class SweepSchedule:
    """Piecewise-linear system energy: eps1 -> eps2 over [0, tau], then held."""

    eps1: float
    eps2: float
    tau: float

    def __post_init__(self):
        for name in ("eps1", "eps2"):
            _require_finite(name, getattr(self, name))
        _require_positive("tau", self.tau)
        if not self.eps1 < self.eps2:
            raise ValueError(f"require eps1 < eps2, got {self.eps1} >= {self.eps2}")
        # finite ends can span more than the largest float, which makes every energy NaN
        _require_finite("eps2 - eps1", self.eps2 - self.eps1)

    def energy(self, t):
        t = np.asarray(t, dtype=float)
        frac = np.clip(t / self.tau, 0.0, 1.0)
        e = self.eps1 + (self.eps2 - self.eps1) * frac
        if e.ndim == 0:
            return float(e)
        return e


@dataclass
class Relaxation:
    """n_S(t) and -Q(t) of one finite-time relaxation, from either engine.

    threshold is the switch-off level of the run (None: run to max_time); t_f
    and minus_Q_tf are set when the run stopped at it; spec (an
    exact_bath.ReservoirSpec) and C_final only by the exact bath.
    """

    times: np.ndarray
    n_S: np.ndarray
    minus_Q: np.ndarray
    dt: float
    gamma: float
    schedule: SweepSchedule
    threshold: float | None
    t_f: float | None = None
    minus_Q_tf: float | None = None
    spec: object | None = None
    C_final: np.ndarray | None = None

    @property
    def gamma_t_f(self) -> float | None:
        return None if self.t_f is None else self.gamma * self.t_f


def _check_rate_inputs(gamma: float, n0: float, dt: float | None) -> None:
    """Reject the rate-equation inputs that do not depend on the sweep schedule."""
    _require_positive("gamma", gamma)
    _require_probability("n0", n0)
    if dt is not None:
        _require_positive("dt", dt)
        if dt > 0.01 / gamma * (1 + 1e-12):
            raise ValueError(f"dt={dt} too coarse; require dt <= 0.01/gamma = {0.01 / gamma}")


def _check_switch_off(n0: float) -> None:
    """Reject a figure run that would switch off at t = 0: n0 at or below 1/2."""
    if not n0 > 0.5:
        raise ValueError(f"n0 must be above the switch-off threshold 0.5, got {n0}")


def _grid_index(t: float, dt: float) -> float:
    """The smallest k with k*dt >= t, as a float (inf for t = inf).  The quotient
    can round across an integer, so the grid's own products decide."""
    k = np.ceil(t / dt)
    if k * dt < t:
        k += 1
    elif k > 0 and (k - 1) * dt >= t:
        k -= 1
    return k


def _horizon(schedule: SweepSchedule, gamma: float, dt: float, threshold: float | None,
             max_time: float | None, max_steps: float) -> tuple[float, int]:
    """The grid of both engines: max_time (default tau + 20/gamma) and nsteps, the
    smallest k with k*dt >= max_time.  Rejects, before any work, a threshold or
    max_time that is not a finite number, a negative max_time and a grid of more
    than max_steps steps."""
    if max_time is None:
        max_time = schedule.tau + 20.0 / gamma
    if threshold is not None:
        _require_finite("threshold", threshold)
    _require_finite("max_time", max_time)
    if max_time < 0:
        raise ValueError(f"max_time must be nonnegative, got {max_time}")
    nsteps = _grid_index(max_time, dt)
    if nsteps > max_steps:
        raise ValueError(f"max_time/dt = {max_time}/{dt} needs {nsteps:.3g} steps, "
                         f"more than the work budget of {max_steps:.3g}")
    return max_time, int(nsteps)


# one run up to j: the samples n_S, the heat integrand's trapezoid areas, the
# last block's integrand g, and the hold's n_S = f2 + (n - f2) a^m at offset m
_Scan = namedtuple("_Scan", "threshold max_time nsteps dt n_S areas g n f2 e2 a")


def _scan(schedule: SweepSchedule, gamma: float, n0: float = 1.0, dt: float | None = None,
          threshold: float | None = 0.5, max_time: float | None = None) -> _Scan:
    """The checks and RK4 steps of a run up to j, the first grid index with
    j*dt >= tau, or to its first sample at or below threshold.

    For n' = -Gamma (n - f(t)) one RK4 step is exactly affine, with h = Gamma*dt:
    n_{k+1} = A n_k + B0 f_k + Bm f_{k+1/2} + B1 f_{k+1}, evaluated block by block
    as n_k = A^k (n_start + sum_{i<k} b_i / A^{i+1}).  From j on eps = eps2 and
    B0 + Bm + B1 = 1 - A, so the steps have the closed form f2 + (n_j - f2) A^m.
    """
    _check_rate_inputs(gamma, n0, dt)
    if gamma > 0.1:
        warnings.warn(
            f"gamma={gamma} is not small compared to k_B*T; the rate equation "
            "assumes weak system-reservoir coupling",
            stacklevel=3,
        )
    if dt is None:
        dt = min(0.01 / gamma, schedule.tau / 1000.0)
    max_time, nsteps = _horizon(schedule, gamma, dt, threshold, max_time, _MAX_STEPS)
    level = -np.inf if threshold is None else threshold
    # the scan's last step ends at the hold's start, the first grid point at or after tau
    j_tau = int(min(nsteps, _grid_index(schedule.tau, dt)))
    h = gamma * dt
    a = 1.0 - h + h**2 / 2.0 - h**3 / 6.0 + h**4 / 24.0
    b0 = h / 6.0 * (1.0 - h + h**2 / 2.0 - h**3 / 4.0)
    bm = h / 6.0 * (4.0 - 2.0 * h + h**2 / 2.0)
    b1 = h / 6.0
    powers = a ** np.arange(1, min(_BLOCK_STEPS, j_tau) + 1)

    n = float(n0)
    chunks = [np.array([n])]
    areas, g = [np.zeros(0)], None  # trapezoid areas of the heat integrand g, step by step
    k = 0
    while k < j_tau and n > level:
        m = min(_BLOCK_STEPS, j_tau - k)
        t = dt * np.arange(k, k + m + 1)
        pw = powers[:m]
        e = schedule.energy(t)
        f = fermi_occupation(e)
        f_half = fermi_occupation(schedule.energy(t[:-1] + 0.5 * dt))
        drive = b0 * f[:-1] + bm * f_half + b1 * f[1:]
        ns = pw * (n + np.cumsum(drive / pw))
        below = np.flatnonzero(ns <= level)
        if below.size:
            ns = ns[: below[0] + 1]
        # the integrand g = eps_S n_S' = eps_S * (-Gamma (n_S - f)) at the
        # block's samples from its start, with n_S clipped as it is kept, and
        # the trapezoid areas diff(t) * (g[1:] + g[:-1]) / 2 of its steps
        kept = ns.size + 1
        nb = np.clip(np.concatenate(([n], ns)), 0.0, 1.0)
        g = e[:kept] * (-gamma * (nb - f[:kept]))
        areas.append(np.subtract(t[1:kept], t[: kept - 1]) * (g[1:] + g[:-1]) / 2.0)
        chunks.append(nb[1:])
        n = float(ns[-1])
        k += m
    e2 = schedule.energy(schedule.tau)
    return _Scan(threshold, max_time, nsteps, dt, np.concatenate(chunks), np.concatenate(areas),
                 g, n, fermi_occupation(e2), e2, a)


def _hold(scan: _Scan, m: np.ndarray) -> np.ndarray:
    """The hold's samples, clipped, at float offsets m from j."""
    return np.clip(np.power(scan.a, m) * (scan.n - scan.f2) + scan.f2, 0.0, 1.0)


def _switch_off(scan: _Scan) -> tuple[int, float, float]:
    """The crossing's grid index i, `_first_crossing`'s t_f and -Q(t_f) of a scan.

    Up to j, -Q(t_f) adds to the areas of the steps before the crossing a
    partial step with the integrand linearly interpolated to t_f.  In the hold,
    evaluated only on the crossing's bracket, the heat is the state function
    -Q_j - eps2 (n_S - n_j), and -Q(t_f) = -Q_j - eps2 (threshold - n_j).
    """
    threshold, max_time, dt, n_S = scan.threshold, scan.max_time, scan.dt, scan.n_S
    j = n_S.size - 1
    count = scan.nsteps - j if scan.n > threshold else 0  # hold steps to max_time
    if not count:
        i, (t_f,) = _first_crossing(n_S, threshold, max_time, dt * np.arange(j + 1.0))
        if i == 0:
            return 0, t_f, 0.0
        # i is the last sample, so g ends at it; the partial-step fraction
        # is recomputed from t_f: the crossing's own can differ in the last bit
        g, t0 = scan.g, dt * (i - 1.0)
        g_tf = g[-2] + (g[-1] - g[-2]) * ((t_f - t0) / (dt * i - t0))
        return i, t_f, float(-(scan.areas[: i - 1].sum() + (t_f - t0) * 0.5 * (g[-2] + g_tf)))
    f2, a = scan.f2, scan.a
    # the closed form's first step at or below the threshold (inf if the hold
    # never gets there); past the hold's end the run fails at max_time unbuilt,
    # unless its last sample crosses and the whole hold is searched.  Else the
    # computed samples decide on [cross - 2, cross + 1]: a step of slack either
    # side, and the step before the crossing
    cross = (math.ceil(math.log((threshold - f2) / (scan.n - f2)) / math.log(a))
             if f2 < threshold and a < 1.0 else math.inf)
    if cross > count + 1:
        _first_crossing([f2 + (scan.n - f2) * a**count], threshold, max_time)
    lo, hi = (1, count) if cross > count + 1 else (max(1, cross - 2), min(count, cross + 1))
    m = np.concatenate(([0.0], np.arange(lo, hi + 1.0)))
    values = np.concatenate((n_S[j:], _hold(scan, m[1:])))
    below = np.flatnonzero(values <= threshold)
    i, (t_f,) = _first_crossing(values[: below[0] + 1] if below.size else values, threshold,
                                max_time, (j + m) * dt)
    minus_Q_j = -np.cumsum(scan.areas)[-1]
    return j + int(m[i]), t_f, float(minus_Q_j - scan.e2 * (threshold - n_S[j]))


def integrate_population(schedule: SweepSchedule, gamma: float, n0: float = 1.0,
                         dt: float | None = None, threshold: float | None = 0.5,
                         max_time: float | None = None) -> Relaxation:
    """Fixed-step RK4 integration of the linear relaxation ODE, with its heat.

    Stops at the first sample with n_S <= threshold (that sample is kept so
    the crossing is bracketed), or raises NoCrossingError at max_time.
    Pass threshold=None to integrate to max_time unconditionally.  -Q(t) is
    the cumulative trapezoid of eps_S n_S', with n_S' from the ODE right-hand
    side at each sample, up to `_scan`'s j, then the hold's state function.
    """
    scan = _scan(schedule, gamma, n0, dt, threshold, max_time)
    last, t_f, minus_Q_tf = (scan.nsteps, None, None) if threshold is None else _switch_off(scan)
    hold = _hold(scan, np.arange(1.0, last + 2 - scan.n_S.size))  # offsets 1..last - j
    minus_Q = -np.concatenate(([0.0], np.cumsum(scan.areas)))
    minus_Q = np.concatenate((minus_Q, (hold - scan.n_S[-1]) * -scan.e2 + minus_Q[-1]))
    return Relaxation(np.arange(last + 1.0) * scan.dt, np.concatenate((scan.n_S, hold)), minus_Q,
                      scan.dt, gamma, schedule, threshold, t_f, minus_Q_tf)


def _first_crossing(values, threshold: float, max_time: float, *series) -> tuple[int, list[float]]:
    """The switch-off rule of both engines, on a run stopped at its first sample
    at or below threshold or at max_time: the index i = len(values) - 1 of that
    sample, and each of `series` linearly interpolated to the crossing in
    (i - 1, i] (its first entry if i == 0).  Raises NoCrossingError when the
    run stopped above threshold.
    """
    i = len(values) - 1
    if not values[i] <= threshold:
        raise NoCrossingError(
            f"n_S never reached {threshold} before t={max_time} (final n_S={values[i]:.6f})"
        )
    if i == 0:
        return 0, [float(s[0]) for s in series]
    if not values[i - 1] > threshold:
        raise ValueError("population not monotone across the crossing bracket")
    frac = (values[i - 1] - threshold) / (values[i - 1] - values[i])
    return i, [float(s[i - 1] + frac * (s[i] - s[i - 1])) for s in series]


def _heat_curve(eps1: float, eps2: float, gamma: float, gamma_tau_values,
                n0: float = 1.0, dt: float | None = None):
    """The one Fig. 1 loop: (Gamma*tau, -Q) rows and (Gamma*tau, exception) failures.

    Every input is checked first, so an input error is raised once; a point whose
    run fails (no crossing, the step budget, a non-monotone bracket) is a failure.
    """
    _check_rate_inputs(gamma, n0, dt)
    _check_switch_off(n0)
    points = [(float(g), SweepSchedule(eps1, eps2, float(g) / gamma)) for g in gamma_tau_values]
    if not points:
        raise ValueError("gamma_tau list must be nonempty")
    rows, failures = [], []
    for gtau, schedule in points:
        try:
            rows.append((gtau, _switch_off(_scan(schedule, gamma, n0=n0, dt=dt))[2]))
        except (NoCrossingError, ValueError) as exc:
            # without its traceback, which would keep the failed run's arrays alive
            failures.append((gtau, exc.with_traceback(None)))
    return rows, failures


def sweep_heat_curve(eps1: float, eps2: float, gamma: float,
                     gamma_tau_values) -> list[tuple[float, float]]:
    """Table of (Gamma*tau, -Q) over a list of dimensionless sweep times.

    Raises the first failed point's own exception, after every point has run.
    """
    rows, failures = _heat_curve(eps1, eps2, gamma, gamma_tau_values)
    if failures:
        raise failures[0][1]
    return rows


def find_zero_crossing(rows) -> float | None:
    """Interpolated Gamma*tau at which -Q changes sign, or None."""
    for (x0, y0), (x1, y1) in zip(rows, rows[1:]):
        if y0 == 0.0:
            return float(x0)
        if y0 * y1 < 0:
            return float(x0 + (x1 - x0) * y0 / (y0 - y1))
    if rows and rows[-1][1] == 0.0:
        return float(rows[-1][0])
    return None
