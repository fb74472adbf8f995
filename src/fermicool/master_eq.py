"""Rate-equation model of the driven system mode.

Integrates n_S' = -Gamma * [n_S - f(eps_S(t))] for a linear energy sweep
and computes the dissipated heat -Q = -int eps_S(t) n_S'(t) dt up to the
time t_f at which the population first reaches 1/2.

The integrator is classical fixed-step RK4.  Because the ODE is linear, one
RK4 step is an affine map of n_S, so the steps are evaluated as a vectorised
scan over blocks of the time grid; only the blocks up to the crossing are
ever built.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .gaussian import fermi_occupation

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


class NoCrossingError(RuntimeError):
    """Population never reached the switch-off threshold."""


def _require_finite(name: str, value) -> None:
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class SweepSchedule:
    """Piecewise-linear system energy: eps1 -> eps2 over [0, tau], then held."""

    eps1: float
    eps2: float
    tau: float

    def __post_init__(self):
        for name in ("eps1", "eps2", "tau"):
            _require_finite(name, getattr(self, name))
        if not self.eps1 < self.eps2:
            raise ValueError(f"require eps1 < eps2, got {self.eps1} >= {self.eps2}")
        if not self.tau > 0:
            raise ValueError(f"require tau > 0, got {self.tau}")

    def energy(self, t):
        t = np.asarray(t, dtype=float)
        frac = np.clip(t / self.tau, 0.0, 1.0)
        e = self.eps1 + (self.eps2 - self.eps1) * frac
        if e.ndim == 0:
            return float(e)
        return e


@dataclass
class PopulationTrajectory:
    times: np.ndarray
    populations: np.ndarray
    energies: np.ndarray
    dt: float
    gamma: float
    schedule: SweepSchedule

    def rhs(self) -> np.ndarray:
        """ODE right-hand side at the sample points (exact, no differencing)."""
        return -self.gamma * (self.populations - fermi_occupation(self.energies))


def _check_rate_inputs(gamma: float, n0: float, dt: float | None) -> None:
    """Reject the rate-equation inputs that do not depend on the sweep schedule."""
    _require_finite("gamma", gamma)
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not 0.0 <= n0 <= 1.0:
        raise ValueError(f"initial population n0={n0} outside [0, 1]")
    if dt is not None:
        _require_finite("dt", dt)
        if not dt > 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if dt > 0.01 / gamma * (1 + 1e-12):
            raise ValueError(f"dt={dt} too coarse; require dt <= 0.01/gamma = {0.01 / gamma}")


def integrate_population(
    schedule: SweepSchedule,
    gamma: float,
    n0: float = 1.0,
    dt: float | None = None,
    threshold: float | None = 0.5,
    max_time: float | None = None,
) -> PopulationTrajectory:
    """Fixed-step RK4 integration of the linear relaxation ODE.

    Stops at the first sample with n_S <= threshold (that sample is kept so
    the crossing is bracketed), or raises NoCrossingError at max_time.
    Pass threshold=None to integrate to max_time unconditionally.

    For n' = -Gamma (n - f(t)) one RK4 step is exactly affine, with h = Gamma*dt:
    n_{k+1} = A n_k + B0 f_k + Bm f_{k+1/2} + B1 f_{k+1}.  The steps are
    evaluated block by block as n_j = A^j (n_start + sum_{i<j} b_i / A^{i+1}),
    with the Fermi factors built for one block at a time, so memory is bounded
    by the samples kept up to the crossing.
    """
    _check_rate_inputs(gamma, n0, dt)
    if gamma > 0.1:
        warnings.warn(
            f"gamma={gamma} is not small compared to k_B*T; the rate equation "
            "assumes weak system-reservoir coupling",
            stacklevel=2,
        )
    if dt is None:
        dt = min(0.01 / gamma, schedule.tau / 1000.0)
    if max_time is None:
        max_time = schedule.tau + 20.0 / gamma
    _require_finite("max_time", max_time)

    if max_time / dt > _MAX_STEPS:
        raise ValueError(
            f"max_time/dt = {max_time}/{dt} needs {max_time / dt:.3g} steps, "
            f"more than {_MAX_STEPS:.0e}"
        )
    nsteps = int(np.ceil(max_time / dt))
    h = gamma * dt
    a = 1.0 - h + h**2 / 2.0 - h**3 / 6.0 + h**4 / 24.0
    b0 = h / 6.0 * (1.0 - h + h**2 / 2.0 - h**3 / 4.0)
    bm = h / 6.0 * (4.0 - 2.0 * h + h**2 / 2.0)
    b1 = h / 6.0
    powers = a ** np.arange(1, min(_BLOCK_STEPS, nsteps) + 1)

    n = float(n0)
    chunks = [np.array([n])]
    crossed = threshold is not None and n <= threshold
    k = 0
    while not crossed and k < nsteps:
        m = min(_BLOCK_STEPS, nsteps - k)
        t = dt * np.arange(k, k + m + 1)
        f = fermi_occupation(schedule.energy(t))
        f_half = fermi_occupation(schedule.energy(t[:-1] + 0.5 * dt))
        drive = b0 * f[:-1] + bm * f_half + b1 * f[1:]
        pw = powers[:m]
        ns = pw * (n + np.cumsum(drive / pw))
        if threshold is not None:
            below = np.flatnonzero(ns <= threshold)
            if below.size:
                ns = ns[: below[0] + 1]
                crossed = True
        chunks.append(ns)
        n = float(ns[-1])
        k += m

    if threshold is not None and not crossed:
        raise NoCrossingError(
            f"population never reached {threshold} before t={max_time} "
            f"(final n_S={n:.6f})"
        )

    populations = np.clip(np.concatenate(chunks), 0.0, 1.0)
    times = dt * np.arange(populations.size)
    return PopulationTrajectory(
        times=times,
        populations=populations,
        energies=np.asarray(schedule.energy(times)),
        dt=dt,
        gamma=gamma,
        schedule=schedule,
    )


def _first_crossing(values, threshold: float, *series) -> tuple[int, list[float]]:
    """The switch-off rule of both engines: the index i of the first of `values`
    at or below threshold, and each of `series` linearly interpolated to where
    `values` crosses it between samples i - 1 and i (its first entry if i == 0).
    """
    below = np.flatnonzero(values <= threshold)
    if below.size == 0:
        raise NoCrossingError(f"trajectory never reaches {threshold}")
    i = int(below[0])
    if i == 0:
        return 0, [float(s[0]) for s in series]
    if not values[i - 1] > threshold:
        raise ValueError("population not monotone across the crossing bracket")
    frac = (values[i - 1] - threshold) / (values[i - 1] - values[i])
    return i, [float(s[i - 1] + frac * (s[i] - s[i - 1])) for s in series]


def find_half_population_time(traj: PopulationTrajectory, threshold: float = 0.5) -> float:
    """Linear-interpolated time at which the population first reaches threshold."""
    _, (t_f,) = _first_crossing(traj.populations, threshold, traj.times)
    return t_f


def _trapezoid_areas(g: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per-interval trapezoid areas of g over the grid t."""
    return np.diff(t) * (g[1:] + g[:-1]) / 2.0


def _switch_off(traj: PopulationTrajectory, threshold: float) -> tuple[float, float]:
    """The switch-off time t_f and -Q(t_f), from one search for the crossing."""
    i, (t_f,) = _first_crossing(traj.populations, threshold, traj.times)
    if i == 0:
        return t_f, 0.0
    g = traj.energies * traj.rhs()
    full = _trapezoid_areas(g[:i], traj.times[:i]).sum()
    # the partial-step fraction is recomputed from t_f: the crossing's own
    # fraction can differ from it in the last bit
    frac = (t_f - traj.times[i - 1]) / (traj.times[i] - traj.times[i - 1])
    g_tf = g[i - 1] + (g[i] - g[i - 1]) * frac
    partial = (t_f - traj.times[i - 1]) * 0.5 * (g[i - 1] + g_tf)
    return t_f, float(-(full + partial))


def heat_dissipated(traj: PopulationTrajectory, threshold: float = 0.5) -> float:
    """-Q = -int_0^{t_f} eps_S(t) n_S'(t) dt, trapezoidal in time.

    n_S' is evaluated from the ODE right-hand side; the final partial step
    is handled by linear interpolation of the integrand to t_f.
    """
    return _switch_off(traj, threshold)[1]


def cumulative_heat(traj: PopulationTrajectory) -> np.ndarray:
    """-Q(t) at every sample time (cumulative trapezoid of -eps * n')."""
    g = traj.energies * traj.rhs()
    return -np.concatenate(([0.0], np.cumsum(_trapezoid_areas(g, traj.times))))


def sweep_heat_curve(
    eps1: float,
    eps2: float,
    gamma: float,
    gamma_tau_values,
    n0: float = 1.0,
    dt: float | None = None,
) -> list[tuple[float, float]]:
    """Table of (Gamma*tau, -Q) over a list of dimensionless sweep times."""
    gt = list(gamma_tau_values)
    if not gt:
        raise ValueError("gamma_tau list must be nonempty")
    rows = []
    for gtau in gt:
        schedule = SweepSchedule(eps1, eps2, float(gtau) / gamma)
        traj = integrate_population(schedule, gamma, n0=n0, dt=dt)
        rows.append((float(gtau), heat_dissipated(traj)))
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
