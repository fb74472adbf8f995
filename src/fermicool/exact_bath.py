"""Exact unitary dynamics of the system mode plus a discretized reservoir.

The reservoir is a star of K modes with equispaced, cell-centered levels on
a fixed energy window, tunnel-coupled to the system with a uniform amplitude
chosen so that Gamma = 2*pi*T^2*xi holds exactly for the empirical density
of states xi = K / window_width.  Heat is read off the reservoir energy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .gaussian import propagator, thermal_correlation
from .master_eq import (
    GAMMA_DT,
    NoCrossingError,
    SweepSchedule,
    _first_crossing,
    _require_finite,
    _switch_off,
    cumulative_heat,
    integrate_population,
)


@dataclass(frozen=True)
class ReservoirSpec:
    """Discretized thermal reservoir: K levels on `window`, coupling rate gamma."""

    K: int
    gamma: float
    window: tuple[float, float] = (-7.0, 3.0)

    def __post_init__(self):
        if self.K < 2:
            raise ValueError(f"need at least 2 reservoir modes, got K={self.K}")
        _require_finite("gamma", self.gamma)
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not self.window[0] < self.window[1]:
            raise ValueError(f"invalid level window {self.window}")

    @property
    def width(self) -> float:
        return self.window[1] - self.window[0]

    @property
    def xi(self) -> float:
        """Density of states (levels per unit energy)."""
        return self.K / self.width

    @property
    def t_amp(self) -> float:
        """Tunnel amplitude solving gamma = 2*pi*t_amp^2*xi."""
        return math.sqrt(self.gamma / (2.0 * math.pi * self.xi))


def build_reservoir(spec: ReservoirSpec) -> tuple[np.ndarray, float]:
    """Cell-centered equispaced levels on the window, plus the tunnel amplitude."""
    lo = spec.window[0]
    levels = lo + spec.width * (np.arange(spec.K) + 0.5) / spec.K
    return levels, spec.t_amp


def build_full_hamiltonian(eps_S: float, levels, t_amp: float) -> np.ndarray:
    """Star-geometry single-particle matrix; system mode at index 0."""
    levels = np.asarray(levels, dtype=float)
    n = levels.size + 1
    H = np.zeros((n, n), dtype=complex)
    H[0, 0] = eps_S
    H[np.arange(1, n), np.arange(1, n)] = levels
    H[0, 1:] = t_amp
    H[1:, 0] = t_amp
    return H


def initial_state(spec: ReservoirSpec, n_S0: float = 1.0) -> np.ndarray:
    """System at population n_S0, reservoir thermal, no coherences."""
    if not 0.0 <= n_S0 <= 1.0:
        raise ValueError(f"initial population {n_S0} outside [0, 1]")
    levels, _ = build_reservoir(spec)
    n = spec.K + 1
    C = np.zeros((n, n), dtype=complex)
    C[0, 0] = n_S0
    C[1:, 1:] = thermal_correlation(levels)
    return C


@dataclass
class BathRun:
    """Time series of one exact sweep run, terminated at the threshold crossing."""

    times: np.ndarray
    n_S: np.ndarray
    reservoir_energy: np.ndarray
    minus_Q: np.ndarray
    dt: float
    schedule: SweepSchedule
    spec: ReservoirSpec
    C_final: np.ndarray
    t_f: float | None = None
    minus_Q_tf: float | None = None
    energy_log: dict | None = None

    @property
    def gamma_t_f(self) -> float | None:
        if self.t_f is None:
            return None
        return self.spec.gamma * self.t_f


def simulate(
    spec: ReservoirSpec,
    schedule: SweepSchedule,
    n_S0: float = 1.0,
    dt: float | None = None,
    threshold: float | None = 0.5,
    max_time: float | None = None,
    track_energy: bool = False,
) -> BathRun:
    """Stepwise-quenched exact evolution of the system-reservoir correlation matrix.

    eps_S is held constant over each [t, t+dt) interval and the state is
    conjugated by the exact propagator of that interval's Hamiltonian.  The
    run stops when n_S first reaches `threshold`; t_f and minus_Q_tf follow
    the rate equation's switch-off rule.  Raises NoCrossingError at max_time.
    """
    if dt is None:
        dt = GAMMA_DT / spec.gamma
    _require_finite("dt", dt)
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if spec.gamma * dt > 0.1:
        warnings.warn(
            f"gamma*dt = {spec.gamma * dt:.3f} is coarse; sweep quantization "
            "error may be visible",
            stacklevel=2,
        )
    if max_time is None:
        max_time = schedule.tau + 20.0 / spec.gamma
    _require_finite("max_time", max_time)

    levels, t_amp = build_reservoir(spec)
    C = initial_state(spec, n_S0)
    idx = np.arange(1, spec.K + 1)
    E_R0 = float(np.real(C[idx, idx] @ levels))

    times = [0.0]
    ns = [float(C[0, 0].real)]
    e_res = [E_R0]
    log: dict[str, list] = {
        "energy_pre": [],
        "energy_post": [],
        "quench_jump_actual": [],
        "quench_jump_expected": [],
        "trace": [np.trace(C).real],
    }

    t = 0.0
    prev_eps = None
    prev_H = None
    cached_U = None
    crossed = threshold is not None and ns[0] <= threshold
    while not crossed and t < max_time - 1e-12 * max(1.0, max_time):
        eps = schedule.energy(t)
        H = build_full_hamiltonian(eps, levels, t_amp)
        if track_energy:
            e_new = float(np.real(np.trace(H @ C)))
            if prev_H is not None:
                e_old = float(np.real(np.trace(prev_H @ C)))
                log["quench_jump_actual"].append(e_new - e_old)
                log["quench_jump_expected"].append((eps - prev_eps) * ns[-1])
            log["energy_pre"].append(e_new)
        if eps == prev_eps and cached_U is not None:
            U = cached_U
        else:
            U = cached_U = propagator(H, dt)
        C = U @ C @ U.conj().T
        C = 0.5 * (C + C.conj().T)
        t += dt
        prev_eps = eps
        prev_H = H
        times.append(t)
        ns.append(float(C[0, 0].real))
        e_res.append(float(np.real(C[idx, idx] @ levels)))
        if track_energy:
            log["energy_post"].append(float(np.real(np.trace(H @ C))))
            log["trace"].append(np.trace(C).real)
        if threshold is not None and ns[-1] <= threshold:
            crossed = True

    if threshold is not None and not crossed:
        raise NoCrossingError(
            f"n_S never reached {threshold} before t={max_time} "
            f"(final n_S={ns[-1]:.6f})"
        )

    run = BathRun(
        times=np.array(times),
        n_S=np.array(ns),
        reservoir_energy=np.array(e_res),
        minus_Q=np.array(e_res) - E_R0,
        dt=dt,
        schedule=schedule,
        spec=spec,
        C_final=C,
        energy_log=log if track_energy else None,
    )
    if crossed:
        _, (run.t_f, run.minus_Q_tf) = _first_crossing(run.n_S, threshold, run.times, run.minus_Q)
    return run


def interaction_energy(run: BathRun) -> float:
    """Residual system-reservoir coupling energy in the final state."""
    return float(2.0 * run.spec.t_amp * np.sum(np.real(run.C_final[0, 1:])))


@dataclass
class DeviationReport:
    """Pointwise disagreement between an exact run and the rate equation."""

    max_population_deviation: float
    mean_population_deviation: float
    heat_deviation_at_tf: float
    master_t_f: float
    master_minus_Q_tf: float
    n_master: np.ndarray = field(repr=False)
    minus_Q_master: np.ndarray = field(repr=False)


def compare_with_master_equation(
    run: BathRun, dt: float | None = None, threshold: float = 0.5
) -> DeviationReport:
    """Integrate the rate equation on the run's schedule and report deviations.

    Population deviations are taken over the exact run's sample times up to
    t_f; the heat deviation compares each description's -Q at its own
    switch-off time.
    """
    gamma = run.spec.gamma
    horizon = run.times[-1] + 5.0 / gamma
    traj = integrate_population(
        run.schedule, gamma, n0=float(run.n_S[0]), dt=dt,
        threshold=None, max_time=horizon,
    )
    n_me = np.interp(run.times, traj.times, traj.populations)
    mq_me = np.interp(run.times, traj.times, cumulative_heat(traj))
    mask = run.times <= (run.t_f if run.t_f is not None else run.times[-1])
    dev = np.abs(run.n_S[mask] - n_me[mask])
    t_f_me, mq_tf_me = _switch_off(traj, threshold)
    heat_dev = abs((run.minus_Q_tf if run.minus_Q_tf is not None else run.minus_Q[-1]) - mq_tf_me)
    return DeviationReport(
        max_population_deviation=float(dev.max()),
        mean_population_deviation=float(dev.mean()),
        heat_deviation_at_tf=float(heat_dev),
        master_t_f=t_f_me,
        master_minus_Q_tf=mq_tf_me,
        n_master=n_me,
        minus_Q_master=mq_me,
    )
