"""Exact unitary dynamics of the system mode plus a discretized reservoir.

The reservoir is a star of K modes with equispaced, cell-centered levels on
a fixed energy window, tunnel-coupled to the system with a uniform amplitude
chosen so that Gamma = 2*pi*T^2*xi holds exactly for the empirical density
of states xi = K / window_width.  Heat is read off the reservoir energy.

The single-particle Hamiltonian is a real symmetric arrowhead and the
initial correlation matrix C0 = diag(c0) is diagonal, so `simulate` carries
the accumulated propagator W instead of C: C(t) = W diag(c0) W^dag, and the
occupations are the diagonal |W|^2 c0.  C itself is built once, at the end.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .gaussian import thermal_correlation
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

# Budgets of `simulate`, checked before any (K+1)^2 allocation: the work of
# a run is bounded by ceil(max_time/dt) eigensolves and products of (K+1)^3,
# and it holds about _DENSE_MATRICES dense (K+1)^2 complex matrices at once.
_WORK_BUDGET = 1e11
_MEMORY_BUDGET = 2 * 2**30
_DENSE_MATRICES = 6


@dataclass(frozen=True)
class ReservoirSpec:
    """Discretized thermal reservoir: K levels on `window`, coupling rate gamma."""

    K: int
    gamma: float
    window: tuple[float, float] = (-7.0, 3.0)

    def __post_init__(self):
        if not isinstance(self.K, numbers.Integral):
            raise ValueError(f"K must be an integer, got {self.K!r}")
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
    """Star-geometry single-particle matrix (real arrowhead); system mode at index 0."""
    levels = np.asarray(levels, dtype=float)
    n = levels.size + 1
    H = np.zeros((n, n))
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


def _check_budget(spec: ReservoirSpec, dt: float, max_time: float) -> None:
    """Reject a run that would exceed the step or memory budget, before allocating."""
    n = spec.K + 1
    if _DENSE_MATRICES * 16 * n**2 > _MEMORY_BUDGET:
        raise ValueError(
            f"K={spec.K} needs {_DENSE_MATRICES} dense {n}x{n} complex matrices, "
            f"more than the {_MEMORY_BUDGET / 2**30:g} GiB memory budget"
        )
    steps = np.ceil(max_time / dt)
    if steps > _WORK_BUDGET / n**3:
        raise ValueError(
            f"max_time/dt = {max_time}/{dt} needs {steps:.3g} steps of "
            f"(K+1)^3 = {n**3:.3g}, more than the work budget {_WORK_BUDGET:.0e}"
        )


def _correlation(W: np.ndarray, c0: np.ndarray) -> np.ndarray:
    """C = W diag(c0) W^dag, symmetrized."""
    C = (W * c0) @ W.conj().T
    return 0.5 * (C + C.conj().T)


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

    eps_S is held constant over each [t, t+dt) interval, whose exact
    propagator is U = V e^{i dt w} V^T from the real eigendecomposition
    H = V diag(w) V^T (reused while eps_S does not change).  The run carries
    the accumulated propagator W <- U W, applied as two real matrix products
    on the float view of W, and reads n_S and the reservoir energy off the
    diagonal |W|^2 c0 of C = W diag(c0) W^dag.  C_final is built once, at
    the end; with `track_energy` C is also built every step for the log.

    The run stops when n_S first reaches `threshold`; t_f and minus_Q_tf
    follow the rate equation's switch-off rule.  Raises NoCrossingError at
    max_time.  Raises ValueError, before allocating any (K+1)^2 matrix, when
    ceil(max_time/dt) * (K+1)^3 exceeds the work budget _WORK_BUDGET (1e11,
    about a minute on a 2-vCPU host) or the run's dense (K+1)^2 complex
    matrices exceed the memory budget _MEMORY_BUDGET (2 GiB).
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
    _check_budget(spec, dt, max_time)

    levels, t_amp = build_reservoir(spec)
    c0 = initial_state(spec, n_S0).diagonal().real.copy()
    c0_pairs = np.repeat(c0, 2)  # weights for the interleaved (re, im) view of W
    E_R0 = float(c0[1:] @ levels)
    H = build_full_hamiltonian(schedule.energy(0.0), levels, t_amp)
    W = np.eye(spec.K + 1, dtype=complex)

    times = [0.0]
    ns = [float(c0[0])]
    e_res = [E_R0]
    log: dict[str, list] = {
        "energy_pre": [],
        "energy_post": [],
        "quench_jump_actual": [],
        "quench_jump_expected": [],
        "trace": [float(c0.sum())],
    }

    t = 0.0
    prev_eps = None
    crossed = threshold is not None and ns[0] <= threshold
    while not crossed and t < max_time - 1e-12 * max(1.0, max_time):
        eps = schedule.energy(t)
        if track_energy:
            C = _correlation(W, c0)
            e_old = float(np.real(np.trace(H @ C)))  # H still holds prev_eps
            H[0, 0] = eps
            e_new = float(np.real(np.trace(H @ C)))
            if prev_eps is not None:
                log["quench_jump_actual"].append(e_new - e_old)
                log["quench_jump_expected"].append((eps - prev_eps) * ns[-1])
            log["energy_pre"].append(e_new)
        if eps != prev_eps:
            H[0, 0] = eps
            w, V = np.linalg.eigh(H)
            phase = np.exp(1j * dt * w)[:, None]
        X = (V.T @ W.view(np.float64)).view(complex)
        X *= phase
        W = (V @ X.view(np.float64)).view(complex)
        t += dt
        prev_eps = eps
        P = np.square(W.view(np.float64)) @ c0_pairs
        times.append(t)
        ns.append(float(P[0]))
        e_res.append(float(P[1:] @ levels))
        if track_energy:
            C = _correlation(W, c0)
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
        C_final=_correlation(W, c0),
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
