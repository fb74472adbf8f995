"""Exact unitary dynamics of the system mode plus a discretized reservoir.

The reservoir is a star of K modes with equispaced, cell-centered levels on
a fixed energy window, tunnel-coupled to the system with a uniform amplitude
chosen so that Gamma = 2*pi*T^2*xi holds exactly for the empirical density
of states xi = K / window_width.  Heat is read off the reservoir energy.

The single-particle Hamiltonian is a real symmetric arrowhead, whose
eigenpairs `_SecularSolver` finds in O(K^2) from its secular equation, and
the initial correlation matrix C0 = diag(c0) is diagonal, so the one step
loop of `simulate` carries the accumulated propagator W instead of C:
C(t) = W diag(c0) W^dag, and the occupations are the diagonal |W|^2 c0.
C itself is built once, at the end.
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
    _require_positive,
    _switch_off,
    cumulative_heat,
    integrate_population,
)

# Budgets of `simulate`, checked before any (K+1)^2 allocation: the work of
# a run is bounded by ceil(max_time/dt) propagator products of (K+1)^3, and
# it holds at most _DENSE_MATRICES dense (K+1)^2 complex matrices at once
# (tracemalloc peaks of 6.74, 6.57 and 6.51 at K = 200, 400 and 1000).
# Held throughout: W, its two step buffers and the solver's real eigenvector
# buffer (half a matrix).  At the end come three more: the two factors and
# the product while C_final = W diag(c0) W^dag is built.
_WORK_BUDGET = 1e11
_MEMORY_BUDGET = 2 * 2**30
_DENSE_MATRICES = 7

# float64 values per temporary of one block of secular solves: the block
# takes as many sweep steps as fit, one at K=200 and 25 at K=50, so that
# short steps share the per-call overhead without growing the footprint.
_BLOCK_ELEMENTS = 2**16
# Newton iterations per root before giving up; the published coupling
# needs at most 6, and gamma = 1 (a level width of a tenth of the window) 17
_MAX_ITERATIONS = 100
_EPS = np.finfo(float).eps


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
        _require_positive("gamma", self.gamma)
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


class _SecularSolver:
    """Eigenpairs of the arrowhead H(eps) = [[eps, t 1^T], [t 1, diag(d)]], a block of eps at once.

    With ascending, distinct levels d and t > 0 the eigenvalues are the K+1
    roots of the secular function F(lam) = lam - eps - t^2 sum_k 1/(lam - d_k),
    one below d_0, one in each interval between levels and one above
    d_{K-1}; the eigenvector of a root is (1, t/(lam - d_k)), normalised
    (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 15, 1266 (1994); Stor,
    Slapnicar & Barlow, Linear Algebra Appl. 464, 62 (2015)).

    Each root is solved as mu = lam - d_j from its nearer level d_j, which
    the sign of F at the interval midpoint decides, so lam - d_k =
    mu + (d_j - d_k) keeps full relative accuracy.  Newton on F starts from
    the perturbative root of mu^2 + ((d_j - eps) - t^2 S_j) mu - t^2, where
    S_j = sum_{k != j} 1/(d_j - d_k) (its mu^2 term matters only next to
    eps), and falls back to bisection when it leaves the bracket.  A root
    leaves the active set once |F| is within its rounding noise, or once a
    Newton step is so short that the next would be below rounding.  S_j and
    the midpoint sums depend only on the reservoir and are computed once.

    A call takes up to `block` energies, as many as fit in _BLOCK_ELEMENTS
    per temporary, and returns a view of one eigenvector buffer that the
    next call overwrites; reusing it spares the page faults of fresh arrays.
    """

    def __init__(self, levels: np.ndarray, t_amp: float):
        d = np.asarray(levels, dtype=float)
        K, n = d.size, d.size + 1
        self.levels, self.t, self.t2 = d, t_amp, t_amp * t_amp
        inv = d[:, None] - d
        np.fill_diagonal(inv, 1.0)
        np.reciprocal(inv, out=inv)
        np.fill_diagonal(inv, 0.0)
        self.S = inv.sum(axis=1)
        self.mid = 0.5 * (d[:-1] + d[1:])
        self.mid_sums = self.t2 * (1.0 / (self.mid[:, None] - d)).sum(axis=1)
        self.gap = np.diff(d)
        self.block = max(1, _BLOCK_ELEMENTS // (n * K))
        self._Vt = np.empty((self.block, n, n))

    def __call__(self, eps) -> tuple[np.ndarray, np.ndarray]:
        """Return (w, Vt) with w[i] ascending and H(eps[i]) = Vt[i].T diag(w[i]) Vt[i]."""
        eps = np.asarray(eps, dtype=float)
        d, t2 = self.levels, self.t2
        K = d.size
        m, n = eps.size, K + 1
        # F(midpoint) > 0 puts the root of that interval nearer the level below
        below = self.mid - eps[:, None] - self.mid_sums >= 0
        pole = np.empty((m, n), dtype=np.intp)
        pole[:, 0], pole[:, -1] = 0, K - 1
        pole[:, 1:-1] = np.arange(1, K) - below
        # open brackets on mu; Weyl bounds the outer roots by t*sqrt(K)
        lo, hi = np.zeros((m, n)), np.zeros((m, n))
        spread = self.t * math.sqrt(K)
        lo[:, 0] = np.minimum(eps - d[0], 0.0) - spread
        hi[:, -1] = np.maximum(eps - d[-1], 0.0) + spread
        hi[:, 1:-1] = np.where(below, self.gap, 0.0)
        lo[:, 1:-1] = np.where(below, 0.0, -self.gap)
        pole, lo, hi = pole.ravel(), lo.ravel(), hi.ravel()
        o = d[pole]
        c = o - np.repeat(eps, n)
        # the quadratic's roots are q and -t^2/q, one of each sign
        b = c - t2 * self.S[pole]
        q = -0.5 * (b + np.copysign(np.sqrt(b * b + 4.0 * t2), b))
        mu = np.where(hi > 0, np.maximum(q, -t2 / q), np.minimum(q, -t2 / q))
        outside = ~((lo < mu) & (mu < hi))
        mu[outside] = 0.5 * (lo[outside] + hi[outside])

        # Newton's temporaries borrow the eigenvector buffer, filled only after it
        work = self._Vt.reshape(-1)
        active = np.arange(m * n)
        for _ in range(_MAX_ITERATIONS):
            if not active.size:
                break
            mu_a, c_a = mu[active], c[active]
            X = work[: active.size * K].reshape(active.size, K)
            np.subtract(o[active, None], d, out=X)  # d_j - d_k, exactly 0 for k = j
            X += mu_a[:, None]
            np.reciprocal(X, out=X)  # 1/(lam - d_k)
            F = c_a + mu_a - t2 * X.sum(axis=1)
            newton = F / (1.0 + t2 * np.einsum("ij,ij->i", X, X))
            noise = 4.0 * _EPS * (np.abs(c_a) + np.abs(mu_a) + t2 * np.abs(X, out=X).sum(axis=1))
            lo_a = np.where(F < 0, mu_a, lo[active])
            hi_a = np.where(F > 0, mu_a, hi[active])
            lo[active], hi[active] = lo_a, hi_a
            step = mu_a - newton
            inside = (lo_a < step) & (step < hi_a)
            step[~inside] = 0.5 * (lo_a[~inside] + hi_a[~inside])
            # F'' / 2F' < 1/|mu|, so after a step this short the error is below eps*|mu|/100
            short = inside & (np.abs(newton) <= 0.1 * math.sqrt(_EPS) * np.abs(mu_a))
            # an exact root (F == 0) is final, and so is a bracket shrunk to adjacent floats
            final = (np.abs(F) <= noise) | (hi_a - lo_a <= 2.0 * _EPS * np.abs(mu_a))
            mu[active] = np.where(final, mu_a, step)
            active = active[~(final | short)]

        Vt = self._Vt[:m].reshape(m * n, n)
        X = Vt[:, 1:]
        np.subtract(o[:, None], d, out=X)
        X += mu[:, None]
        np.divide(self.t, X, out=X)  # t/(lam - d_k)
        Vt[:, 0] = 1.0
        Vt /= np.sqrt(1.0 + np.einsum("ij,ij->i", X, X))[:, None]
        return (o + mu).reshape(m, n), self._Vt[:m]


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
    minus_Q: np.ndarray
    dt: float
    schedule: SweepSchedule
    spec: ReservoirSpec
    C_final: np.ndarray
    t_f: float | None = None
    minus_Q_tf: float | None = None

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


def simulate(
    spec: ReservoirSpec,
    schedule: SweepSchedule,
    n_S0: float = 1.0,
    dt: float | None = None,
    threshold: float | None = 0.5,
    max_time: float | None = None,
) -> BathRun:
    """Stepwise-quenched exact evolution of the system-reservoir correlation matrix.

    eps_S is held constant over each [t, t+dt) interval, whose exact
    propagator is U = V e^{i dt w} V^T from the eigendecomposition
    H = V diag(w) V^T of the real arrowhead.  `_SecularSolver` finds it in
    O(K^2) for a block of upcoming steps at once (as many as its element
    budget allows, never past max_time), and a held eps_S reuses it.  The
    run carries the accumulated propagator W <- U W, applied as two real
    matrix products on the float view of W, and reads n_S and the reservoir
    energy off the diagonal |W|^2 c0 of C = W diag(c0) W^dag.  Only n_S and
    -Q are kept per step; C_final is built once, at the end, so C after k
    steps is the C_final of a run with threshold=None and max_time = k*dt.

    The run stops when n_S first reaches `threshold`; t_f and minus_Q_tf
    follow the rate equation's switch-off rule.  Raises NoCrossingError at
    max_time.  Raises ValueError, before allocating any (K+1)^2 matrix, when
    ceil(max_time/dt) * (K+1)^3 exceeds the work budget _WORK_BUDGET (1e11,
    about a minute on a 2-vCPU host) or the run's _DENSE_MATRICES dense
    (K+1)^2 complex matrices exceed the memory budget _MEMORY_BUDGET (2 GiB,
    so K <= 4377).
    """
    if dt is None:
        dt = GAMMA_DT / spec.gamma
    _require_positive("dt", dt)
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
    solve = _SecularSolver(levels, t_amp)
    W = np.eye(spec.K + 1, dtype=complex)
    # step buffers, reused so that no step pays the page faults of fresh arrays
    X, W_next = np.empty_like(W), np.empty_like(W)

    times = [0.0]
    ns = [float(c0[0])]
    minus_Q = [0.0]

    t = 0.0
    end = max_time - 1e-12 * max(1.0, max_time)
    prev_eps = math.nan
    crossed = threshold is not None and ns[0] <= threshold
    while not crossed and t < end:
        # the next block of step start times, summed exactly as the steps sum them
        starts = [t]
        while len(starts) < solve.block and starts[-1] + dt < end:
            starts.append(starts[-1] + dt)
        eps_block = schedule.energy(np.array(starts))
        fresh = eps_block != np.append(prev_eps, eps_block[:-1])  # held energies reuse
        if fresh.any():
            fresh[0] = True  # the solve overwrites the eigenvectors step 0 would reuse
            w_block, Vt_block = solve(eps_block[fresh])
            phase_block = np.exp(1j * dt * w_block)[:, :, None]
            k = -1
        prev_eps = eps_block[-1]
        for new in fresh:
            if new:
                k += 1
                Vt, phase = Vt_block[k], phase_block[k]
            np.matmul(Vt, W.view(np.float64), out=X.view(np.float64))
            X *= phase
            np.matmul(Vt.T, X.view(np.float64), out=W_next.view(np.float64))
            W, W_next = W_next, W
            t += dt
            P = np.square(W.view(np.float64), out=X.view(np.float64)) @ c0_pairs
            times.append(t)
            ns.append(float(P[0]))
            minus_Q.append(float(P[1:] @ levels) - E_R0)
            if threshold is not None and ns[-1] <= threshold:
                crossed = True
                break

    if threshold is not None and not crossed:
        raise NoCrossingError(
            f"n_S never reached {threshold} before t={max_time} "
            f"(final n_S={ns[-1]:.6f})"
        )

    C = (W * c0) @ W.conj().T
    run = BathRun(
        times=np.array(times),
        n_S=np.array(ns),
        minus_Q=np.array(minus_Q),
        dt=dt,
        schedule=schedule,
        spec=spec,
        C_final=0.5 * (C + C.conj().T),
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
        heat_deviation_at_tf=float(heat_dev),
        master_t_f=t_f_me,
        master_minus_Q_tf=mq_tf_me,
        n_master=n_me,
        minus_Q_master=mq_me,
    )
