"""Exact unitary dynamics of the system mode plus a discretized reservoir.

The reservoir is a star of K modes with equispaced, cell-centered levels on
a fixed energy window, tunnel-coupled to the system with a uniform amplitude
chosen so that Gamma = 2*pi*T^2*xi holds exactly for the empirical density
of states xi = K / window_width.  Heat is read off the reservoir energy.

The single-particle Hamiltonian is a real symmetric arrowhead, solved in
O(K^2) by `_SecularSolver`, and C0 = diag(c0) is diagonal, so `simulate`
carries the accumulated propagator W instead of C = W diag(c0) W^dag.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .gaussian import fermi_occupation
from .master_eq import Relaxation, _first_crossing, _horizon, integrate_population
# ReservoirSpec and the run's budgets (see their comment) live in params, which the
# CLI loads without numpy
from .params import (_DENSE_MATRICES, _MEMORY_BUDGET, _WORK_BUDGET, GAMMA_DT, ReservoirSpec,
                     SweepSchedule, _require_positive, _require_probability)

# float64 values per temporary of a block of secular solves (512 KB), which
# sets the block below K = 150: 25 sweep steps at K=50 (about 31 matrices,
# 1.3 MB) and 6 at K=100, so that short steps share the per-call cost.
_BLOCK_ELEMENTS = 2**16
# energies a block takes at least: W, its step buffer, the level differences and a call's
# temporaries hold 3 matrices, and 3 energies make 6 of the 7 (4 would peak at 7.2)
_BLOCK_FLOOR = 3
# Newton iterations per root before giving up; the published coupling
# needs at most 6, and gamma = 1 (a level width of a tenth of the window) 17
_MAX_ITERATIONS = 100
_EPS = np.finfo(float).eps


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

    With ascending, distinct levels d and t > 0 the K+1 eigenvalues are the
    roots of F(lam) = lam - eps - t^2 sum_k 1/(lam - d_k), one in each interval
    the levels bound, and a root's eigenvector is (1, t/(lam - d_k)), normalised
    (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 15, 1266 (1994); Stor,
    Slapnicar & Barlow, Linear Algebra Appl. 464, 62 (2015)).  Each root is
    solved by Newton, bisection when it leaves the bracket, as mu = lam - d_j
    from its nearer level d_j, so that lam - d_k = mu + (d_j - d_k) keeps full
    relative accuracy, until |F| is within its rounding noise.  A call takes up
    to `block` energies and returns a view of one eigenvector buffer that the
    next call overwrites.
    """

    def __init__(self, levels: np.ndarray, t_amp: float):
        d = np.asarray(levels, dtype=float)
        K, n = d.size, d.size + 1
        self.levels, self.t, self.t2 = d, t_amp, t_amp * t_amp
        # d_j - d_k, exactly 0 for k = j; a call gathers the rows of its roots' poles
        self.diffs = d[:, None] - d
        inv = self.diffs.copy()
        np.fill_diagonal(inv, 1.0)
        np.reciprocal(inv, out=inv)
        np.fill_diagonal(inv, 0.0)
        self.S = inv.sum(axis=1)
        self.mid = 0.5 * (d[:-1] + d[1:])
        self.mid_sums = self.t2 * (1.0 / (self.mid[:, None] - d)).sum(axis=1)
        self.gap = np.diff(d)
        self.block = max(_BLOCK_FLOOR, _BLOCK_ELEMENTS // (n * K))
        self._Vt = np.empty((self.block, n, n))
        self._D = np.empty((self.block * n, K))

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
        mu = np.where((lo < mu) & (mu < hi), mu, 0.5 * (lo + hi))

        # o - d; "clip" never acts on these indices, and "raise" would copy the output
        D = np.take(self.diffs, pole, axis=0, out=self._D[: m * n], mode="clip")
        # Newton's temporaries borrow the eigenvector buffer, filled only after it
        work = self._Vt.reshape(-1)
        # a slice, so that the roots are views, until the first root is done
        active = slice(None)
        for _ in range(_MAX_ITERATIONS):
            mu_a, c_a = mu[active], c[active]
            if not mu_a.size:
                break
            X = work[: mu_a.size * K].reshape(mu_a.size, K)
            np.add(D[active], mu_a[:, None], out=X)
            np.reciprocal(X, out=X)  # 1/(lam - d_k)
            F = c_a + mu_a - t2 * X.sum(axis=1)
            newton = F / (1.0 + t2 * np.einsum("ij,ij->i", X, X))
            noise = 4.0 * _EPS * (np.abs(c_a) + np.abs(mu_a) + t2 * np.abs(X, out=X).sum(axis=1))
            lo_a = np.where(F < 0, mu_a, lo[active])
            hi_a = np.where(F > 0, mu_a, hi[active])
            lo[active], hi[active] = lo_a, hi_a
            step = mu_a - newton
            inside = (lo_a < step) & (step < hi_a)
            step = np.where(inside, step, 0.5 * (lo_a + hi_a))
            # F'' / 2F' < 1/|mu|, so after a step this short the error is below eps*|mu|/100
            short = inside & (np.abs(newton) <= 0.1 * math.sqrt(_EPS) * np.abs(mu_a))
            # an exact root (F == 0) is final, and so is a bracket shrunk to adjacent floats
            final = (np.abs(F) <= noise) | (hi_a - lo_a <= 2.0 * _EPS * np.abs(mu_a))
            mu[active] = np.where(final, mu_a, step)
            keep = ~(final | short)
            if not keep.all():
                active = np.arange(m * n)[active][keep]

        Vt = self._Vt[:m].reshape(m * n, n)
        X = Vt[:, 1:]
        np.add(D, mu[:, None], out=X)
        Vt[:, 0] = self.t
        np.divide(self.t, Vt, out=Vt)  # 1 (t/t is exact), then t/(lam - d_k)
        Vt /= np.sqrt(1.0 + np.einsum("ij,ij->i", X, X))[:, None]
        return (o + mu).reshape(m, n), self._Vt[:m]


def _occupations(spec: ReservoirSpec, n_S0: float) -> np.ndarray:
    """Initial occupations: the system at n_S0, then the thermal reservoir levels."""
    _require_probability("n_S0", n_S0)
    levels, _ = build_reservoir(spec)
    return np.concatenate(([n_S0], fermi_occupation(levels)))


def initial_state(spec: ReservoirSpec, n_S0: float = 1.0) -> np.ndarray:
    """System at population n_S0, reservoir thermal, no coherences."""
    return np.diag(_occupations(spec, n_S0)).astype(complex)


def simulate(
    spec: ReservoirSpec,
    schedule: SweepSchedule,
    n_S0: float = 1.0,
    dt: float | None = None,
    threshold: float | None = 0.5,
    max_time: float | None = None,
) -> Relaxation:
    """Stepwise-quenched exact evolution of the system-reservoir correlation matrix.

    eps_S is held constant over each [t, t+dt) of the rate equation's grid
    t_k = k*dt, up to the first t_k >= max_time.  Only n_S and -Q are kept
    per step; C_final is built once, at the end, so C after k steps is the
    C_final of a run with threshold=None and max_time = k*dt.  The run stops
    when n_S first reaches `threshold`; t_f and minus_Q_tf follow the rate
    equation's switch-off rule.  Raises NoCrossingError at max_time, and
    ValueError, before any (K+1)^2 allocation, when steps * (K+1)^3 exceeds
    _WORK_BUDGET (1e11, about 25 s on a 2-vCPU host); the spec already fits
    the memory budget.
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
    max_time, nsteps = _horizon(schedule, spec.gamma, dt, threshold, max_time,
                                _WORK_BUDGET / (spec.K + 1) ** 3)

    levels, t_amp = build_reservoir(spec)
    c0 = _occupations(spec, n_S0)
    c0_pairs = np.repeat(c0, 2)  # weights for the interleaved (re, im) view of W
    E_R0 = float(c0[1:] @ levels)
    solve = _SecularSolver(levels, t_amp)
    W = np.eye(spec.K + 1, dtype=complex)
    # a step buffer, reused so that no step pays the page faults of a fresh array
    X = np.empty_like(W)

    ns = [float(c0[0])]
    minus_Q = [0.0]

    stop = -math.inf if threshold is None else threshold
    prev_eps = math.nan
    for k in range(0, nsteps, solve.block):
        if ns[-1] <= stop:
            break
        eps_block = schedule.energy(dt * np.arange(k, min(k + solve.block, nsteps)))
        if (eps_block != prev_eps).any():
            w_block, Vt_block = solve(eps_block)
            pairs = zip(Vt_block, np.exp(1j * dt * w_block)[:, :, None])
        else:  # a held block reuses the eigenpairs of the last energy solved
            pairs = [(Vt, phase)] * len(eps_block)
        prev_eps = eps_block[-1]
        for Vt, phase in pairs:
            np.matmul(Vt, W.view(np.float64), out=X.view(np.float64))
            X *= phase
            np.matmul(Vt.T, X.view(np.float64), out=W.view(np.float64))  # X has consumed W
            P = np.square(W.view(np.float64), out=X.view(np.float64)) @ c0_pairs
            ns.append(float(P[0]))
            minus_Q.append(float(P[1:] @ levels) - E_R0)
            if ns[-1] <= stop:
                break
    # free the solver's buffers, held also through their views, before C's three matrices
    solve = Vt_block = pairs = Vt = None

    ns, minus_Q = np.array(ns), np.array(minus_Q)
    times = dt * np.arange(ns.size)
    t_f = minus_Q_tf = None
    if threshold is not None:
        _, (t_f, minus_Q_tf) = _first_crossing(ns, threshold, max_time, times, minus_Q)
    C = (W * c0) @ W.conj().T
    return Relaxation(times, ns, minus_Q, dt, spec.gamma, schedule, threshold, t_f, minus_Q_tf,
                      spec, 0.5 * (C + C.conj().T))


def interaction_energy(run: Relaxation) -> float:
    """Residual system-reservoir coupling energy in the final state of an exact-bath run."""
    if run.C_final is None:
        raise ValueError("run has no C_final: it is not an exact-bath run")
    return float(2.0 * run.spec.t_amp * np.sum(np.real(run.C_final[0, 1:])))


@dataclass
class DeviationReport:
    """Pointwise disagreement between an exact run and the rate equation.

    `master` is the rate equation's run resampled onto the exact run's
    times, with its own switch-off time and heat.
    """

    max_population_deviation: float
    heat_deviation_at_tf: float
    master: Relaxation = field(repr=False)


def compare_with_master_equation(run: Relaxation) -> DeviationReport:
    """Integrate the rate equation on the run's schedule and report deviations.

    Population deviations are taken over the exact run's sample times up to
    t_f.  The heat deviation compares each description's -Q at its own
    switch-off time, and for a run with no threshold both descriptions' -Q
    at the run's last sample.  The rate equation switches off at the run's
    threshold, or at 1/2 for a run with none.
    """
    n0, max_time = float(run.n_S[0]), run.times[-1] + 5.0 / run.gamma
    threshold = 0.5 if run.threshold is None else run.threshold
    # the free run spans the exact run's times; the switch-off is a stopped run's own
    free = integrate_population(run.schedule, run.gamma, n0=n0, threshold=None, max_time=max_time)
    stopped = integrate_population(run.schedule, run.gamma, n0=n0, threshold=threshold,
                                   max_time=max_time)
    master = replace(free, times=run.times, n_S=np.interp(run.times, free.times, free.n_S),
                     minus_Q=np.interp(run.times, free.times, free.minus_Q), threshold=threshold,
                     t_f=stopped.t_f, minus_Q_tf=stopped.minus_Q_tf)
    mask = run.times <= (run.t_f if run.t_f is not None else run.times[-1])
    dev = np.abs(run.n_S[mask] - master.n_S[mask])
    if run.minus_Q_tf is None:
        heat_dev = abs(run.minus_Q[-1] - master.minus_Q[-1])
    else:
        heat_dev = abs(run.minus_Q_tf - master.minus_Q_tf)
    return DeviationReport(
        max_population_deviation=float(dev.max()),
        heat_deviation_at_tf=float(heat_dev),
        master=master,
    )
