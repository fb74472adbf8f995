import math
import tracemalloc

import numpy as np
import pytest

from fermicool import exact_bath, master_eq
from fermicool.exact_bath import (
    _EPS,
    _MAX_ITERATIONS,
    ReservoirSpec,
    build_full_hamiltonian,
    build_reservoir,
    compare_with_master_equation,
    initial_state,
    interaction_energy,
    simulate,
)
from fermicool.gaussian import evolve_step, fermi_occupation
from fermicool.master_eq import GAMMA_DT, NoCrossingError, SweepSchedule, integrate_population


def conjugation_loop(spec, schedule, n_S0, dt, threshold, max_time):
    """Reference: conjugate the full C by each step's complex propagator.

    simulate carries the accumulated propagator W instead and builds C once.
    Returns (times, n_S, minus_Q, t_f, minus_Q_tf, C_final).
    """
    levels, t_amp = build_reservoir(spec)
    C = initial_state(spec, n_S0)
    idx = np.arange(1, spec.K + 1)
    E_R0 = float(np.real(C[idx, idx] @ levels))
    times, ns, mq = [0.0], [float(C[0, 0].real)], [0.0]
    # steps start at t_k = k*dt until the first t_k >= max_time
    k = 0
    while not (threshold is not None and ns[-1] <= threshold) and k * dt < max_time:
        H = build_full_hamiltonian(schedule.energy(k * dt), levels, t_amp).astype(complex)
        C = evolve_step(C, H, dt)
        k += 1
        times.append(k * dt)
        ns.append(float(C[0, 0].real))
        mq.append(float(np.real(C[idx, idx] @ levels)) - E_R0)
    t_f = minus_Q_tf = None
    if threshold is not None:
        i = next(k for k, n in enumerate(ns) if n <= threshold)
        frac = (ns[i - 1] - threshold) / (ns[i - 1] - ns[i])
        t_f = times[i - 1] + frac * dt
        minus_Q_tf = mq[i - 1] + frac * (mq[i] - mq[i - 1])
    return np.array(times), np.array(ns), np.array(mq), t_f, minus_Q_tf, C


def secular_reference(self, eps):
    """Reference: the secular solver's call before its pole differences were kept.

    Each Newton iteration subtracts d_j - d_k again and gathers every root
    through an index array.  `self` is a solver of its own, whose
    eigenvector buffer the result views.
    """
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


def solver_energies(levels):
    """Energies across and beyond the level window (-7, 3), on a level and on a midpoint."""
    K = levels.size
    return np.concatenate([np.linspace(-12.0, 8.0, 21),
                           [levels[K // 3], 0.5 * (levels[0] + levels[1])]])


class TestReservoirSpec:
    def test_density_of_states_and_amplitude(self):
        spec = ReservoirSpec(K=200, gamma=0.02)
        assert spec.width == 10.0
        assert spec.xi == 20.0
        # frozen: sqrt(0.02 / (2*pi*20))
        assert spec.t_amp == pytest.approx(0.012615662610100801, abs=1e-15)

    def test_amplitude_solves_golden_rule_rate(self):
        spec = ReservoirSpec(K=137, gamma=0.07)
        assert 2.0 * math.pi * spec.t_amp**2 * spec.xi == pytest.approx(0.07, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            ReservoirSpec(K=1, gamma=0.02)
        with pytest.raises(ValueError, match="K must be an integer"):
            ReservoirSpec(K=50.5, gamma=0.02)
        with pytest.raises(ValueError, match="K must be an integer, got True"):
            ReservoirSpec(K=True, gamma=0.02)
        with pytest.raises(ValueError, match="gamma"):
            ReservoirSpec(K=10, gamma=0.0)
        with pytest.raises(ValueError, match="gamma must be a number, got '0.02'"):
            ReservoirSpec(K=10, gamma="0.02")
        with pytest.raises(ValueError, match="window"):
            ReservoirSpec(K=10, gamma=0.02, window=(3.0, -7.0))
        # a window that is not two numbers is rejected by name, not with a TypeError
        for window in [("a", "b"), (0.0, "b"), None, (1.0,), np.full((2, 2), 1.0)]:
            with pytest.raises(ValueError, match="window must be two increasing numbers"):
                ReservoirSpec(K=10, gamma=0.02, window=window)
        # a 1-D array of two is a pair, as for ProtocolConfig.diagonal
        assert ReservoirSpec(K=10, gamma=0.02, window=np.array([-7.0, 3.0])).width == 10.0
        # an infinite end, or finite ends whose width overflows, would give NaN levels
        for window in [(-math.inf, 3.0), (-1e308, 1e308)]:
            with pytest.raises(ValueError, match="window width must be finite, got inf"):
                ReservoirSpec(K=10, gamma=0.02, window=window)


class TestBuildReservoir:
    def test_cell_centered_two_levels(self):
        levels, _ = build_reservoir(ReservoirSpec(K=2, gamma=0.02))
        assert np.allclose(levels, [-4.5, 0.5])

    def test_levels_fill_window_symmetrically(self):
        spec = ReservoirSpec(K=50, gamma=0.02)
        levels, _ = build_reservoir(spec)
        assert levels[0] - spec.window[0] == pytest.approx(spec.window[1] - levels[-1])
        assert np.allclose(np.diff(levels), spec.width / spec.K)

    def test_hamiltonian_layout(self):
        levels, t_amp = build_reservoir(ReservoirSpec(K=2, gamma=0.02))
        H = build_full_hamiltonian(-5.0, levels, t_amp)
        assert np.allclose(np.diag(H).real, [-5.0, -4.5, 0.5])
        assert np.allclose(H[0, 1:], t_amp)
        assert np.abs(H - H.conj().T).max() == 0.0
        assert H.dtype == np.float64


class TestInitialState:
    def test_thermal_reservoir_occupations(self):
        C = initial_state(ReservoirSpec(K=2, gamma=0.02), n_S0=1.0)
        # frozen Fermi factors at the two cell centers -4.5 and 0.5
        assert np.allclose(
            np.diag(C).real, [1.0, 0.9890130573694068, 0.3775406687981454]
        )
        assert np.count_nonzero(C - np.diag(np.diag(C))) == 0

    def test_population_validated(self):
        with pytest.raises(ValueError, match=r"n_S0 must be a number in \[0, 1\], got -0.2"):
            initial_state(ReservoirSpec(K=2, gamma=0.02), n_S0=-0.2)
        with pytest.raises(ValueError, match=r"n_S0 must be a number in \[0, 1\], got -0.2"):
            simulate(ReservoirSpec(K=2, gamma=0.02), SweepSchedule(-5.0, 1.0, 500.0),
                     n_S0=-0.2, dt=3.0)

    @pytest.mark.parametrize("K", [2, 30, 200, 400])
    @pytest.mark.parametrize("n_S0", [0.0, 0.7, 1.0])
    def test_simulate_starts_from_initial_state(self, K, n_S0):
        # simulate builds only the diagonal c0; a run of no steps returns it as C_final
        spec = ReservoirSpec(K=K, gamma=0.02)
        run = simulate(spec, SweepSchedule(-5.0, 1.0, 500.0), n_S0=n_S0, dt=3.0,
                       threshold=None, max_time=0.0)
        assert run.times.tolist() == [0.0]
        assert np.array_equal(run.C_final, np.diag(initial_state(spec, n_S0).diagonal()))


class TestSecularSolver:
    """The O(K^2) arrowhead eigensolver against dense eigh."""

    @pytest.mark.parametrize("K", [2, 50, 200, 400])
    def test_matches_eigh(self, K):
        levels, t_amp = build_reservoir(ReservoirSpec(K=K, gamma=0.02))
        solve = exact_bath._SecularSolver(levels, t_amp)
        eps = solver_energies(levels)
        for start in range(0, eps.size, solve.block):
            chunk = eps[start:start + solve.block]
            w, Vt = solve(chunk)
            for e, w_e, Vt_e in zip(chunk, w, Vt):
                H = build_full_hamiltonian(e, levels, t_amp)
                V = Vt_e.T
                assert np.abs(w_e - np.linalg.eigvalsh(H)).max() <= 1e-13
                assert np.abs(V.T @ V - np.eye(K + 1)).max() <= 1e-13
                assert np.abs(H @ V - V * w_e).max() <= 1e-13

    @pytest.mark.parametrize("K", [2, 50, 100, 200, 400])
    def test_same_bits_as_reference(self, K):
        # a whole block of energies, and one at a time, where roots finish unevenly
        levels, t_amp = build_reservoir(ReservoirSpec(K=K, gamma=0.02))
        solve, reference = (exact_bath._SecularSolver(levels, t_amp) for _ in range(2))
        eps = solver_energies(levels)
        for size in sorted({solve.block, 1}):
            for start in range(0, eps.size, size):
                chunk = eps[start:start + size]
                w, Vt = solve(chunk)
                w_ref, Vt_ref = secular_reference(reference, chunk)
                assert w.tobytes() == w_ref.tobytes(), (size, start)
                assert Vt.tobytes() == Vt_ref.tobytes(), (size, start)

    def test_block_size_from_element_budget(self):
        # the element budget sets the block below K = 150, _BLOCK_FLOOR from there up
        for K, block in [(50, 25), (100, 6), (150, 3), (200, 3), (400, 3)]:
            levels, t_amp = build_reservoir(ReservoirSpec(K=K, gamma=0.02))
            assert exact_bath._SecularSolver(levels, t_amp).block == block


class TestSimulate:
    def test_decoupled_system_is_stationary(self):
        # drop the coupling by hand: zero tunnel amplitude leaves n_S frozen
        spec = ReservoirSpec(K=10, gamma=1e-30)
        schedule = SweepSchedule(-5.0, 1.0, 5.0)
        run = simulate(spec, schedule, n_S0=1.0, dt=0.5, threshold=None, max_time=5.0)
        assert np.abs(run.n_S - 1.0).max() < 1e-9
        assert np.abs(run.minus_Q).max() < 1e-9

    def test_trace_and_energy_bookkeeping(self, bath_bookkeeping):
        log = bath_bookkeeping
        # total particle number is conserved by the unitary steps
        assert np.abs(np.diff(log["trace"])).max() < 1e-10
        # within each step the full Hamiltonian is held fixed and conserved
        assert np.abs(log["energy_post"] - log["energy_pre"]).max() < 1e-10
        # each quench jump equals (delta eps) * n_S
        assert np.abs(log["quench_jump_actual"] - log["quench_jump_expected"]).max() < 1e-10

    def test_default_step(self):
        # the step protocol --engine exact-bath takes when no dt is given
        spec = ReservoirSpec(K=20, gamma=0.05)
        schedule = SweepSchedule(-5.0, 1.0, 10.0 / 0.05)
        default, explicit = simulate(spec, schedule), simulate(spec, schedule, dt=GAMMA_DT / 0.05)
        assert default.dt == explicit.dt
        for name in ("times", "n_S", "minus_Q", "C_final"):
            assert getattr(default, name).tobytes() == getattr(explicit, name).tobytes(), name
        assert (default.t_f, default.minus_Q_tf) == (explicit.t_f, explicit.minus_Q_tf)

    def test_threshold_interpolation(self):
        spec = ReservoirSpec(K=60, gamma=0.05)
        schedule = SweepSchedule(-5.0, 1.0, 10.0 / 0.05)
        run = simulate(spec, schedule, dt=0.06 / 0.05)
        assert run.t_f is not None
        assert run.times[-2] < run.t_f <= run.times[-1]
        assert run.n_S[-1] <= 0.5 < run.n_S[-2]
        assert run.gamma_t_f == pytest.approx(spec.gamma * run.t_f)

    def test_crossing_on_first_sample(self):
        # a population already at or below the threshold takes no step at all
        spec = ReservoirSpec(K=20, gamma=0.05)
        run = simulate(spec, SweepSchedule(-5.0, 1.0, 10.0), n_S0=0.4, dt=1.0)
        assert run.t_f == 0.0
        assert run.minus_Q_tf == 0.0
        assert run.times.tolist() == [0.0]
        assert run.n_S.tolist() == [0.4]

    @pytest.mark.parametrize("K,calls,energies", [(200, 6, 18), (100, 3, 18)])
    def test_held_steps_make_no_solve(self, monkeypatch, K, calls, energies):
        # Gamma*tau = 1 at dt = 3 to Gamma*t = 4: 17 sweep steps, then 50 held
        # steps of which only the first is solved; a call takes three steps at
        # K = 200 and six at K = 100
        solved = []
        solve = exact_bath._SecularSolver.__call__

        def counting(self, eps):
            solved.append(np.size(eps))
            return solve(self, eps)

        monkeypatch.setattr(exact_bath._SecularSolver, "__call__", counting)
        run = simulate(ReservoirSpec(K=K, gamma=0.02), SweepSchedule(-5.0, 1.0, 50.0), dt=3.0,
                       threshold=None, max_time=200.0)
        assert run.times.size == 68
        assert (len(solved), sum(solved)) == (calls, energies)

    @pytest.mark.parametrize("K,tau,threshold,max_time", [
        pytest.param(200, 500.0, 0.5, None, id="K200-published"),
        pytest.param(200, 50.0, None, 200.0, id="K200-held"),
        pytest.param(150, 500.0, 0.7, None, id="K150-mid-block"),
    ])
    def test_bytes_do_not_depend_on_block_size(self, monkeypatch, K, tau, threshold, max_time):
        # the published run crosses at the last step of its 52nd three-step
        # block; the K = 150 run at its 131st step, inside a block either way
        def run():
            return simulate(ReservoirSpec(K=K, gamma=0.02), SweepSchedule(-5.0, 1.0, tau),
                            dt=3.0, threshold=threshold, max_time=max_time)

        default = run()
        monkeypatch.setattr(exact_bath, "_BLOCK_FLOOR", 1)
        levels, t_amp = build_reservoir(ReservoirSpec(K=K, gamma=0.02))
        assert exact_bath._SecularSolver(levels, t_amp).block == {200: 1, 150: 2}[K]
        one_per_call = run()
        for name in ("times", "n_S", "minus_Q", "C_final", "t_f", "minus_Q_tf"):
            a, b = getattr(default, name), getattr(one_per_call, name)
            # a run with no threshold has neither t_f nor minus_Q_tf
            assert a is b is None or np.asarray(a).tobytes() == np.asarray(b).tobytes(), name

    def test_no_crossing_raises(self):
        spec = ReservoirSpec(K=20, gamma=0.05)
        schedule = SweepSchedule(-5.0, -4.0, 10.0)
        with pytest.raises(NoCrossingError):
            simulate(spec, schedule, dt=1.0, max_time=30.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_inputs_rejected(self, value):
        spec = ReservoirSpec(K=10, gamma=0.05)
        schedule = SweepSchedule(-5.0, 1.0, 10.0)
        with pytest.raises(ValueError, match="gamma must be finite"):
            ReservoirSpec(K=10, gamma=value)
        with pytest.raises(ValueError, match="dt must be finite"):
            simulate(spec, schedule, dt=value)
        with pytest.raises(ValueError, match="max_time must be finite"):
            simulate(spec, schedule, dt=1.0, max_time=value)

    def test_coarse_step_warns(self):
        spec = ReservoirSpec(K=10, gamma=0.05)
        schedule = SweepSchedule(-5.0, 1.0, 10.0)
        with pytest.warns(UserWarning, match="coarse"):
            simulate(spec, schedule, dt=3.0, threshold=None, max_time=6.0)

    def test_constant_energy_matches_rate_equation(self):
        # hold at eps = 1: exact decay should track the exponential closely
        spec = ReservoirSpec(K=120, gamma=0.05)
        schedule = SweepSchedule(1.0 - 1e-9, 1.0, 1e-6)
        run = simulate(spec, schedule, dt=0.06 / 0.05)
        f = fermi_occupation(1.0)
        exact = f + (1.0 - f) * np.exp(-spec.gamma * run.times)
        assert np.abs(run.n_S - exact).max() < 0.03


class TestPropagatorAccumulation:
    """simulate against the per-step conjugation it replaces."""

    @staticmethod
    def assert_same_run(run, ref):
        times, n_S, minus_Q, t_f, minus_Q_tf, C_final = ref
        assert len(run.times) == len(times)
        assert np.abs(run.times - times).max() <= 1e-10
        assert np.abs(run.n_S - n_S).max() <= 1e-10
        assert np.abs(run.minus_Q - minus_Q).max() <= 1e-10
        assert np.abs(run.C_final - C_final).max() <= 1e-10
        if t_f is None:
            assert run.t_f is None
        else:
            assert abs(run.t_f - t_f) <= 1e-10
            assert abs(run.minus_Q_tf - minus_Q_tf) <= 1e-10

    @pytest.mark.parametrize("K,n_S0,threshold,max_time,window", [
        pytest.param(2, 1.0, 0.5, 300.0, (-7.0, 3.0), id="K2"),
        pytest.param(30, 1.0, 0.5, 600.0, (-7.0, 3.0), id="K30"),
        pytest.param(30, 0.7, 0.5, 600.0, (-7.0, 3.0), id="K30-n0.7"),
        # past tau = 200 into the hold phase, where the eigenbasis is reused
        pytest.param(30, 0.7, None, 400.0, (-7.0, 3.0), id="K30-hold"),
        pytest.param(30, 1.0, 0.5, 600.0, (-9.0, 4.0), id="K30-window"),
    ])
    def test_matches_conjugation_loop(self, K, n_S0, threshold, max_time, window):
        spec = ReservoirSpec(K=K, gamma=0.05, window=window)
        schedule = SweepSchedule(-5.0, 1.0, 10.0 / 0.05)
        run = simulate(spec, schedule, n_S0=n_S0, dt=1.2, threshold=threshold,
                       max_time=max_time)
        self.assert_same_run(run, conjugation_loop(spec, schedule, n_S0, 1.2, threshold,
                                                   max_time))

    @pytest.mark.parametrize("crossing_step", [25, 26], ids=["last-of-block", "first-of-next"])
    def test_crossing_at_solve_block_boundary(self, crossing_step):
        # K = 50 solves 25 steps per block: the crossing ends the first block or opens the second
        spec = ReservoirSpec(K=50, gamma=0.05)
        schedule = SweepSchedule(-1.0, 1.0, 10.0 / 0.05)
        free = simulate(spec, schedule, dt=1.2, threshold=None, max_time=60.0)
        assert np.all(np.diff(free.n_S[: crossing_step + 1]) < 0)
        threshold = float(free.n_S[crossing_step - 1:crossing_step + 1].mean())
        run = simulate(spec, schedule, dt=1.2, threshold=threshold)
        assert len(run.times) == crossing_step + 1
        self.assert_same_run(run, conjugation_loop(spec, schedule, 1.0, 1.2, threshold,
                                                   schedule.tau + 20.0 / spec.gamma))

    def test_hold_ending_inside_a_solve_block(self):
        # a held energy reuses its eigenpairs; this hold ends at step 31, the
        # seventh step of the second K = 50 block, whose first steps still hold
        class HeldThenRaised:
            tau = 36.6

            def energy(self, t):
                e = np.where(np.asarray(t) < self.tau, -2.0, 0.5)
                return float(e) if e.ndim == 0 else e

        spec = ReservoirSpec(K=50, gamma=0.05)
        run = simulate(spec, HeldThenRaised(), dt=1.2, threshold=None, max_time=60.0)
        self.assert_same_run(run, conjugation_loop(spec, HeldThenRaised(), 1.0, 1.2, None, 60.0))

    def test_published_run_matches_conjugation_loop(self, fig2_run):
        ref = conjugation_loop(fig2_run.spec, fig2_run.schedule, 1.0, fig2_run.dt, 0.5,
                               fig2_run.schedule.tau + 20.0 / fig2_run.spec.gamma)
        self.assert_same_run(fig2_run, ref)


# one schedule run by either engine; each takes the stop rule as keywords
STOP_SCHEDULE = SweepSchedule(-5.0, 1.0, 10.0)
ENGINES = {
    "master-equation": lambda dt=0.1, **stop: integrate_population(STOP_SCHEDULE, 0.05, dt=dt,
                                                                   **stop),
    "exact-bath": lambda dt=1.0, **stop: simulate(ReservoirSpec(K=10, gamma=0.05), STOP_SCHEDULE,
                                                  dt=dt, **stop),
}


class TestStopRule:
    """Both engines check threshold and max_time with one rule, before any work,
    and sample one grid t_k = k*dt up to the first grid time at or after max_time."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the run was started")
        monkeypatch.setattr(exact_bath, "build_reservoir", refuse)
        monkeypatch.setattr(master_eq, "fermi_occupation", refuse)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("stop,message", [
        ({"max_time": -5.0}, "max_time must be nonnegative, got -5.0"),
        ({"max_time": -5.0, "threshold": None}, "max_time must be nonnegative, got -5.0"),
        ({"threshold": math.nan}, "threshold must be finite, got nan"),
        ({"threshold": math.inf}, "threshold must be finite, got inf"),
        ({"threshold": -math.inf, "max_time": 5.0}, "threshold must be finite, got -inf"),
    ], ids=["max_time-negative", "max_time-negative-no-threshold", "threshold-nan",
            "threshold-inf", "threshold-minus-inf"])
    def test_rejected(self, no_work, engine, stop, message):
        with pytest.raises(ValueError, match=message):
            ENGINES[engine](**stop)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_zero_max_time_is_one_sample(self, engine):
        run = ENGINES[engine](threshold=None, max_time=0.0)
        assert run.times.tolist() == [0.0]
        assert run.n_S.tolist() == [1.0]

    @pytest.mark.parametrize("engine", ENGINES)
    # at k = 3, 3*0.1 = 0.30000000000000004, whose quotient by 0.1 rounds up past 3;
    # at 7, 29 and 100 a running sum of 0.1 misses k*0.1
    @pytest.mark.parametrize("k", [3, 7, 29, 100])
    def test_grid_ends_at_max_time(self, engine, k):
        run = ENGINES[engine](dt=0.1, threshold=None, max_time=k * 0.1)
        assert np.array_equal(run.times, 0.1 * np.arange(k + 1))

    def test_long_bath_run_keeps_the_grid(self):
        # a running sum of 1.2 would drift from 1.2*k by about 5e-11 here
        run = simulate(ReservoirSpec(K=2, gamma=0.05), SweepSchedule(-5.0, 1.0, 200.0), dt=1.2,
                       threshold=None, max_time=2000 * 1.2)
        assert np.array_equal(run.times, 1.2 * np.arange(2001))


class TestBudget:
    @pytest.fixture
    def no_allocation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the run was started")
        monkeypatch.setattr(exact_bath, "build_reservoir", refuse)
        monkeypatch.setattr(exact_bath, "initial_state", refuse)

    def test_memory_budget(self):
        # the spec itself is rejected, so no engine can allocate for it
        with pytest.raises(ValueError, match="K=20000 .* memory budget"):
            ReservoirSpec(K=20_000, gamma=0.02)

    def test_memory_budget_edge(self):
        # 7 dense complex (K+1)^2 matrices: 2,146,691,008 bytes at K=4377, 2,147,671,792 at 4378
        assert ReservoirSpec(K=4377, gamma=0.02).K == 4377
        with pytest.raises(ValueError, match="K=4378 needs 7 dense 4379x4379 complex matrices"):
            ReservoirSpec(K=4378, gamma=0.02)

    @pytest.mark.parametrize("K", [150, 200, 400], ids=lambda K: f"K{K}")
    @pytest.mark.parametrize("max_time", [0.0, 9.0], ids=["no-step", "three-steps"])
    def test_peak_memory_within_budget(self, K, max_time):
        # from K = 150 up a block holds _BLOCK_FLOOR energies; the solver's
        # buffers are freed before C_final's three matrices are formed
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            simulate(ReservoirSpec(K=K, gamma=0.02), SweepSchedule(-5.0, 1.0, 500.0), dt=3.0,
                     threshold=None, max_time=max_time)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= exact_bath._DENSE_MATRICES * 16 * (K + 1)**2

    @pytest.mark.parametrize("dt", [0.3, 1e-300, 5e-324])
    def test_work_budget(self, no_allocation, dt):
        spec = ReservoirSpec(K=400, gamma=0.02)
        with pytest.raises(ValueError, match="max_time/dt .* work budget"):
            simulate(spec, SweepSchedule(-5.0, 1.0, 500.0), dt=dt)

    def test_published_runs_fit(self):
        # the K=400 convergence run, the largest in the tests, demos and benchmark
        budget = exact_bath._WORK_BUDGET / 401**3
        schedule = SweepSchedule(-5.0, 1.0, 500.0)
        assert master_eq._horizon(schedule, 0.02, 3.0, 0.5, None, budget) == (1500.0, 500)


class TestCompareWithMasterEquation:
    def test_published_sweep_agreement(self, fig2_run, fig2_report):
        assert fig2_report.max_population_deviation <= 0.02
        assert fig2_report.heat_deviation_at_tf < 0.02
        # both descriptions switch off near Gamma*t = 9.3
        assert fig2_run.gamma_t_f == pytest.approx(9.3, abs=0.15)
        assert fig2_report.master.gamma_t_f == pytest.approx(9.3, abs=0.15)

    def test_published_sweep_heat_values(self, fig2_run, fig2_report):
        assert fig2_run.minus_Q_tf == pytest.approx(-0.42, abs=0.01)
        assert fig2_report.master.minus_Q_tf == pytest.approx(-0.42, abs=0.01)

    @pytest.mark.parametrize("K", [50, 200])
    def test_master_switch_off_is_the_rate_equations(self, K, fig2_run, fig2_report):
        # one switch-off rule: the resampled master run keeps the t_f and
        # -Q(t_f) of the rate equation run on its own, bit for bit
        run, report = fig2_run, fig2_report
        if K != fig2_run.spec.K:
            run = simulate(ReservoirSpec(K=K, gamma=fig2_run.gamma), fig2_run.schedule,
                           dt=fig2_run.dt)
            report = compare_with_master_equation(run)
        own = integrate_population(run.schedule, run.gamma)
        assert report.master.t_f == own.t_f
        assert report.master.minus_Q_tf == own.minus_Q_tf
        assert np.array_equal(report.master.times, run.times)

    def test_master_switches_off_at_the_runs_threshold(self, fig2_run):
        schedule, gamma = fig2_run.schedule, fig2_run.gamma
        run = simulate(ReservoirSpec(K=50, gamma=gamma), schedule, dt=fig2_run.dt, threshold=0.7)
        report = compare_with_master_equation(run)
        own = integrate_population(schedule, gamma, threshold=0.7)
        assert report.master.threshold == run.threshold == 0.7
        assert report.master.t_f == own.t_f
        assert report.master.minus_Q_tf == own.minus_Q_tf

    def test_run_without_threshold_compares_heat_at_its_last_sample(self, fig2_run):
        # no switch-off: both descriptions' -Q are read at the run's last sample, t = 1500
        run = simulate(ReservoirSpec(K=50, gamma=fig2_run.gamma), fig2_run.schedule,
                       dt=fig2_run.dt, threshold=None)
        report = compare_with_master_equation(run)
        own = integrate_population(run.schedule, run.gamma, threshold=None,
                                   max_time=run.times[-1])
        assert own.times[-1] == run.times[-1] == 1500.0
        assert report.master.minus_Q[-1] == pytest.approx(own.minus_Q[-1], abs=1e-12)
        assert report.heat_deviation_at_tf == abs(run.minus_Q[-1] - report.master.minus_Q[-1])
        assert report.heat_deviation_at_tf == pytest.approx(0.0809, abs=1e-4)

    def test_reservoir_size_convergence(self, fig2_run):
        spec = ReservoirSpec(K=400, gamma=fig2_run.spec.gamma)
        bigger = simulate(spec, fig2_run.schedule, dt=fig2_run.dt)
        assert abs(bigger.minus_Q_tf - fig2_run.minus_Q_tf) < 0.02

    def test_interaction_energy_small_at_switch_off(self, fig2_run):
        assert abs(interaction_energy(fig2_run)) < 0.05

    def test_interaction_energy_of_a_rate_equation_run_rejected(self):
        run = integrate_population(SweepSchedule(-5.0, 1.0, 10.0), 0.05)
        with pytest.raises(ValueError, match="no C_final: it is not an exact-bath run"):
            interaction_energy(run)
