import math

import numpy as np
import pytest

from fermicool import exact_bath
from fermicool.exact_bath import (
    BathRun,
    ReservoirSpec,
    build_full_hamiltonian,
    build_reservoir,
    compare_with_master_equation,
    initial_state,
    interaction_energy,
    simulate,
)
from fermicool.gaussian import fermi_occupation, propagator
from fermicool.master_eq import NoCrossingError, SweepSchedule


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
    t = 0.0
    end = max_time - 1e-12 * max(1.0, max_time)
    while not (threshold is not None and ns[-1] <= threshold) and t < end:
        H = build_full_hamiltonian(schedule.energy(t), levels, t_amp).astype(complex)
        U = propagator(H, dt)
        C = U @ C @ U.conj().T
        C = 0.5 * (C + C.conj().T)
        t += dt
        times.append(t)
        ns.append(float(C[0, 0].real))
        mq.append(float(np.real(C[idx, idx] @ levels)) - E_R0)
    t_f = minus_Q_tf = None
    if threshold is not None:
        i = next(k for k, n in enumerate(ns) if n <= threshold)
        frac = (ns[i - 1] - threshold) / (ns[i - 1] - ns[i])
        t_f = times[i - 1] + frac * dt
        minus_Q_tf = mq[i - 1] + frac * (mq[i] - mq[i - 1])
    return np.array(times), np.array(ns), np.array(mq), t_f, minus_Q_tf, C


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
        with pytest.raises(ValueError, match="gamma"):
            ReservoirSpec(K=10, gamma=0.0)
        with pytest.raises(ValueError, match="window"):
            ReservoirSpec(K=10, gamma=0.02, window=(3.0, -7.0))


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
        with pytest.raises(ValueError, match="population"):
            initial_state(ReservoirSpec(K=2, gamma=0.02), n_S0=-0.2)


class TestSecularSolver:
    """The O(K^2) arrowhead eigensolver against dense eigh."""

    @pytest.mark.parametrize("K", [2, 50, 200, 400])
    def test_matches_eigh(self, K):
        levels, t_amp = build_reservoir(ReservoirSpec(K=K, gamma=0.02))
        solve = exact_bath._SecularSolver(levels, t_amp)
        # across and beyond the level window (-7, 3), on a level and on a midpoint
        eps = np.concatenate([np.linspace(-12.0, 8.0, 21),
                              [levels[K // 3], 0.5 * (levels[0] + levels[1])]])
        for start in range(0, eps.size, solve.block):
            chunk = eps[start:start + solve.block]
            w, Vt = solve(chunk)
            for e, w_e, Vt_e in zip(chunk, w, Vt):
                H = build_full_hamiltonian(e, levels, t_amp)
                V = Vt_e.T
                assert np.abs(w_e - np.linalg.eigvalsh(H)).max() <= 1e-13
                assert np.abs(V.T @ V - np.eye(K + 1)).max() <= 1e-13
                assert np.abs(H @ V - V * w_e).max() <= 1e-13

    def test_block_size_from_element_budget(self):
        for K, block in [(50, 25), (200, 1), (400, 1)]:
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


class TestBudget:
    @pytest.fixture
    def no_allocation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the run was started")
        monkeypatch.setattr(exact_bath, "build_reservoir", refuse)
        monkeypatch.setattr(exact_bath, "initial_state", refuse)

    def test_memory_budget(self, no_allocation):
        spec = ReservoirSpec(K=20_000, gamma=0.02)
        with pytest.raises(ValueError, match="K=20000 .* memory budget"):
            simulate(spec, SweepSchedule(-5.0, 1.0, 500.0), max_time=3.0, dt=3.0)

    @pytest.mark.parametrize("dt", [0.3, 1e-300, 5e-324])
    def test_work_budget(self, no_allocation, dt):
        spec = ReservoirSpec(K=400, gamma=0.02)
        with pytest.raises(ValueError, match="max_time/dt .* work budget"):
            simulate(spec, SweepSchedule(-5.0, 1.0, 500.0), dt=dt)

    def test_published_runs_fit(self):
        # the K=400 convergence run, the largest in the tests, demos and benchmark
        spec = ReservoirSpec(K=400, gamma=0.02)
        exact_bath._check_budget(spec, 3.0, 500.0 + 20.0 / 0.02)


class TestCompareWithMasterEquation:
    def test_published_sweep_agreement(self, fig2_run, fig2_report):
        assert fig2_report.max_population_deviation <= 0.02
        assert fig2_report.heat_deviation_at_tf < 0.02
        # both descriptions switch off near Gamma*t = 9.3
        assert fig2_run.gamma_t_f == pytest.approx(9.3, abs=0.15)
        assert fig2_run.spec.gamma * fig2_report.master_t_f == pytest.approx(9.3, abs=0.15)

    def test_published_sweep_heat_values(self, fig2_run, fig2_report):
        assert fig2_run.minus_Q_tf == pytest.approx(-0.42, abs=0.01)
        assert fig2_report.master_minus_Q_tf == pytest.approx(-0.42, abs=0.01)

    def test_reservoir_size_convergence(self, fig2_run):
        spec = ReservoirSpec(K=400, gamma=fig2_run.spec.gamma)
        bigger = simulate(spec, fig2_run.schedule, dt=fig2_run.dt)
        assert abs(bigger.minus_Q_tf - fig2_run.minus_Q_tf) < 0.02

    def test_interaction_energy_small_at_switch_off(self, fig2_run):
        assert abs(interaction_energy(fig2_run)) < 0.05
