import math

import numpy as np
import pytest

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
from fermicool.gaussian import fermi_occupation
from fermicool.master_eq import NoCrossingError, SweepSchedule


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


class TestSimulate:
    def test_decoupled_system_is_stationary(self):
        # drop the coupling by hand: zero tunnel amplitude leaves n_S frozen
        spec = ReservoirSpec(K=10, gamma=1e-30)
        schedule = SweepSchedule(-5.0, 1.0, 5.0)
        run = simulate(spec, schedule, n_S0=1.0, dt=0.5, threshold=None, max_time=5.0)
        assert np.abs(run.n_S - 1.0).max() < 1e-9
        assert np.abs(run.minus_Q).max() < 1e-9

    def test_trace_and_energy_bookkeeping(self):
        spec = ReservoirSpec(K=30, gamma=0.05)
        schedule = SweepSchedule(-5.0, 1.0, 10.0 / 0.05)
        run = simulate(spec, schedule, dt=1.0, threshold=None, max_time=40.0,
                       track_energy=True)
        log = run.energy_log
        # total particle number is conserved by the unitary steps
        assert np.abs(np.diff(log["trace"])).max() < 1e-10
        # within each step the full Hamiltonian is held fixed and conserved
        drift = np.array(log["energy_post"]) - np.array(log["energy_pre"])
        assert np.abs(drift).max() < 1e-10
        # each quench jump equals (delta eps) * n_S
        actual = np.array(log["quench_jump_actual"])
        expected = np.array(log["quench_jump_expected"])
        assert np.abs(actual - expected).max() < 1e-10

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
