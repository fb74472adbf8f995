import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from fermicool import master_eq
from fermicool.gaussian import binary_entropy, fermi_occupation
from fermicool.master_eq import (
    NoCrossingError,
    SweepSchedule,
    find_zero_crossing,
    integrate_population,
    sweep_heat_curve,
)

LN2 = math.log(2.0)

# t_f for relaxation at constant eps = 1, Gamma = 1 from n0 = 1:
# solve f + (1 - f) exp(-t) = 1/2 with f = f(1); frozen from the closed form
CONST_EPS_TF = 1.1518223259470273


def constant_schedule(eps: float, tau: float = 1e-9) -> SweepSchedule:
    """Effectively constant energy: a vanishing sweep window before the hold.

    Callers must pass an explicit dt; the default step is tied to tau.
    """
    return SweepSchedule(eps - 1e-12, eps, tau)


def rk4_loop(schedule, gamma, dt, max_time, n0=1.0, threshold=0.5):
    """Reference: the plain per-step RK4 loop over the whole horizon.

    integrate_population evaluates the same steps as a blockwise scan.
    """
    nsteps = int(np.ceil(max_time / dt))
    t = dt * np.arange(nsteps + 1)
    f_full = fermi_occupation(schedule.energy(t))
    f_half = fermi_occupation(schedule.energy(t[:-1] + 0.5 * dt))
    n = float(n0)
    ns = [n]
    for k in range(nsteps):
        if threshold is not None and n <= threshold:
            break
        f0, fm, f1 = f_full[k], f_half[k], f_full[k + 1]
        k1 = -gamma * (n - f0)
        k2 = -gamma * (n + 0.5 * dt * k1 - fm)
        k3 = -gamma * (n + 0.5 * dt * k2 - fm)
        k4 = -gamma * (n + dt * k3 - f1)
        n = n + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ns.append(n)
    return np.clip(np.array(ns), 0.0, 1.0)


class TestSweepSchedule:
    def test_linear_then_held(self):
        s = SweepSchedule(-5.0, 1.0, 10.0)
        assert s.energy(0.0) == -5.0
        assert s.energy(5.0) == pytest.approx(-2.0)
        assert s.energy(10.0) == 1.0
        assert s.energy(25.0) == 1.0

    def test_vectorized_energy(self):
        s = SweepSchedule(-5.0, 1.0, 10.0)
        assert np.allclose(s.energy([0.0, 10.0, 20.0]), [-5.0, 1.0, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError, match="eps1 < eps2"):
            SweepSchedule(1.0, -5.0, 10.0)
        with pytest.raises(ValueError, match="tau must be positive, got 0.0"):
            SweepSchedule(-5.0, 1.0, 0.0)
        # finite ends whose span overflows: every energy would be NaN
        with pytest.raises(ValueError, match="eps2 - eps1 must be finite, got inf"):
            SweepSchedule(-1e308, 1e308, 10.0)
        with pytest.raises(ValueError, match="eps1 must be a number, got 'a'"):
            SweepSchedule("a", 1.0, 10.0)

    @pytest.mark.parametrize("name", ["eps1", "eps2", "tau"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, name, value):
        params = dict(eps1=-5.0, eps2=1.0, tau=10.0)
        params[name] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SweepSchedule(**params)


class TestIntegratePopulation:
    def test_constant_energy_matches_closed_form(self):
        # n(t) = f + (n0 - f) exp(-Gamma t)
        traj = integrate_population(constant_schedule(1.0), 0.05, dt=0.1,
                                    threshold=None, max_time=100.0)
        f = fermi_occupation(1.0)
        exact = f + (1.0 - f) * np.exp(-0.05 * traj.times)
        assert np.abs(traj.n_S - exact).max() < 1e-8

    def test_half_population_time_constant_energy(self):
        traj = integrate_population(constant_schedule(1.0), 0.05, dt=0.1)
        assert traj.t_f == pytest.approx(
            CONST_EPS_TF / 0.05, rel=1e-5
        )

    def test_adiabatic_limit_follows_fermi_function(self):
        schedule = SweepSchedule(-5.0, 1.0, 100.0 / 0.05)
        traj = integrate_population(schedule, 0.05, threshold=None, max_time=schedule.tau)
        # the population lags the instantaneous equilibrium by ~ d(eps)/dt / Gamma
        assert np.abs(
            traj.n_S - fermi_occupation(schedule.energy(traj.times))
        ).max() < 0.02

    def test_dimensionless_scaling(self):
        # only Gamma*tau matters: rescaled runs give identical -Q
        q = []
        for gamma in (0.01, 0.05):
            schedule = SweepSchedule(-5.0, 1.0, 10.0 / gamma)
            q.append(integrate_population(schedule, gamma).minus_Q_tf)
        assert q[0] == pytest.approx(q[1], abs=1e-9)

    def test_step_halving_converges(self):
        schedule = SweepSchedule(-5.0, 1.0, 10.0 / 0.02)
        coarse = integrate_population(schedule, 0.02, dt=0.5).minus_Q_tf
        fine = integrate_population(schedule, 0.02, dt=0.25).minus_Q_tf
        assert abs(coarse - fine) < 1e-6

    def test_threshold_crossing_bracketed(self):
        traj = integrate_population(constant_schedule(1.0), 0.05, dt=0.1)
        assert traj.n_S[-1] <= 0.5
        assert traj.n_S[-2] > 0.5

    def test_no_crossing_raises(self):
        # holding at eps = -5 keeps the population near 1
        with pytest.raises(NoCrossingError):
            integrate_population(SweepSchedule(-5.0, -4.9, 10.0), 0.05, max_time=50.0)

    def test_strong_coupling_warns(self):
        with pytest.warns(UserWarning, match="weak"):
            integrate_population(constant_schedule(1.0), 0.5, dt=0.02)

    def test_coarse_dt_rejected(self):
        with pytest.raises(ValueError, match="too coarse"):
            integrate_population(constant_schedule(1.0), 0.05, dt=1.0)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            integrate_population(constant_schedule(1.0), -0.1)
        with pytest.raises(ValueError, match=r"n0 must be a number in \[0, 1\], got 1.5"):
            integrate_population(constant_schedule(1.0), 0.05, n0=1.5)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_inputs_rejected(self, value):
        schedule = constant_schedule(1.0)
        with pytest.raises(ValueError, match="gamma must be finite"):
            integrate_population(schedule, value, dt=0.1)
        with pytest.raises(ValueError, match="dt must be finite"):
            integrate_population(schedule, 0.05, dt=value)
        with pytest.raises(ValueError, match="max_time must be finite"):
            integrate_population(schedule, 0.05, dt=0.1, max_time=value)

    def test_nonpositive_dt_rejected(self):
        for dt in (0.0, -0.1):
            with pytest.raises(ValueError, match="dt must be positive"):
                integrate_population(constant_schedule(1.0), 0.05, dt=dt)

    def test_step_budget_enforced(self):
        # rejected before anything the size of the grid is allocated
        with pytest.raises(ValueError, match="steps"):
            integrate_population(constant_schedule(1.0), 0.05, dt=1e-300)


PAIRS = [(-5.0, 1.0), (-5.0, 2.0), (-5.0, 3.0), (-3.0, 1.0), (-10.0, 1.0)]


class TestBlockwiseScan:
    """The scan reproduces the per-step RK4 loop, including where it stops."""

    @pytest.mark.parametrize("eps1,eps2", PAIRS)
    def test_matches_rk4_loop(self, eps1, eps2):
        gamma = 0.02
        for gtau in [*np.geomspace(0.1, 100.0, 50)[::7], 0.01]:
            schedule = SweepSchedule(eps1, eps2, gtau / gamma)
            traj = integrate_population(schedule, gamma)
            ref = rk4_loop(schedule, gamma, traj.dt, schedule.tau + 20.0 / gamma)
            assert traj.n_S.size == ref.size
            assert np.array_equal(traj.times, traj.dt * np.arange(ref.size))
            assert np.abs(traj.n_S - ref).max() <= 1e-12

    def test_threshold_none_keeps_every_sample(self):
        schedule = constant_schedule(1.0)
        for max_time in (100.0, 1000.05, 2000.0):
            traj = integrate_population(schedule, 0.05, dt=0.1, threshold=None,
                                        max_time=max_time)
            assert traj.n_S.size == math.ceil(max_time / 0.1) + 1
            ref = rk4_loop(schedule, 0.05, 0.1, max_time, threshold=None)
            assert np.abs(traj.n_S - ref).max() <= 1e-12

    def test_crossing_on_block_boundary(self):
        # the relaxation decreases strictly, so a threshold equal to one
        # sample makes that sample the first one at or below it
        schedule = constant_schedule(1.0)
        full = integrate_population(schedule, 0.05, dt=0.01, threshold=None,
                                    max_time=200.0)
        block = master_eq._BLOCK_STEPS
        assert full.n_S.size > block + 2
        for i in (block - 1, block, block + 1):
            traj = integrate_population(schedule, 0.05, dt=0.01,
                                        threshold=full.n_S[i], max_time=200.0)
            assert traj.n_S.size == i + 1
            assert np.array_equal(traj.n_S, full.n_S[: i + 1])

    def test_crossing_on_first_step(self):
        schedule = constant_schedule(1.0)
        first = integrate_population(schedule, 0.05, dt=0.1, threshold=None,
                                     max_time=0.1).n_S
        traj = integrate_population(schedule, 0.05, dt=0.1, threshold=first[1])
        assert np.array_equal(traj.n_S, first)
        # a population already at the threshold takes no step at all
        traj = integrate_population(schedule, 0.05, n0=0.4, dt=0.1)
        assert traj.n_S.tolist() == [0.4]
        assert traj.times.tolist() == [0.0]

    def test_fast_sweep_memory_bounded(self):
        # Gamma*tau = 0.001 takes ~1.15 million steps to the crossing over a
        # 20-million-step horizon; only the samples up to the crossing are kept
        # the child reads its own peak (VmHWM), which exec resets; its
        # ru_maxrss would carry over the peak of the forking pytest process
        code = (
            "from fermicool.master_eq import SweepSchedule, integrate_population\n"
            "traj = integrate_population(SweepSchedule(-5.0, 1.0, 0.001 / 0.02), 0.02)\n"
            "hwm = next(line for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
            "print(traj.n_S.size, hwm.split()[1])\n"
        )
        src = str(Path(master_eq.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True).stdout.split()
        samples, peak_kib = int(out[0]), int(out[1])
        assert samples < 2_000_000
        assert peak_kib < 200 * 1024


@dataclass(frozen=True)
class NeverHeld:
    """A SweepSchedule's energies with tau = inf, so that integrate_population
    scans every step sample by sample and builds no hold.  Callers pass dt and
    max_time, whose defaults read tau."""

    schedule: SweepSchedule
    tau: float = math.inf

    def energy(self, t):
        return self.schedule.energy(t)


class TestHold:
    """From j, the first grid index with j*dt >= tau, the samples are the closed
    form f2 + (n_j - f2) A^(k-j) of the RK4 steps at eps2, and the heat is
    -Q_j - eps2 (n_k - n_j)."""

    @staticmethod
    def assert_hold(schedule, gamma, dt, max_time, **kwargs):
        """The run against the per-sample scan: the same grid and crossing, the
        scan's bits up to j and the closed form after it.  Returns (run, j)."""
        run = integrate_population(schedule, gamma, dt=dt, max_time=max_time, **kwargs)
        scan = integrate_population(NeverHeld(schedule), gamma, dt=dt, max_time=max_time,
                                    **kwargs)
        assert run.n_S.size == scan.n_S.size
        assert np.array_equal(run.times, scan.times)
        if run.threshold is None:
            assert run.t_f is None and scan.t_f is None
        else:
            assert run.t_f == pytest.approx(scan.t_f, rel=1e-12)
        j = int(np.flatnonzero(run.times >= schedule.tau)[0])
        for name in ("n_S", "minus_Q"):
            assert np.array_equal(getattr(run, name)[: j + 1], getattr(scan, name)[: j + 1]), name
        assert np.abs(run.n_S - scan.n_S).max() <= 1e-12
        hold_heat = run.minus_Q[j] - schedule.eps2 * (run.n_S[j + 1 :] - run.n_S[j])
        assert np.array_equal(run.minus_Q[j + 1 :], hold_heat)
        return run, j

    def test_fast_sweep(self):
        # Gamma*tau = 0.01: 1,000 swept steps, then the hold to the crossing at
        # step 115,885; the scan is checked against the RK4 loop on this run
        # in TestBlockwiseScan
        schedule = SweepSchedule(-5.0, 1.0, 0.5)
        run, j = self.assert_hold(schedule, 0.02, 0.0005, schedule.tau + 1000.0)
        assert (j, run.n_S.size - 1) == (1000, 115_885)
        assert run.minus_Q_tf == run.minus_Q[j] - 1.0 * (0.5 - run.n_S[j])

    @pytest.mark.parametrize("tau,j", [(30.005, 3001), (55.965, 5597)])
    def test_hold_starts_mid_step(self, tau, j):
        # tau falls mid-step, so the hold starts at the next grid point; at
        # 55.965 the scan ends in a partial second block (steps 4096-5597)
        schedule = SweepSchedule(-5.0, 1.0, tau)
        run, start = self.assert_hold(schedule, 0.05, 0.01, 60.0 + tau)
        assert start == j < run.n_S.size - 1
        ref = rk4_loop(schedule, 0.05, 0.01, 60.0 + tau)
        assert run.n_S.size == ref.size
        assert np.abs(run.n_S - ref).max() <= 1e-12

    def test_crossing_at_the_hold_start(self):
        # a threshold equal to one sample makes it the crossing: at j the
        # scan's switch-off rule holds, from j + 1 on the hold's
        schedule = SweepSchedule(-5.0, 1.0, 30.005)
        full, j = self.assert_hold(schedule, 0.05, 0.01, 100.0, threshold=None)
        for i in (j - 1, j, j + 1, j + 2):
            run = integrate_population(schedule, 0.05, dt=0.01, threshold=full.n_S[i],
                                       max_time=100.0)
            assert run.n_S.size == i + 1
            assert np.array_equal(run.n_S, full.n_S[: i + 1])
            assert np.array_equal(run.minus_Q, full.minus_Q[: i + 1])
            assert run.t_f == pytest.approx(full.times[i], abs=1e-12)
            assert heat_only(schedule, 0.05, dt=0.01, threshold=full.n_S[i],
                             max_time=100.0) == (run.t_f, run.minus_Q_tf)
            if i > j:
                assert run.minus_Q_tf == full.minus_Q[i]
            else:
                assert run.minus_Q_tf == pytest.approx(full.minus_Q[i], abs=1e-15)

    def test_threshold_none(self):
        run, _ = self.assert_hold(SweepSchedule(-5.0, 1.0, 0.5), 0.02, 0.0005, 100.5,
                                  threshold=None)
        assert run.n_S.size == 201_001

    def test_partial_initial_population(self):
        schedule = SweepSchedule(-5.0, 1.0, 0.5)
        run, _ = self.assert_hold(schedule, 0.02, 0.0005, 1000.5, n0=0.8)
        ref = rk4_loop(schedule, 0.02, 0.0005, 1000.5, n0=0.8)
        assert run.n_S.size == ref.size
        assert np.abs(run.n_S - ref).max() <= 1e-12

    def test_unreachable_threshold_fails_at_the_hold(self):
        # f(-0.5) = 0.622 > 1/2: the hold can never cross, so the run fails
        # with the closed-form n_S at max_time, before any hold sample is built
        tracemalloc.start()
        try:
            rows, failures = master_eq._heat_curve(-5.0, -0.5, 0.02, [0.01])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows == [] and len(failures) == 1
        exc = failures[0][1]
        assert type(exc) is NoCrossingError
        assert str(exc) == "n_S never reached 0.5 before t=1000.5 (final n_S=0.622459)"
        # the 1,000 swept samples; the horizon's 2,001,000 would take 16 MB apiece
        assert peak < 1_000_000

    def test_hold_without_decay(self):
        # Gamma*dt = 1e-20 rounds the step factor A to 1, so the closed form
        # never reaches the threshold
        with pytest.raises(NoCrossingError, match=r"final n_S=1\.000000"):
            integrate_population(SweepSchedule(-5.0, 1.0, 1.0), 1e-20, dt=1.0, max_time=100.0)


def heat_only(schedule, gamma, **kwargs):
    """(t_f, -Q(t_f)) of a run read off its scan, with no grid built."""
    _, t_f, minus_Q_tf = master_eq._switch_off(master_eq._scan(schedule, gamma, **kwargs))
    return t_f, minus_Q_tf


class TestHeatOnly:
    """The switch-off read off a scan is integrate_population's, bit for bit."""

    @pytest.mark.parametrize("eps1,eps2", PAIRS)
    @pytest.mark.parametrize("n0", [1.0, 0.8])
    def test_matches_integrate_population(self, eps1, eps2, n0):
        gamma = 0.02
        for gtau in [*np.geomspace(0.1, 100.0, 50), 0.001, 0.01, 0.03]:
            schedule = SweepSchedule(eps1, eps2, gtau / gamma)
            run = integrate_population(schedule, gamma, n0=n0)
            assert heat_only(schedule, gamma, n0=n0) == (run.t_f, run.minus_Q_tf)

    def test_thresholds_along_the_hold(self):
        # at and just below the hold's samples the closed form's crossing can
        # land a step from the samples' own, which still decide it
        schedule = SweepSchedule(-5.0, 2.0, 30.005)
        full = integrate_population(schedule, 0.05, dt=0.01, threshold=None, max_time=100.0)
        for i in range(3002, full.n_S.size - 1, 13):
            for threshold, k in ((full.n_S[i], i), (np.nextafter(full.n_S[i], 0.0), i + 1)):
                _, (t_f,) = master_eq._first_crossing(full.n_S[: k + 1], threshold, 100.0,
                                                      full.times)
                t_f_scan, _ = heat_only(schedule, 0.05, dt=0.01, threshold=threshold,
                                        max_time=100.0)
                assert t_f_scan == t_f

    @pytest.mark.parametrize("kwargs", [dict(threshold=0.2), dict(max_time=20.0)])
    def test_no_crossing_same_error(self, kwargs):
        # f(1) = 0.269 > 0.2: the hold never gets there; by t = 20 the sweep is not over
        schedule = SweepSchedule(-5.0, 1.0, 30.0)
        with pytest.raises(NoCrossingError) as grid:
            integrate_population(schedule, 0.05, **kwargs)
        with pytest.raises(NoCrossingError) as scan:
            heat_only(schedule, 0.05, **kwargs)
        assert str(scan.value) == str(grid.value)

    def test_fig1_point_builds_no_grid(self):
        # Gamma*tau = 0.001 crosses 1,152,526 samples in, 9 MB per grid array
        tracemalloc.start()
        try:
            rows, failures = master_eq._heat_curve(-5.0, 1.0, 0.02, [0.001])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 1 and failures == []
        assert peak < 1_000_000


class TestScanKernel:
    """The pieces a scan reads without evaluating them on their own: the hold's
    energy and Fermi factor and the crossing's two times."""

    @pytest.mark.parametrize("gamma_tau,n0,blocks", [
        (0.01, 1.0, True),   # the scan reaches j_tau and crosses in the hold
        (10.0, 1.0, True),   # the scan crosses before tau
        (10.0, 0.5, False),  # n0 at the threshold: no block runs
        (10.0, 0.3, False),  # n0 below it
    ])
    def test_hold_energy_from_the_joined_grid(self, gamma_tau, n0, blocks):
        schedule = SweepSchedule(-5.0, 1.0, gamma_tau / 0.02)
        scan = master_eq._scan(schedule, 0.02, n0=n0)
        assert (scan.g is not None) == blocks
        e2 = schedule.energy(schedule.tau)
        assert (type(scan.e2), scan.e2.hex()) == (float, e2.hex())
        assert (type(scan.f2), scan.f2.hex()) == (float, fermi_occupation(e2).hex())

    @pytest.mark.parametrize("eps1,eps2", PAIRS)
    def test_crossing_times_without_a_grid(self, eps1, eps2):
        crossed = 0
        for gtau in np.geomspace(0.1, 100.0, 50):
            scan = master_eq._scan(SweepSchedule(eps1, eps2, gtau / 0.02), 0.02)
            if scan.n > scan.threshold:
                continue  # crosses in the hold
            j = scan.n_S.size - 1
            i, (t_f,) = master_eq._first_crossing(scan.n_S, scan.threshold, scan.max_time,
                                                  scan.dt * np.arange(j + 1.0))
            got = master_eq._switch_off(scan)
            assert (got[0], got[1].hex()) == (i, t_f.hex())
            crossed += 1
        assert crossed > 10


class TestHeat:
    def test_instant_quench_heat(self):
        # a sweep much faster than the relaxation: the population is still 1
        # when the energy reaches eps2 = 1, then -Q -> -eps2 * (1 - 1/2)
        schedule = SweepSchedule(-5.0, 1.0, 0.001 / 0.02)
        traj = integrate_population(schedule, 0.02)
        assert traj.minus_Q_tf == pytest.approx(0.5, abs=2e-3)

    def test_quasistatic_limit_heat(self):
        # slow sweep approaches -Q = -[ln 2 - h(f(eps1))]
        schedule = SweepSchedule(-5.0, 1.0, 100.0 / 0.02)
        traj = integrate_population(schedule, 0.02)
        target = -(LN2 - binary_entropy(fermi_occupation(-5.0)))
        assert traj.minus_Q_tf == pytest.approx(target, abs=0.01)
        assert traj.minus_Q_tf == pytest.approx(-0.6569, abs=2e-3)

    def test_second_law_along_trajectory(self):
        schedule = SweepSchedule(-5.0, 1.0, 10.0 / 0.02)
        traj = integrate_population(schedule, 0.02, threshold=None,
                                    max_time=schedule.tau)
        sigma = (
            binary_entropy(traj.n_S[-1])
            - binary_entropy(traj.n_S[0])
            + traj.minus_Q[-1]
        )
        assert sigma >= -1e-6

    @pytest.mark.parametrize("gamma_tau", [0.01, 10.0])
    def test_heat_integrand_from_the_scan(self, gamma_tau):
        # the integrand reuses the scan's energies and Fermi factors, block by
        # block; recomputing them on the whole grid gives the same bits, up to
        # the hold start at tau (Gamma*tau = 10 crosses before it)
        schedule = SweepSchedule(-5.0, 1.0, gamma_tau / 0.02)
        run = integrate_population(schedule, 0.02)
        times, n_S = run.times[run.times <= schedule.tau], run.n_S[run.times <= schedule.tau]
        e = schedule.energy(times)
        g = e * (-0.02 * (n_S - fermi_occupation(e)))
        areas = np.diff(times) * (g[1:] + g[:-1]) / 2.0
        assert np.array_equal(run.minus_Q[: times.size],
                              -np.concatenate(([0.0], np.cumsum(areas))))

    def test_constant_energy_heat_exact(self):
        # after one step the energy is held, so -Q(t_f) = -eps (1/2 - n0) = 0.5
        # up to that first step's trapezoid error
        traj = integrate_population(constant_schedule(1.0), 0.05, dt=0.1)
        assert traj.minus_Q_tf == pytest.approx(0.5, abs=1e-8)

    # Fig. 1 points that cross in the hold, with the error of -Q(t_f) against
    # DOP853 when the hold's heat was a trapezoid sum on the grid
    @pytest.mark.parametrize("eps1,eps2,index,trapezoid_error", [
        (-10.0, 1.0, 30, 3.4e-6), (-5.0, 3.0, 21, 1.0e-6), (-5.0, 1.0, 27, 9.7e-7)])
    def test_hold_heat_against_dop853(self, eps1, eps2, index, trapezoid_error):
        from scipy.integrate import solve_ivp

        gamma, gamma_tau = 0.02, np.geomspace(0.1, 100.0, 50)[index]
        schedule = SweepSchedule(eps1, eps2, gamma_tau / gamma)
        run = integrate_population(schedule, gamma)
        assert run.t_f > schedule.tau

        def rhs(t, y):
            eps = schedule.energy(t)
            dn = -gamma * (y[0] - fermi_occupation(eps))
            return [dn, -eps * dn]

        def half(t, y):
            return y[0] - 0.5

        half.terminal, half.direction = True, -1
        # the kink of the energy at tau is a segment boundary for the solver
        sweep = solve_ivp(rhs, (0.0, schedule.tau), [1.0, 0.0], method="DOP853",
                          rtol=1e-11, atol=1e-13)
        hold = solve_ivp(rhs, (schedule.tau, 2.0 * run.t_f), sweep.y[:, -1], method="DOP853",
                         rtol=1e-11, atol=1e-13, events=half)
        assert abs(run.minus_Q_tf - hold.y_events[0][0][1]) < trapezoid_error

    def test_minus_Q_series_consistent_with_total(self):
        traj = integrate_population(constant_schedule(1.0), 0.05, dt=0.1)
        interp = np.interp(traj.t_f, traj.times, traj.minus_Q)
        assert traj.minus_Q_tf == pytest.approx(interp, abs=1e-6)


class TestSweepHeatCurve:
    def test_monotone_in_sweep_time(self):
        rows = sweep_heat_curve(-5.0, 1.0, 0.02, [0.5, 2.0, 8.0, 32.0])
        values = [q for _, q in rows]
        assert values == sorted(values, reverse=True)

    def test_fast_positive_slow_negative(self):
        rows = dict(sweep_heat_curve(-5.0, 1.0, 0.02, [0.5, 32.0]))
        assert rows[0.5] > 0.0
        assert rows[32.0] < 0.0

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            sweep_heat_curve(-5.0, 1.0, 0.02, [])

    def test_first_failure_reraised_after_every_point(self, monkeypatch):
        integrate = master_eq._scan
        errors = {2.0: NoCrossingError("first"), 4.0: ValueError("second")}
        ran = []

        def fail_at_2_and_4(schedule, gamma, **kwargs):
            gtau = schedule.tau * gamma
            ran.append(gtau)
            if gtau in errors:
                raise errors[gtau]
            return integrate(schedule, gamma, **kwargs)

        monkeypatch.setattr(master_eq, "_scan", fail_at_2_and_4)
        with pytest.raises(NoCrossingError) as info:
            sweep_heat_curve(-5.0, 1.0, 0.02, [1.0, 2.0, 4.0, 8.0])
        # the point's own exception, raised once the later points have run
        assert info.value is errors[2.0]
        assert ran == pytest.approx([1.0, 2.0, 4.0, 8.0])

    def test_failed_run_freed(self, monkeypatch):
        # a kept exception must not keep the failed run's frame, and so its arrays, alive
        runs = []

        class Run:
            pass

        def fail(schedule, gamma, **kwargs):
            run = Run()
            runs.append(weakref.ref(run))
            raise NoCrossingError(f"no crossing for {run}")

        monkeypatch.setattr(master_eq, "_scan", fail)
        rows, failures = master_eq._heat_curve(-5.0, 1.0, 0.02, [1.0, 2.0, 4.0])
        assert rows == [] and len(failures) == 3
        assert [ref() for ref in runs] == [None, None, None]


class TestFindZeroCrossing:
    def test_linear_interpolation(self):
        assert find_zero_crossing([(1.0, 1.0), (3.0, -1.0)]) == pytest.approx(2.0)

    def test_no_sign_change(self):
        assert find_zero_crossing([(1.0, 1.0), (3.0, 0.5)]) is None

    def test_exact_zero_sample(self):
        assert find_zero_crossing([(1.0, 0.0), (3.0, -1.0)]) == 1.0

    def test_zero_in_last_row(self):
        assert find_zero_crossing([(1.0, 1.0), (3.0, 0.0)]) == 3.0

    def test_model_crossing_location(self):
        # frozen behavior of this rate-equation model on the standard sweep
        rows = sweep_heat_curve(-5.0, 1.0, 0.02, np.geomspace(1.0, 8.0, 16))
        assert find_zero_crossing(rows) == pytest.approx(2.574, abs=0.02)


class TestFirstCrossing:
    def test_non_monotone_bracket_rejected(self):
        # a NaN before the first sample at or below the threshold is neither above nor below it
        with pytest.raises(ValueError, match="not monotone across the crossing bracket"):
            master_eq._first_crossing(np.array([1.0, math.nan, 0.2]), 0.5, 1.0)
