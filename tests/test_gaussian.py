import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, xlogy

from fermicool.gaussian import (
    PROB_TOL,
    binary_entropy,
    coherent_information,
    energy_expectation,
    evolve_step,
    fermi_occupation,
    require_hermitian,
    subsystem_entropy,
)

from oracle import random_correlation, random_hermitian

LN2 = math.log(2.0)

ONE_BODY = np.array([[0.5, -0.5j], [0.5j, 0.5]])
TUNNEL = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestEvolveStep:
    def test_zero_time_is_identity(self):
        C = random_correlation(np.random.default_rng(0), 3)
        assert np.array_equal(evolve_step(C, random_hermitian(np.random.default_rng(1), 3), 0.0), C)

    def test_quarter_period_concentrates_one_body_state(self):
        out = evolve_step(ONE_BODY, TUNNEL, math.pi / 4)
        assert np.allclose(out, np.diag([0.0, 1.0]), atol=1e-12)

    def test_half_period_swaps_populations(self):
        out = evolve_step(np.diag([1.0, 0.0]).astype(complex), TUNNEL, math.pi / 2)
        assert np.allclose(out, np.diag([0.0, 1.0]), atol=1e-12)

    def test_commuting_hamiltonian_leaves_state_unchanged(self):
        C = np.diag([0.3, 0.7]).astype(complex)
        H = np.diag([1.0, -2.0]).astype(complex)
        assert np.allclose(evolve_step(C, H, 1.7), C, atol=1e-14)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            evolve_step(ONE_BODY, np.eye(3), 0.1)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            evolve_step(ONE_BODY, np.array([[0.0, 1.0], [0.0, 0.0]]), 0.1)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            evolve_step(ONE_BODY, TUNNEL, -0.1)

    @pytest.mark.parametrize("dt", [math.inf, math.nan])
    def test_non_finite_time_rejected(self, dt):
        with pytest.raises(ValueError, match="dt must be finite"):
            evolve_step(ONE_BODY, TUNNEL, dt)

    def test_zero_time_copies_without_eigensolve(self, monkeypatch):
        def no_eigh(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called for dt = 0")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        out = evolve_step(ONE_BODY, TUNNEL, 0.0)
        assert out is not ONE_BODY
        assert np.array_equal(out, ONE_BODY)


class TestNanMatrixRejected:
    """A NaN Hermiticity deviation is not within the tolerance, so NaN entries raise."""

    @pytest.mark.parametrize("call", [
        pytest.param(lambda C: require_hermitian(C, name="correlation matrix"),
                     id="require_hermitian"),
        pytest.param(lambda C: evolve_step(C, TUNNEL, 0.1), id="evolve_step"),
        pytest.param(lambda C: subsystem_entropy(C, [0, 1]), id="subsystem_entropy"),
        pytest.param(lambda C: coherent_information(C, [0]), id="coherent_information"),
    ])
    def test_nan_entry_rejected(self, call):
        with pytest.raises(ValueError, match="correlation matrix is not Hermitian: max deviation nan"):
            call(np.array([[math.nan, 0.0], [0.0, 0.5]]))


def test_require_hermitian_rejects_non_square():
    with pytest.raises(ValueError, match=r"Hamiltonian must be square, got shape \(2, 3\)"):
        require_hermitian(np.zeros((2, 3)), name="Hamiltonian")


class TestBinaryEntropy:
    def test_half_is_ln2(self):
        assert binary_entropy(0.5) == pytest.approx(LN2, abs=1e-15)

    def test_endpoints_vanish(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_thermal_population_value(self):
        # frozen from direct evaluation of -x ln x - (1-x) ln(1-x)
        assert binary_entropy(0.993307) == pytest.approx(0.04018034848744639, abs=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            binary_entropy(1.1)
        with pytest.raises(ValueError):
            binary_entropy(-0.1)

    def test_nan_rejected(self):
        # NaN fails every comparison, so it must not slip past the range check
        with pytest.raises(ValueError, match="nan outside"):
            binary_entropy(math.nan)

    def test_tolerance_band_clamped(self):
        assert binary_entropy(1.0 + 5e-13) == 0.0
        assert binary_entropy(-5e-13) == 0.0

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetric_and_bounded(self, x):
        h = binary_entropy(x)
        assert 0.0 <= h <= LN2 + 1e-15
        assert h == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)

    def test_bit_identical_to_scipy_xlogy(self):
        rng = np.random.default_rng(20260)
        x = np.concatenate([
            rng.random(50_000),
            10.0 ** rng.uniform(-320.0, 0.0, 25_000),  # down to the subnormals
            1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 25_000),
            [0.0, 1.0, 5e-324, 1.0 - 2.0**-53, -PROB_TOL, 1.0 + PROB_TOL],
        ])
        got = np.array([binary_entropy(v) for v in x])
        c = np.clip(x, 0.0, 1.0)
        want = -xlogy(c, c) - xlogy(1.0 - c, 1.0 - c)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestSubsystemEntropy:
    def test_one_body_state_marginal(self):
        assert subsystem_entropy(ONE_BODY, [0]) == pytest.approx(LN2, abs=1e-12)

    def test_one_body_state_is_globally_pure(self):
        assert subsystem_entropy(ONE_BODY, [0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_vacuum_has_zero_entropy(self):
        C = np.zeros((3, 3))
        assert subsystem_entropy(C, [0, 2]) == 0.0

    def test_diagonal_state_entropy_is_sum_of_binary_entropies(self):
        C = np.diag([0.2, 0.9, 0.5])
        expected = binary_entropy(0.2) + binary_entropy(0.9) + binary_entropy(0.5)
        assert subsystem_entropy(C, [0, 1, 2]) == pytest.approx(expected, abs=1e-14)

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            subsystem_entropy(ONE_BODY, [])

    def test_out_of_range_subset_rejected(self):
        with pytest.raises(ValueError, match="range"):
            subsystem_entropy(ONE_BODY, [2])

    def test_duplicate_subset_rejected(self):
        with pytest.raises(ValueError, match="duplicate mode indices"):
            subsystem_entropy(ONE_BODY, [1, 1])

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=5))
    def test_entropy_bounds(self, seed, dim):
        rng = np.random.default_rng(seed)
        C = random_correlation(rng, dim)
        m = sorted(rng.choice(dim, size=int(rng.integers(1, dim + 1)), replace=False))
        s = subsystem_entropy(C, m)
        assert 0.0 <= s <= len(m) * LN2 + 1e-12


class TestCoherentInformation:
    def test_pure_one_body_state_reaches_ln2(self):
        assert coherent_information(ONE_BODY, [0]) == pytest.approx(LN2, abs=1e-12)

    def test_maximally_mixed_diagonal(self):
        C = np.diag([0.5, 0.5])
        assert coherent_information(C, [0]) == pytest.approx(-LN2, abs=1e-12)

    def test_product_with_pure_system_vanishes(self):
        C = np.diag([0.37, 1.0])
        assert coherent_information(C, [0]) == pytest.approx(0.0, abs=1e-12)

    def test_full_mode_set_rejected(self):
        with pytest.raises(ValueError, match="proper subset"):
            coherent_information(ONE_BODY, [0, 1])

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    def test_nonpositive_for_diagonal_two_mode_states(self, a, b):
        assert coherent_information(np.diag([a, b]), [0]) <= 1e-12

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=2 * math.pi))
    def test_equals_binary_entropy_for_pure_one_body_family(self, p, phi):
        z = math.sqrt(p * (1 - p)) * np.exp(-1j * phi)
        C = np.array([[p, z], [np.conj(z), 1 - p]])
        assert coherent_information(C, [0]) == pytest.approx(binary_entropy(p), abs=1e-9)


class TestFermiOccupation:
    def test_symmetry_point(self):
        assert fermi_occupation(0.0) == 0.5

    def test_values(self):
        assert fermi_occupation(1.0) == pytest.approx(0.2689414213699951, abs=1e-15)
        assert fermi_occupation(-5.0) == pytest.approx(0.9933071490757153, abs=1e-15)

    def test_saturates_without_overflow(self):
        assert fermi_occupation(1e4) == 0.0
        assert fermi_occupation(-1e4) == 1.0

    def test_saturates_exactly_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fermi_occupation(800.0) == 0.0
            assert fermi_occupation(-800.0) == 1.0
            assert fermi_occupation(np.array([800.0, -800.0])).tolist() == [0.0, 1.0]

    def test_matches_scipy_expit(self):
        eps = np.concatenate([
            np.linspace(-700.0, 700.0, 20_001),
            np.random.default_rng(7).uniform(-700.0, 700.0, 20_000),
        ])
        np.testing.assert_allclose(fermi_occupation(eps), expit(-eps), rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("eps", [0.3, -2, np.float64(1.5), np.array(4.0)])
    def test_scalar_input_gives_python_float(self, eps):
        assert type(fermi_occupation(eps)) is float

    @given(st.floats(min_value=-10, max_value=10), st.floats(min_value=0.01, max_value=10))
    def test_strictly_decreasing(self, eps, delta):
        # range chosen so the decrease is resolvable in double precision
        assert fermi_occupation(eps + delta) < fermi_occupation(eps)


class TestEnergyExpectation:
    def test_single_occupied_mode(self):
        assert energy_expectation(np.diag([1.0, 0.0]), np.diag([-3.0, 7.0])) == pytest.approx(-3.0)

    def test_one_body_state_with_pure_tunnel_hamiltonian(self):
        # Tr(H C) = H_01 C_10 + H_10 C_01 = i/2 - i/2
        assert energy_expectation(ONE_BODY, TUNNEL) == pytest.approx(0.0, abs=1e-14)

    def test_zero_hamiltonian(self):
        C = random_correlation(np.random.default_rng(3), 4)
        assert energy_expectation(C, np.zeros((4, 4))) == 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            energy_expectation(ONE_BODY, np.eye(3))

    def test_imaginary_residue_rejected(self):
        # Hermitian within 1e-12, but a large H turns the skew part into
        # Im Tr(H C) = 2e3 * 4e-13 = 8e-10
        C = np.array([[0.5, 0.1 + 4e-13j], [0.1 + 4e-13j, 0.5]])
        with pytest.raises(ValueError, match="energy expectation has imaginary residue 8"):
            energy_expectation(C, 1e3 * TUNNEL)


class TestUnitarityProperties:
    @settings(max_examples=60)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=2, max_value=5),
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=3.0),
    )
    def test_evolution_preserves_invariants_and_composes(self, seed, dim, ta, tb):
        rng = np.random.default_rng(seed)
        C = random_correlation(rng, dim)
        H = random_hermitian(rng, dim)
        out = evolve_step(C, H, ta + tb)
        assert abs(np.trace(out).real - np.trace(C).real) < 1e-10
        assert np.abs(np.linalg.eigvalsh(out) - np.linalg.eigvalsh(C)).max() < 1e-10
        assert np.abs(out - out.conj().T).max() < 1e-12
        assert abs(energy_expectation(out, H) - energy_expectation(C, H)) < 1e-10
        two_steps = evolve_step(evolve_step(C, H, ta), H, tb)
        assert np.abs(two_steps - out).max() < 1e-10
