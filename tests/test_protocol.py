import dataclasses
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermicool import gaussian, protocol
from fermicool.gaussian import binary_entropy, coherent_information, subsystem_entropy
from fermicool.master_eq import NoCrossingError
from fermicool.protocol import (
    MEMORY,
    SYSTEM,
    EngineError,
    ProtocolConfig,
    ThermoLedger,
    concentration_duration,
    prepare_one_body_state,
    run_purification,
    run_witness_sequence,
    step1_rotate,
    step3_swap,
    theorem1_check,
    witness_from_ledger,
    witness_value,
)

LN2 = math.log(2.0)
QUASISTATIC_FINITE_EPS1_TARGET = 0.6529675774494036  # ln2 - h(f(-5)), direct evaluation


class TestPrepareOneBodyState:
    def test_default_state(self):
        C = prepare_one_body_state(0.5, math.pi / 2)
        assert np.allclose(C, [[0.5, -0.5j], [0.5j, 0.5]], atol=1e-15)
        assert np.allclose(sorted(np.linalg.eigvalsh(C)), [0.0, 1.0], atol=1e-15)

    def test_localized_particle(self):
        assert np.allclose(prepare_one_body_state(1.0, 0.3), np.diag([1.0, 0.0]))

    def test_real_phase_is_still_pure(self):
        C = prepare_one_body_state(0.5, 0.0)
        assert C[0, 1] == pytest.approx(0.5)
        assert np.allclose(sorted(np.linalg.eigvalsh(C)), [0.0, 1.0], atol=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            prepare_one_body_state(1.2, 0.0)

    @pytest.mark.parametrize("phi,message", [
        pytest.param(math.nan, "phi must be finite, got nan", id="nan"),
        pytest.param(math.inf, "phi must be finite, got inf", id="inf"),
        pytest.param("1", "phi must be a number, got '1'", id="str"),
    ])
    def test_bad_phase_rejected(self, phi, message):
        # ProtocolConfig's messages, raised before a NaN reaches the coherences
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            prepare_one_body_state(0.5, phi)


def _not_hermitian(dev: str) -> str:
    return f"correlation matrix is not Hermitian: max deviation {dev} exceeds 1e-12"


# two-mode states that require_hermitian rejects, with its message; the scalar check of
# the entry points must reject each alike
_BAD_STATES = [
    pytest.param([[0.5, 0.1], [0.1, math.nan]], _not_hermitian("nan"), id="nan-C11"),
    pytest.param([[math.inf, 0.0], [0.0, 0.5]], _not_hermitian("nan"), id="inf-population"),
    pytest.param([[0.5, 0.0], [0.0, 0.5 + 1e-9j]], _not_hermitian("2.000e-09"),
                 id="imaginary-diagonal"),
    pytest.param([[0.5, "0.5"], [0.0, 0.5]], _not_hermitian("5.000e-01"), id="string-entry"),
]


class TestProtocolSteps:
    def test_step1_lands_on_system_mode(self):
        out = step1_rotate(prepare_one_body_state(0.5, math.pi / 2), omega=1.0)
        assert np.allclose(out, np.diag([0.0, 1.0]), atol=1e-12)

    def test_step1_on_localized_particle_creates_coherence(self):
        out = step1_rotate(np.diag([1.0, 0.0]).astype(complex), omega=1.0)
        assert out[0, 0].real == pytest.approx(0.5, abs=1e-12)
        assert out[1, 1].real == pytest.approx(0.5, abs=1e-12)
        assert abs(out[0, 1]) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("omega", [0.3, 1.0, 7.5])
    def test_step1_depends_only_on_omega_times_time(self, omega):
        out = step1_rotate(prepare_one_body_state(0.5, math.pi / 2), omega=omega)
        assert np.allclose(out, np.diag([0.0, 1.0]), atol=1e-12)

    @staticmethod
    def _relax(n0, target):
        report = run_witness_sequence(np.diag([0.5, n0]), [{"op": "relax", "target": target}])
        return report.beta_q, report.n_S1

    def test_step2_ideal_heat(self):
        q, n = self._relax(1.0, 0.5)
        assert q == pytest.approx(LN2, abs=1e-15)
        assert n == 0.5

    def test_step2_noop(self):
        q, _ = self._relax(0.5, 0.5)
        assert q == 0.0

    def test_step2_finite_eps1_start(self):
        q, _ = self._relax(0.9933071490757153, 0.5)
        assert q == pytest.approx(QUASISTATIC_FINITE_EPS1_TARGET, abs=1e-12)

    def test_step3_swaps_diagonal(self):
        out = step3_swap(np.diag([0.0, 0.5]).astype(complex), omega=1.0)
        assert np.allclose(out, np.diag([0.5, 0.0]), atol=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    def test_step3_swaps_any_diagonal(self, a, b):
        out = step3_swap(np.diag([a, b]).astype(complex), omega=1.0)
        assert np.allclose(out, np.diag([b, a]), atol=1e-10)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            step1_rotate(np.eye(3), omega=1.0)
        with pytest.raises(ValueError):
            step3_swap(np.eye(3), omega=1.0)

    @pytest.mark.parametrize("omega,message", [
        pytest.param(math.inf, "omega must be finite, got inf", id="inf"),
        pytest.param(math.nan, "omega must be finite, got nan", id="nan"),
        pytest.param(0.0, "omega must be positive, got 0.0", id="0.0"),
        pytest.param(-1.0, "omega must be positive, got -1.0", id="-1.0"),
        pytest.param("1", "omega must be a number, got '1'", id="str"),
        pytest.param(0, "omega must be positive, got 0", id="0"),
        pytest.param(-1, "omega must be positive, got -1", id="-1"),
        pytest.param(True, "omega must be a number, got True", id="bool"),
        # unhashable: rejected before it reaches the witness sequence's per-omega config cache
        pytest.param([1.0], "omega must be a number, got [1.0]", id="list"),
    ])
    def test_non_finite_omega_rejected(self, omega, message):
        # inf made the rotation silently the identity; nan reported "dt must be finite";
        # 0 made the swap raise ZeroDivisionError from its half period pi/(2 omega)
        C0 = prepare_one_body_state(0.5, math.pi / 2)
        for call in (lambda: run_witness_sequence(C0, [{"op": "rotate"}], omega=omega),
                     lambda: run_witness_sequence(C0, [{"op": "swap"}], omega=omega),
                     lambda: step1_rotate(C0, omega),
                     lambda: step3_swap(C0, omega)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()

    @pytest.mark.parametrize("C,message", _BAD_STATES)
    def test_invalid_state_rejected(self, C, message):
        for call in (lambda: run_witness_sequence(C, [{"op": "rotate"}]),
                     lambda: run_witness_sequence(C, [{"op": "relax"}]),
                     lambda: run_witness_sequence(C, [{"op": "swap"}]),
                     lambda: step1_rotate(C, 1.0),
                     lambda: step3_swap(C, 1.0)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()

    def test_two_mode_check_is_require_hermitians(self):
        # on perturbed 2x2 matrices the scalar check raises or passes as require_hermitian
        # does, with its message, and returns its array; the perturbations reach the
        # tolerance's edge, NaN, infinities and moduli whose abs overflows
        rng = np.random.default_rng(33)
        scales = [0.0, 5e-13, 1e-12, 2e-12, 1e-9, 1.0, 1.5e308]
        specials = [math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(0.0, math.inf)]
        outcomes = set()
        for _ in range(1000):
            C = prepare_one_body_state(rng.uniform(), rng.uniform(-math.pi, math.pi))
            for _ in range(int(rng.integers(1, 3))):
                i, j = rng.integers(0, 2, size=2)
                if rng.uniform() < 0.15:
                    C[i, j] = specials[rng.integers(len(specials))]
                else:
                    re, im = rng.choice([-1.0, 1.0], size=2) * rng.uniform(size=2)
                    C[i, j] += scales[rng.integers(len(scales))] * complex(re, im)
            got, want = [], []
            for check, out in ((protocol._two_mode_state, got),
                               (lambda a: gaussian.require_hermitian(a, "correlation matrix"), want)):
                try:
                    with np.errstate(all="ignore"):
                        out.append(check(C.copy()).tobytes())
                except ValueError as error:
                    out.append(str(error))
            assert got == want, C
            outcomes.add(want[0] if isinstance(want[0], str) else "pass")
        assert "pass" in outcomes
        assert {_not_hermitian("nan"), _not_hermitian("inf")} <= outcomes

    def test_subnormal_omega_overflows_the_half_period(self):
        # pi/(2 omega) is inf: the cached swap raises _rotate's error, not a NaN state
        C0 = prepare_one_body_state(0.5, math.pi / 2)
        for call in (lambda: run_witness_sequence(C0, [{"op": "swap"}], omega=5e-324),
                     lambda: run_purification(ProtocolConfig(diagonal=(0.3, 0.8), omega=5e-324)),
                     lambda: step3_swap(C0, 5e-324)):
            with pytest.raises(ValueError, match=r"^dt must be finite, got inf$"):
                call()


class TestConcentrationDuration:
    @pytest.mark.parametrize("C,omega,message", [
        pytest.param(None, 0.0, "omega must be positive, got 0.0", id="omega-0"),
        pytest.param(None, -1.0, "omega must be positive, got -1.0", id="omega-negative"),
        pytest.param(None, math.nan, "omega must be finite, got nan", id="omega-nan"),
        pytest.param(None, "1", "omega must be a number, got '1'", id="omega-str"),
        pytest.param(None, 1e-320, "duration must be finite, got inf", id="omega-subnormal"),
        pytest.param(0.5 * np.eye(3), 1.0, "expected a two-mode state, got shape (3, 3)",
                     id="3x3"),
        pytest.param([[0.5, 0.5], [0.0, 0.5]], 1.0, "correlation matrix is not Hermitian",
                     id="non-hermitian"),
        *(pytest.param(case.values[0], 1.0, case.values[1], id=case.id) for case in _BAD_STATES),
    ])
    def test_invalid_input_rejected(self, C, omega, message):
        # 0 raised ZeroDivisionError, -1 gave a negative duration, nan and a subnormal
        # omega a non-finite one, and a 3x3 C was read from its top-left block
        C = prepare_one_body_state(0.5, math.pi / 2) if C is None else C
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            concentration_duration(C, omega)

    def test_nested_list_accepted(self):
        # a nested list used to raise TypeError from C[MEMORY, SYSTEM]
        C = prepare_one_body_state(0.3, 0.7)
        assert concentration_duration(C.tolist(), 1.3) == concentration_duration(C, 1.3)


class TestInitialCoherentInformation:
    """The ledger reads I = S_M - S_MS off its initial row, with coherent_information's bits."""

    @staticmethod
    def _check(config):
        ledger = run_purification(config)
        C0 = protocol._initial_state(config)
        assert ledger.initial_coherent_information == coherent_information(C0, [MEMORY])

    def test_default_state(self):
        self._check(ProtocolConfig())

    def test_seeded_one_body_states(self):
        rng = np.random.default_rng(11)
        for p, phi in zip(rng.uniform(0.0, 1.0, 50), rng.uniform(-math.pi, math.pi, 50)):
            self._check(ProtocolConfig(p=float(p), phi=float(phi)))

    def test_seeded_diagonal_states(self):
        rng = np.random.default_rng(12)
        for n_M, n_S in rng.uniform(0.0, 1.0, (50, 2)):
            self._check(ProtocolConfig(diagonal=(n_M, n_S), step2_target=0.0))

    def test_not_a_constructor_field(self):
        assert "initial_coherent_information" not in {
            f.name for f in dataclasses.fields(ThermoLedger)
        }

    def test_default_ledger_entropy_evaluations(self, monkeypatch):
        # one 2x2 eigensolve per recorded step with coherences (initial, rotate, swap;
        # the relax row is diagonal) and no subsystem_entropy call, through protocol
        # or gaussian (coherent_information)
        entropy_calls, eigensolves = [], []
        inner_entropy = gaussian.subsystem_entropy

        def counting_entropy(C, modes):
            entropy_calls.append(tuple(modes))
            return inner_entropy(C, modes)

        def counting(inner):
            def count(a, *args, **kwargs):
                eigensolves.append(np.shape(a))
                return inner(a, *args, **kwargs)
            return count

        monkeypatch.setattr(protocol, "subsystem_entropy", counting_entropy, raising=False)
        monkeypatch.setattr(gaussian, "subsystem_entropy", counting_entropy)
        # record calls LAPACK's gufunc through protocol's alias; np.linalg.eigvalsh wraps it
        monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh))
        monkeypatch.setattr(protocol, "_eigvalsh", counting(protocol._eigvalsh))
        run_purification(ProtocolConfig())
        assert entropy_calls == []
        assert eigensolves == [(2, 2)] * 3

    def test_tunnel_hamiltonian_diagonalized_once(self, monkeypatch):
        # the rotate and swap of both ledgers share one cached eigh of the tunnel H
        eighs = []
        inner_eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            eighs.append(np.shape(a))
            return inner_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        protocol._tunnel_eigenbasis.cache_clear()
        protocol._fixed_propagator.cache_clear()
        run_purification(ProtocolConfig())
        run_purification(ProtocolConfig())
        assert eighs == [(2, 2)]


def _bits(x: float) -> bytes:
    return struct.pack("d", x)


class TestRecordEntropies:
    """record's S_M, S_S and S_MS carry subsystem_entropy's bits, sign of zero included."""

    @pytest.fixture
    def checked_labels(self, monkeypatch):
        # wraps record so that every step any run records is compared
        labels = []
        inner = ThermoLedger.record

        def checking(ledger, label, C, eps, heat):
            inner(ledger, label, C, eps, heat)
            step = ledger.steps[-1]
            for got, modes in ((step.S_M, [MEMORY]), (step.S_S, [SYSTEM]),
                               (step.S_MS, [MEMORY, SYSTEM])):
                assert _bits(got) == _bits(subsystem_entropy(C, modes)), (label, modes, got)
            labels.append(label)

        monkeypatch.setattr(ThermoLedger, "record", checking)
        return labels

    def test_seeded_one_body_states(self, checked_labels):
        rng = np.random.default_rng(21)
        for p, phi in zip(rng.uniform(0.0, 1.0, 200), rng.uniform(-math.pi, math.pi, 200)):
            run_purification(ProtocolConfig(p=float(p), phi=float(phi)))
        assert checked_labels.count("rotate") == 200

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("phi", [0.0, math.pi / 2, -math.pi / 2, math.pi])
    @pytest.mark.parametrize("target", [None, 0.0, 1.0])
    def test_edge_one_body_states(self, checked_labels, p, phi, target):
        run_purification(ProtocolConfig(p=p, phi=phi, step2_target=target))
        assert checked_labels[0] == "initial"

    def test_seeded_diagonal_states(self, checked_labels):
        rng = np.random.default_rng(22)
        for n_M, n_S in rng.uniform(0.0, 1.0, (100, 2)):
            for target in (None, 0.0, 1.0):
                run_purification(ProtocolConfig(diagonal=(n_M, n_S), step2_target=target))
        assert len(checked_labels) >= 300

    @pytest.mark.parametrize("diagonal", [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0),
                                          (0.0, 0.3), (1.0, 0.7), (0.3, 0.0), (0.7, 1.0)])
    @pytest.mark.parametrize("target", [None, 0.0, 1.0])
    def test_pure_diagonal_entries(self, checked_labels, diagonal, target):
        run_purification(ProtocolConfig(diagonal=diagonal, step2_target=target))
        assert checked_labels[0] == "initial"

    def test_pure_state_entropy_is_positive_zero(self):
        # h(0) is -0.0; a sum from zero reads +0.0, as subsystem_entropy does
        ledger = run_purification(ProtocolConfig(diagonal=(0.0, 0.0)))
        assert all(_bits(s) == _bits(0.0) for step in ledger.steps
                   for s in (step.S_M, step.S_S, step.S_MS))

    @pytest.mark.parametrize("C", [
        pytest.param(np.diag([-1e-11, 1.0 + 1e-11]), id="diagonal"),
        pytest.param(np.array([[0.5, 0.5 + 1e-11], [0.5 + 1e-11, 0.5]]), id="eigenvalues"),
    ])
    def test_eigenvalues_outside_unit_interval_are_clamped(self, checked_labels, C):
        # beyond binary_entropy's 1e-12 range tolerance: only the clamp keeps these finite
        ThermoLedger(engine="quasistatic").record("x", C.astype(complex), 0.0, 0.0)
        assert checked_labels == ["x"]

    @pytest.mark.parametrize("C", [
        pytest.param([[0.5, 0.5], [0.5 + 1e-9, 0.5]], id="coherence"),
        pytest.param([[0.5 + 1e-9j, 0.0], [0.0, 0.5]], id="diagonal-imaginary"),
    ])
    def test_non_hermitian_rejected(self, C):
        with pytest.raises(ValueError, match="correlation matrix is not Hermitian"):
            ThermoLedger(engine="quasistatic").record(
                "x", np.array(C, dtype=complex), 0.0, 0.0
            )

    @pytest.mark.parametrize("C", [
        pytest.param([[0.5, math.nan], [math.nan, 0.5]], id="coherence-nan"),
        pytest.param([[0.5, complex(0.0, math.nan)], [0.0, 0.5]], id="coherence-imaginary-nan"),
    ])
    def test_nan_coherence_rejected(self, C):
        with pytest.raises(ValueError, match="correlation matrix is not Hermitian: max deviation nan"):
            ThermoLedger(engine="quasistatic").record(
                "x", np.array(C, dtype=complex), 0.0, 0.0
            )

    @pytest.mark.parametrize("C", [
        pytest.param([[complex(0.5, math.nan), 0.1], [0.1, 0.5]], id="C00"),
        pytest.param([[0.5, 0.1], [0.1, complex(0.5, math.nan)]], id="C11"),
    ])
    def test_nan_imaginary_diagonal_rejected(self, C):
        # a NaN in a later term of the deviation must not be dropped by max
        with pytest.raises(ValueError, match="correlation matrix is not Hermitian: max deviation nan"):
            ThermoLedger(engine="quasistatic").record(
                "x", np.array(C, dtype=complex), 0.0, 0.0
            )

    def test_eigensolve_is_numpys(self):
        # the private gufunc record calls returns np.linalg.eigvalsh's bits on pure,
        # mixed and clamped states; a numpy that changes the gufunc fails here
        rng = np.random.default_rng(23)
        ps, phis = rng.uniform(0.0, 1.0, 100), rng.uniform(-math.pi, math.pi, 100)
        states = [prepare_one_body_state(float(p), float(phi)) for p, phi in zip(ps, phis)]
        for lam in rng.uniform(-1e-11, 1.0 + 1e-11, (200, 2)):
            V = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
            C = (V * lam) @ V.conj().T
            states.append(0.5 * (C + C.conj().T))
        states += [np.array(C, dtype=complex) for C in (np.diag([-1e-11, 1.0 + 1e-11]),
                   [[0.5, 0.5 + 1e-11], [0.5 + 1e-11, 0.5]], [[0.0, 0.0], [0.0, 1.0]])]
        for C in states:
            got, want = protocol._eigvalsh(C, signature="D->d"), np.linalg.eigvalsh(C)
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), C

    def test_nan_population_rejected(self):
        # the clamp keeps a NaN; the entropy sum raises binary_entropy's error for it
        with pytest.raises(ValueError, match=r"probability nan outside \[0, 1\]"):
            ThermoLedger(engine="quasistatic").record(
                "x", np.diag([math.nan, 0.5]).astype(complex), 0.0, 0.0
            )

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    @pytest.mark.parametrize("slot", [0, 1])
    def test_infinite_population_rejected(self, value, slot):
        # the clamp would record +-inf as a pure population; it is rejected before
        diagonal = [0.5, 0.5]
        diagonal[slot] = value
        with pytest.raises(ValueError, match=rf"probability {value} outside \[0, 1\]"):
            ThermoLedger(engine="quasistatic").record(
                "x", np.diag(diagonal).astype(complex), 0.0, 0.0
            )

    def test_energy_is_the_system_modes(self):
        # E = eps_S * n_S, as the memory mode sits at zero energy; a -0.0 product reads 0.0
        ledger = ThermoLedger(engine="quasistatic")
        ledger.record("x", np.diag([0.3, 0.25]).astype(complex), -2.0, 0.0)
        ledger.record("y", np.diag([0.3, -0.0]).astype(complex), 1.0, 0.0)
        assert [_bits(s.energy) for s in ledger.steps] == [_bits(-0.5), _bits(0.0)]


class TestTunnelRotation:
    """The checked and unchecked rotations carry evolve_step's bits."""

    @pytest.mark.parametrize("omega", [0.3, 1.0, 7.5])
    def test_private_rotation_matches_evolve_step(self, omega):
        H = np.array([[0.0, omega], [omega, 0.0]], dtype=complex)
        rng = np.random.default_rng(31)
        for p, phi in zip(rng.uniform(0.0, 1.0, 40), rng.uniform(-math.pi, math.pi, 40)):
            C = prepare_one_body_state(float(p), float(phi))
            for duration in (0.0, math.pi / (4.0 * omega), math.pi / (2.0 * omega),
                             concentration_duration(C, omega)):
                want = gaussian.evolve_step(C, H, duration)
                for got in (protocol._rotate(C, omega, duration),
                            step1_rotate(C, omega, duration)):
                    assert got.tobytes() == want.tobytes(), (p, phi, omega, duration)

    def test_cached_eigenbasis_is_read_only(self):
        w, V = protocol._tunnel_eigenbasis(1.0)
        assert w is protocol._tunnel_eigenbasis(1.0)[0]
        for a in (w, V):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    @pytest.mark.parametrize("omega", [0.3, 1.0, 7.5])
    def test_cached_swap_matches_rotation(self, omega):
        # the swap of ledgers and witness sequences carries the half-period rotation's bits
        H = np.array([[0.0, omega], [omega, 0.0]], dtype=complex)
        duration = math.pi / (2.0 * omega)
        rng = np.random.default_rng(32)
        states = [prepare_one_body_state(float(p), float(phi))
                  for p, phi in zip(rng.uniform(0.0, 1.0, 40), rng.uniform(-math.pi, math.pi, 40))]
        states += [np.diag(d).astype(complex) for d in rng.uniform(0.0, 1.0, (40, 2))]
        for C in states:
            want = protocol._rotate(C, omega, duration)
            assert want.tobytes() == gaussian.evolve_step(C, H, duration).tobytes()
            for got in (protocol._conjugate(C, *protocol._fixed_propagator(omega, 2)),
                        step3_swap(C, omega)):
                assert got.tobytes() == want.tobytes(), (omega, C)

    def test_cached_swap_is_read_only(self):
        U, U_dag = protocol._fixed_propagator(1.0, 2)
        assert U is protocol._fixed_propagator(1.0, 2)[0]
        assert np.array_equal(U_dag, U.conj().T)
        for a in (U, U_dag):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 0.0

    def test_zero_duration_copies_without_eigensolve(self, monkeypatch):
        def no_eigh(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called for a zero duration")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        protocol._tunnel_eigenbasis.cache_clear()
        C = prepare_one_body_state(0.3, 0.7)
        out = step1_rotate(C, 0.37, 0.0)
        assert out is not C
        assert np.array_equal(out, C)
        assert protocol._tunnel_eigenbasis.cache_info().currsize == 0

    def test_cached_quarter_is_read_only(self):
        U, U_dag = protocol._fixed_propagator(1.0, 4)
        assert U is protocol._fixed_propagator(1.0, 4)[0]
        assert np.array_equal(U_dag, U.conj().T)
        for a in (U, U_dag):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 0.0

    @pytest.mark.parametrize("omega", [0.3, 1.0, 7.5])
    def test_quarter_period_served_from_cache(self, monkeypatch, omega):
        # no duration, and the concentration of a p = 1/2 state with sin(phi) > 0, are the
        # quarter period: both take the cached U, with evolve_step's bits
        def no_propagate(*args, **kwargs):
            raise AssertionError("_propagate called for the quarter period")

        H = np.array([[0.0, omega], [omega, 0.0]], dtype=complex)
        want_duration = math.pi / (4.0 * omega)
        for phi in np.linspace(0.05, math.pi - 0.05, 12):
            C = prepare_one_body_state(0.5, float(phi))
            want = gaussian.evolve_step(C, H, want_duration)
            with monkeypatch.context() as patch:
                patch.setattr(protocol, "_propagate", no_propagate)
                duration = concentration_duration(C, omega)
                got = [step1_rotate(C, omega), step1_rotate(C, omega, duration),
                       protocol._rotate(C, omega, None)]
            assert duration == want_duration, phi
            for out in got:
                assert out.tobytes() == want.tobytes(), (omega, phi)

    def test_subnormal_omega_overflows_the_quarter_period(self):
        # pi/(4 omega) is inf: the cached quarter period raises _propagate's error
        C0 = prepare_one_body_state(0.5, math.pi / 2)
        for call in (lambda: run_witness_sequence(C0, [{"op": "rotate"}], omega=5e-324),
                     lambda: run_purification(ProtocolConfig(omega=5e-324)),
                     lambda: step1_rotate(C0, 5e-324)):
            with pytest.raises(ValueError, match=r"^dt must be finite, got inf$"):
                call()

    def test_vanishing_quarter_period_copies(self, monkeypatch):
        # 4 omega overflows, so pi/(4 omega) is 0: a copy of C, as for any zero duration
        def no_cache(omega, divisor):
            raise AssertionError("the quarter-period cache used for a zero duration")

        monkeypatch.setattr(protocol, "_fixed_propagator", no_cache)
        omega = 1e308
        C = prepare_one_body_state(0.3, 0.7)
        H = np.array([[0.0, omega], [omega, 0.0]], dtype=complex)
        out = step1_rotate(C, omega)
        assert out is not C
        assert out.tobytes() == gaussian.evolve_step(C, H, 0.0).tobytes() == C.tobytes()

    def test_step1_rejects_non_hermitian_state(self):
        with pytest.raises(ValueError, match="correlation matrix is not Hermitian"):
            step1_rotate(np.array([[0.5, 0.5], [0.0, 0.5]]), omega=1.0)

    @pytest.mark.parametrize("duration,message", [
        pytest.param(-0.1, "dt must be nonnegative, got -0.1", id="negative"),
        pytest.param(math.inf, "dt must be finite, got inf", id="inf"),
        pytest.param(math.nan, "dt must be finite, got nan", id="nan"),
    ])
    def test_step1_rejects_bad_duration(self, duration, message):
        with pytest.raises(ValueError, match=message):
            step1_rotate(prepare_one_body_state(0.5, math.pi / 2), 1.0, duration)


class TestRunPurificationQuasistatic:
    def test_ideal_run_extracts_full_coherent_information(self):
        ledger = run_purification(ProtocolConfig())
        assert ledger.total_minus_q == pytest.approx(-LN2, abs=1e-12)
        assert abs(ledger.total_minus_q + ledger.initial_coherent_information) < 1e-12
        assert ledger.purified and ledger.memory_restored

    def test_ideal_run_first_law_and_second_law(self):
        ledger = run_purification(ProtocolConfig())
        for step in ledger.steps:
            assert step.work == pytest.approx(step.energy - ledger.steps[0].energy - step.heat, abs=1e-12)
            assert step.entropy_production >= -1e-6

    def test_maximally_mixed_diagonal_input(self):
        # no coherence to concentrate: relax is a no-op, swap leaves I/2 alone
        ledger = run_purification(ProtocolConfig(diagonal=(0.5, 0.5)))
        assert ledger.total_minus_q == pytest.approx(0.0, abs=1e-12)
        assert not ledger.purified
        assert theorem1_check(ledger, initially_separable=True).passed

    def test_localized_particle_input(self):
        ledger = run_purification(ProtocolConfig(p=1.0))
        assert ledger.total_minus_q >= -1e-9
        assert theorem1_check(ledger, initially_separable=True).passed

    def test_diagonal_conforming_purification_saturates_bound(self):
        # relax straight to a pure system level; -Q = h(n_S) = -I exactly
        ledger = run_purification(ProtocolConfig(diagonal=(0.3, 0.8), step2_target=0.0))
        assert ledger.purified and ledger.memory_restored
        assert ledger.total_minus_q == pytest.approx(binary_entropy(0.8), abs=1e-12)
        assert ledger.total_minus_q == pytest.approx(
            -ledger.initial_coherent_information, abs=1e-12
        )

    @pytest.mark.parametrize("config,labels,final", [
        (ProtocolConfig(), ["initial", "rotate", "relax", "swap"], (0.5, 0.0)),
        (ProtocolConfig(step2_target=1.0), ["initial", "rotate", "relax", "swap"], (1.0, 0.0)),
        (ProtocolConfig(step2_target=0.0), ["initial", "rotate", "relax", "swap"], (0.0, 0.0)),
        (ProtocolConfig(diagonal=(0.3, 0.8)), ["initial", "relax", "swap"], (0.3, 0.3)),
        (ProtocolConfig(diagonal=(0.3, 0.8), step2_target=1.0), ["initial", "relax"], (0.3, 1.0)),
        (ProtocolConfig(diagonal=(0.3, 0.8), step2_target=0.0), ["initial", "relax"], (0.3, 0.0)),
    ], ids=["coherent", "coherent-target-1", "coherent-target-0", "diagonal",
            "diagonal-target-1", "diagonal-target-0"])
    def test_steps_and_final_populations(self, config, labels, final):
        # a pure target still swaps a coherent state, so its memory ends at the
        # target; a diagonal state skips the swap unless the target is its n_M
        ledger = run_purification(config)
        assert [step.label for step in ledger.steps] == labels
        assert (ledger.steps[-1].n_M, ledger.steps[-1].n_S) == pytest.approx(final, abs=1e-12)
        assert ledger.memory_restored == (final[0] == ledger.steps[0].n_M)

    def test_unitary_only_ledger_is_all_zero(self):
        ledger = run_purification(ProtocolConfig(diagonal=(0.5, 0.5)))
        last = ledger.steps[-1]
        assert last.heat == 0.0
        assert last.work == pytest.approx(0.0, abs=1e-12)
        assert last.entropy_production == pytest.approx(0.0, abs=1e-12)

    def test_phase_invariance(self):
        # the opposite phase needs the three-quarter-period rotation but
        # produces identical thermodynamics
        c_plus = prepare_one_body_state(0.5, math.pi / 2)
        c_minus = prepare_one_body_state(0.5, -math.pi / 2)
        assert concentration_duration(c_plus, 1.0) == pytest.approx(math.pi / 4, abs=1e-12)
        assert concentration_duration(c_minus, 1.0) == pytest.approx(3 * math.pi / 4, abs=1e-12)
        lp = run_purification(ProtocolConfig(phi=math.pi / 2))
        lm = run_purification(ProtocolConfig(phi=-math.pi / 2))
        assert lp.total_minus_q == pytest.approx(lm.total_minus_q, abs=1e-9)
        for sp, sm in zip(lp.steps, lm.steps):
            assert sp.S_MS == pytest.approx(sm.S_MS, abs=1e-9)

    @pytest.mark.parametrize("target", [-0.1, 1.5])
    def test_step2_target_out_of_range_rejected(self, target):
        # rejected when the config is built, before any run
        with pytest.raises(ValueError,
                           match=rf"step2_target must be a number in \[0, 1\], got {target}"):
            ProtocolConfig(step2_target=target)

    def test_invalid_config_rejected(self):
        for kwargs, message in [
            (dict(engine="nope"), "unknown engine 'nope'"),
            (dict(diagonal=(0.5, 1.5)), r"diagonal n_S must be a number in \[0, 1\], got 1.5"),
            (dict(diagonal=(0.5,)), "diagonal must hold two populations"),
            (dict(phi=math.nan), "phi must be finite, got nan"),
            (dict(omega=0.0), "omega must be positive, got 0.0"),
            (dict(step2_target=1.5), r"step2_target must be a number in \[0, 1\], got 1.5"),
            # p is checked when the config is built, also when a diagonal overrides it
            (dict(p=-0.1), r"p must be a number in \[0, 1\], got -0.1"),
            (dict(p=1.5), r"p must be a number in \[0, 1\], got 1.5"),
            (dict(p=math.nan), r"p must be a number in \[0, 1\], got nan"),
            (dict(p="0.5"), r"p must be a number in \[0, 1\], got 0.5$"),
            # a numpy scalar prints as its value, as in the finite/positive checks
            (dict(p=np.float64(1.2)), r"p must be a number in \[0, 1\], got 1.2$"),
            (dict(diagonal=(0.5, 0.5), p=1.5), r"p must be a number in \[0, 1\], got 1.5"),
            # a value of the wrong type is rejected by the check that bounds it
            (dict(phi="0"), "phi must be a number, got '0'"),
            (dict(omega=True), "omega must be a number, got True"),
            (dict(diagonal=5), "diagonal must hold two populations, got 5"),
            (dict(diagonal=np.full((2, 2), 0.5)), "diagonal must hold two populations"),
        ]:
            with pytest.raises(ValueError, match=message):
                ProtocolConfig(**kwargs)
        assert ProtocolConfig(diagonal=np.array([0.5, 0.25])).diagonal.shape == (2,)
        config = ProtocolConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.omega = 0.0


class TestRunPurificationFiniteTime:
    def test_master_equation_engine_dissipates_extra(self):
        ledger = run_purification(ProtocolConfig(engine="master-equation"))
        # strictly less cooling than the reversible limit
        assert -LN2 < ledger.total_minus_q < 0.0
        assert ledger.purified and ledger.memory_restored
        assert ledger.steps[-1].entropy_production >= -1e-6

    def test_master_equation_unreachable_target_fails(self):
        with pytest.raises(EngineError, match="unreachable"):
            run_purification(
                ProtocolConfig(engine="master-equation", diagonal=(0.9, 0.95), step2_target=0.1)
            )

    @pytest.mark.parametrize("engine,diagonal,target,message", [
        pytest.param("master-equation", (0.9, 0.5), None,
                     "population 0.5000 already below target 0.9", id="already-below-target"),
        # a target 1e-12 above f(eps2) is approached but never reached: the
        # engine's NoCrossingError becomes an EngineError
        pytest.param("master-equation", (0.5, 0.9), 1e-12, "n_S never reached",
                     id="master-equation-no-crossing"),
        pytest.param("exact-bath", (0.5, 0.9), 1e-12, "n_S never reached",
                     id="exact-bath-no-crossing"),
    ])
    def test_engine_error(self, engine, diagonal, target, message):
        if target is not None:
            target += gaussian.fermi_occupation(protocol.master_eq.EPS2)
        config = ProtocolConfig(engine=engine, K=20, diagonal=diagonal, step2_target=target)
        with pytest.raises(EngineError, match=message):
            run_purification(config)

    def test_no_crossing_is_the_engines_own_error(self):
        assert issubclass(NoCrossingError, EngineError)
        # a target just above f(eps2) is never reached; the engine's error is not rewrapped
        target = gaussian.fermi_occupation(protocol.master_eq.EPS2) + 1e-12
        for engine in ("master-equation", "exact-bath"):
            config = ProtocolConfig(engine=engine, K=20, diagonal=(0.5, 0.9), step2_target=target)
            with pytest.raises(NoCrossingError) as info:
                run_purification(config)
            assert type(info.value) is NoCrossingError, engine

    def test_exact_bath_engine_small_reservoir(self):
        config = ProtocolConfig(
            engine="exact-bath", K=40, gamma=0.05, tau=10.0 / 0.05, dt=0.06 / 0.05
        )
        ledger = run_purification(config)
        assert -LN2 < ledger.total_minus_q < 0.0
        assert ledger.purified
        assert abs(ledger.interaction_residual) < 0.1


# the first operation of a sequence whose second one is malformed
_RELAX_0 = {"op": "relax", "target": 0}


class TestWitness:
    def test_unitary_step_certifies_entanglement(self):
        assert witness_value(0.5, 0.5, 1.0, 0.0, 0.0) == pytest.approx(-LN2, abs=1e-12)

    def test_identity_on_mixed_state_not_certified(self):
        assert witness_value(0.5, 0.5, 0.5, 0.5, 0.0) == pytest.approx(LN2, abs=1e-12)

    def test_all_empty(self):
        assert witness_value(0.0, 0.0, 0.0, 0.0, 0.0) == 0.0

    def test_occupancy_range_validated(self):
        with pytest.raises(ValueError):
            witness_value(1.5, 0.5, 0.5, 0.5, 0.0)

    @pytest.mark.parametrize("beta_q,message", [
        pytest.param(math.nan, "beta_q must be finite, got nan", id="nan"),
        pytest.param(math.inf, "beta_q must be finite, got inf", id="inf"),
        pytest.param("1", "beta_q must be a number, got '1'", id="str"),
    ])
    def test_bad_heat_rejected(self, beta_q, message):
        # a NaN heat is an error, not an uncertified witness
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            witness_value(0.5, 0.5, 0.5, 0.5, beta_q)

    def test_sequence_runner_on_entangled_state(self):
        report = run_witness_sequence(
            prepare_one_body_state(0.5, math.pi / 2), [{"op": "rotate"}]
        )
        assert report.value == pytest.approx(-LN2, abs=1e-12)
        assert report.certified

    def test_sequence_runner_on_thermal_product(self):
        report = run_witness_sequence(np.diag([0.5, 0.5]).astype(complex), [])
        assert report.value == pytest.approx(LN2, abs=1e-12)
        assert not report.certified

    @pytest.mark.parametrize("op", ["rotate", "relax"])
    def test_sequence_runner_rejects_non_hermitian_state(self, op):
        # checked once at entry; a relax-only sequence used to accept it
        C0 = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="correlation matrix is not Hermitian"):
            run_witness_sequence(C0, [{"op": op}])

    def test_sequence_runner_omega_types_give_the_same_bits(self):
        # the config cache is keyed on float(omega): an int and a numpy float share its entry
        assert protocol._quasistatic_config.cache_info().maxsize == 16
        C0 = prepare_one_body_state(0.3, 0.7)
        for sequence in ([{"op": "rotate"}, {"op": "relax", "target": 0.0}, {"op": "swap"}],
                         [{"op": "rotate", "duration": 0.4}, {"op": "relax"}, {"op": "swap"}]):
            reports = [run_witness_sequence(C0, sequence, omega=omega)
                       for omega in (1, 1.0, np.float64(1.0))]
            bits = [[_bits(x) for x in dataclasses.astuple(r)[:-1]] + [r.certified]
                    for r in reports]
            assert bits[0] == bits[1] == bits[2], sequence

    @pytest.mark.parametrize("op,message", [
        pytest.param({"op": "relax", "target": "0.5"}, "target must be a number",
                     id="target-str"),
        pytest.param({"op": "rotate", "duration": "1"}, "duration must be a number",
                     id="duration-str"),
        pytest.param({"duration": 1.0}, 'string "op"', id="op-missing"),
        pytest.param("rotate", 'string "op"', id="not-an-object"),
    ])
    def test_sequence_runner_rejects_malformed_operation(self, op, message):
        C0 = prepare_one_body_state(0.5, math.pi / 2)
        with pytest.raises(ValueError, match=r"sequence\[1\] .*" + message):
            run_witness_sequence(C0, [{"op": "swap"}, op])

    @pytest.mark.parametrize("sequence,message", [
        pytest.param([_RELAX_0, {"op": "bogus"}],
                     r"sequence\[1\] op must be rotate, relax or swap, got 'bogus'",
                     id="unknown-op"),
        pytest.param([_RELAX_0, {"op": "relax", "target": 1.5}],
                     r"sequence\[1\] target must be a number in \[0, 1\], got 1.5",
                     id="target-above-one"),
        pytest.param([_RELAX_0, {"op": "relax", "target": -0.5}],
                     r"sequence\[1\] target must be a number in \[0, 1\], got -0.5",
                     id="target-below-zero"),
        # a misspelled key used to fall back to the quarter period
        pytest.param([_RELAX_0, {"op": "rotate", "durtion": 2.0}],
                     r"sequence\[1\] unknown keys for rotate: \['durtion'\]", id="unknown-key"),
        pytest.param([_RELAX_0, {"op": "swap", "target": 0.0}],
                     r"sequence\[1\] unknown keys for swap: \['target'\]", id="key-of-another-op"),
        # the kernel used to reject these only after the relaxation before them had run
        pytest.param([_RELAX_0, {"op": "rotate", "duration": -1.0}],
                     r"sequence\[1\] duration must be nonnegative, got -1.0",
                     id="duration-negative"),
        pytest.param([_RELAX_0, {"op": "rotate", "duration": math.inf}],
                     r"sequence\[1\] duration must be finite, got inf", id="duration-inf"),
        # an iterator used to be used up by the checks, so that no operation ran
        pytest.param(iter([{"op": "rotate"}, _RELAX_0, {"op": "swap"}]),
                     "sequence must be a list or tuple of operations, got <list_iterator",
                     id="iterator"),
        pytest.param(None, "sequence must be a list or tuple of operations, got None", id="none"),
    ])
    def test_sequence_checked_before_any_operation_runs(self, monkeypatch, sequence, message):
        def no_engine(*args, **kwargs):
            raise AssertionError("an operation ran before the sequence was checked")

        monkeypatch.setattr(protocol, "_run_engine", no_engine)
        C0 = prepare_one_body_state(0.5, math.pi / 2)
        with pytest.raises(ValueError, match=message):
            run_witness_sequence(C0, sequence)

    @staticmethod
    def _random_sequence(rng):
        ops = []
        for _ in range(int(rng.integers(0, 6))):
            kind = rng.choice(["rotate", "relax", "swap"])
            if kind == "rotate":
                ops.append({"op": "rotate", "duration": float(rng.uniform(0.0, math.pi))})
            elif kind == "relax":
                ops.append({"op": "relax", "target": float(rng.uniform(0.0, 1.0))})
            else:
                ops.append({"op": "swap"})
        return ops

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_soundness_on_random_diagonal_states_and_sequences(self, seed):
        # no sequence of this module's operations can push a separable
        # (zero-coherence) initial state below the witness bound
        rng = np.random.default_rng(seed)
        C0 = np.diag(rng.uniform(0.0, 1.0, size=2)).astype(complex)
        report = run_witness_sequence(C0, self._random_sequence(rng))
        assert report.value >= -1e-9

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_soundness_on_random_coherent_separable_states_and_sequences(self, seed):
        # a coherent Gaussian state with zero concurrence, |C_MS|^2 <= det C det(1 - C),
        # which is |C_MS|^2 <= PQ/(P + Q) for P = n_M n_S and Q = (1 - n_M)(1 - n_S), is
        # separable too; half the draws sit on that boundary
        rng = np.random.default_rng(seed)
        n_M, n_S = rng.uniform(0.0, 1.0, size=2)
        P, Q = n_M * n_S, (1.0 - n_M) * (1.0 - n_S)
        scale = 1.0 if rng.uniform() < 0.5 else rng.uniform()
        c = scale * math.sqrt(P * Q / (P + Q)) * np.exp(1j * rng.uniform(-math.pi, math.pi))
        C0 = np.array([[n_M, c], [np.conj(c), n_S]])
        report = run_witness_sequence(C0, self._random_sequence(rng))
        assert report.value >= -1e-9

    @pytest.mark.parametrize("phi", [math.pi / 2, -math.pi / 2], ids=["pi/2", "-pi/2"])
    def test_witness_is_minus_coherent_information_on_the_dephased_family(self, phi):
        # C = [[p, g z], [g z*, 1 - p]], z = sqrt(p(1 - p)) e^{-i phi}, under the protocol's
        # own sequence.  Only at phi = +-pi/2: the tunnel rotation keeps the Bloch x
        # component, and at phi = 1.1 the gap reaches 0.42
        for p in (0.1, 0.2, 0.3, 0.4, 0.5):
            z = math.sqrt(p * (1.0 - p)) * np.exp(-1j * phi)
            for g in np.linspace(0.0, 1.0, 21):
                C0 = np.array([[p, g * z], [g * np.conj(z), 1.0 - p]])
                ops = [{"op": "rotate", "duration": concentration_duration(C0, 1.0)},
                       {"op": "relax", "target": p}, {"op": "swap"}]
                value = run_witness_sequence(C0, ops).value
                assert abs(value + coherent_information(C0, [MEMORY])) <= 1e-12, (p, g)


class TestTheorem1Check:
    def test_entangled_run_allows_negative_heat(self):
        ledger = run_purification(ProtocolConfig())
        result = theorem1_check(ledger, initially_separable=False)
        assert result.passed
        assert result.minus_q == pytest.approx(-LN2, abs=1e-12)

    def test_separable_conforming_runs_respect_bound(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n_m, n_s = rng.uniform(0.0, 1.0, size=2)
            ledger = run_purification(
                ProtocolConfig(diagonal=(n_m, n_s), step2_target=float(rng.integers(0, 2)))
            )
            result = theorem1_check(ledger, initially_separable=True)
            assert result.passed, result.failures
            assert witness_from_ledger(ledger) >= -1e-9

    def test_failures_reported(self):
        # sigma = (ln 2 - 2 ln 2) - 0.1 and -Q = -0.1 on a separable, purified run
        ledger = ThermoLedger(engine="quasistatic", purified=True, memory_restored=True)
        ledger.record("initial", np.diag([0.5, 0.5]).astype(complex), 0.0, 0.0)
        ledger.record("final", np.diag([0.5, 0.0]).astype(complex), 0.0, 0.1)
        result = theorem1_check(ledger, initially_separable=True)
        assert not result.passed
        assert result.failures == [
            "entropy production -7.931e-01 < -1e-6",
            "-Q = -1.000e-01 < -1e-9 for a separable initial state",
        ]

    def test_reported_values_match_ledger(self):
        ledger = run_purification(ProtocolConfig(diagonal=(0.2, 0.7), step2_target=1.0))
        result = theorem1_check(ledger, initially_separable=True)
        assert result.minus_q == ledger.total_minus_q
        assert result.entropy_production == ledger.steps[-1].entropy_production
