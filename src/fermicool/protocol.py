"""Memory-assisted purification of a two-mode fermionic state.

The protocol concentrates a delocalized particle onto the system mode by a
tunnel-coupling rotation, extracts its sharpness as heat through a
quasistatic (or finite-time) contact with the reservoir, and swaps system
and memory so the memory marginal is restored while the system ends pure.
Both the protocol run and the witness sequence are lists of rotate/relax/swap
operations applied by one interpreter, `_run_operations`; the protocol run
also keeps full thermodynamic bookkeeping (heat, work, entropy production)
in a ledger.  The bound and witness checks separate entangled from
separable initial states.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import master_eq
from .gaussian import (_conjugate, _entropy_sum, _propagate, _propagator, _require_deviation,
                       binary_entropy, fermi_occupation, require_hermitian)
# EngineError and ProtocolConfig live in params, which the CLI loads without numpy
from .params import (EngineError, ProtocolConfig, ReservoirSpec, _require_finite,
                     _require_positive, _require_probability)

MEMORY = 0
SYSTEM = 1

_COHERENCE_TOL = 1e-12
# LAPACK's gufunc behind np.linalg.eigvalsh; record's own checks make the wrapper redundant
_eigvalsh = np.linalg._umath_linalg.eigvalsh_lo


def prepare_one_body_state(p: float, phi: float) -> np.ndarray:
    """Pure one-particle state with weight p on the memory and relative phase phi.

    The phase is placed so that for phi = pi/2 the quarter-period tunnel rotation
    maps the p = 1/2 state onto the system mode (test_step1_lands_on_system_mode).
    """
    _require_probability("p", p)
    _require_finite("phi", phi)
    z = math.sqrt(p * (1.0 - p)) * np.exp(-1j * phi)
    return np.array([[p, z], [np.conj(z), 1.0 - p]], dtype=complex)


def concentration_duration(C, omega: float) -> float:
    """Tunnel-coupling duration that maximizes the system population.

    For the default one-body state (p = 1/2, phi = pi/2) this is the
    quarter period pi/(4*omega); for the opposite phase it is 3*pi/(4*omega).
    C must be a Hermitian 2x2 matrix and omega positive, with a finite result.
    """
    C = _two_mode_state(C)
    _require_positive("omega", omega)
    duration = _concentration_duration(C, omega)
    _require_finite("duration", duration)  # a subnormal omega overflows it
    return duration


def _concentration_duration(C: np.ndarray, omega: float) -> float:
    # Bloch-vector components of the two-mode state
    a_y = -2.0 * C[MEMORY, SYSTEM].imag
    a_z = float((C[MEMORY, MEMORY] - C[SYSTEM, SYSTEM]).real)
    alpha = (math.pi - math.atan2(a_y, a_z)) % (2.0 * math.pi)
    return alpha / (2.0 * omega)


def step1_rotate(C, omega: float, duration: float | None = None) -> np.ndarray:
    """Quarter-period tunnel rotation (or an explicit duration).

    The tunnel Hamiltonian is H = omega * (c_M^dag c_S + c_S^dag c_M) with
    both mode energies at 0.  Equals `evolve_step(C, H, duration)` bit for bit.
    """
    C = _two_mode_state(C)
    _require_positive("omega", omega)
    return _rotate(C, omega, duration)


def step3_swap(C, omega: float) -> np.ndarray:
    """Half-period tunnel rotation: exchanges system and memory populations."""
    C = _two_mode_state(C)
    _require_positive("omega", omega)
    return _conjugate(C, *_fixed_propagator(float(omega), 2))


def _two_mode_state(C) -> np.ndarray:
    """C as a complex 2x2 array, checked as require_hermitian checks it, in scalar form."""
    C = np.asarray(C, dtype=complex)
    if C.shape != (2, 2):
        raise ValueError(f"expected a two-mode state, got shape {C.shape}")
    (c_MM, c_MS), (c_SM, c_SS) = C.tolist()
    try:  # the entries of |C - C^dag|, whose (S, M) entry equals its (M, S) one
        terms = (abs(c_MS - c_SM.conjugate()), abs(c_MM - c_MM.conjugate()),
                 abs(c_SS - c_SS.conjugate()))
    except OverflowError:  # Python's complex abs raises where numpy's reads inf
        return require_hermitian(C, name="correlation matrix")
    # max drops a NaN that is not its first argument; the sum keeps it
    total = sum(terms)
    _require_deviation(max(terms) if total == total else total, "correlation matrix")
    return C


@functools.lru_cache(maxsize=16)
def _tunnel_eigenbasis(omega: float) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh of the tunnel Hamiltonian, as read-only arrays shared by every call."""
    w, V = np.linalg.eigh(np.array([[0.0, omega], [omega, 0.0]], dtype=complex))
    w.flags.writeable = False
    V.flags.writeable = False
    return w, V


@functools.lru_cache(maxsize=16)
def _quasistatic_config(omega: float) -> ProtocolConfig:
    """The witness sequence's ProtocolConfig, built and checked once per omega."""
    return ProtocolConfig(omega=omega)


@functools.lru_cache(maxsize=32)
def _fixed_propagator(omega: float, divisor: int) -> tuple[np.ndarray, np.ndarray]:
    """U and U^dag of a rotation by pi/(divisor*omega), as _propagate builds them,
    read-only and shared by every call: divisor 2 is the swap, 4 the quarter period."""
    dt = math.pi / (divisor * omega)
    _require_finite("dt", dt)  # a subnormal omega overflows it, as it does _propagate's
    U, U_dag = _propagator(*_tunnel_eigenbasis(omega), dt)
    U.flags.writeable = U_dag.flags.writeable = False
    return U, U_dag


def _rotate(C: np.ndarray, omega: float, duration: float | None) -> np.ndarray:
    """step1_rotate on a checked two-mode C and omega; the duration is checked by the kernel.

    The quarter period, the default, comes from its cache; a zero duration copies C.
    """
    quarter = math.pi / (4.0 * omega)
    if duration is None:
        duration = quarter
    if duration == quarter and quarter > 0.0:
        return _conjugate(C, *_fixed_propagator(float(omega), 4))
    return _propagate(C, duration, _tunnel_eigenbasis, float(omega))


def witness_value(n_S0, n_M0, n_S1, n_M1, beta_q: float) -> float:
    """Entanglement witness from measured occupancies and heat.

    A negative value certifies that the initial two-mode state was entangled:
    no separable state can satisfy
    h(n_S1) + h(n_M1) - max[h(n_S0), h(n_M0)] - beta*Q < 0.
    """
    _require_finite("beta_q", beta_q)
    return (
        binary_entropy(n_S1)
        + binary_entropy(n_M1)
        - max(binary_entropy(n_S0), binary_entropy(n_M0))
        - float(beta_q)
    )


@dataclass
class StepRecord:
    label: str
    n_M: float
    n_S: float
    S_M: float
    S_S: float
    S_MS: float
    energy: float
    heat: float
    work: float
    entropy_production: float


@dataclass
class ThermoLedger:
    """Per-step thermodynamic record of one protocol run; heat into the two modes counts positive.

    `heat`, `work` and `entropy_production` entries are cumulative.
    """

    engine: str
    steps: list[StepRecord] = field(default_factory=list)
    purified: bool = False
    memory_restored: bool = False
    interaction_residual: float = 0.0

    @property
    def initial_coherent_information(self) -> float:
        """I = S_M - S_MS of the initial state; an ideal run draws -Q = -I."""
        return self.steps[0].S_M - self.steps[0].S_MS

    @property
    def total_minus_q(self) -> float:
        return -self.steps[-1].heat

    def record(self, label: str, C, eps_S: float, heat: float):
        """Append the step that leaves the two-mode state C, with the system mode at eps_S.

        S_M, S_S and S_MS carry `subsystem_entropy`'s bits from one 2x2 eigensolve, none for a
        real diagonal C.  A Hermiticity deviation over HERMITIAN_TOL, or NaN, raises ValueError.
        """
        (c_MM, c_MS), (c_SM, c_SS) = C.tolist()
        terms = (abs(c_MS - c_SM.conjugate()), 2.0 * abs(c_MM.imag), 2.0 * abs(c_SS.imag))
        # max drops a NaN that is not its first argument; the sum keeps it
        total = sum(terms)
        _require_deviation(max(terms) if total == total else total, "correlation matrix")
        n_M, n_S = c_MM.real, c_SS.real
        S_M = _entropy_sum((n_M,))
        S_S = _entropy_sum((n_S,))
        if c_MS == 0 and c_SM == 0 and c_MM.imag == 0 and c_SS.imag == 0:
            S_MS = S_M + S_S
        else:
            S_MS = _entropy_sum(_eigvalsh(C, signature="D->d").tolist())
        # the memory mode is never detuned, so E = eps_S * n_S; 0.0 + keeps -0.0 out of E
        energy = 0.0 + eps_S * n_S
        if self.steps:
            e0 = self.steps[0].energy
            s0 = self.steps[0].S_MS
        else:
            e0, s0 = energy, S_MS
        # StepRecord's fields in order; the last two are work and entropy_production
        self.steps.append(StepRecord(label, n_M, n_S, S_M, S_S, S_MS, energy, heat,
                                     (energy - e0) - heat, (S_MS - s0) - heat))


def witness_from_ledger(ledger: ThermoLedger) -> float:
    first, last = ledger.steps[0], ledger.steps[-1]
    return witness_value(first.n_S, first.n_M, last.n_S, last.n_M, last.heat)


def _initial_state(config: ProtocolConfig) -> np.ndarray:
    """The initial two-mode state of a config: its diagonal, or the (p, phi) one-body state."""
    if config.diagonal is not None:
        n_M, n_S = config.diagonal
        return np.array([[n_M, 0.0], [0.0, n_S]], dtype=complex)
    return prepare_one_body_state(config.p, config.phi)


def _run_engine(config: ProtocolConfig, n0: float, target: float):
    """Dispatch a relaxation; returns (Q, eps_end, interaction_residual)."""
    if config.engine == "quasistatic":
        # reversible: the heat is the temperature times the system entropy change
        return binary_entropy(target) - binary_entropy(n0), 0.0, 0.0
    schedule = master_eq.SweepSchedule(config.eps1, config.eps2, config.tau)
    if fermi_occupation(config.eps2) >= target:
        raise EngineError(
            f"target population {target} unreachable: f(eps2) = "
            f"{fermi_occupation(config.eps2):.4f} >= target"
        )
    if n0 < target:
        raise EngineError(
            f"population {n0:.4f} already below target {target}; the sweep only lowers it"
        )
    if config.engine == "master-equation":
        _, t_f, minus_Q_tf = master_eq._switch_off(
            master_eq._scan(schedule, config.gamma, n0=n0, dt=config.dt, threshold=target))
        return -minus_Q_tf, schedule.energy(t_f), 0.0
    from . import exact_bath  # loaded by this engine alone
    run = exact_bath.simulate(ReservoirSpec(K=config.K, gamma=config.gamma),
                              schedule, n_S0=n0, dt=config.dt, threshold=target)
    return -run.minus_Q_tf, schedule.energy(run.t_f), exact_bath.interaction_energy(run)


def _run_operations(C, operations, config: ProtocolConfig, ledger: ThermoLedger | None = None):
    """Apply rotate/relax/swap operations (see run_witness_sequence) to C.

    Relaxations use the configured engine.  With a ledger, each step is
    recorded under its operation's name.  Returns (final C, total heat).
    """
    heat = 0.0
    for op in operations:
        kind = op["op"]
        eps_end = 0.0
        # C is Hermitian and omega valid here: a config is valid once built, the
        # callers check C and operations, and every operation returns a Hermitian C
        if kind == "rotate":
            C = _rotate(C, config.omega, op.get("duration"))
        elif kind == "swap":
            C = _conjugate(C, *_fixed_propagator(float(config.omega), 2))
        else:
            target = float(op.get("target", 0.5))
            q, eps_end, residual = _run_engine(config, float(C[SYSTEM, SYSTEM].real), target)
            heat += q
            # bath contact destroys any residual memory-system coherence
            C = np.array([[C[MEMORY, MEMORY].real, 0.0], [0.0, target]], dtype=complex)
            if ledger is not None:
                ledger.interaction_residual = residual
        if ledger is not None:
            ledger.record(kind, C, eps_end, heat)
            if eps_end != 0.0:
                # quench the decoupled system level back to zero (pure work, no heat)
                ledger.record("reset-energy", C, 0.0, heat)
    return C, heat


def run_purification(config: ProtocolConfig) -> ThermoLedger:
    """Execute the three-step protocol and return its thermodynamic ledger.

    A coherent initial state goes through rotate -> relax -> swap; a diagonal
    one skips the rotation (there is no coherence to concentrate).  The
    default relaxation target is the initial memory population, so the final
    swap hands the memory back its original marginal.  An explicit target
    still swaps a coherent state, so its memory ends at the target; a diagonal
    state whose target is not its memory population skips the swap.
    """
    C0 = _initial_state(config)
    ledger = ThermoLedger(engine=config.engine)
    ledger.record("initial", C0, 0.0, 0.0)

    n_M0 = float(C0[MEMORY, MEMORY].real)
    coherent = abs(C0[MEMORY, SYSTEM]) > _COHERENCE_TOL
    target = config.step2_target if config.step2_target is not None else n_M0
    operations = [{"op": "relax", "target": target}]
    if coherent:
        duration = _concentration_duration(C0, config.omega)
        operations.insert(0, {"op": "rotate", "duration": duration})
    if coherent or abs(target - n_M0) <= 1e-12:
        operations.append({"op": "swap"})
    _run_operations(C0, operations, config, ledger)

    tol = 1e-6 if config.engine == "quasistatic" else 1e-2
    ledger.purified = ledger.steps[-1].S_S <= tol
    ledger.memory_restored = abs(ledger.steps[-1].n_M - n_M0) <= tol
    return ledger


@dataclass
class Theorem1Result:
    """Structured outcome of the separability-bound check on a ledger."""

    passed: bool
    minus_q: float
    entropy_production: float
    failures: list[str]


def theorem1_check(ledger: ThermoLedger, initially_separable: bool) -> Theorem1Result:
    """Verify the heat bound and the second law on a completed run.

    The -Q >= 0 bound applies only to separable initial states taken through
    a run that actually reaches the purification endpoint (pure system,
    memory marginal restored); entropy production must be nonnegative for
    every run.
    """
    minus_q = ledger.total_minus_q
    sigma = ledger.steps[-1].entropy_production
    failures = []
    if sigma < -1e-6:
        failures.append(f"entropy production {sigma:.3e} < -1e-6")
    if initially_separable and ledger.purified and ledger.memory_restored:
        if minus_q < -1e-9:
            failures.append(f"-Q = {minus_q:.3e} < -1e-9 for a separable initial state")
    return Theorem1Result(not failures, minus_q, sigma, failures)


@dataclass
class WitnessReport:
    n_S0: float
    n_M0: float
    n_S1: float
    n_M1: float
    beta_q: float
    value: float
    certified: bool


# the keys each witness-sequence operation takes
_OP_KEYS = {"rotate": {"op", "duration"}, "relax": {"op", "target"}, "swap": {"op"}}


def run_witness_sequence(C0, operations, omega: float = 1.0) -> WitnessReport:
    """Ensemble detection procedure: occupancies before, sequence, witness after.

    `operations` is a list or tuple of dicts: {"op": "rotate", "duration": t}
    (t >= 0 and finite; null or absent is the quarter period),
    {"op": "relax", "target": x} (quasistatic, accumulates heat; x in [0, 1],
    1/2 when absent) or {"op": "swap"}, with no other keys.  They are applied
    by the same interpreter as the protocol's steps, with no ledger kept.
    The whole input is checked before any operation runs, in this order:
    omega (positive and finite), the operations (these rules), then C0 (a
    Hermitian 2x2 matrix); the first check that fails raises ValueError.
    """
    _require_positive("omega", omega)
    config = _quasistatic_config(float(omega))
    if not isinstance(operations, (list, tuple)):
        raise ValueError(f"sequence must be a list or tuple of operations, got {operations!r}")
    for i, op in enumerate(operations):
        if not (isinstance(op, dict) and isinstance(op.get("op"), str)):
            raise ValueError(f"sequence[{i}] must be an object with a string \"op\", got {op!r}")
        kind = op["op"]
        if kind not in _OP_KEYS:
            raise ValueError(f"sequence[{i}] op must be rotate, relax or swap, got {kind!r}")
        unknown = set(op) - _OP_KEYS[kind]
        if unknown:
            raise ValueError(f"sequence[{i}] unknown keys for {kind}: {sorted(unknown, key=str)}")
        duration, target = op.get("duration"), op.get("target", 0.5)
        if duration is not None:
            _require_finite(f"sequence[{i}] duration", duration)
            if duration < 0:
                raise ValueError(f"sequence[{i}] duration must be nonnegative, got {duration}")
        _require_probability(f"sequence[{i}] target", target)
    C = _two_mode_state(C0)
    n_M0 = float(C[MEMORY, MEMORY].real)
    n_S0 = float(C[SYSTEM, SYSTEM].real)
    C, heat = _run_operations(C, operations, config)
    n_M1 = float(C[MEMORY, MEMORY].real)
    n_S1 = float(C[SYSTEM, SYSTEM].real)
    value = witness_value(n_S0, n_M0, n_S1, n_M1, heat)
    return WitnessReport(n_S0, n_M0, n_S1, n_M1, heat, value, value < 0)
