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

from . import exact_bath, master_eq
from .gaussian import (
    _entropy_sum,
    _is_pair,
    _propagate,
    _require_deviation,
    _require_finite,
    _require_positive,
    _require_probability,
    binary_entropy,
    fermi_occupation,
    require_hermitian,
)
from .master_eq import EngineError

MEMORY = 0
SYSTEM = 1

_COHERENCE_TOL = 1e-12


def prepare_one_body_state(p: float, phi: float) -> np.ndarray:
    """Pure one-particle state with weight p on the memory and relative phase phi.

    The coherence phase is placed so that for phi = pi/2 the quarter-period
    tunnel rotation maps the p = 1/2 state exactly onto the particle sitting
    in the system mode (test_step1_lands_on_system_mode checks the sign).
    """
    _require_probability("p", p)
    z = math.sqrt(p * (1.0 - p)) * np.exp(-1j * phi)
    return np.array([[p, z], [np.conj(z), 1.0 - p]], dtype=complex)


def concentration_duration(C, omega: float) -> float:
    """Tunnel-coupling duration that maximizes the system population.

    For the default one-body state (p = 1/2, phi = pi/2) this is the
    quarter period pi/(4*omega); for the opposite phase it is 3*pi/(4*omega).
    """
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
    return _rotate(C, omega, math.pi / (2.0 * omega))


def _two_mode_state(C) -> np.ndarray:
    C = np.asarray(C, dtype=complex)
    if C.shape != (2, 2):
        raise ValueError(f"expected a two-mode state, got shape {C.shape}")
    return require_hermitian(C, name="correlation matrix")


@functools.lru_cache(maxsize=16)
def _tunnel_eigenbasis(omega: float) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh of the tunnel Hamiltonian, as read-only arrays shared by every call."""
    w, V = np.linalg.eigh(np.array([[0.0, omega], [omega, 0.0]], dtype=complex))
    w.flags.writeable = False
    V.flags.writeable = False
    return w, V


def _rotate(C: np.ndarray, omega: float, duration: float | None) -> np.ndarray:
    """step1_rotate on a checked two-mode C and omega; the duration is checked by the kernel."""
    if duration is None:
        duration = math.pi / (4.0 * omega)
    return _propagate(C, duration, _tunnel_eigenbasis, float(omega))


def witness_value(n_S0, n_M0, n_S1, n_M1, beta_q: float) -> float:
    """Entanglement witness from measured occupancies and heat.

    A negative value certifies that the initial two-mode state was entangled:
    no separable state can satisfy
    h(n_S1) + h(n_M1) - max[h(n_S0), h(n_M0)] - beta*Q < 0.
    """
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
    """Per-step thermodynamic record of one protocol run.

    `heat`, `work` and `entropy_production` entries are cumulative; heat into
    the two-mode system counts positive.
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

        The entropies are those of `gaussian.subsystem_entropy`, bit for bit,
        read from at most one 2x2 eigensolve: S_M and S_S are the binary
        entropies of the diagonal entries (the eigenvalue of a 1x1 block is
        its entry) and S_MS sums them over the eigenvalues of C.  A C with
        zero coherences and a real diagonal has its diagonal entries as
        eigenvalues (LAPACK returns them bit for bit), so its S_MS is
        S_M + S_S with no eigensolve.  A C whose Hermiticity deviation
        exceeds HERMITIAN_TOL, or is NaN, raises ValueError.
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
            S_MS = _entropy_sum(np.linalg.eigvalsh(C).tolist())
        # the memory mode is never detuned, so E = eps_S * n_S; 0.0 + keeps -0.0 out of E
        energy = 0.0 + eps_S * n_S
        if self.steps:
            e0 = self.steps[0].energy
            s0 = self.steps[0].S_MS
        else:
            e0, s0 = energy, S_MS
        self.steps.append(
            StepRecord(
                label=label,
                n_M=n_M,
                n_S=n_S,
                S_M=S_M,
                S_S=S_S,
                S_MS=S_MS,
                energy=energy,
                heat=heat,
                work=(energy - e0) - heat,
                entropy_production=(S_MS - s0) - heat,
            )
        )


def witness_from_ledger(ledger: ThermoLedger) -> float:
    first, last = ledger.steps[0], ledger.steps[-1]
    return witness_value(first.n_S, first.n_M, last.n_S, last.n_M, last.heat)


@dataclass(frozen=True)
class ProtocolConfig:
    """Initial state, step-2 engine selection and finite-time engine parameters.

    p, phi, diagonal, omega, engine and step2_target are checked when built:
    p, both diagonal populations and step2_target must be numbers in [0, 1],
    p even when a diagonal (a tuple, list or 1-D array of two) overrides it.
    eps1, eps2, gamma, tau, dt and K are checked by the engine that uses
    them, and by `fermicool protocol` whichever engine runs.
    """

    p: float = 0.5
    phi: float = math.pi / 2.0
    diagonal: tuple[float, float] | None = None  # (n_M, n_S); overrides (p, phi)
    omega: float = 1.0
    engine: str = "quasistatic"  # quasistatic | master-equation | exact-bath
    step2_target: float | None = None  # default: initial memory population
    # finite-time engine parameters; the defaults are the published ones
    eps1: float = master_eq.EPS1
    eps2: float = master_eq.EPS2
    gamma: float = master_eq.GAMMA
    tau: float = master_eq.GAMMA_TAU / master_eq.GAMMA
    dt: float | None = None
    K: int = master_eq.RESERVOIR_MODES

    ENGINES = ("quasistatic", "master-equation", "exact-bath")

    def __post_init__(self):
        if self.engine not in self.ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; choose from {self.ENGINES}")
        d = self.diagonal
        if d is not None:
            if not _is_pair(d):
                raise ValueError(f"diagonal must hold two populations, got {d!r}")
            _require_probability("diagonal n_M", d[0])
            _require_probability("diagonal n_S", d[1])
        _require_probability("p", self.p)
        _require_finite("phi", self.phi)
        _require_positive("omega", self.omega)
        if self.step2_target is not None:
            _require_probability("step2_target", self.step2_target)


def _initial_state(config: ProtocolConfig) -> np.ndarray:
    """The initial two-mode state of a config: its diagonal, or the (p, phi) one-body state."""
    if config.diagonal is not None:
        return np.diag(np.asarray(config.diagonal, dtype=float)).astype(complex)
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
    spec = exact_bath.ReservoirSpec(K=config.K, gamma=config.gamma)
    run = exact_bath.simulate(spec, schedule, n_S0=n0, dt=config.dt, threshold=target)
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
            C = _rotate(C, config.omega, math.pi / (2.0 * config.omega))
        else:
            target = float(op.get("target", 0.5))
            q, eps_end, residual = _run_engine(config, float(C[SYSTEM, SYSTEM].real), target)
            heat += q
            # bath contact destroys any residual memory-system coherence
            C = np.diag([C[MEMORY, MEMORY].real, target]).astype(complex)
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
    swap hands the memory back its original marginal; an explicit pure
    target (0 or 1) instead purifies the system in place, in which case the
    swap is skipped so the memory stays untouched.
    """
    C0 = _initial_state(config)
    ledger = ThermoLedger(engine=config.engine)
    ledger.record("initial", C0, 0.0, 0.0)

    n_M0 = float(C0[MEMORY, MEMORY].real)
    coherent = abs(C0[MEMORY, SYSTEM]) > _COHERENCE_TOL
    target = config.step2_target if config.step2_target is not None else n_M0
    operations = [{"op": "relax", "target": target}]
    if coherent:
        duration = concentration_duration(C0, config.omega)
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
    return Theorem1Result(
        passed=not failures,
        minus_q=minus_q,
        entropy_production=sigma,
        failures=failures,
    )


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
    The whole input is checked before any operation is applied: an omega
    that is not positive and finite, an operation that breaks these rules
    and a C0 that is not a Hermitian 2x2 matrix each raise ValueError.
    """
    config = ProtocolConfig(omega=omega)
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
    return WitnessReport(
        n_S0=n_S0, n_M0=n_M0, n_S1=n_S1, n_M1=n_M1,
        beta_q=heat, value=value, certified=value < 0,
    )
