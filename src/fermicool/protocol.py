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

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import exact_bath, master_eq
from .gaussian import (
    binary_entropy,
    coherent_information,
    evolve_step,
    fermi_occupation,
    subsystem_entropy,
)

MEMORY = 0
SYSTEM = 1

_COHERENCE_TOL = 1e-12


class EngineError(RuntimeError):
    """A step-2 engine failed to complete (e.g. no threshold crossing)."""


def tunnel_hamiltonian(omega: float) -> np.ndarray:
    """H = omega * (c_M^dag c_S + c_S^dag c_M) with both mode energies at 0."""
    return np.array([[0.0, omega], [omega, 0.0]], dtype=complex)


def prepare_one_body_state(p: float, phi: float) -> np.ndarray:
    """Pure one-particle state with weight p on the memory and relative phase phi.

    The coherence phase is placed so that for phi = pi/2 the quarter-period
    tunnel rotation maps the p = 1/2 state exactly onto the particle sitting
    in the system mode (test_step1_lands_on_system_mode checks the sign).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability p={p} outside [0, 1]")
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
    """Quarter-period tunnel rotation (or an explicit duration)."""
    C = np.asarray(C, dtype=complex)
    if C.shape != (2, 2):
        raise ValueError(f"expected a two-mode state, got shape {C.shape}")
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if duration is None:
        duration = math.pi / (4.0 * omega)
    return evolve_step(C, tunnel_hamiltonian(omega), duration)


def step2_quasistatic(n0: float = 1.0, target: float = 0.5) -> tuple[float, float]:
    """Reversible relaxation of the system population from n0 to target.

    Returns (Q, n_final) with Q = h(target) - h(n0): the heat absorbed from
    the reservoir equals the temperature times the system entropy change.
    """
    return binary_entropy(target) - binary_entropy(n0), float(target)


def step3_swap(C, omega: float) -> np.ndarray:
    """Half-period tunnel rotation: exchanges system and memory populations."""
    return step1_rotate(C, omega, math.pi / (2.0 * omega))


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
    initial_coherent_information: float
    steps: list[StepRecord] = field(default_factory=list)
    purified: bool = False
    memory_restored: bool = False
    interaction_residual: float = 0.0

    @property
    def total_heat(self) -> float:
        return self.steps[-1].heat

    @property
    def total_minus_q(self) -> float:
        return -self.total_heat

    def record(self, label: str, C, eps: tuple[float, float], heat: float):
        n_M = float(C[MEMORY, MEMORY].real)
        n_S = float(C[SYSTEM, SYSTEM].real)
        S_M = subsystem_entropy(C, [MEMORY])
        S_S = subsystem_entropy(C, [SYSTEM])
        S_MS = subsystem_entropy(C, [MEMORY, SYSTEM])
        energy = eps[0] * n_M + eps[1] * n_S
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


@dataclass
class ProtocolConfig:
    """Initial state, step-2 engine selection and engine parameters."""

    p: float = 0.5
    phi: float = math.pi / 2.0
    diagonal: tuple[float, float] | None = None  # (n_M, n_S); overrides (p, phi)
    omega: float = 1.0
    engine: str = "quasistatic"  # quasistatic | master-equation | exact-bath
    step2_target: float | None = None  # default: initial memory population
    final_swap: bool | None = None  # default: decided from the run shape
    # finite-time engine parameters; the defaults are the published ones
    eps1: float = master_eq.EPS1
    eps2: float = master_eq.EPS2
    gamma: float = master_eq.GAMMA
    tau: float = master_eq.GAMMA_TAU / master_eq.GAMMA
    dt: float | None = None
    K: int = master_eq.RESERVOIR_MODES

    ENGINES = ("quasistatic", "master-equation", "exact-bath")

    def validate(self):
        if self.engine not in self.ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; choose from {self.ENGINES}")
        if self.diagonal is not None:
            n_M, n_S = self.diagonal
            if not (isinstance(n_M, numbers.Real) and isinstance(n_S, numbers.Real)):
                raise ValueError(f"diagonal populations {self.diagonal} must be numbers")
            if not (0.0 <= n_M <= 1.0 and 0.0 <= n_S <= 1.0):
                raise ValueError(f"diagonal populations {self.diagonal} outside [0, 1]")
        elif not 0.0 <= self.p <= 1.0:
            raise ValueError(f"probability p={self.p} outside [0, 1]")
        if not math.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi}")
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        if self.step2_target is not None and not 0.0 <= self.step2_target <= 1.0:
            raise ValueError(f"step2 target {self.step2_target} outside [0, 1]")


def _initial_state(config: ProtocolConfig) -> np.ndarray:
    """Validate the config and build its initial two-mode state."""
    config.validate()
    if config.diagonal is not None:
        return np.diag(np.asarray(config.diagonal, dtype=float)).astype(complex)
    return prepare_one_body_state(config.p, config.phi)


def _run_engine(config: ProtocolConfig, n0: float, target: float):
    """Dispatch a relaxation; returns (Q, eps_end, interaction_residual)."""
    if config.engine == "quasistatic":
        return step2_quasistatic(n0, target)[0], 0.0, 0.0
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
    try:
        if config.engine == "master-equation":
            traj = master_eq.integrate_population(
                schedule, config.gamma, n0=n0, dt=config.dt, threshold=target
            )
            t_f, minus_q = master_eq._switch_off(traj, target)
            return -minus_q, schedule.energy(t_f), 0.0
        spec = exact_bath.ReservoirSpec(K=config.K, gamma=config.gamma)
        run = exact_bath.simulate(
            spec, schedule, n_S0=n0, dt=config.dt, threshold=target
        )
        residual = exact_bath.interaction_energy(run)
        return -run.minus_Q_tf, schedule.energy(run.t_f), residual
    except master_eq.NoCrossingError as exc:
        raise EngineError(str(exc)) from exc


def _run_operations(C, operations, config: ProtocolConfig, ledger: ThermoLedger | None = None):
    """Apply rotate/relax/swap operations (see run_witness_sequence) to C.

    Relaxations use the configured engine.  With a ledger, each step is
    recorded under its operation's name.  Returns (final C, total heat).
    """
    heat = 0.0
    for op in operations:
        kind = op["op"]
        eps_end = 0.0
        if kind == "rotate":
            C = step1_rotate(C, config.omega, op.get("duration"))
        elif kind == "swap":
            C = step3_swap(C, config.omega)
        elif kind == "relax":
            target = float(op.get("target", 0.5))
            q, eps_end, residual = _run_engine(config, float(C[SYSTEM, SYSTEM].real), target)
            heat += q
            # bath contact destroys any residual memory-system coherence
            C = np.diag([C[MEMORY, MEMORY].real, target]).astype(complex)
            if ledger is not None:
                ledger.interaction_residual = residual
        else:
            raise ValueError(f"unknown operation {kind!r}")
        if ledger is not None:
            ledger.record(kind, C, (0.0, eps_end), heat)
            if eps_end != 0.0:
                # quench the decoupled system level back to zero (pure work, no heat)
                ledger.record("reset-energy", C, (0.0, 0.0), heat)
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
    ledger = ThermoLedger(
        engine=config.engine,
        initial_coherent_information=coherent_information(C0, [MEMORY]),
    )
    ledger.record("initial", C0, (0.0, 0.0), 0.0)

    n_M0 = float(C0[MEMORY, MEMORY].real)
    coherent = abs(C0[MEMORY, SYSTEM]) > _COHERENCE_TOL
    target = config.step2_target if config.step2_target is not None else n_M0
    operations = [{"op": "relax", "target": target}]
    if coherent:
        duration = concentration_duration(C0, config.omega)
        operations.insert(0, {"op": "rotate", "duration": duration})
    if config.final_swap is not None:
        do_swap = config.final_swap
    else:
        do_swap = coherent or abs(target - n_M0) <= 1e-12
    if do_swap:
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
    checks: list[str]
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
    checks = ["entropy_production >= -1e-6"]
    failures = []
    if sigma < -1e-6:
        failures.append(f"entropy production {sigma:.3e} < -1e-6")
    if initially_separable and ledger.purified and ledger.memory_restored:
        checks.append("minus_q >= -1e-9")
        if minus_q < -1e-9:
            failures.append(f"-Q = {minus_q:.3e} < -1e-9 for a separable initial state")
    return Theorem1Result(
        passed=not failures,
        minus_q=minus_q,
        entropy_production=sigma,
        checks=checks,
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


def run_witness_sequence(C0, operations, omega: float = 1.0) -> WitnessReport:
    """Ensemble detection procedure: occupancies before, sequence, witness after.

    `operations` is a list of dicts: {"op": "rotate", "duration": t},
    {"op": "relax", "target": x} (quasistatic, accumulates heat) or
    {"op": "swap"}.  They are applied by the same interpreter as the
    protocol's steps, with no ledger kept.
    """
    C = np.asarray(C0, dtype=complex)
    if C.shape != (2, 2):
        raise ValueError(f"expected a two-mode state, got shape {C.shape}")
    n_M0 = float(C[MEMORY, MEMORY].real)
    n_S0 = float(C[SYSTEM, SYSTEM].real)
    C, heat = _run_operations(C, operations, ProtocolConfig(omega=omega))
    n_M1 = float(C[MEMORY, MEMORY].real)
    n_S1 = float(C[SYSTEM, SYSTEM].real)
    value = witness_value(n_S0, n_M0, n_S1, n_M1, heat)
    return WitnessReport(
        n_S0=n_S0, n_M0=n_M0, n_S1=n_S1, n_M1=n_M1,
        beta_q=heat, value=value, certified=value < 0,
    )
