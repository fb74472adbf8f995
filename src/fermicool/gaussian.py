"""Number-conserving fermionic Gaussian states as correlation matrices.

A state of N modes is stored as the Hermitian N x N matrix C with
C[i, j] = <c_i^dag c_j>.  Throughout the package k_B*T = 1 and hbar = 1:
energies are in units of k_B*T, times in 1/(k_B*T), entropies in nats.
"""

from __future__ import annotations

import math

import numpy as np

# the validators live in params, which the CLI loads without numpy
from .params import (_is_number, _is_pair, _require_finite, _require_integer, _require_positive,
                     _require_probability)

HERMITIAN_TOL = 1e-12
PROB_TOL = 1e-12


def require_hermitian(a, name: str) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if m.size:
        _require_deviation(np.abs(m - m.conj().T).max(), name)
    return m


def _require_deviation(dev: float, name: str):
    """Raise unless the Hermiticity deviation dev is within HERMITIAN_TOL; NaN raises."""
    if not dev <= HERMITIAN_TOL:
        raise ValueError(
            f"{name} is not Hermitian: max deviation {dev:.3e} exceeds {HERMITIAN_TOL:.0e}"
        )


def _mode_indices(modes, dim: int) -> np.ndarray:
    idx = [int(m) for m in modes]
    if not idx:
        raise ValueError("mode subset must be nonempty")
    for m in idx:
        if m < 0 or m >= dim:
            raise ValueError(f"mode index {m} out of range for {dim} modes")
    if len(set(idx)) != len(idx):
        raise ValueError("duplicate mode indices")
    return np.array(sorted(idx), dtype=int)


def evolve_step(C, H, dt: float) -> np.ndarray:
    """Conjugate C by exp(+i*dt*H): one exact step of stepwise-constant evolution.

    The propagator comes from the eigendecomposition of H, so the step is
    exact (not a first-order scheme) and preserves trace, spectrum and
    Hermiticity of C.
    """
    C = require_hermitian(C, name="correlation matrix")
    H = require_hermitian(H, name="Hamiltonian")
    if C.shape != H.shape:
        raise ValueError(f"dimension mismatch: C is {C.shape}, H is {H.shape}")
    return _propagate(C, dt, np.linalg.eigh, H)


def _propagate(C: np.ndarray, dt: float, eigh, H) -> np.ndarray:
    """`_conjugate` by exp(+i*dt*H), from eigh(H) if dt > 0 (dt = 0 copies C); checks dt alone."""
    _require_finite("dt", dt)
    if dt < 0:
        raise ValueError(f"dt must be nonnegative, got {dt}")
    if dt == 0:
        return C.copy()
    return _conjugate(C, *_propagator(*eigh(H), dt))


def _propagator(w: np.ndarray, V: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """U = exp(+i*dt*H) and U^dag from (w, V) = eigh(H)."""
    U = (V * np.exp(1j * dt * w)) @ V.conj().T
    return U, U.conj().T


def _conjugate(C: np.ndarray, U: np.ndarray, U_dag: np.ndarray) -> np.ndarray:
    """U C U^dag, symmetrised."""
    out = U @ C @ U_dag
    return 0.5 * (out + out.conj().T)


def binary_entropy(x: float) -> float:
    """h(x) = -x ln x - (1-x) ln(1-x), with h(0) = h(1) = 0."""
    x = float(x)
    if not -PROB_TOL <= x <= 1.0 + PROB_TOL:
        raise ValueError(f"probability {x} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    return -_xlogx(x) - _xlogx(1.0 - x)


def _xlogx(x: float) -> float:
    return x * math.log(x) if x > 0.0 else 0.0


def _entropy_sum(values) -> float:
    """Sum of binary entropies of values clamped to [0, 1], with binary_entropy's bits.

    The sum starts from 0.0 because h(0) is -0.0 and a pure state must read
    +0.0.  A non-finite value, which the clamp would keep (NaN) or move into
    [0, 1] (+-inf), raises binary_entropy's ValueError first.
    """
    total = 0.0
    for x in values:
        if not math.isfinite(x):
            raise ValueError(f"probability {x} outside [0, 1]")
        x = min(max(x, 0.0), 1.0)
        total += -_xlogx(x) - _xlogx(1.0 - x)
    return total


def subsystem_entropy(C, modes) -> float:
    """Von Neumann entropy of the reduced Gaussian state on a mode subset.

    Equals the sum of binary entropies of the eigenvalues of the principal
    sub-block of C; eigenvalues are clipped to [0, 1] before evaluation.
    """
    C = require_hermitian(C, name="correlation matrix")
    idx = _mode_indices(modes, C.shape[0])
    block = C[np.ix_(idx, idx)]
    return _entropy_sum(np.linalg.eigvalsh(block).tolist())


def coherent_information(C, memory_modes) -> float:
    """S_memory - S_total; positive values certify entanglement across the cut."""
    C = require_hermitian(C, name="correlation matrix")
    dim = C.shape[0]
    idx = _mode_indices(memory_modes, dim)
    if len(idx) >= dim:
        raise ValueError("memory modes must be a proper subset of all modes")
    return subsystem_entropy(C, idx) - subsystem_entropy(C, range(dim))


def fermi_occupation(eps):
    """Fermi function 1/(1 + e^eps) at beta = 1, mu = 0.

    Above eps = 709, e^eps overflows to inf, silently, and the result is exactly 0.
    """
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + np.exp(np.asarray(eps, dtype=float)))
    if out.ndim == 0:
        return float(out)
    return out


def energy_expectation(C, H) -> float:
    """Tr(H C); raises if the imaginary residue exceeds 1e-10."""
    C = require_hermitian(C, name="correlation matrix")
    H = require_hermitian(H, name="Hamiltonian")
    if C.shape != H.shape:
        raise ValueError(f"dimension mismatch: C is {C.shape}, H is {H.shape}")
    val = complex(np.trace(H @ C))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"energy expectation has imaginary residue {val.imag:.3e}")
    return float(val.real)

