"""Number-conserving fermionic Gaussian states as correlation matrices.

A state of N modes is stored as the Hermitian N x N matrix C with
C[i, j] = <c_i^dag c_j>.  Throughout the package k_B*T = 1 and hbar = 1:
energies are in units of k_B*T, times in 1/(k_B*T), entropies in nats.
"""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np

HERMITIAN_TOL = 1e-12
PROB_TOL = 1e-12


def _require_finite(name: str, value) -> None:
    if not _is_number(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _require_positive(name: str, value) -> None:
    _require_finite(name, value)
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")


def _is_number(value) -> bool:
    """A real other than a bool; an integer too large for a float is not one."""
    if isinstance(value, numbers.Integral):
        return not isinstance(value, bool) and abs(value) <= sys.float_info.max
    return isinstance(value, (float, numbers.Real))  # float first skips the ABC check


def _is_pair(value, of_numbers: bool = False) -> bool:
    """A tuple, list or 1-D array of two entries, both numbers if of_numbers."""
    ok = isinstance(value, (tuple, list)) or isinstance(value, np.ndarray) and value.ndim == 1
    return ok and len(value) == 2 and (not of_numbers or all(map(_is_number, value)))


def _require_integer(name: str, value) -> None:
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _require_probability(name: str, value) -> None:
    if not (_is_number(value) and 0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be a number in [0, 1], got {value}")


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
    """U C U^dag, symmetrised, with U = exp(+i*dt*H) = (V e^{i dt w}) V^dag.

    (w, V) = eigh(H) is the eigendecomposition of H, asked for only when
    dt > 0; dt = 0 returns a copy of C.  Only dt is checked: callers pass a
    validated C and H.
    """
    _require_finite("dt", dt)
    if dt < 0:
        raise ValueError(f"dt must be nonnegative, got {dt}")
    if dt == 0:
        return C.copy()
    w, V = eigh(H)
    U = (V * np.exp(1j * dt * w)) @ V.conj().T
    out = U @ C @ U.conj().T
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
    +0.0.  Clamping leaves only NaN outside [0, 1]; it raises
    binary_entropy's ValueError.
    """
    total = 0.0
    for x in values:
        x = min(max(x, 0.0), 1.0)
        if x != x:
            raise ValueError(f"probability {x} outside [0, 1]")
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

