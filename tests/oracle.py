"""Brute-force Fock-space reference for small mode numbers.

Builds the full 2^N-dimensional Gaussian density matrix from a correlation
matrix via Jordan-Wigner operators, so entropies and evolution computed
from the correlation matrix can be checked against an independent
construction.  Only meant for N <= 4.
"""

from __future__ import annotations

from functools import reduce

import numpy as np
from scipy.linalg import expm

from fermicool.cli import (  # the seeded generators of the invariants battery
    _random_correlation as random_correlation,
    _random_hermitian as random_hermitian,
)

_I2 = np.eye(2, dtype=complex)
_SZ = np.diag([1.0, -1.0]).astype(complex)
# basis order per qubit: |0>, |1>; annihilation maps |1> -> |0>
_SM = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def _kron(mats):
    return reduce(np.kron, mats)


def annihilation_operators(n_modes: int) -> list[np.ndarray]:
    """Jordan-Wigner fermionic annihilation operators, mode 0 outermost."""
    ops = []
    for i in range(n_modes):
        mats = [_SZ] * i + [_SM] + [_I2] * (n_modes - i - 1)
        ops.append(_kron(mats))
    return ops


def density_from_correlation(C) -> np.ndarray:
    """Gaussian density matrix with <c_i^dag c_j> = C[i, j]."""
    C = np.asarray(C, dtype=complex)
    n = C.shape[0]
    nu, V = np.linalg.eigh(C)
    nu = np.clip(nu.real, 0.0, 1.0)
    cs = annihilation_operators(n)
    eye = np.eye(2**n, dtype=complex)
    rho = eye.copy()
    for k in range(n):
        d_k = sum(V[i, k] * cs[i] for i in range(n))
        num = d_k.conj().T @ d_k
        rho = rho @ (nu[k] * num + (1.0 - nu[k]) * (eye - num))
    return rho


def correlation_from_density(rho) -> np.ndarray:
    n = int(np.log2(rho.shape[0]))
    cs = annihilation_operators(n)
    C = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            C[i, j] = np.trace(rho @ cs[i].conj().T @ cs[j])
    return C


def evolve_density(rho, h, t: float) -> np.ndarray:
    """Evolve under the many-body quadratic Hamiltonian matching evolve_step.

    evolve_step conjugates C by exp(+i*dt*h); in Fock space that corresponds
    to the Hamiltonian built from the transposed single-particle matrix.
    """
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    cs = annihilation_operators(n)
    H_many = sum(
        h.T[i, j] * cs[i].conj().T @ cs[j] for i in range(n) for j in range(n)
    )
    U = expm(-1j * t * H_many)
    return U @ rho @ U.conj().T


def von_neumann_entropy(rho) -> float:
    ev = np.clip(np.linalg.eigvalsh(rho).real, 0.0, 1.0)
    ev = ev[ev > 1e-14]
    return float(-(ev * np.log(ev)).sum())


def _partial_trace_last(rho, n_modes: int, n_keep: int) -> np.ndarray:
    """Trace out the trailing modes (safe for Jordan-Wigner ordering)."""
    shape = (2,) * (2 * n_modes)
    t = rho.reshape(shape)
    for _ in range(n_modes - n_keep):
        k = t.ndim // 2
        t = np.trace(t, axis1=k - 1, axis2=2 * k - 1)
    d = 2**n_keep
    return t.reshape(d, d)


def subsystem_entropy_bruteforce(C, modes) -> float:
    """Entropy of a mode subset via the full density matrix and partial trace.

    The modes are permuted so the kept subset comes first; tracing out the
    trailing modes then agrees with the fermionic partial trace.
    """
    C = np.asarray(C, dtype=complex)
    n = C.shape[0]
    keep = list(modes)
    rest = [i for i in range(n) if i not in keep]
    perm = keep + rest
    Cp = C[np.ix_(perm, perm)]
    rho = density_from_correlation(Cp)
    rho_a = _partial_trace_last(rho, n, len(keep))
    return von_neumann_entropy(rho_a)
