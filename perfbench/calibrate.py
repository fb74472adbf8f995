"""Host-speed calibration kernels, independent of fermicool.

The reference host runs in a fast and a slow state (see README), and the
slow state lasts long enough to cover whole runs.  Each workload therefore
also times a fixed kernel that does the same kind of work and slows down the
same way: tiny numpy calls from a Python loop, a Python float loop, a dense
complex eigensolve, or a fresh interpreter importing numpy.  A run's timings
are scaled by REFERENCE_S[kernel] / (the kernel's lower decile in the run),
which reads as seconds on the reference host in its fast state.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np
from scipy.special import xlogy

_RNG = np.random.default_rng(20221221)
_H2 = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, 0.7]])
_Z = _RNG.standard_normal((201, 201)) + 1j * _RNG.standard_normal((201, 201))
_H201 = _Z + _Z.conj().T
_C201 = np.diag(_RNG.uniform(0.0, 1.0, 201)).astype(complex)
_EPS = np.linspace(-5.0, 1.0, 100_000)


def small_linalg():
    """Many 2x2 Hermitian checks, spectra, entropies and rotations."""
    for _ in range(150):
        m = np.asarray(_H2, dtype=complex)
        np.abs(m - m.conj().T).max()
        nu = np.clip(np.linalg.eigvalsh(m), 0.0, 1.0)
        sum(float(-xlogy(v, v) - xlogy(1.0 - v, 1.0 - v)) for v in nu)
        w, V = np.linalg.eigh(m)
        U = (V * np.exp(0.7j * w)) @ V.conj().T
        U @ m @ U.conj().T


def float_loop():
    """A fixed-step Python loop over floats, fed by a vectorised precompute."""
    f = (0.5 * (1.0 - np.tanh(0.5 * _EPS))).tolist()
    n, g, dt = 1.0, 0.02, 0.01
    out = [n]
    for k in range(30_000):
        a = -g * (n - f[k])
        b = -g * (n + 0.5 * dt * a - f[k + 1])
        n = n + dt * 0.5 * (a + b)
        out.append(n)


def dense_eigh():
    """One step of a 201-mode exact propagation."""
    w, V = np.linalg.eigh(_H201)
    U = (V * np.exp(3j * w)) @ V.conj().T
    U @ _C201 @ U.conj().T


def fresh_interpreter():
    """Start an interpreter that imports numpy and exits."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=120,
                   capture_output=True)


KERNELS = {
    "small_linalg": small_linalg,
    "float_loop": float_loop,
    "dense_eigh": dense_eigh,
    "fresh_interpreter": fresh_interpreter,
}

# Lower decile of each kernel on the reference host in its fast state:
# 2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31, 2 threads.
# Regenerate with `python3 perfbench/calibrate.py`.  These set the scale only.
REFERENCE_S = {
    "small_linalg": 0.0062,
    "float_loop": 0.0098,
    "dense_eigh": 0.0155,
    "fresh_interpreter": 0.139,
}


if __name__ == "__main__":
    import time

    samples = {name: [] for name in KERNELS}
    start = time.perf_counter()
    while time.perf_counter() - start < 60.0:
        for name, kernel in KERNELS.items():
            t0 = time.perf_counter()
            kernel()
            samples[name].append(time.perf_counter() - t0)
    for name, times in samples.items():
        times.sort()
        print(f'    "{name}": {times[len(times) // 10]:.6g},  # {len(times)} samples')
