"""The published parameters and the input types and checks, without numpy.

The CLI checks its input with this module alone, so that bad input is
rejected before numpy or an engine loads; the engine modules re-export
these names as the same objects.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

# the published parameters of Figs. 1 and 2 (units of k_B*T), the only place they are set
EPS1 = -5.0
EPS2 = 1.0
GAMMA = 0.02
GAMMA_TAU = 10.0
RESERVOIR_MODES = 200
GAMMA_DT = 0.06


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
    if not isinstance(value, float) and isinstance(value, numbers.Integral):
        return not isinstance(value, bool) and abs(value) <= sys.float_info.max
    return isinstance(value, (float, numbers.Real))  # a float skips both ABC checks


def _is_pair(value, of_numbers: bool = False) -> bool:
    """A tuple, list or 1-D array of two entries, both numbers if of_numbers."""
    np = sys.modules.get("numpy")  # until numpy loads, no value is an ndarray
    ok = (isinstance(value, (tuple, list))
          or np is not None and isinstance(value, np.ndarray) and value.ndim == 1)
    return ok and len(value) == 2 and (not of_numbers or all(map(_is_number, value)))


def _require_integer(name: str, value) -> None:
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _require_probability(name: str, value) -> None:
    if not (_is_number(value) and 0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be a number in [0, 1], got {value}")


def _check_switch_off(n0: float) -> None:
    """Reject a figure run that would switch off at t = 0: n0 at or below 1/2."""
    if not n0 > 0.5:
        raise ValueError(f"n0 must be above the switch-off threshold 0.5, got {n0}")


def _check_rate_inputs(gamma: float, n0: float, dt: float | None) -> None:
    """Reject the rate-equation inputs that do not depend on the sweep schedule."""
    _require_positive("gamma", gamma)
    _require_probability("n0", n0)
    _check_rate_dt(gamma, dt)


def _check_rate_dt(gamma: float, dt: float | None) -> None:
    """Reject a rate-equation step dt (None: the default) for a positive gamma."""
    if dt is not None:
        _require_positive("dt", dt)
        if dt > 0.01 / gamma * (1 + 1e-12):
            raise ValueError(f"dt={dt} too coarse; require dt <= 0.01/gamma = {0.01 / gamma}")


class EngineError(RuntimeError):
    """A finite-time engine did not finish (e.g. an unreachable target, no crossing)."""


class NoCrossingError(EngineError):
    """Population never reached the switch-off threshold."""


@dataclass(frozen=True)
class SweepSchedule:
    """Piecewise-linear system energy: eps1 -> eps2 over [0, tau], then held."""

    eps1: float
    eps2: float
    tau: float

    def __post_init__(self):
        for name in ("eps1", "eps2"):
            _require_finite(name, getattr(self, name))
        _require_positive("tau", self.tau)
        if not self.eps1 < self.eps2:
            raise ValueError(f"require eps1 < eps2, got {self.eps1} >= {self.eps2}")
        # finite ends can span more than the largest float, which makes every energy NaN
        _require_finite("eps2 - eps1", self.eps2 - self.eps1)

    def energy(self, t):
        import numpy as np

        t = np.asarray(t, dtype=float)
        frac = np.clip(t / self.tau, 0.0, 1.0)
        e = self.eps1 + (self.eps2 - self.eps1) * frac
        if e.ndim == 0:
            return float(e)
        return e


# Budgets of an exact-bath run, checked before any (K+1)^2 allocation (the
# memory budget when its ReservoirSpec is built): one propagator product of
# (K+1)^3 a grid step, and from K = 150 up at most _DENSE_MATRICES dense
# (K+1)^2 complex matrices at once (tracemalloc peaks of 6.18, 6.04 and 5.88
# at K = 150, 200 and 400; exact_bath._BLOCK_FLOOR counts what they hold).
_WORK_BUDGET = 1e11
_MEMORY_BUDGET = 2 * 2**30
_DENSE_MATRICES = 7


@dataclass(frozen=True)
class ReservoirSpec:
    """Discretized thermal reservoir: K levels on `window`, coupling rate gamma.

    A K whose run would exceed the memory budget (K > 4377) is rejected when built.
    """

    K: int
    gamma: float
    window: tuple[float, float] = (-7.0, 3.0)

    def __post_init__(self):
        _require_integer("K", self.K)
        if self.K < 2:
            raise ValueError(f"need at least 2 reservoir modes, got K={self.K}")
        _require_positive("gamma", self.gamma)
        w = self.window
        if not (_is_pair(w, of_numbers=True) and w[0] < w[1]):
            raise ValueError(f"window must be two increasing numbers, got {w!r}")
        _require_finite("window width", self.width)
        n = self.K + 1
        if _DENSE_MATRICES * 16 * n**2 > _MEMORY_BUDGET:
            raise ValueError(
                f"K={self.K} needs {_DENSE_MATRICES} dense {n}x{n} complex matrices, "
                f"more than the {_MEMORY_BUDGET / 2**30:g} GiB memory budget"
            )

    @property
    def width(self) -> float:
        return self.window[1] - self.window[0]

    @property
    def xi(self) -> float:
        """Density of states (levels per unit energy)."""
        return self.K / self.width

    @property
    def t_amp(self) -> float:
        """Tunnel amplitude solving gamma = 2*pi*t_amp^2*xi."""
        return math.sqrt(self.gamma / (2.0 * math.pi * self.xi))


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
    eps1: float = EPS1
    eps2: float = EPS2
    gamma: float = GAMMA
    tau: float = GAMMA_TAU / GAMMA
    dt: float | None = None
    K: int = RESERVOIR_MODES

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
