"""Independent references the benchmark checks fermicool's outputs against.

Nothing here calls fermicool's engines: the ledger checks use closed forms,
the rate-equation checks use scipy's adaptive DOP853 solver on the same ODE,
and the exact-bath checks use properties any unitary stepwise-quenched run
must have.  All of it runs outside the timed region.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

RTOL = 1e-11
ATOL = 1e-13


def h(x: float) -> float:
    """Binary entropy in nats, h(0) = h(1) = 0."""
    return sum(-v * math.log(v) for v in (x, 1.0 - x) if v > 0.0)


def fermi(eps: float) -> float:
    """1 / (1 + e^eps), written so that it cannot overflow."""
    return 0.5 * (1.0 - math.tanh(0.5 * eps))


# ---------------------------------------------------------------------------
# quasistatic ledger: closed forms


def bloch_yz(p: float, phi: float) -> tuple[float, float]:
    """(a_y, a_z) of the one-body state with memory weight p and phase phi."""
    return 2.0 * math.sqrt(p * (1.0 - p)) * math.sin(phi), 2.0 * p - 1.0


def concentrated_population(p: float, phi: float) -> float:
    """n* = (1 + |(a_y, a_z)|)/2, the most the tunnel rotation puts on the system."""
    return 0.5 * (1.0 + math.hypot(*bloch_yz(p, phi)))


def one_body_minus_q(p: float, phi: float) -> float:
    """-Q = h(n*) - h(p): concentrate to n*, relax back to p, swap."""
    return h(concentrated_population(p, phi)) - h(p)


def one_body_witness(p: float, phi: float) -> float:
    """Witness of that run: the swap leaves (p, 1 - n*), so 2 h(n*) - h(p)."""
    return 2.0 * h(concentrated_population(p, phi)) - h(p)


def separable_minus_q(n_S0: float) -> float:
    """-Q of a diagonal state relaxed quasistatically to a pure target."""
    return h(n_S0)


def separable_witness(n_M0: float, n_S0: float) -> float:
    """Witness of that run: h(n_M0) + h(n_S0) - max(h(n_M0), h(n_S0))."""
    return min(h(n_M0), h(n_S0))


def purify_witness(p: float, phi: float) -> float:
    """Witness after quarter-period rotate, relax to 0, swap.

    The quarter-period tunnel rotation leaves n_S = (1 + a_y)/2; relaxing
    that to 0 gives beta*Q = -h(n_S), and the swap moves n_S's complement to
    the system, so the witness is 2 h((1 + a_y)/2) - h(p).
    """
    a_y, _ = bloch_yz(p, phi)
    return 2.0 * h(0.5 * (1.0 + a_y)) - h(p)


# ---------------------------------------------------------------------------
# rate equation: adaptive ODE solve carrying the heat integral


def _rate_rhs(eps1, eps2, gamma, tau):
    def rhs(t, y):
        eps = eps1 + (eps2 - eps1) * min(t / tau, 1.0)
        dn = -gamma * (y[0] - fermi(eps))
        return [dn, -eps * dn]

    return rhs


def _half_event(t, y):
    return y[0] - 0.5


_half_event.terminal = True
_half_event.direction = -1


def rate_equation_minus_q(eps1, eps2, gamma, gamma_tau, n0=1.0) -> float:
    """-Q(t_f) with t_f the first time n_S = 1/2.

    y = (n_S, -Q) is solved on the sweep [0, tau] and then on the hold, so
    the kink in the forcing at tau is a segment boundary for the solver.
    """
    tau = gamma_tau / gamma
    rhs = _rate_rhs(eps1, eps2, gamma, tau)
    y = [n0, 0.0]
    for span in ((0.0, tau), (tau, tau + 40.0 / gamma)):
        sol = solve_ivp(rhs, span, y, method="DOP853", rtol=RTOL, atol=ATOL,
                        events=_half_event)
        if sol.status == 1:
            return float(sol.y_events[0][0][1])
        y = sol.y[:, -1]
    raise RuntimeError(f"reference never reached n_S = 1/2 at gamma*tau = {gamma_tau}")


def rate_equation_population(eps1, eps2, gamma, gamma_tau, times, n0=1.0) -> np.ndarray:
    """n_S(t) on the given sorted sample times, no switch-off."""
    tau = gamma_tau / gamma
    rhs = _rate_rhs(eps1, eps2, gamma, tau)
    times = np.asarray(times, dtype=float)
    out = np.empty_like(times)
    sweep = solve_ivp(rhs, (0.0, tau), [n0, 0.0], method="DOP853", rtol=RTOL,
                      atol=ATOL, dense_output=True)
    early = times <= tau
    out[early] = sweep.sol(times[early])[0]
    if not early.all():
        hold = solve_ivp(rhs, (tau, times[-1]), sweep.y[:, -1], method="DOP853",
                         rtol=RTOL, atol=ATOL, dense_output=True)
        out[~early] = hold.sol(times[~early])[0]
    return out


def rate_equation_crossing(eps1, eps2, gamma, lo=0.5, hi=20.0) -> float:
    """Gamma*tau at which the reference -Q(t_f) changes sign."""
    return brentq(lambda x: rate_equation_minus_q(eps1, eps2, gamma, x), lo, hi, xtol=1e-9)


# ---------------------------------------------------------------------------
# exact bath: properties of a unitary stepwise-quenched run


def bath_residuals(run, C0, hamiltonian) -> dict[str, float]:
    """Spectrum, trace and energy-balance residuals of one exact-bath run.

    Between quenches the energy under the interval's Hamiltonian is
    conserved; at the quench into step k it jumps by
    (eps(t_k) - eps(t_{k-1})) * n_S(t_k).  The final step runs under the
    Hamiltonian built from eps at times[-2].  `hamiltonian(eps)` is the
    program's own single-particle matrix for a system level eps.
    """
    c0 = np.sort(np.real(np.diag(C0)))
    spectrum = float(np.abs(np.linalg.eigvalsh(run.C_final) - c0).max())
    trace = abs(float(np.trace(run.C_final).real) - float(c0.sum()))
    sweep = run.schedule
    eps = sweep.eps1 + (sweep.eps2 - sweep.eps1) * np.clip(run.times / sweep.tau, 0.0, 1.0)
    work = float(np.sum((eps[1:-1] - eps[:-2]) * run.n_S[1:-1]))
    H_first, H_last = hamiltonian(eps[0]), hamiltonian(eps[-2])
    d_energy = float(np.real(np.trace(H_last @ run.C_final) - np.trace(H_first @ C0)))
    return {"spectrum": spectrum, "trace": trace, "energy_balance": abs(d_energy - work)}
