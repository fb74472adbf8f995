"""Print one SHA-256 over a seeded corpus of quasistatic protocol results.

    python3 tools/ledger_digest.py

Runs 2,000 seeded states through the 2x2 paths of `fermicool`, importing it
from the `src/` of the checkout this script sits in: quasistatic ledgers of
one-body and diagonal states (each with its `theorem1_check` result),
witness sequences with seeded rotation durations and tunnel couplings, the
quarter-period rotation and the swap (`step1_rotate`, `step3_swap`) of the
one-body states, and the `gaussian` entropy and propagation functions
(`evolve_step` at a seeded dt and at dt = 0) on seeded mixed 2x2 states.
Edge states (p in {0, 1/2, 1}, phi in {0, +-pi/2, pi}, pure diagonals)
come first.
Every float enters the hash through its `repr`, which keeps every bit and
the sign of zero.  Run it in two checkouts and compare the two lines; a
change that keeps its numbers prints the same digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fermicool import gaussian, protocol  # noqa: E402

SEED = 20240613
STATES = 500  # per family; four families make the 2,000 states

EDGE_ONE_BODY = [(p, phi) for p in (0.0, 0.5, 1.0)
                 for phi in (0.0, math.pi / 2, -math.pi / 2, math.pi)]
EDGE_DIAGONALS = [(a, b) for a in (0.0, 1.0) for b in (0.0, 0.3, 0.7, 1.0)]
TARGETS = (None, 0.0, 1.0)
OMEGAS = (0.3, 1.0, 7.5)


def _matrix(C) -> list[list[float]]:
    return [[z.real, z.imag] for z in C.ravel().tolist()]


def _ledger_entry(config: protocol.ProtocolConfig, separable: bool) -> dict:
    ledger = protocol.run_purification(config)
    return {
        "ledger": dataclasses.asdict(ledger),
        "initial_coherent_information": ledger.initial_coherent_information,
        "witness": protocol.witness_from_ledger(ledger),
        "theorem1": dataclasses.asdict(protocol.theorem1_check(ledger, separable)),
    }


def _witness_entry(C0, durations: list[float], omega: float) -> dict:
    ops = [{"op": "rotate", "duration": durations[0]}, {"op": "relax", "target": 0.0},
           {"op": "rotate", "duration": durations[1]}, {"op": "swap"}]
    return dataclasses.asdict(protocol.run_witness_sequence(C0, ops, omega=omega))


def _rotation_entry(C0, omega: float) -> dict:
    return {
        "rotated": _matrix(protocol.step1_rotate(C0, omega)),
        "swapped": _matrix(protocol.step3_swap(C0, omega)),
    }


def _gaussian_entry(C, H, dt: float) -> dict:
    return {
        "S_M": gaussian.subsystem_entropy(C, [0]),
        "S_MS": gaussian.subsystem_entropy(C, [0, 1]),
        "I": gaussian.coherent_information(C, [0]),
        "evolved": _matrix(gaussian.evolve_step(C, H, dt)),
        "still": _matrix(gaussian.evolve_step(C, H, 0.0)),
    }


def corpus() -> list[dict]:
    rng = np.random.default_rng(SEED)
    one_body = EDGE_ONE_BODY + [
        (float(p), float(phi)) for p, phi in zip(
            rng.uniform(0.0, 1.0, STATES), rng.uniform(-math.pi, math.pi, STATES))
    ][len(EDGE_ONE_BODY):]
    diagonals = EDGE_DIAGONALS + [
        (float(a), float(b)) for a, b in rng.uniform(0.0, 1.0, (STATES, 2))
    ][len(EDGE_DIAGONALS):]
    entries = []
    for i, (p, phi) in enumerate(one_body):
        config = protocol.ProtocolConfig(p=p, phi=phi, step2_target=TARGETS[i % 3])
        entries.append(_ledger_entry(config, separable=False))
    for i, diagonal in enumerate(diagonals):
        config = protocol.ProtocolConfig(diagonal=diagonal, step2_target=TARGETS[i % 3])
        entries.append(_ledger_entry(config, separable=True))
    for p, phi in one_body:
        omega = float(rng.choice([0.3, 1.0, 7.5]))
        durations = [float(t) for t in rng.uniform(0.0, 2.0 * math.pi / omega, 2)]
        entries.append(_witness_entry(protocol.prepare_one_body_state(p, phi), durations, omega))
    for _ in range(STATES):
        nu1, nu2, theta, chi, a, b, dt = rng.uniform(0.0, 1.0, 7).tolist()
        c, s = math.cos(math.pi * theta), math.sin(math.pi * theta) * np.exp(2j * math.pi * chi)
        V = np.array([[c, -s], [np.conj(s), c]])
        C = V @ np.diag([nu1, nu2]) @ V.conj().T
        H = np.array([[a, b + 0.5j], [b - 0.5j, -a]], dtype=complex)
        entries.append(_gaussian_entry(0.5 * (C + C.conj().T), H, 10.0 * dt))
    for i, (p, phi) in enumerate(one_body):
        entries.append(_rotation_entry(protocol.prepare_one_body_state(p, phi), OMEGAS[i % 3]))
    return entries


def digest() -> str:
    text = json.dumps(corpus(), sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


if __name__ == "__main__":
    if len(sys.argv) != 1:
        sys.exit(__doc__)
    print(digest())
