"""Batch experiment driver: reproduces the protocol numbers and figure data.

Subcommands: protocol, fig1, fig2, witness, invariants.  Parameters come
from built-in defaults (the published figure parameters), optionally a JSON
config file, then command-line overrides, in that order.  Results are
written as CSV (comma-separated, '#'-prefixed metadata lines) or JSON
({"meta": ..., "rows": ...}); all floats are emitted with full round-trip
precision so identical configs produce byte-identical files.

Exit status: 0 success, 2 validation error, 3 engine error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import exact_bath, master_eq, protocol
from .gaussian import (
    binary_entropy,
    energy_expectation,
    evolve_step,
    subsystem_entropy,
)
from .master_eq import NoCrossingError, SweepSchedule, find_zero_crossing
from .protocol import EngineError, ProtocolConfig

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ENGINE = 3

# the largest fig1 grid or invariants sample count: about 40 s of fig1 at
# ~0.4 ms a point, or 90 s of invariants at ~0.9 ms a sample (2-vCPU host)
_MAX_COUNT = 10**5


# ---------------------------------------------------------------------------
# output


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_csv(path: Path, meta: dict, columns: list[str], rows: list[tuple]):
    lines = [f"# {k} = {_fmt(v)}" for k, v in sorted(meta.items())]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path: Path, meta: dict, columns: list[str], rows: list[tuple]):
    doc = {
        "meta": {k: (float(v) if isinstance(v, np.floating) else v) for k, v in meta.items()},
        "rows": [
            {c: (float(v) if isinstance(v, (float, np.floating)) else v) for c, v in zip(columns, row)}
            for row in rows
        ],
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_table(path: Path, fmt: str, meta: dict, columns: list[str], rows: list[tuple]):
    path = Path(path)
    if fmt == "csv":
        write_csv(path, meta, columns, rows)
    else:
        write_json(path, meta, columns, rows)


# ---------------------------------------------------------------------------
# configuration plumbing


# what the keys with a None default take besides null
_NULLABLE_KINDS = {"dt": float, "step2_target": float, "diagonal": list}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_type(key: str, value, default) -> None:
    """A config value must have its default's type; an int is also a float."""
    if default is None and value is None:
        return
    kind = type(default) if default is not None else _NULLABLE_KINDS[key]
    if kind is float:
        ok = _is_number(value)
    else:  # bool is an int subclass, but no key takes true/false
        ok = isinstance(value, kind) and not isinstance(value, bool)
    if not ok:
        raise ValueError(f"config key {key!r} must be of type {kind.__name__}, got {value!r}")


def _load_params(args, defaults: dict) -> dict:
    params = dict(defaults)
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must contain a JSON object")
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in loaded.items():
            _check_type(key, value, defaults[key])
        params.update(loaded)
    for key in defaults:
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            params[key] = flag
    return params


def _check_count(key: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{key} must be at least 1, got {value}")
    if value > _MAX_COUNT:
        raise ValueError(f"{key} must be at most {_MAX_COUNT}, got {value}")


def _add_common(sp, out_default: str):
    sp.add_argument("--config", type=Path, help="JSON file of parameter overrides")
    sp.add_argument("--out", type=Path, default=Path(out_default))
    sp.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_physics_flags(sp, *names):
    flags = {
        "gamma": dict(type=float, help="relaxation rate (units of k_B T)"),
        "eps1": dict(type=float, help="sweep start energy"),
        "eps2": dict(type=float, help="sweep end energy"),
        "tau": dict(type=float, help="sweep duration"),
        "K": dict(type=int, help="number of reservoir modes"),
        "dt": dict(type=float, help="integration step"),
        "engine": dict(choices=ProtocolConfig.ENGINES),
        "p": dict(type=float, help="initial memory weight of the one-body state"),
        "phi": dict(type=float, help="initial relative phase (radians)"),
        "n0": dict(type=float, help="initial system population"),
        "seed": dict(type=int, help="random seed"),
        "points": dict(type=int, help="number of sweep-time grid points"),
        "samples": dict(type=int, help="number of randomized checks"),
    }
    for name in names:
        sp.add_argument(f"--{name}", **flags[name])


# ---------------------------------------------------------------------------
# subcommands

_LEDGER_COLUMNS = ["step", "n_M", "n_S", "S_M", "S_S", "S_MS", "E", "Q", "W", "sigma"]


def cmd_protocol(args) -> int:
    # every config field but final_swap, which the run decides from its shape
    defaults = {
        f.name: f.default for f in dataclasses.fields(ProtocolConfig) if f.name != "final_swap"
    }
    params = _load_params(args, defaults)
    if params["diagonal"] is not None:
        params["diagonal"] = tuple(params["diagonal"])
    config = ProtocolConfig(**params)
    # the finite-time parameters are checked whichever engine runs
    SweepSchedule(config.eps1, config.eps2, config.tau)
    exact_bath.ReservoirSpec(K=config.K, gamma=config.gamma)
    if config.dt is not None:
        master_eq._require_positive("dt", config.dt)
    ledger = protocol.run_purification(config)
    rows = [dataclasses.astuple(s) for s in ledger.steps]
    # the total row repeats the last step's state and cumulative heat, work, sigma
    rows.append(("total",) + rows[-1][1:])
    meta = {
        "experiment": "protocol",
        "engine": config.engine,
        "total_minus_Q": ledger.total_minus_q,
        "coherent_information": ledger.initial_coherent_information,
        "purified": ledger.purified,
        "memory_restored": ledger.memory_restored,
        "interaction_residual": ledger.interaction_residual,
    }
    write_table(args.out, args.format, meta, _LEDGER_COLUMNS, rows)
    return EXIT_OK


def cmd_fig1(args) -> int:
    defaults = dict(
        eps1=master_eq.EPS1, eps2=master_eq.EPS2, gamma=master_eq.GAMMA, n0=1.0, points=50,
        gamma_tau_min=0.1, gamma_tau_max=100.0, dt=None,
    )
    params = _load_params(args, defaults)
    _check_count("points", params["points"])
    gamma = params["gamma"]
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    master_eq._check_rate_inputs(gamma, params["n0"], params["dt"])
    for key in ("gamma_tau_min", "gamma_tau_max"):
        if not (math.isfinite(params[key]) and params[key] > 0):
            raise ValueError(f"{key} must be positive and finite, got {params[key]}")
    grid = np.geomspace(params["gamma_tau_min"], params["gamma_tau_max"], params["points"])
    schedules = [SweepSchedule(params["eps1"], params["eps2"], float(g) / gamma) for g in grid]
    rows = []
    failures = []
    # parameters are checked above: a failure here (no crossing, the step
    # budget, a non-monotone bracket) belongs to one grid point
    for gtau, schedule in zip(grid, schedules):
        try:
            traj = master_eq.integrate_population(
                schedule, gamma, n0=params["n0"], dt=params["dt"]
            )
            rows.append((float(gtau), master_eq.heat_dissipated(traj)))
        except (NoCrossingError, ValueError) as exc:
            failures.append(f"gamma_tau={gtau:g}: {exc}")
    if not rows:
        raise EngineError("every grid point failed: " + "; ".join(failures))
    crossing = find_zero_crossing(rows)
    meta = {
        "experiment": "fig1",
        "eps1": params["eps1"],
        "eps2": params["eps2"],
        "n0": params["n0"],
        "zero_crossing_gamma_tau": crossing if crossing is not None else "none",
    }
    for i, reason in enumerate(failures):
        meta[f"skipped_{i}"] = reason
    write_table(args.out, args.format, meta, ["gamma_tau", "minus_Q"], rows)
    return EXIT_OK


def cmd_fig2(args) -> int:
    defaults = dict(
        gamma=master_eq.GAMMA, gamma_tau=master_eq.GAMMA_TAU, gamma_dt=master_eq.GAMMA_DT,
        K=master_eq.RESERVOIR_MODES, eps1=master_eq.EPS1, eps2=master_eq.EPS2, n0=1.0,
    )
    params = _load_params(args, defaults)
    gamma = params["gamma"]
    spec = exact_bath.ReservoirSpec(K=params["K"], gamma=gamma)
    schedule = SweepSchedule(params["eps1"], params["eps2"], params["gamma_tau"] / gamma)
    run = exact_bath.simulate(
        spec, schedule, n_S0=params["n0"], dt=params["gamma_dt"] / gamma
    )
    report = exact_bath.compare_with_master_equation(run)
    rows = [
        (gamma * t, ne, nm, qe, qm)
        for t, ne, nm, qe, qm in zip(
            run.times, run.n_S, report.n_master, run.minus_Q, report.minus_Q_master
        )
    ]
    meta = {
        "experiment": "fig2",
        "gamma": gamma,
        "gamma_tau": params["gamma_tau"],
        "K": params["K"],
        "gamma_tf": run.gamma_t_f,
        "minus_Q_at_tf": run.minus_Q_tf,
        "max_population_deviation": report.max_population_deviation,
        "heat_deviation_at_tf": report.heat_deviation_at_tf,
    }
    columns = ["gamma_t", "n_exact", "n_master", "minus_Q_exact", "minus_Q_master"]
    write_table(args.out, args.format, meta, columns, rows)
    return EXIT_OK


_DEFAULT_SEQUENCE = [{"op": "rotate"}]


def cmd_witness(args) -> int:
    defaults = {k: getattr(ProtocolConfig, k) for k in ("p", "phi", "diagonal", "omega")}
    params = _load_params(args, dict(defaults, sequence=_DEFAULT_SEQUENCE))
    sequence = params.pop("sequence")
    for i, op in enumerate(sequence):
        if not (isinstance(op, dict) and isinstance(op.get("op"), str)):
            raise ValueError(f"sequence[{i}] must be an object with a string \"op\", got {op!r}")
        duration, target = op.get("duration"), op.get("target", 0.5)
        if not (duration is None or _is_number(duration)):
            raise ValueError(f"sequence[{i}] duration must be a number, got {duration!r}")
        if not _is_number(target):
            raise ValueError(f"sequence[{i}] target must be a number, got {target!r}")
    config = ProtocolConfig(**params)
    report = protocol.run_witness_sequence(
        protocol._initial_state(config), sequence, omega=config.omega
    )
    meta = {
        "experiment": "witness",
        "verdict": "entanglement certified" if report.certified else "not certified",
    }
    columns = ["n_S0", "n_M0", "n_S1", "n_M1", "beta_Q", "witness"]
    rows = [(report.n_S0, report.n_M0, report.n_S1, report.n_M1,
             report.beta_q, report.value)]
    write_table(args.out, args.format, meta, columns, rows)
    return EXIT_OK


def _random_correlation(rng, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    nu = rng.uniform(0.0, 1.0, size=dim)
    return (q * nu) @ q.conj().T


def _random_hermitian(rng, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (z + z.conj().T)


def cmd_invariants(args) -> int:
    defaults = dict(seed=0, samples=200)
    params = _load_params(args, defaults)
    _check_count("samples", params["samples"])
    rng = np.random.default_rng(params["seed"])
    rows: list[tuple] = []

    def check(name: str, value: float, bound: float):
        rows.append((name, float(value), float(bound), int(value <= bound)))

    # exact evolution preserves trace, spectrum, Hermiticity, energy
    worst = dict(trace=0.0, spectrum=0.0, hermitian=0.0, energy=0.0, compose=0.0)
    for _ in range(params["samples"]):
        dim = int(rng.integers(2, 6))
        C = _random_correlation(rng, dim)
        H = _random_hermitian(rng, dim)
        dt_a, dt_b = rng.uniform(0.0, 2.0, size=2)
        out = evolve_step(C, H, dt_a + dt_b)
        worst["trace"] = max(worst["trace"], abs(np.trace(out).real - np.trace(C).real))
        worst["spectrum"] = max(
            worst["spectrum"],
            np.abs(np.linalg.eigvalsh(out) - np.linalg.eigvalsh(C)).max(),
        )
        worst["hermitian"] = max(worst["hermitian"], np.abs(out - out.conj().T).max())
        worst["energy"] = max(
            worst["energy"], abs(energy_expectation(out, H) - energy_expectation(C, H))
        )
        two = evolve_step(evolve_step(C, H, dt_a), H, dt_b)
        worst["compose"] = max(worst["compose"], np.abs(two - out).max())
    check("evolution_trace_drift", worst["trace"], 1e-10)
    check("evolution_spectrum_drift", worst["spectrum"], 1e-10)
    check("evolution_hermiticity_drift", worst["hermitian"], 1e-12)
    check("evolution_energy_drift", worst["energy"], 1e-10)
    check("evolution_composition_error", worst["compose"], 1e-10)

    # entropy bounds
    worst_lo, worst_hi = 0.0, 0.0
    for _ in range(params["samples"]):
        dim = int(rng.integers(2, 6))
        C = _random_correlation(rng, dim)
        m = sorted(rng.choice(dim, size=int(rng.integers(1, dim + 1)), replace=False))
        s = subsystem_entropy(C, m)
        worst_lo = max(worst_lo, -s)
        worst_hi = max(worst_hi, s - len(m) * math.log(2.0))
    check("subsystem_entropy_below_zero", worst_lo, 0.0)
    check("subsystem_entropy_above_max", worst_hi, 1e-12)

    # separability bound on randomized conforming purification runs
    worst_mq, worst_sigma, worst_witness = 0.0, 0.0, 0.0
    for _ in range(params["samples"]):
        n_m, n_s = rng.uniform(0.0, 1.0, size=2)
        config = ProtocolConfig(
            diagonal=(n_m, n_s),
            step2_target=float(rng.integers(0, 2)),
            engine="quasistatic",
        )
        ledger = protocol.run_purification(config)
        result = protocol.theorem1_check(ledger, initially_separable=True)
        worst_mq = max(worst_mq, -result.minus_q)
        worst_sigma = max(worst_sigma, -result.entropy_production)
        worst_witness = max(worst_witness, -protocol.witness_from_ledger(ledger))
    check("separable_run_heat_bound_violation", worst_mq, 1e-9)
    check("separable_run_entropy_production_violation", worst_sigma, 1e-6)
    check("separable_run_witness_violation", worst_witness, 1e-9)

    # second law along a finite-time sweep
    schedule = SweepSchedule(master_eq.EPS1, master_eq.EPS2, master_eq.GAMMA_TAU / master_eq.GAMMA)
    traj = master_eq.integrate_population(schedule, master_eq.GAMMA)
    mq = master_eq.cumulative_heat(traj)
    sigma = np.array([binary_entropy(n) for n in traj.populations]) \
        - binary_entropy(traj.populations[0]) + mq
    check("master_eq_entropy_production_violation", -sigma.min(), 1e-6)

    all_passed = all(r[3] for r in rows)
    meta = {
        "experiment": "invariants",
        "seed": params["seed"],
        "samples": params["samples"],
        "all_passed": all_passed,
    }
    write_table(args.out, args.format, meta, ["check", "value", "bound", "passed"], rows)
    return EXIT_OK if all_passed else EXIT_ENGINE


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermicool",
        description="Reservoir cooling with one-body fermionic entanglement: "
        "protocol ledgers, figure data and invariant reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("protocol", help="run the purification protocol, write the ledger")
    _add_common(sp, "protocol.csv")
    _add_physics_flags(sp, "engine", "gamma", "eps1", "eps2", "tau", "K", "dt", "p", "phi")
    sp.set_defaults(func=cmd_protocol)

    sp = sub.add_parser("fig1", help="heat dissipation vs sweep time (rate equation)")
    _add_common(sp, "fig1.csv")
    _add_physics_flags(sp, "gamma", "eps1", "eps2", "dt", "n0", "points")
    sp.set_defaults(func=cmd_fig1)

    sp = sub.add_parser("fig2", help="exact bath dynamics vs rate equation time series")
    _add_common(sp, "fig2.csv")
    _add_physics_flags(sp, "gamma", "eps1", "eps2", "K", "n0")
    sp.add_argument("--gamma-tau", dest="gamma_tau", type=float)
    sp.add_argument("--gamma-dt", dest="gamma_dt", type=float)
    sp.set_defaults(func=cmd_fig2)

    sp = sub.add_parser("witness", help="entanglement detection from occupancies and heat")
    _add_common(sp, "witness.csv")
    _add_physics_flags(sp, "p", "phi")
    sp.set_defaults(func=cmd_witness)

    sp = sub.add_parser("invariants", help="randomized invariant battery, pass/fail table")
    _add_common(sp, "invariants.csv")
    _add_physics_flags(sp, "seed", "samples")
    sp.set_defaults(func=cmd_invariants)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (EngineError, NoCrossingError) as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return EXIT_ENGINE


if __name__ == "__main__":
    sys.exit(main())
