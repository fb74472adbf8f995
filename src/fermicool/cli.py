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

# the checks; numpy and an engine are imported by a handler after its checks have passed
from .params import (EPS1, EPS2, GAMMA, GAMMA_DT, GAMMA_TAU, RESERVOIR_MODES, EngineError,
                     ProtocolConfig, ReservoirSpec, SweepSchedule, _check_rate_dt,
                     _check_rate_inputs, _check_switch_off, _require_integer, _require_positive,
                     _require_probability)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ENGINE = 3

# the largest fig1 grid or invariants sample count: about 30 s of fig1 at
# <= 0.3 ms a point, or 60 s of invariants at <= 0.6 ms a sample (2-vCPU host)
_MAX_COUNT = 10**5


# ---------------------------------------------------------------------------
# output


def write_table(path: Path, fmt: str, meta: dict, columns: list[str], rows: list[tuple]):
    import numpy as np

    def cell(x) -> str:
        return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)

    if fmt == "csv":
        lines = [f"# {k} = {cell(v)}" for k, v in sorted(meta.items())]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(cell(v) for v in row))
        text = "\n".join(lines)
    else:
        # np.float64 is a float subclass, which json writes through float.__repr__
        doc = {"meta": meta, "rows": [dict(zip(columns, row)) for row in rows]}
        text = json.dumps(doc, indent=2, sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# configuration plumbing


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
        params.update(loaded)
    for key in defaults:
        flag = getattr(args, key, None)
        if flag is not None:
            params[key] = flag
    return params


def _check_count(key: str, value: int) -> None:
    _require_integer(key, value)
    if value < 1:
        raise ValueError(f"{key} must be at least 1, got {value}")
    if value > _MAX_COUNT:
        raise ValueError(f"{key} must be at most {_MAX_COUNT}, got {value}")


# ---------------------------------------------------------------------------
# subcommands

_LEDGER_COLUMNS = ["step", "n_M", "n_S", "S_M", "S_S", "S_MS", "E", "Q", "W", "sigma"]


def cmd_protocol(params: dict):
    config = ProtocolConfig(**params)
    # the finite-time parameters, and the reservoir's memory, are checked whichever engine runs
    SweepSchedule(config.eps1, config.eps2, config.tau)
    ReservoirSpec(K=config.K, gamma=config.gamma)
    if config.engine == "master-equation":
        _check_rate_dt(config.gamma, config.dt)
    elif config.dt is not None:  # other engines: dt > 0 only (the exact bath warns if coarse)
        _require_positive("dt", config.dt)
    from . import protocol

    ledger = protocol.run_purification(config)
    rows = [dataclasses.astuple(s) for s in ledger.steps]
    # the total row repeats the last step's state and cumulative heat, work, sigma
    rows.append(("total",) + rows[-1][1:])
    meta = {
        "engine": config.engine,
        "total_minus_Q": ledger.total_minus_q,
        "coherent_information": ledger.initial_coherent_information,
        "purified": ledger.purified,
        "memory_restored": ledger.memory_restored,
        "interaction_residual": ledger.interaction_residual,
    }
    return meta, _LEDGER_COLUMNS, rows


def cmd_fig1(params: dict):
    _check_count("points", params["points"])
    for key in ("gamma_tau_min", "gamma_tau_max"):
        _require_positive(key, params[key])
    _check_rate_inputs(params["gamma"], params["n0"], params["dt"])
    _check_switch_off(params["n0"])
    for key in ("gamma_tau_min", "gamma_tau_max"):  # each grid tau lies between these two
        SweepSchedule(params["eps1"], params["eps2"], params[key] / params["gamma"])
    import numpy as np

    from . import master_eq

    grid = np.geomspace(params["gamma_tau_min"], params["gamma_tau_max"], params["points"])
    rows, failures = master_eq._heat_curve(params["eps1"], params["eps2"], params["gamma"],
                                           grid, params["n0"], params["dt"])
    skipped = [f"gamma_tau={gtau:g}: {exc}" for gtau, exc in failures]
    if not rows:
        raise EngineError("every grid point failed: " + "; ".join(skipped))
    crossing = master_eq.find_zero_crossing(rows)
    meta = {
        "eps1": params["eps1"],
        "eps2": params["eps2"],
        "n0": params["n0"],
        "zero_crossing_gamma_tau": crossing if crossing is not None else "none",
    }
    meta.update((f"skipped_{i}", reason) for i, reason in enumerate(skipped))
    return meta, ["gamma_tau", "minus_Q"], rows


def cmd_fig2(params: dict):
    for key in ("gamma_tau", "gamma_dt"):
        _require_positive(key, params[key])
    _require_probability("n0", params["n0"])
    _check_switch_off(params["n0"])
    gamma = params["gamma"]
    spec = ReservoirSpec(K=params["K"], gamma=gamma)
    schedule = SweepSchedule(params["eps1"], params["eps2"], params["gamma_tau"] / gamma)
    from . import exact_bath

    run = exact_bath.simulate(
        spec, schedule, n_S0=params["n0"], dt=params["gamma_dt"] / gamma
    )
    report = exact_bath.compare_with_master_equation(run)
    rows = [
        (gamma * t, ne, nm, qe, qm)
        for t, ne, nm, qe, qm in zip(
            run.times, run.n_S, report.master.n_S, run.minus_Q, report.master.minus_Q
        )
    ]
    meta = {
        "gamma": gamma,
        "gamma_tau": params["gamma_tau"],
        "K": params["K"],
        "gamma_tf": run.gamma_t_f,
        "minus_Q_at_tf": run.minus_Q_tf,
        "max_population_deviation": report.max_population_deviation,
        "heat_deviation_at_tf": report.heat_deviation_at_tf,
    }
    return meta, ["gamma_t", "n_exact", "n_master", "minus_Q_exact", "minus_Q_master"], rows


def cmd_witness(params: dict):
    sequence = params.pop("sequence")
    config = ProtocolConfig(**params)
    from . import protocol

    report = protocol.run_witness_sequence(
        protocol._initial_state(config), sequence, omega=config.omega
    )
    meta = {"verdict": "entanglement certified" if report.certified else "not certified"}
    columns = ["n_S0", "n_M0", "n_S1", "n_M1", "beta_Q", "witness"]
    rows = [(report.n_S0, report.n_M0, report.n_S1, report.n_M1,
             report.beta_q, report.value)]
    return meta, columns, rows


def _random_correlation(rng, dim: int):
    import numpy as np

    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    nu = rng.uniform(0.0, 1.0, size=dim)
    return (q * nu) @ q.conj().T


def _random_hermitian(rng, dim: int):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (z + z.conj().T)


def cmd_invariants(params: dict):
    _check_count("samples", params["samples"])
    _require_integer("seed", params["seed"])
    if params["seed"] < 0:
        raise ValueError(f"seed must be nonnegative, got {params['seed']}")
    import numpy as np

    from . import master_eq, protocol
    from .gaussian import binary_entropy, energy_expectation, evolve_step, subsystem_entropy

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
    run = master_eq.integrate_population(SweepSchedule(EPS1, EPS2, GAMMA_TAU / GAMMA), GAMMA)
    sigma = np.array([binary_entropy(n) for n in run.n_S]) \
        - binary_entropy(run.n_S[0]) + run.minus_Q
    check("master_eq_entropy_production_violation", -sigma.min(), 1e-6)

    meta = {
        "seed": params["seed"],
        "samples": params["samples"],
        "all_passed": all(r[3] for r in rows),
    }
    return meta, ["check", "value", "bound", "passed"], rows


# ---------------------------------------------------------------------------


# flag name -> add_argument keywords; the flag is spelled "--" + name with "_"
# as "-", which argparse turns back into the dest `name`
_FLAGS = {
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
    "gamma_tau": dict(type=float),
    "gamma_dt": dict(type=float),
}

# subcommand -> (help, flags, config defaults, handler); a handler takes the
# loaded parameters and returns its table as (meta, columns, rows)
_COMMANDS = {
    "protocol": ("run the purification protocol, write the ledger",
                 ("engine", "gamma", "eps1", "eps2", "tau", "K", "dt", "p", "phi"),
                 {f.name: f.default for f in dataclasses.fields(ProtocolConfig)},
                 cmd_protocol),
    "fig1": ("heat dissipation vs sweep time (rate equation)",
             ("gamma", "eps1", "eps2", "dt", "n0", "points"),
             dict(eps1=EPS1, eps2=EPS2, gamma=GAMMA, n0=1.0,
                  points=50, gamma_tau_min=0.1, gamma_tau_max=100.0, dt=None),
             cmd_fig1),
    "fig2": ("exact bath dynamics vs rate equation time series",
             ("gamma", "eps1", "eps2", "K", "n0", "gamma_tau", "gamma_dt"),
             dict(gamma=GAMMA, gamma_tau=GAMMA_TAU, gamma_dt=GAMMA_DT, K=RESERVOIR_MODES,
                  eps1=EPS1, eps2=EPS2, n0=1.0),
             cmd_fig2),
    "witness": ("entanglement detection from occupancies and heat",
                ("p", "phi"),
                dict({k: getattr(ProtocolConfig, k) for k in ("p", "phi", "diagonal", "omega")},
                     sequence=[{"op": "rotate"}]),
                cmd_witness),
    "invariants": ("randomized invariant battery, pass/fail table",
                   ("seed", "samples"), dict(seed=0, samples=200), cmd_invariants),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermicool",
        description="Reservoir cooling with one-body fermionic entanglement: "
        "protocol ledgers, figure data and invariant reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", type=Path, help="JSON file of parameter overrides")
        sp.add_argument("--out", type=Path, default=Path(f"{name}.csv"))
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        for flag in flags:
            sp.add_argument("--" + flag.replace("_", "-"), **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _, _, defaults, handler = _COMMANDS[args.command]
    try:
        meta, columns, rows = handler(_load_params(args, defaults))
        meta["experiment"] = args.command
        write_table(args.out, args.format, meta, columns, rows)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except EngineError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    # a failed invariant battery still writes its table
    return EXIT_OK if meta.get("all_passed", True) else EXIT_ENGINE


if __name__ == "__main__":
    sys.exit(main())
