"""The four workloads: seeded inputs, the operations of one round, and their checks.

Every workload is a fixed list of operations built once from the seed; a run
repeats that list as whole rounds.  An operation's `call` is what is timed.
Its `check` runs afterwards, outside the timing, and returns a list of
problems found in the output.  Program functions are looked up through their
module at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from fermicool import cli, exact_bath, master_eq, protocol

import reference as ref

LN2 = math.log(2.0)
GAMMA = 0.02
CURVE_GRID = np.geomspace(0.1, 100.0, 50)
FAST_GAMMA_TAU = 0.01
# (eps1, eps2) pairs of the ROADMAP's break-even sensitivity table
PAIRS = ((-5.0, 1.0), (-5.0, 2.0), (-5.0, 3.0), (-3.0, 1.0), (-10.0, 1.0))
COMMAND_TIMEOUT_S = 120


class OperationFailed(RuntimeError):
    """The program did not complete an operation it should have completed."""


@dataclass
class Op:
    kind: str  # "main" or "aux": which end-to-end timing the operation feeds
    call: Callable[[], object]
    check: Callable[[object], list[str]]


def _close(label: str, got: float, want: float, tol: float) -> list[str]:
    if abs(got - want) <= tol:
        return []
    return [f"{label}: got {got!r}, want {want!r} within {tol:g}"]


# ---------------------------------------------------------------------------
# ledger: quasistatic protocol runs, 2x2 algebra only


def _one_body(p, phi):
    ledger = protocol.run_purification(protocol.ProtocolConfig(p=p, phi=phi))
    return ledger.total_minus_q, protocol.witness_from_ledger(ledger)


def _check_one_body(p, phi, out):
    minus_q, witness = out
    problems = _close(f"one-body ({p}, {phi}) -Q", minus_q, ref.one_body_minus_q(p, phi), 1e-12)
    problems += _close(f"one-body ({p}, {phi}) witness", witness,
                       ref.one_body_witness(p, phi), 1e-12)
    if (p, phi) == (0.5, math.pi / 2):
        problems += _close("default -Q", minus_q, -LN2, 1e-12)
        problems += _close("default witness", witness, -LN2, 1e-12)
    return problems


def _separable(n_M, n_S, target):
    config = protocol.ProtocolConfig(diagonal=(n_M, n_S), step2_target=target)
    ledger = protocol.run_purification(config)
    result = protocol.theorem1_check(ledger, initially_separable=True)
    return ledger.total_minus_q, result.passed, protocol.witness_from_ledger(ledger)


def _check_separable(n_M, n_S, out):
    minus_q, passed, witness = out
    problems = _close(f"separable ({n_M}, {n_S}) -Q", minus_q, ref.separable_minus_q(n_S), 1e-12)
    problems += _close(f"separable ({n_M}, {n_S}) witness", witness,
                       ref.separable_witness(n_M, n_S), 1e-12)
    if not passed:
        problems.append(f"separable ({n_M}, {n_S}): theorem1_check failed")
    return problems


_PURIFY = [{"op": "rotate"}, {"op": "relax", "target": 0.0}, {"op": "swap"}]


def _witness_sequence(p, phi):
    report = protocol.run_witness_sequence(protocol.prepare_one_body_state(p, phi), _PURIFY)
    return report.value, report.certified


def _check_witness_sequence(p, phi, out):
    value, certified = out
    want = ref.purify_witness(p, phi)
    problems = _close(f"witness sequence ({p}, {phi})", value, want, 1e-12)
    if abs(want) > 1e-9 and certified != (want < 0):
        problems.append(f"witness sequence ({p}, {phi}): certified={certified}")
    return problems


def ledger_ops(rng: np.random.Generator) -> list[Op]:
    """80 ledgers (40 one-body, 40 separable) and 20 witness sequences."""
    ops = [Op("main", partial(_one_body, 0.5, math.pi / 2),
              partial(_check_one_body, 0.5, math.pi / 2))]
    for _ in range(39):
        p, phi = float(rng.uniform(0.02, 0.98)), float(rng.uniform(0.0, 2.0 * math.pi))
        ops.append(Op("main", partial(_one_body, p, phi), partial(_check_one_body, p, phi)))
    for _ in range(40):
        n_M, n_S = (float(x) for x in rng.uniform(0.0, 1.0, size=2))
        target = float(rng.integers(0, 2))
        ops.append(Op("main", partial(_separable, n_M, n_S, target),
                      partial(_check_separable, n_M, n_S)))
    for i in range(20):
        p, phi = (0.5, math.pi / 2) if i == 0 else (
            float(rng.uniform(0.02, 0.98)), float(rng.uniform(0.0, 2.0 * math.pi)))
        ops.append(Op("aux", partial(_witness_sequence, p, phi),
                      partial(_check_witness_sequence, p, phi)))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


# ---------------------------------------------------------------------------
# sweep: Fig. 1 curves and fast-sweep points, rate equation only


class RateReference:
    """Reference -Q values, computed once per run before any timing."""

    def __init__(self):
        self._curves: dict = {}
        self._crossing: float | None = None

    def curve(self, pair) -> np.ndarray:
        if pair not in self._curves:
            self._curves[pair] = np.array(
                [ref.rate_equation_minus_q(*pair, GAMMA, x) for x in CURVE_GRID])
        return self._curves[pair]

    def crossing(self) -> float:
        if self._crossing is None:
            self._crossing = ref.rate_equation_crossing(*PAIRS[0], GAMMA)
        return self._crossing


def _point(pair, gamma_tau):
    return master_eq.sweep_heat_curve(*pair, GAMMA, [gamma_tau])[0]


class CurveCheck:
    """Checks each point of one curve against the reference and, once the
    curve's last point is in, the curve's zero crossing."""

    def __init__(self, pair, want: np.ndarray, crossing: float | None):
        self.pair = pair
        self.want = want
        self.crossing = crossing
        self.rows = [None] * len(CURVE_GRID)

    def point(self, i: int, row) -> list[str]:
        self.rows[i] = row
        if row[0] != float(CURVE_GRID[i]):
            return [f"curve {self.pair}: point {i} at gamma_tau={row[0]!r}"]
        problems = _close(f"curve {self.pair} at gamma_tau={row[0]:g}", row[1],
                          float(self.want[i]), 1e-4)
        if i == len(CURVE_GRID) - 1 and self.crossing is not None:
            got = master_eq.find_zero_crossing(self.rows)
            if got is None:
                problems.append(f"curve {self.pair}: no zero crossing")
            else:
                problems += _close(f"curve {self.pair} crossing", got, self.crossing, 0.01)
        return problems


def _check_fast_sweep(pair, want, row):
    return _close(f"fast sweep {pair}", row[1], want, 1e-4)


def sweep_ops(rng: np.random.Generator, reference: RateReference) -> list[Op]:
    """The five Fig. 1 curves point by point, in seeded order, then two fast sweeps.

    Each point is its own operation (the curve is a loop over independent
    points), so that a timing covers milliseconds, not a third of a second.
    """
    ops = []
    for i in rng.permutation(len(PAIRS)):
        pair = PAIRS[i]
        check = CurveCheck(pair, reference.curve(pair),
                           reference.crossing() if pair == PAIRS[0] else None)
        ops += [Op("main", partial(_point, pair, float(x)), partial(check.point, j))
                for j, x in enumerate(CURVE_GRID)]
    for i in rng.choice(len(PAIRS), size=2, replace=False):
        pair = PAIRS[i]
        want = ref.rate_equation_minus_q(*pair, GAMMA, FAST_GAMMA_TAU)
        ops.append(Op("aux", partial(_point, pair, FAST_GAMMA_TAU),
                      partial(_check_fast_sweep, pair, want)))
    return ops


# ---------------------------------------------------------------------------
# bath: the published Fig. 2 run at K=200 and the same sweep at K=50


def _bath(K):
    spec = exact_bath.ReservoirSpec(K=K, gamma=GAMMA)
    schedule = master_eq.SweepSchedule(-5.0, 1.0, 10.0 / GAMMA)
    run = exact_bath.simulate(spec, schedule, n_S0=1.0, dt=0.06 / GAMMA)
    return run, exact_bath.compare_with_master_equation(run)


def _check_bath(K, out):
    run, report = out
    levels, t_amp = exact_bath.build_reservoir(run.spec)
    residuals = ref.bath_residuals(
        run, exact_bath.initial_state(run.spec, 1.0),
        partial(exact_bath.build_full_hamiltonian, levels=levels, t_amp=t_amp))
    bounds = {"spectrum": 1e-10, "trace": 1e-10, "energy_balance": 1e-9}
    problems = [f"K={K} {key} residual {residuals[key]:.3e} > {bound:g}"
                for key, bound in bounds.items() if not residuals[key] <= bound]
    if K == 200:
        problems += _close("K=200 Gamma*t_f", run.gamma_t_f, 9.3, 0.5)
        problems += _close("K=200 -Q(t_f)", run.minus_Q_tf, -0.42, 0.05)
        if not report.max_population_deviation <= 0.02:
            problems.append(f"K=200 max |n_exact - n_master| = "
                            f"{report.max_population_deviation:.3e} > 0.02")
    return problems


def bath_ops() -> list[Op]:
    """One K=200 run and three K=50 runs; the inputs are the published ones."""
    return [Op("main", partial(_bath, 200), partial(_check_bath, 200))] + [
        Op("aux", partial(_bath, 50), partial(_check_bath, 50)) for _ in range(3)]


# ---------------------------------------------------------------------------
# cli: one command per fresh interpreter (in-process for the traced run)


def run_command_subprocess(argv: list[str]) -> int:
    proc = subprocess.run([sys.executable, "-m", "fermicool.cli", *argv],
                          capture_output=True, timeout=COMMAND_TIMEOUT_S)
    return proc.returncode


def run_command_in_process(argv: list[str]) -> int:
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            return exc.code
        except Exception:  # the real CLI exits 1 on an uncaught exception
            return 1


def parse_table(data: bytes, fmt: str) -> tuple[dict, list[dict]]:
    """(meta, rows) of a CLI table; CSV meta values are returned as strings."""
    text = data.decode("utf-8")
    if fmt == "json":
        doc = json.loads(text)
        return doc["meta"], doc["rows"]
    lines = text.splitlines()
    meta = {}
    while lines and lines[0].startswith("# "):
        key, _, value = lines.pop(0)[2:].partition(" = ")
        meta[key] = value
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"row {line!r} does not match header {header}")
        rows.append({c: _number(v) for c, v in zip(header, cells)})
    return meta, rows


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


class Command:
    """One CLI invocation: the call runs it, the check parses and verifies its table."""

    def __init__(self, runner, argv, expect, out: Path, fmt="csv", verify=None):
        self.runner = runner
        self.expect = expect
        self.fmt = fmt
        self.out = out
        self.label = "fermicool " + " ".join(argv)
        self.argv = [*argv, "--out", str(self.out), "--format", fmt]
        self.verify = verify
        self.first: bytes | None = None

    def call(self):
        self.out.unlink(missing_ok=True)
        code = self.runner(self.argv)
        if code != self.expect:
            raise OperationFailed(f"{self.label}: exit {code}, want {self.expect}")
        return self.out.read_bytes() if self.verify else None

    def check(self, data) -> list[str]:
        if self.verify is None:
            return []
        if self.first is None:
            self.first = data
        elif data != self.first:
            return [f"{self.label}: output differs from the first run of the same command"]
        try:
            meta, rows = parse_table(data, self.fmt)
            return [f"{self.label}: {p}" for p in self.verify(meta, rows)]
        except (ValueError, KeyError, IndexError) as exc:
            return [f"{self.label}: table does not parse: {exc}"]


def _verify_protocol_quasistatic(meta, rows):
    problems = _close("-Q", float(meta["total_minus_Q"]), -LN2, 1e-12)
    if meta["purified"] != "True" or rows[-1]["step"] != "total":
        problems.append("ledger not purified or total row missing")
    return problems


def _verify_protocol_master(minus_q, meta, rows):
    return _close("-Q", meta["total_minus_Q"], minus_q, 1e-4)


def _verify_witness(meta, rows):
    problems = _close("witness", rows[0]["witness"], -LN2, 1e-12)
    if meta["verdict"] != "entanglement certified":
        problems.append(f"verdict {meta['verdict']!r}")
    return problems


def _verify_fig1(reference: RateReference, meta, rows):
    x = np.array([r["gamma_tau"] for r in rows])
    if x.shape != CURVE_GRID.shape or not np.allclose(x, CURVE_GRID, rtol=1e-12, atol=0.0):
        return ["wrong gamma_tau grid"]
    worst = float(np.abs(np.array([r["minus_Q"] for r in rows]) - reference.curve(PAIRS[0])).max())
    problems = [] if worst <= 1e-4 else [f"max |-Q - reference| = {worst:.3e} > 1e-4"]
    return problems + _close("crossing", float(meta["zero_crossing_gamma_tau"]),
                             reference.crossing(), 0.01)


def _verify_invariants(meta, rows):
    return [] if meta["all_passed"] is True else ["invariants did not all pass"]


def _verify_fig2(meta, rows):
    problems = _close("Gamma*t_f", float(meta["gamma_tf"]), 9.3, 0.5)
    problems += _close("-Q(t_f)", float(meta["minus_Q_at_tf"]), -0.42, 0.05)
    times = np.array([r["gamma_t"] for r in rows]) / GAMMA
    want = ref.rate_equation_population(-5.0, 1.0, GAMMA, 10.0, times)
    worst = float(np.abs(np.array([r["n_master"] for r in rows]) - want).max())
    if worst > 1e-4:
        problems.append(f"max |n_master - reference| = {worst:.3e} > 1e-4")
    return problems


def cli_ops(rng: np.random.Generator, reference: RateReference, workdir: Path,
            in_process: bool) -> list[Op]:
    """Six valid commands, then three that must exit 2."""
    runner = run_command_in_process if in_process else run_command_subprocess
    master_minus_q = ref.rate_equation_minus_q(-5.0, 1.0, GAMMA, 10.0)
    valid = [
        (["protocol", "--engine", "quasistatic"], "csv", _verify_protocol_quasistatic),
        (["protocol", "--engine", "master-equation"], "json",
         partial(_verify_protocol_master, master_minus_q)),
        (["witness"], "csv", _verify_witness),
        (["fig1", "--points", "50"], "csv", partial(_verify_fig1, reference)),
        (["invariants", "--samples", "200", "--seed", str(int(rng.integers(0, 2**31)))],
         "json", _verify_invariants),
        (["fig2", "--K", "50"], "csv", _verify_fig2),
    ]
    invalid = [
        ["protocol", "--engine", "master-equation", "--gamma", "nan"],
        ["protocol", "--p", "1.5"],
        # exits 1 with an uncaught OverflowError until inputs are validated
        ["protocol", "--engine", "master-equation", "--tau", "inf"],
    ]
    commands = [Command(runner, argv, 0, workdir / f"valid{i}.{fmt}", fmt, verify)
                for i, (argv, fmt, verify) in enumerate(valid)]
    commands += [Command(runner, argv, 2, workdir / f"invalid{i}.csv")
                 for i, argv in enumerate(invalid)]
    return [Op("main" if c.expect == 0 else "aux", c.call, c.check) for c in commands]


# the calibration kernel (calibrate.py) that does the same kind of work
KERNEL = {"ledger": "small_linalg", "sweep": "float_loop", "bath": "dense_eigh",
          "cli": "fresh_interpreter"}


def build(workload: str, seed: int, workdir: Path, in_process: bool) -> list[Op]:
    """The operations of one round of `workload`, with inputs drawn from `seed`."""
    rng = np.random.default_rng(seed)
    if workload == "ledger":
        return ledger_ops(rng)
    if workload == "sweep":
        return sweep_ops(rng, RateReference())
    if workload == "bath":
        return bath_ops()
    return cli_ops(rng, RateReference(), workdir, in_process)
