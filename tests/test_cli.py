import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import fermicool
from fermicool import cli, master_eq
from fermicool.cli import build_parser, main, write_table
from fermicool.master_eq import NoCrossingError
from fermicool.protocol import ProtocolConfig, run_purification

LN2 = math.log(2.0)


def read_csv(path):
    meta = {}
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition(" = ")
            meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, next(csv.reader([line])))))
    return meta, rows


class TestWriteTable:
    """The exact bytes of both table formats, for a numpy float, a bool, a str and an int."""

    META = {"seed": 7, "experiment": "demo", "passed": True, "third": np.float64(1 / 3)}
    COLUMNS = ["name", "x", "k", "ok"]
    ROWS = [("a", np.float64(0.1), 2, True), ("b", 1e-17, -3, False)]

    def test_csv_bytes(self, tmp_path):
        write_table(tmp_path / "t.csv", "csv", self.META, self.COLUMNS, self.ROWS)
        assert (tmp_path / "t.csv").read_text(encoding="utf-8") == (
            "# experiment = demo\n"
            "# passed = True\n"
            "# seed = 7\n"
            "# third = 0.3333333333333333\n"
            "name,x,k,ok\n"
            "a,0.1,2,True\n"
            "b,1e-17,-3,False\n"
        )

    def test_json_bytes(self, tmp_path):
        write_table(tmp_path / "t.json", "json", self.META, self.COLUMNS, self.ROWS)
        assert (tmp_path / "t.json").read_text(encoding="utf-8") == """\
{
  "meta": {
    "experiment": "demo",
    "passed": true,
    "seed": 7,
    "third": 0.3333333333333333
  },
  "rows": [
    {
      "k": 2,
      "name": "a",
      "ok": true,
      "x": 0.1
    },
    {
      "k": -3,
      "name": "b",
      "ok": false,
      "x": 1e-17
    }
  ]
}
"""


# the kind of value each config key with a None default takes besides null
_NULLABLE = {"dt": float, "step2_target": float, "diagonal": list}
_WRONG_VALUES = {"str": "0.5", "bool": True, "null": None, "list": [0.5], "dict": {"x": 0.5},
                 "int-401-digits": 10**400, "float": 2.5}
_RIGHT_VALUES = {float: "float", int: "int-401-digits", str: "str", list: "list"}


def _wrong_type_cases():
    """Every config key of every subcommand, with each value not of its default's kind."""
    for command, (_, _, defaults, _) in cli._COMMANDS.items():
        for key, default in defaults.items():
            kind = _NULLABLE[key] if default is None else type(default)
            for name, value in _WRONG_VALUES.items():
                if name != _RIGHT_VALUES[kind] and not (name == "null" and default is None):
                    yield pytest.param(command, key, value, id=f"{command}-{key}-{name}")


class TestProtocolCommand:
    def test_ideal_run_outputs_ledger(self, tmp_path):
        out = tmp_path / "ledger.csv"
        assert main(["protocol", "--out", str(out)]) == 0
        meta, rows = read_csv(out)
        assert float(meta["total_minus_Q"]) == pytest.approx(-LN2, abs=1e-12)
        assert meta["purified"] == "True"
        assert meta["memory_restored"] == "True"
        labels = [r["step"] for r in rows]
        assert labels == ["initial", "rotate", "relax", "swap", "total"]
        assert float(rows[-1]["Q"]) == pytest.approx(LN2, abs=1e-12)

    def test_json_round_trip_precision(self, tmp_path):
        out = tmp_path / "ledger.json"
        assert main(["protocol", "--out", str(out), "--format", "json"]) == 0
        doc = json.loads(out.read_text())
        expected = run_purification(ProtocolConfig()).total_minus_q
        assert doc["meta"]["total_minus_Q"] == expected

    def test_csv_round_trip_precision(self, tmp_path):
        out = tmp_path / "ledger.csv"
        main(["protocol", "--out", str(out)])
        meta, _ = read_csv(out)
        # repr formatting survives a parse exactly, bit for bit
        expected = run_purification(ProtocolConfig()).total_minus_q
        assert float(meta["total_minus_Q"]) == expected

    def test_quasistatic_csv_bytes(self, tmp_path):
        # the rotate and swap rows carry rounding residues (4.57e-31, 8.2e-15)
        # that change if the entropies are evaluated differently
        out = tmp_path / "ledger.csv"
        assert main(["protocol", "--engine", "quasistatic", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == (
            "# coherent_information = 0.6931471805599453\n"
            "# engine = quasistatic\n"
            "# experiment = protocol\n"
            "# interaction_residual = 0.0\n"
            "# memory_restored = True\n"
            "# purified = True\n"
            "# total_minus_Q = -0.6931471805599371\n"
            "step,n_M,n_S,S_M,S_S,S_MS,E,Q,W,sigma\n"
            "initial,0.5,0.5,0.6931471805599453,0.6931471805599453,0.0,0.0,0.0,0.0,0.0\n"
            "rotate,6.162975822039155e-33,0.9999999999999998,4.57087876694894e-31,"
            "8.225343381766315e-15,8.225343381766315e-15,0.0,0.0,0.0,8.225343381766315e-15\n"
            "relax,6.162975822039155e-33,0.5,4.57087876694894e-31,0.6931471805599453,"
            "0.6931471805599453,0.0,0.6931471805599371,-0.6931471805599371,"
            "8.215650382226158e-15\n"
            "swap,0.4999999999999998,8.287909573749737e-33,0.6931471805599453,"
            "6.122321094821702e-31,0.6931471805599453,0.0,0.6931471805599371,"
            "-0.6931471805599371,8.215650382226158e-15\n"
            "total,0.4999999999999998,8.287909573749737e-33,0.6931471805599453,"
            "6.122321094821702e-31,0.6931471805599453,0.0,0.6931471805599371,"
            "-0.6931471805599371,8.215650382226158e-15\n"
        )

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["protocol", "--out", str(a)])
        main(["protocol", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 1.0, "engine": "quasistatic"}))
        out = tmp_path / "out.csv"
        assert main(["protocol", "--config", str(cfg), "--out", str(out)]) == 0
        meta, _ = read_csv(out)
        assert float(meta["total_minus_Q"]) == 0.0
        # a flag overrides the config value
        assert main(["protocol", "--config", str(cfg), "--p", "0.5",
                     "--out", str(out)]) == 0
        meta, _ = read_csv(out)
        assert float(meta["total_minus_Q"]) == pytest.approx(-LN2, abs=1e-12)

    def test_null_for_none_default(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dt": None, "step2_target": None, "diagonal": None}))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["protocol", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["protocol", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pp": 0.5}))
        assert main(["protocol", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_invalid_parameter_exit_code(self, tmp_path, capsys):
        assert main(["protocol", "--p", "1.5", "--out", str(tmp_path / "x.csv")]) == 2
        assert "error" in capsys.readouterr().err

    def test_engine_failure_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"engine": "master-equation", "diagonal": [0.9, 0.95], "step2_target": 0.1}
        ))
        assert main(["protocol", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == 3
        assert "engine error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,config,message", [
        pytest.param(["protocol", "--engine", "master-equation", "--tau", "inf"], None,
                     "tau must be finite", id="tau-inf"),
        pytest.param(["protocol", "--engine", "master-equation", "--gamma", "nan"], None,
                     "gamma must be finite", id="gamma-nan"),
        pytest.param(["protocol", "--engine", "master-equation", "--eps2", "inf"], None,
                     "eps2 must be finite", id="eps2-inf"),
        pytest.param(["protocol", "--engine", "exact-bath", "--gamma", "nan"], None,
                     "gamma must be finite", id="exact-bath-gamma-nan"),
        pytest.param(["protocol", "--engine", "exact-bath", "--dt", "nan"], None,
                     "dt must be finite", id="exact-bath-dt-nan"),
        pytest.param(["protocol", "--phi", "nan"], None, "phi must be finite", id="phi-nan"),
        pytest.param(["protocol"], {"omega": math.nan}, "omega must be finite, got nan",
                     id="config-omega-nan"),
        pytest.param(["witness", "--phi", "inf"], None, "phi must be finite",
                     id="witness-phi-inf"),
        pytest.param(["witness"], {"sequence": [{"op": "relax", "target": math.nan}]},
                     "sequence[0] target must be a number in [0, 1], got nan",
                     id="witness-relax-target-nan"),
        pytest.param(["witness"], {"sequence": [{"op": "relax", "target": 0}, {"op": "bogus"}]},
                     "sequence[1] op must be rotate, relax or swap", id="witness-op-unknown"),
        pytest.param(["witness"], {"sequence": [{"op": "relax", "target": 1.5}]},
                     "sequence[0] target must be a number in [0, 1], got 1.5",
                     id="witness-relax-target-above-one"),
        pytest.param(["witness"], {"sequence": [{"op": "rotate", "duration": math.inf}]},
                     "sequence[0] duration must be finite, got inf",
                     id="witness-rotate-duration-inf"),
        pytest.param(["witness"], {"sequence": [{"op": "rotate", "durtion": 2.0},
                                                {"op": "relax", "target": 0.0}, {"op": "swap"}]},
                     "sequence[0] unknown keys for rotate: ['durtion']",
                     id="witness-rotate-key-misspelled"),
        pytest.param(["fig2", "--K", "50", "--gamma", "nan"], None, "gamma must be finite",
                     id="fig2-gamma-nan"),
        # config values of the wrong type
        pytest.param(["witness"], {"sequence": [{"duration": 1.0}]}, 'string "op"',
                     id="witness-op-missing"),
        pytest.param(["witness"], {"sequence": [{"op": "rotate", "duration": "1"}]},
                     "duration must be a number", id="witness-duration-str"),
        pytest.param(["fig1"], {"points": 2.5}, "points must be an integer, got 2.5",
                     id="fig1-points-float"),
        pytest.param(["protocol"], {"diagonal": [0.5]}, "diagonal must hold two populations",
                     id="protocol-diagonal-short"),
        pytest.param(["witness"], {"diagonal": [0.5, 0.5, 0.5]},
                     "diagonal must hold two populations", id="witness-diagonal-long"),
        pytest.param(["protocol"], {"diagonal": [0.5, True]},
                     "diagonal n_S must be a number in [0, 1], got True",
                     id="protocol-diagonal-bool"),
        pytest.param(["witness"], {"diagonal": [True, False]},
                     "diagonal n_M must be a number in [0, 1], got True",
                     id="witness-diagonal-bool"),
        pytest.param(["fig2"], {"K": 50.5}, "K must be an integer, got 50.5", id="fig2-K-float"),
        pytest.param(["protocol"], [0.5], "config file must contain a JSON object",
                     id="config-not-object"),
        # exact-bath runs beyond the memory or work budget, rejected before they start
        pytest.param(["fig2", "--K", "20000"], None, "K=20000", id="fig2-K-memory"),
        pytest.param(["fig2", "--K", "400", "--gamma-dt", "0.006"], None, "work budget",
                     id="fig2-gamma-dt-work"),
        pytest.param(["protocol", "--engine", "exact-bath", "--dt", "0.05"], None,
                     "work budget", id="exact-bath-dt-work"),
        # inputs that would certify nothing or cannot span a geometric grid
        pytest.param(["invariants", "--samples", "0"], None, "samples must be at least 1",
                     id="invariants-samples-0"),
        pytest.param(["invariants", "--samples", "-5"], None, "samples must be at least 1",
                     id="invariants-samples-negative"),
        pytest.param(["fig1"], {"gamma_tau_min": 0.0}, "gamma_tau_min must be positive",
                     id="fig1-gamma-tau-min-0"),
        pytest.param(["fig1"], {"gamma_tau_min": -1.0}, "gamma_tau_min must be positive",
                     id="fig1-gamma-tau-min-negative"),
        pytest.param(["fig1"], {"gamma_tau_max": -1.0}, "gamma_tau_max must be positive",
                     id="fig1-gamma-tau-max-negative"),
        # the quasistatic engine runs no sweep, but its finite-time parameters are checked
        pytest.param(["protocol", "--tau", "nan"], None, "tau must be finite",
                     id="quasistatic-tau-nan"),
        pytest.param(["protocol", "--gamma", "inf"], None, "gamma must be finite",
                     id="quasistatic-gamma-inf"),
        pytest.param(["protocol", "--dt", "nan"], None, "dt must be finite",
                     id="quasistatic-dt-nan"),
        pytest.param(["protocol", "--K", "1"], None, "K=1", id="quasistatic-K-1"),
        # finite ends whose span overflows, which would sweep through NaN energies
        pytest.param(["protocol", "--eps1=-1e308", "--eps2", "1e308"], None,
                     "eps2 - eps1 must be finite", id="quasistatic-eps-span-inf"),
        pytest.param(["protocol", "--engine", "master-equation", "--eps1=-1e308",
                      "--eps2", "1e308"], None, "eps2 - eps1 must be finite",
                     id="master-equation-eps-span-inf"),
        pytest.param(["fig1", "--eps1=-1e308", "--eps2", "1e308"], None,
                     "eps2 - eps1 must be finite", id="fig1-eps-span-inf"),
        pytest.param(["fig2", "--K", "50", "--eps1=-1e308", "--eps2", "1e308"], None,
                     "eps2 - eps1 must be finite", id="fig2-eps-span-inf"),
        # the exact bath's memory budget bounds K whichever engine runs
        pytest.param(["protocol", "--K", "20000"], None, "K=20000 needs 7 dense",
                     id="quasistatic-K-memory"),
        pytest.param(["protocol", "--engine", "master-equation", "--K", "20000"], None,
                     "K=20000 needs 7 dense", id="master-equation-K-memory"),
        pytest.param(["protocol", "--K", str(10**400)], None, f"K={10**400} needs 7 dense",
                     id="quasistatic-K-401-digits"),
        pytest.param(["protocol", "--engine", "master-equation", "--K", str(10**400)], None,
                     f"K={10**400} needs 7 dense", id="master-equation-K-401-digits"),
        # counts one past the cap, which would run for minutes
        pytest.param(["fig1", "--points", "100001"], None, "points must be at most 100000",
                     id="fig1-points-cap"),
        pytest.param(["invariants", "--samples", "100001"], None,
                     "samples must be at most 100000", id="invariants-samples-cap"),
        # numpy's own error for a negative seed names neither the seed nor its value
        pytest.param(["invariants", "--seed", "-1"], None, "seed must be nonnegative, got -1",
                     id="invariants-seed-negative"),
        # fig2's own inputs are reported under their own names
        pytest.param(["fig2", "--gamma-tau", "-1"], None, "gamma_tau must be positive, got -1.0",
                     id="fig2-gamma-tau-negative"),
        pytest.param(["fig2", "--gamma-dt", "0"], None, "gamma_dt must be positive, got 0.0",
                     id="fig2-gamma-dt-0"),
        pytest.param(["fig2", "--n0", "1.5"], None, "n0 must be a number in [0, 1], got 1.5",
                     id="fig2-n0-above-one"),
        # a start at or below the switch-off level would switch off at t = 0
        pytest.param(["fig1", "--n0", "0.3"], None,
                     "n0 must be above the switch-off threshold 0.5, got 0.3", id="fig1-n0-0.3"),
        pytest.param(["fig1", "--n0", "0.5"], None,
                     "n0 must be above the switch-off threshold 0.5, got 0.5", id="fig1-n0-0.5"),
        pytest.param(["fig2", "--n0", "0.4"], None,
                     "n0 must be above the switch-off threshold 0.5, got 0.4", id="fig2-n0-0.4"),
    ])
    def test_non_finite_parameter_exit_code(self, tmp_path, capsys, argv, config, message):
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv = argv + ["--config", str(tmp_path / "cfg.json")]
        start = time.perf_counter()
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 2
        # rejected before any work is done
        assert time.perf_counter() - start < 1.0
        assert message in capsys.readouterr().err

    # a 401-digit JSON integer, which no float can hold
    @pytest.mark.parametrize("argv,config,key", [
        pytest.param(["protocol"], {"tau": 10**400}, "tau", id="protocol-tau"),
        pytest.param(["fig1"], {"gamma_tau_max": 10**400}, "gamma_tau_max",
                     id="fig1-gamma-tau-max"),
        pytest.param(["fig2"], {"gamma_tau": 10**400}, "gamma_tau", id="fig2-gamma-tau"),
        pytest.param(["witness"], {"phi": 10**400}, "phi", id="witness-phi"),
        pytest.param(["witness"], {"sequence": [{"op": "rotate", "duration": 10**400}]},
                     "sequence[0] duration", id="witness-sequence-duration"),
    ])
    def test_integer_too_large_for_a_float_exit_code(self, tmp_path, capsys, argv, config, key):
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert main([*argv, "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,value", list(_wrong_type_cases()))
    def test_wrong_type_config_value_exit_code(self, tmp_path, capsys, command, key, value):
        # each value's own check rejects a wrong type, naming its key, before any work
        (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
        start = time.perf_counter()
        assert main([command, "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert time.perf_counter() - start < 1.0
        assert re.search(rf"\b{key}\b", capsys.readouterr().err)

    def test_missing_config_file(self, tmp_path):
        assert main(["protocol", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "x.csv")]) == 2


class TestFig1Command:
    def test_small_grid(self, tmp_path):
        out = tmp_path / "fig1.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"points": 8, "gamma_tau_min": 1.0, "gamma_tau_max": 8.0}
        ))
        assert main(["fig1", "--config", str(cfg), "--out", str(out)]) == 0
        meta, rows = read_csv(out)
        assert len(rows) == 8
        values = [float(r["minus_Q"]) for r in rows]
        assert values[0] > 0.0 > values[-1]
        assert float(meta["zero_crossing_gamma_tau"]) == pytest.approx(2.574, abs=0.05)

    def test_json_format(self, tmp_path):
        out = tmp_path / "fig1.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"points": 3, "gamma_tau_max": 10.0}))
        assert main(["fig1", "--config", str(cfg), "--out", str(out),
                     "--format", "json"]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["rows"]) == 3
        assert set(doc["rows"][0]) == {"gamma_tau", "minus_Q"}

    def test_every_point_failed_exit_code(self, tmp_path, capsys):
        # f(-0.5) > 1/2: no sweep ending at eps2 = -0.5 brings the population to 1/2
        assert main(["fig1", "--eps2", "-0.5", "--points", "3",
                     "--out", str(tmp_path / "x.csv")]) == 3
        assert "every grid point failed" in capsys.readouterr().err

    def test_failed_point_skipped(self, tmp_path, monkeypatch):
        integrate = master_eq._scan

        def fail_at_gamma_tau_2(schedule, gamma, **kwargs):
            if schedule.tau * gamma == pytest.approx(2.0):
                raise NoCrossingError("no crossing")
            return integrate(schedule, gamma, **kwargs)

        monkeypatch.setattr(master_eq, "_scan", fail_at_gamma_tau_2)
        out = tmp_path / "fig1.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"points": 3, "gamma_tau_min": 1.0, "gamma_tau_max": 4.0}))
        assert main(["fig1", "--config", str(cfg), "--out", str(out)]) == 0
        meta, rows = read_csv(out)
        assert [float(r["gamma_tau"]) for r in rows] == pytest.approx([1.0, 4.0])
        assert meta["skipped_0"] == "gamma_tau=2: no crossing"
        assert "skipped_1" not in meta

    def test_point_over_the_step_budget_skipped(self, tmp_path):
        # at the default dt a sweep needs 1000 + 2e4/(Gamma*tau) steps, more than
        # the 1e8 budget below Gamma*tau = 2e-4: the grid 1e-6, 1e-4, 1e-2, 1
        # loses its first two points and keeps the rest
        out = tmp_path / "fig1.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"points": 4, "gamma_tau_min": 1e-6, "gamma_tau_max": 1.0}))
        start = time.perf_counter()
        assert main(["fig1", "--config", str(cfg), "--out", str(out)]) == 0
        assert time.perf_counter() - start < 1.0
        meta, rows = read_csv(out)
        assert [float(r["gamma_tau"]) for r in rows] == pytest.approx([1e-2, 1.0])
        assert meta["skipped_0"].startswith("gamma_tau=1e-06: max_time/dt = ")
        assert meta["skipped_1"].startswith("gamma_tau=0.0001: max_time/dt = ")
        assert "skipped_2" not in meta

    @pytest.mark.parametrize("flag,value,message", [
        pytest.param("gamma", "nan", "gamma must be finite, got nan", id="nan"),
        pytest.param("gamma", "inf", "gamma must be finite, got inf", id="inf"),
        pytest.param("gamma", "-0.02", "gamma must be positive, got -0.02", id="-0.02"),
        pytest.param("eps1", "nan", "eps1 must be finite", id="eps1-nan"),
        pytest.param("dt", "nan", "dt must be finite", id="dt-nan"),
        pytest.param("n0", "2", "n0 must be a number in [0, 1], got 2.0", id="n0-2"),
    ])
    def test_invalid_gamma_exit_code(self, tmp_path, capsys, flag, value, message):
        # a parameter error is reported once, not once per grid point
        assert main(["fig1", f"--{flag}", value, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "gamma_tau=" not in err


class TestFig2Command:
    def test_small_reservoir_run(self, tmp_path):
        out = tmp_path / "fig2.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"K": 40, "gamma": 0.05, "gamma_dt": 0.1}))
        assert main(["fig2", "--config", str(cfg), "--out", str(out)]) == 0
        meta, rows = read_csv(out)
        assert float(meta["gamma_tf"]) > 0.0
        assert float(meta["max_population_deviation"]) < 0.1
        assert {"gamma_t", "n_exact", "n_master", "minus_Q_exact",
                "minus_Q_master"} <= set(rows[0])


class TestWitnessCommand:
    def test_entangled_default(self, tmp_path):
        out = tmp_path / "witness.csv"
        assert main(["witness", "--out", str(out)]) == 0
        meta, rows = read_csv(out)
        assert meta["verdict"] == "entanglement certified"
        assert float(rows[0]["witness"]) == pytest.approx(-LN2, abs=1e-12)

    def test_default_csv_bytes(self, tmp_path):
        out = tmp_path / "witness.csv"
        assert main(["witness", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == (
            "# experiment = witness\n"
            "# verdict = entanglement certified\n"
            "n_S0,n_M0,n_S1,n_M1,beta_Q,witness\n"
            "0.5,0.5,0.9999999999999998,6.162975822039155e-33,0.0,-0.6931471805599371\n"
        )

    def test_separable_state_not_certified(self, tmp_path):
        out = tmp_path / "witness.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"diagonal": [0.5, 0.5], "sequence": []}))
        assert main(["witness", "--config", str(cfg), "--out", str(out)]) == 0
        meta, rows = read_csv(out)
        assert meta["verdict"] == "not certified"
        assert float(rows[0]["witness"]) >= 0.0

    def test_unwritable_out_exit_code(self, tmp_path, capsys):
        # the table is written inside main's error handling
        assert main(["witness", "--out", str(tmp_path / "missing" / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_custom_sequence(self, tmp_path):
        out = tmp_path / "witness.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sequence": [
            {"op": "rotate"}, {"op": "relax", "target": 0.5}, {"op": "swap"},
        ]}))
        assert main(["witness", "--config", str(cfg), "--out", str(out)]) == 0
        meta, _ = read_csv(out)
        assert meta["verdict"] == "entanglement certified"


class TestInvariantsCommand:
    def test_battery_passes(self, tmp_path):
        out = tmp_path / "inv.csv"
        assert main(["invariants", "--samples", "25", "--seed", "7",
                     "--out", str(out)]) == 0
        meta, rows = read_csv(out)
        assert meta["all_passed"] == "True"
        assert all(r["passed"] == "1" for r in rows)
        names = {r["check"] for r in rows}
        assert "separable_run_heat_bound_violation" in names
        assert "evolution_spectrum_drift" in names

    def test_failed_battery_written_exit_code(self, tmp_path, monkeypatch):
        evolve_step = cli.evolve_step

        def drifting(C, H, dt):
            return evolve_step(C, H, dt) + 1e-6 * np.eye(len(C))

        monkeypatch.setattr(cli, "evolve_step", drifting)
        out = tmp_path / "inv.csv"
        assert main(["invariants", "--samples", "3", "--out", str(out)]) == 3
        meta, rows = read_csv(out)
        assert meta["all_passed"] == "False"
        assert {r["check"]: r["passed"] for r in rows}["evolution_trace_drift"] == "0"

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["invariants", "--samples", "10", "--seed", "3", "--out", str(a)])
        main(["invariants", "--samples", "10", "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


_ENGINES = ("quasistatic", "master-equation", "exact-bath")

# per subcommand: (option strings, dest, type, choices) of each action after
# -h, --config, --out and --format
_SUBCOMMAND_FLAGS = {
    "protocol": [
        (["--engine"], "engine", None, _ENGINES), (["--gamma"], "gamma", float, None),
        (["--eps1"], "eps1", float, None), (["--eps2"], "eps2", float, None),
        (["--tau"], "tau", float, None), (["--K"], "K", int, None),
        (["--dt"], "dt", float, None), (["--p"], "p", float, None),
        (["--phi"], "phi", float, None),
    ],
    "fig1": [
        (["--gamma"], "gamma", float, None), (["--eps1"], "eps1", float, None),
        (["--eps2"], "eps2", float, None), (["--dt"], "dt", float, None),
        (["--n0"], "n0", float, None), (["--points"], "points", int, None),
    ],
    "fig2": [
        (["--gamma"], "gamma", float, None), (["--eps1"], "eps1", float, None),
        (["--eps2"], "eps2", float, None), (["--K"], "K", int, None),
        (["--n0"], "n0", float, None), (["--gamma-tau"], "gamma_tau", float, None),
        (["--gamma-dt"], "gamma_dt", float, None),
    ],
    "witness": [(["--p"], "p", float, None), (["--phi"], "phi", float, None)],
    "invariants": [(["--seed"], "seed", int, None), (["--samples"], "samples", int, None)],
}


class TestParser:
    """The option strings, dests, types, choices and defaults of each subcommand."""

    @staticmethod
    def _subparsers():
        parser = build_parser()
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices

    def test_subcommands(self):
        assert list(self._subparsers()) == list(_SUBCOMMAND_FLAGS)

    @pytest.mark.parametrize("name", list(_SUBCOMMAND_FLAGS))
    def test_options(self, name):
        actions = self._subparsers()[name]._actions
        got = [(a.option_strings, a.dest, a.type, a.choices) for a in actions]
        assert got == [
            (["-h", "--help"], "help", None, None),
            (["--config"], "config", Path, None),
            (["--out"], "out", Path, None),
            (["--format"], "format", None, ("csv", "json")),
            *_SUBCOMMAND_FLAGS[name],
        ]
        defaults = {a.dest: a.default for a in actions[1:]}
        assert defaults == dict({k: None for _, k, _, _ in _SUBCOMMAND_FLAGS[name]},
                                config=None, out=Path(f"{name}.csv"), format="csv")


def _modules_after_fresh_import(module: str) -> set[str]:
    """Names in sys.modules once a fresh interpreter has imported `module`."""
    src = str(Path(fermicool.__file__).resolve().parents[1])
    code = f"import sys, {module}\nprint('\\n'.join(sys.modules))\n"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    return set(out.split())


class TestStartup:
    def test_import_skips_slow_scipy_subpackages(self):
        # scipy.integrate and scipy.signal each take a large share of the
        # start-up time of every CLI call; the package needs neither, and
        # its eigensolvers are numpy's and its own, not scipy.linalg's
        loaded = _modules_after_fresh_import("fermicool")
        assert sorted(m for m in ("scipy.integrate", "scipy.signal", "scipy.linalg")
                      if m in loaded) == []

    @pytest.mark.parametrize("module", ["fermicool", "fermicool.cli"])
    def test_import_loads_no_scipy(self, module):
        # scipy.special alone costs more start-up time than any command's work
        loaded = _modules_after_fresh_import(module)
        assert sorted(m for m in loaded if m.split(".")[0] == "scipy") == []
