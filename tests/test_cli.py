import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fermicool
from fermicool.cli import main
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
        pytest.param(["protocol"], {"omega": math.nan}, "omega must be positive and finite",
                     id="config-omega-nan"),
        pytest.param(["witness", "--phi", "inf"], None, "phi must be finite",
                     id="witness-phi-inf"),
        pytest.param(["fig2", "--K", "50", "--gamma", "nan"], None, "gamma must be finite",
                     id="fig2-gamma-nan"),
        # config values of the wrong type
        pytest.param(["witness"], {"sequence": [{"duration": 1.0}]}, 'string "op"',
                     id="witness-op-missing"),
        pytest.param(["witness"], {"sequence": [{"op": "rotate", "duration": "1"}]},
                     "duration must be a number", id="witness-duration-str"),
        pytest.param(["fig1"], {"points": 2.5}, "config key 'points'", id="fig1-points-float"),
        pytest.param(["fig2"], {"K": 50.5}, "config key 'K'", id="fig2-K-float"),
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
        # counts one past the cap, which would run for minutes
        pytest.param(["fig1", "--points", "100001"], None, "points must be at most 100000",
                     id="fig1-points-cap"),
        pytest.param(["invariants", "--samples", "100001"], None,
                     "samples must be at most 100000", id="invariants-samples-cap"),
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

    @pytest.mark.parametrize("flag,value,message", [
        pytest.param("gamma", "nan", "gamma must be positive and finite", id="nan"),
        pytest.param("gamma", "inf", "gamma must be positive and finite", id="inf"),
        pytest.param("gamma", "-0.02", "gamma must be positive and finite", id="-0.02"),
        pytest.param("eps1", "nan", "eps1 must be finite", id="eps1-nan"),
        pytest.param("dt", "nan", "dt must be finite", id="dt-nan"),
        pytest.param("n0", "2", "n0=2.0 outside [0, 1]", id="n0-2"),
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

    def test_separable_state_not_certified(self, tmp_path):
        out = tmp_path / "witness.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"diagonal": [0.5, 0.5], "sequence": []}))
        assert main(["witness", "--config", str(cfg), "--out", str(out)]) == 0
        meta, rows = read_csv(out)
        assert meta["verdict"] == "not certified"
        assert float(rows[0]["witness"]) >= 0.0

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

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["invariants", "--samples", "10", "--seed", "3", "--out", str(a)])
        main(["invariants", "--samples", "10", "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


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
