"""The tools/ scripts: the line counter classifies every line of src/ exactly once,
the ledger digest repeats, the golden tables and both digests match their committed
manifest, the line tracer reports what a test run missed, the benchmark pair summary
reads canned perfbench results and the table diff reports each changed cell."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
MANIFEST = Path(__file__).resolve().parent / "golden_manifest.json"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _src_lines():
    return _tool("src_lines")


def test_kinds_sum_to_each_file_line_count(capsys):
    src_lines = _src_lines()
    paths = sorted(src_lines.SRC.glob("*.py"))
    assert paths
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert sum(src_lines.count_lines(text).values()) == text.count("\n"), path.name
    assert src_lines.main() == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("total")


def test_classification_rule():
    text = (
        '"""Module docstring,\n'
        "\n"
        'two lines."""\n'
        "\n"
        "# a comment\n"
        "def f():  # code with a trailing comment\n"
        '    """One line."""\n'
        "    return 1\n"
    )
    assert _src_lines().count_lines(text) == {
        "code": 2, "docstring": 4, "comment": 1, "blank": 1,
    }


def test_ledger_digest_repeats():
    spec = importlib.util.spec_from_file_location("ledger_digest", TOOLS / "ledger_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    first = module.digest()
    assert len(first) == 64
    assert module.digest() == first


def test_rate_digest_repeats():
    spec = importlib.util.spec_from_file_location("rate_digest", TOOLS / "rate_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    first = module.digest()
    assert len(first) == 64
    assert module.digest() == first


def test_golden_tables_match_manifest(tmp_path):
    # a change that moves a number on purpose regenerates tests/golden_manifest.json
    assert _tool("golden_tables").write_tables(tmp_path) == []
    fresh = json.loads((tmp_path / "MANIFEST.json").read_text(encoding="utf-8"))
    committed = json.loads(MANIFEST.read_text(encoding="utf-8"))
    problems = []
    if fresh["fingerprint"] != committed["fingerprint"]:
        problems.append(f"manifest made on {committed['fingerprint']}, "
                        f"this run on {fresh['fingerprint']}")
    names = sorted(fresh["tables"].keys() | committed["tables"].keys())
    moved = [n for n in names if fresh["tables"].get(n) != committed["tables"].get(n)]
    if moved:
        problems.append(f"tables that moved: {', '.join(moved)}")
    for key in ("ledger_digest", "rate_digest"):
        if fresh[key] != committed[key]:
            problems.append(f"{key.replace('_', ' ')} {fresh[key]}, committed {committed[key]}")
    assert not problems, "; ".join(problems)


def test_src_coverage_reports_lines_never_run(tmp_path):
    (tmp_path / "test_one.py").write_text(
        "from fermicool.gaussian import binary_entropy\n\n\n"
        "def test_half():\n    assert binary_entropy(0.5) > 0.0\n"
    )
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "src_coverage.py"), "-q", "-p", "no:cacheprovider",
         "-p", "no:hypothesispytest", "test_one.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = proc.stdout.split("gaussian.py:", 1)[1].split(".py:", 1)[0]
    assert 'raise ValueError(f"probability {x} outside [0, 1]")' in report
    assert "return -_xlogx(x) - _xlogx(1.0 - x)" not in report


def test_bench_pairs_summary():
    bench_pairs = _tool("bench_pairs")

    def result(op_s, rss, setup_s, failed=0, correct=True):
        # a perfbench run's output: text lines, then its JSON result
        return bench_pairs.last_json("metric op_s = ...\n" + json.dumps({
            "correct": correct, "attempted": 40, "failed": failed,
            "metrics": {"op_s": {"value": op_s, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"},
                        "setup_s": {"value": setup_s, "unit": "s"}},
        }) + "\n")

    metrics = [{"name": "op_s", "unit": "s", "better": "lower", "bound": 0.25},
               {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
               {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    parent_op = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    change_op = [0.90, 0.91, 0.89, 0.92, 0.90, 0.88, 0.91, 0.90, 1.05, 0.90]
    pairs = [(result(p, 100.0, 0.2), result(c, 112.0 if i < 5 else 100.0, 0.22,
                                            failed=i % 2, correct=i != 3))
             for i, (p, c) in enumerate(zip(parent_op, change_op))]
    header, op_line, rss_line, setup_line, parent, change = bench_pairs.summarize(metrics, pairs)
    assert header.split()[:2] == ["metric", "unit"]
    # the change wins 9 of 10 and its median, 0.9, is 0.1 below the parent's, past the
    # parent's quartile spread of 1.01 - 0.9925
    assert op_line.split() == ["op_s", "s", "1", "[0.9925,", "1.01]", "0.9", "[0.9,", "0.91]",
                               "9/10", "gain"]
    # a median of 106 against 100 is past the 5% bound; a tie is no win
    assert rss_line.split()[-2:] == ["0/10", "worse"]
    # 10% worse against a 25% bound
    assert setup_line.split()[-3:] == ["0/10", "within", "bound"]
    assert parent == "parent: 400 operations attempted, 0 failed; 0 of 10 runs failed a check"
    assert change == "change: 400 operations attempted, 5 failed; 1 of 10 runs failed a check"


def test_bench_pairs_gain_needs_ten_pairs():
    bench_pairs = _tool("bench_pairs")

    def result(op_s):
        return {"correct": True, "attempted": 40, "failed": 0,
                "metrics": {"op_s": {"value": op_s, "unit": "s"}}}

    metrics = [{"name": "op_s", "unit": "s", "better": "lower", "bound": 0.25}]
    # 4 of 4 wins by a margin far past the parent's spread is still no gain from 4 pairs
    pairs = [(result(p), result(0.8 * p)) for p in (1.00, 1.02, 0.98, 1.01)]
    _, op_line, _, _ = bench_pairs.summarize(metrics, pairs)
    assert op_line.split()[-7:] == ["4/4", "short", "of", "pairs", "(4", "<", "10)"]


def test_bench_pairs_ratios():
    bench_pairs = _tool("bench_pairs")

    def result(op_s, rss):
        return {"metrics": {"op_s": {"value": op_s, "unit": "s"},
                            "peak_rss_mb": {"value": rss, "unit": "MB"}}}

    metrics = [{"name": "op_s", "unit": "s", "better": "lower", "bound": 0.25},
               {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}]
    # per-pair ratios 0.9, 0.95, 1.1, 0.8 and 1.0: their median, 0.95, is not the
    # ratio of the medians, 0.8/1.0
    parent_op = [1.00, 1.20, 0.50, 1.00, 0.80]
    change_op = [0.90, 1.14, 0.55, 0.80, 0.80]
    pairs = [(result(p, 100.0), result(c, 90.0)) for p, c in zip(parent_op, change_op)]
    op_line, rss_line = bench_pairs.ratios(metrics, pairs)
    assert op_line.split() == ["op_s", "change/parent", "0.9500", "(-5.0%)", "of", "parent",
                               "median", "1", "s"]
    assert rss_line.split() == ["peak_rss_mb", "change/parent", "0.9000", "(-10.0%)", "of",
                                "parent", "median", "100", "MB"]


def _write_tables(directory, minus_q):
    # two tables as write_table writes them: csv with "# key = value" lines, json with meta/rows
    directory.mkdir()
    (directory / "fig1.csv").write_text(
        "# eps1 = -5.0\n# experiment = fig1\ngamma_tau,minus_Q\n"
        f"0.1,0.47122435242780025\n1.0,{minus_q!r}\n", encoding="utf-8")
    (directory / "witness.json").write_text(json.dumps({
        "meta": {"experiment": "witness", "verdict": "entanglement certified"},
        "rows": [{"n_S0": 0.0, "witness": -0.6931471805599453}],
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    (directory / "MANIFEST.json").write_text("{}\n", encoding="utf-8")


def test_table_diff_reports_each_change(tmp_path, capsys):
    table_diff = _tool("table_diff")
    old, same, new = tmp_path / "old", tmp_path / "same", tmp_path / "new"
    _write_tables(old, 0.25)
    _write_tables(same, 0.25)
    _write_tables(new, 0.2501)
    assert table_diff.main([str(old), str(same)]) == 0
    assert capsys.readouterr().out.splitlines() == ["fig1.csv: 0 cells differ",
                                                    "witness.json: 0 cells differ"]
    # one moved cell, a text cell and a sign of zero in another table, a table on one side
    doc = json.loads((new / "witness.json").read_text(encoding="utf-8"))
    doc["meta"]["verdict"] = "not certified"
    doc["rows"][0]["n_S0"] = -0.0
    (new / "witness.json").write_text(json.dumps(doc), encoding="utf-8")
    (new / "fig2.csv").write_text("t,n_S\n0.0,1.0\n", encoding="utf-8")
    assert table_diff.main([str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "fig1.csv: 1 cells differ; max abs 1.000e-04 at row 1 minus_Q; "
        "max rel 4.000e-04 at row 1 minus_Q",
        "witness.json: 2 cells differ",
        "  witness.json meta verdict: entanglement certified -> not certified",
        "  witness.json row 0 n_S0: 0.0 -> -0.0",
        "only in new: fig2.csv",
    ]
