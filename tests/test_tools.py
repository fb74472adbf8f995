"""The tools/ scripts: the line counter classifies every line of src/ exactly once,
the ledger digest repeats, the golden tables match their committed manifest and
the line tracer reports what a test run missed."""

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
    if fresh["ledger_digest"] != committed["ledger_digest"]:
        problems.append(f"ledger digest {fresh['ledger_digest']}, "
                        f"committed {committed['ledger_digest']}")
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
