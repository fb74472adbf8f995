"""List the lines of src/fermicool/*.py that a pytest run never executes.

    python3 tools/src_coverage.py [PYTEST_ARGS...]

Runs pytest in this interpreter (with PYTEST_ARGS, by default the tier-1
suite under tests/) under a `sys.settrace` tracer that records the lines
run by frames whose code lives in src/fermicool; `fermicool` is imported
from the `src/` of the checkout this script sits in.  It then prints, per
file, each executable line that never ran with its source text.  A line is
executable when some code object compiled from the file, nested ones
included, lists it in `co_lines`.  No coverage package is needed.

Only this process is traced.  The CLI subprocesses that some tests start
(`python -m fermicool.cli`, fresh-interpreter imports) are not, so a line
that only they reach is listed as never run.

The exit status is pytest's.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fermicool"
_PREFIX = str(SRC) + os.sep

# file name -> line numbers seen run
_ran: dict[str, set[int]] = {}


def _local(frame, event, arg):
    if event == "line":
        _ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(_PREFIX):
        return None
    # the call event stands for the def line, which co_lines lists (RESUME)
    _ran.setdefault(filename, set()).add(frame.f_lineno)
    return _local


def executable_lines(path: Path) -> set[int]:
    """Every line that a code object compiled from path lists in co_lines."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        status = pytest.main(argv or [str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print()
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        executable = executable_lines(path)
        missed = sorted(executable - _ran.get(str(path), set()))
        print(f"{path.name}: {len(missed)} of {len(executable)} executable lines never ran")
        for line in missed:
            print(f"  {line:>4}  {source[line - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
