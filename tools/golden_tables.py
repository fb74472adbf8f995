"""Write the golden CLI tables into a directory, for a byte-for-byte diff.

    python3 tools/golden_tables.py OUTDIR

Runs ten CLI configurations through `fermicool.cli.main` in-process, each
in csv and json (20 tables), importing fermicool from the `src/` of the
checkout this script sits in.  Run it in two checkouts and compare with
`diff -r OUT_A OUT_B`; a refactor that keeps its numbers leaves no
difference.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fermicool.cli import main  # noqa: E402

# the sequence of tests/test_cli.py::TestWitnessCommand::test_custom_sequence
CUSTOM_SEQUENCE = {"sequence": [
    {"op": "rotate"}, {"op": "relax", "target": 0.5}, {"op": "swap"},
]}

# name -> (argv, config or None)
TABLES = {
    "protocol_quasistatic": (["protocol", "--engine", "quasistatic"], None),
    "protocol_master-equation": (["protocol", "--engine", "master-equation"], None),
    "protocol_exact-bath": (["protocol", "--engine", "exact-bath"], None),
    "protocol_exact-bath_K50": (["protocol", "--engine", "exact-bath", "--K", "50"], None),
    "fig1": (["fig1"], None),
    "fig2": (["fig2"], None),
    "fig2_K50": (["fig2", "--K", "50"], None),
    "witness": (["witness"], None),
    "witness_custom_sequence": (["witness"], CUSTOM_SEQUENCE),
    "invariants": (["invariants", "--samples", "200", "--seed", "0"], None),
}


def write_tables(outdir: Path) -> list[str]:
    """Write every table; return the names of those whose command did not exit 0."""
    outdir.mkdir(parents=True, exist_ok=True)
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, (argv, config) in TABLES.items():
            if config is not None:
                cfg = Path(tmp) / f"{name}.json"
                cfg.write_text(json.dumps(config), encoding="utf-8")
                argv = argv + ["--config", str(cfg)]
            for fmt in ("csv", "json"):
                out = outdir / f"{name}.{fmt}"
                if main(argv + ["--format", fmt, "--out", str(out)]) != 0:
                    failed.append(out.name)
    return failed


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    failed = write_tables(Path(sys.argv[1]))
    if failed:
        sys.exit(f"commands that did not exit 0: {', '.join(failed)}")
