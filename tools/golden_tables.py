"""Write the golden CLI tables and their manifest into a directory.

    python3 tools/golden_tables.py OUTDIR

Runs fifteen CLI configurations through `fermicool.cli.main` in-process, each
in csv and json (30 tables), importing fermicool from the `src/` of the
checkout this script sits in.  Run it in two checkouts and compare with
`diff -r OUT_A OUT_B`; a refactor that keeps its numbers leaves no
difference.

OUTDIR/MANIFEST.json holds the SHA-256 of each table, the digests of
`tools/ledger_digest.py` and `tools/rate_digest.py` and the fingerprint of
what the exact-bath bytes depend on besides the source: the numpy version,
its BLAS and LAPACK (name and version, from `np.show_config(mode="dicts")`,
numpy >= 1.26) and the machine.  tests/golden_manifest.json is its committed
copy, which tests/test_tools.py compares with a fresh one.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from fermicool.cli import main  # noqa: E402
from ledger_digest import digest  # noqa: E402
from rate_digest import digest as rate_digest  # noqa: E402

# the sequence of tests/test_cli.py::TestWitnessCommand::test_custom_sequence
CUSTOM_SEQUENCE = {"sequence": [
    {"op": "rotate"}, {"op": "relax", "target": 0.5}, {"op": "swap"},
]}
# fast sweeps, almost all hold: at Gamma*tau = 0.001 the rate equation holds
# for about 1.15 million steps before n_S reaches 1/2
FAST_FIG1 = {"gamma_tau_min": 0.001, "gamma_tau_max": 0.1, "points": 3}

# name -> (argv, config or None)
TABLES = {
    "protocol_quasistatic": (["protocol", "--engine", "quasistatic"], None),
    "protocol_master-equation": (["protocol", "--engine", "master-equation"], None),
    # Gamma*tau = 0.01: a 1,000-step sweep, then about 115,000 held steps
    "protocol_master-equation_fast": (["protocol", "--engine", "master-equation",
                                       "--tau", "0.5"], None),
    "protocol_exact-bath": (["protocol", "--engine", "exact-bath"], None),
    "protocol_exact-bath_K50": (["protocol", "--engine", "exact-bath", "--K", "50"], None),
    "fig1": (["fig1"], None),
    "fig1_fast": (["fig1"], FAST_FIG1),
    "fig2": (["fig2"], None),
    "fig2_K50": (["fig2", "--K", "50"], None),
    # the hold phase: the sweep ends at Gamma*tau = 1, the crossing comes at Gamma*t = 1.908
    "fig2_hold": (["fig2", "--gamma-tau", "1"], None),
    "fig2_hold_K100": (["fig2", "--gamma-tau", "1", "--K", "100"], None),
    # dt = 1.2, whose multiples k*1.2 differ from a running sum of 1.2
    "fig2_gamma0.05": (["fig2", "--gamma", "0.05", "--K", "50"], None),
    "witness": (["witness"], None),
    "witness_custom_sequence": (["witness"], CUSTOM_SEQUENCE),
    "invariants": (["invariants", "--samples", "200", "--seed", "0"], None),
}


def fingerprint() -> dict:
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    libs = {lib: f"{deps[lib].get('name')} {deps[lib].get('version')}"
            for lib in ("blas", "lapack")}
    return {"numpy": np.__version__, "machine": platform.machine(), **libs}


def write_tables(outdir: Path) -> list[str]:
    """Write every table and MANIFEST.json; return the names of the tables whose
    command did not exit 0."""
    outdir.mkdir(parents=True, exist_ok=True)
    failed = []
    tables = {}
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
                tables[out.name] = hashlib.sha256(out.read_bytes()).hexdigest()
    manifest = {"fingerprint": fingerprint(), "ledger_digest": digest(),
                "rate_digest": rate_digest(), "tables": tables}
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    (outdir / "MANIFEST.json").write_text(text, encoding="utf-8")
    return failed


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    failed = write_tables(Path(sys.argv[1]))
    if failed:
        sys.exit(f"commands that did not exit 0: {', '.join(failed)}")
