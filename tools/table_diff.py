"""Print, table by table, how far the numbers of two golden-table directories differ.

    python3 tools/table_diff.py OLD NEW

OLD and NEW are output directories of `tools/golden_tables.py`.  Every
`*.csv` and `*.json` table in either is read (MANIFEST.json is not: it holds
hashes, which `diff` compares).  A table is a set of cells: its metadata
values, keyed by name, and its row cells, keyed by row number and column.
For each table present on both sides it prints the number of cells that
differ and the largest absolute and relative change of a cell that is a
finite number on both sides, with the cell where each occurs; the relative
change is |new - old| / |old|, inf where old is 0.  Then it lists the tables
present on one side only and every other difference: a cell on one side
only, a text cell that changed, a zero that changed sign, or a change to or
from a non-finite number.

Exits 0 when every table reads the same on both sides, 1 otherwise.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path


def read_table(path: Path) -> dict[str, str]:
    """The cells of one table, keyed "meta KEY" or "row I COLUMN", each as its text."""
    text = path.read_text(encoding="utf-8")
    cells = {}
    if path.suffix == ".csv":
        lines = text.splitlines()
        meta = [line for line in lines if line.startswith("# ")]
        for line in meta:
            key, _, value = line[2:].partition(" = ")
            cells[f"meta {key}"] = value
        rows = list(csv.DictReader(lines[len(meta):]))
    else:
        doc = json.loads(text)
        for key, value in doc["meta"].items():
            cells[f"meta {key}"] = _text(value)
        rows = [{k: _text(v) for k, v in row.items()} for row in doc["rows"]]
    for i, row in enumerate(rows):
        for column, value in row.items():
            cells[f"row {i} {column}"] = value
    return cells


def _text(value) -> str:
    # a float's repr keeps every bit, as write_table's csv does
    return value if isinstance(value, str) else repr(value)


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def compare(old: dict[str, str], new: dict[str, str]):
    """(cells that differ, (abs change, cell), (rel change, cell), other differences)."""
    changed, largest_abs, largest_rel, other = 0, (0.0, ""), (0.0, ""), []
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        changed += 1
        x, y = (None, None) if a is None or b is None else (_number(a), _number(b))
        diff = abs(y - x) if x is not None and y is not None else math.nan
        if not 0.0 < diff < math.inf:  # text, a cell on one side, a sign of zero, inf or nan
            other.append(f"{key}: {a} -> {b}")
            continue
        rel = diff / abs(x) if x != 0.0 else math.inf
        largest_abs = max(largest_abs, (diff, key))
        largest_rel = max(largest_rel, (rel, key))
    return changed, largest_abs, largest_rel, other


def tables(directory: Path) -> dict[str, Path]:
    return {p.name: p for p in sorted(directory.iterdir())
            if p.suffix in (".csv", ".json") and p.name != "MANIFEST.json"}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    old, new = (tables(Path(d)) for d in argv)
    lines, differs = [], False
    for name in sorted(old.keys() & new.keys()):
        changed, (diff, at_abs), (rel, at_rel), other = compare(read_table(old[name]),
                                                               read_table(new[name]))
        differs |= changed > 0
        line = f"{name}: {changed} cells differ"
        if diff or rel:
            line += f"; max abs {diff:.3e} at {at_abs}; max rel {rel:.3e} at {at_rel}"
        lines.append(line)
        lines += [f"  {name} {item}" for item in other]
    for side, only in (("old", old.keys() - new.keys()), ("new", new.keys() - old.keys())):
        differs |= bool(only)
        lines += [f"only in {side}: {name}" for name in sorted(only)]
    print("\n".join(lines))
    return int(differs)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
