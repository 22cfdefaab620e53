#!/usr/bin/env python3
"""Regenerate the experiment tables and compare them with the committed results/.

Runs the three ``scripts/run_*.py`` configurations into a temporary
directory and compares each CSV and JSON table with its committed twin,
field by field: integers, rationals ("p/q") and strings must match
exactly, floats within 1e-8 (the acceptance tolerance), so last-digit
drift across BLAS builds is reported instead of failing a byte
comparison. Manifests are not compared. Each regenerated CSV must also
be its JSON twin's rows: the header is the row key set, and every cell
is the JSON value as ``serialize.format_cell`` writes it. Prints the
largest float drift and exits 1 on any difference, 0 otherwise.

    PYTHONPATH=src python scripts/check_results.py
"""
import csv
import importlib.util
import json
import math
import sys
import tempfile
from pathlib import Path

from cantorframes.serialize import format_cell

SCRIPTS = Path(__file__).resolve().parent
RESULTS = SCRIPTS.parent / "results"
CONFIGURATIONS = ("run_degeneracy.py", "run_rotation.py", "run_cross_bessel.py")
FLOAT_TOL = 1e-8


def _run_configuration(name: str, out: Path) -> int:
    spec = importlib.util.spec_from_file_location(name[:-3], SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.run(out)


def _cell(text: str):
    """A CSV cell typed as the writer produced it: int, float, or str ("p/q" stays str)."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _read_table(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    with path.open(newline="") as handle:
        header, *rows = list(csv.reader(handle))
    return {"header": header, "rows": [dict(zip(header, map(_cell, row))) for row in rows]}


def compare(ref, out, where: str):
    """(problems, (drift, location)): differences from ``ref`` and its largest float gap."""
    if isinstance(ref, float):
        if not isinstance(out, float):
            return [f"{where}: {out!r} is not a float"], (0.0, where)
        same = ref == out or (math.isnan(ref) and math.isnan(out))
        gap = 0.0 if same else abs(out - ref)
        gap = gap if math.isfinite(gap) else math.inf
        return ([] if gap <= FLOAT_TOL else [f"{where}: {out!r} differs from {ref!r}"]), (gap, where)
    if isinstance(ref, (dict, list)):
        if type(out) is not type(ref) or len(out) != len(ref) or (isinstance(ref, dict) and set(out) != set(ref)):
            return [f"{where}: structure differs"], (0.0, where)
        problems, drift = [], (0.0, where)
        for key in sorted(ref) if isinstance(ref, dict) else range(len(ref)):
            found, gap = compare(ref[key], out[key], f"{where}.{key}" if isinstance(ref, dict) else f"{where}[{key}]")
            problems += found
            drift = max(drift, gap, key=lambda d: d[0])
        return problems, drift
    same = type(out) is type(ref) and out == ref
    return ([] if same else [f"{where}: {out!r} differs from {ref!r}"]), (0.0, where)


def twin_problems(csv_path: Path, json_path: Path) -> list:
    """Differences between a CSV table and the ``rows`` of its JSON twin, cell text against ``format_cell``."""
    if not json_path.exists():
        return [f"{csv_path.name}: no JSON twin"]
    with csv_path.open(newline="") as handle:
        header, *rows = list(csv.reader(handle))
    records = json.loads(json_path.read_text())["rows"]
    where = f"{csv_path.name} vs {json_path.name}"
    if len(rows) != len(records):
        return [f"{where}: {len(rows)} CSV rows, {len(records)} JSON rows"]
    problems = []
    for i, (cells, record) in enumerate(zip(rows, records)):
        if len(cells) != len(header) or sorted(header) != sorted(record):
            problems.append(f"{where}: row {i} has columns {header}, JSON keys {sorted(record)}")
            continue
        for name, text in zip(header, cells):
            if text != format_cell(record[name]):
                problems.append(f"{where}: row {i} {name} reads {text!r}, JSON {record[name]!r}")
    return problems


def main() -> int:
    problems, drift = [], (0.0, "-")
    with tempfile.TemporaryDirectory() as tmp:
        fresh_dir = Path(tmp)
        for name in CONFIGURATIONS:
            if _run_configuration(name, fresh_dir) != 0:
                problems.append(f"{name} exited non-zero")
        for table in sorted(fresh_dir.glob("*.csv")):
            problems += twin_problems(table, table.with_suffix(".json"))
        tables = lambda d: {p.name for p in d.iterdir() if p.suffix in (".csv", ".json") and ".manifest" not in p.name}
        for name in sorted(tables(RESULTS) | tables(fresh_dir)):
            committed, fresh = RESULTS / name, fresh_dir / name
            if not (committed.exists() and fresh.exists()):
                problems.append(f"{name}: {'not regenerated' if committed.exists() else 'not committed'}")
                continue
            found, gap = compare(_read_table(committed), _read_table(fresh), name)
            print(f"{name}: {len(found)} differences, largest float drift {gap[0]:.3g} ({gap[1]})")
            problems += found
            drift = max(drift, gap, key=lambda d: d[0])
    for problem in problems:
        print(f"DIFF {problem}")
    print(f"{'differences: ' + str(len(problems)) if problems else 'all tables match'}; "
          f"largest float drift {drift[0]:.3g} at {drift[1]} (tolerance {FLOAT_TOL:g})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
