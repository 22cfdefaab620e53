"""The committed results/ tables must regenerate from the current code.

Runs ``scripts/check_results.py``: every table field matches exactly,
floats within its 1e-8 tolerance, so any skeleton or frame-bound change
that moves a committed number fails here. Its tolerance cannot see a
byte change in the writer, so every committed JSON file, manifests
included, must also be exactly its own canonical form, and strict JSON:
no NaN or Infinity token. README's layout table must name every public
export of ``cantorframes``, and nothing else, each with its reason.
"""
import importlib.util
import inspect
import json
import re
from itertools import takewhile
from pathlib import Path

import pytest

import cantorframes
from cantorframes.serialize import canonical_json

ROOT = Path(__file__).resolve().parent.parent
CHECK_RESULTS = ROOT / "scripts" / "check_results.py"
RESULT_JSON = sorted((ROOT / "results").glob("*.json"))


def test_committed_tables_regenerate():
    spec = importlib.util.spec_from_file_location("check_results", CHECK_RESULTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main() == 0


@pytest.mark.parametrize(
    "csv_text, found",
    [
        ("k,ball_mass,inverse_mass\n2,1/2,\n", []),
        ("k,ball_mass,inverse_mass\n2,0.5,\n", ["row 0 ball_mass reads '0.5'"]),
        ("k,ball_mass\n2,1/2\n", ["row 0 has columns"]),
        ("k,ball_mass,inverse_mass\n", ["0 CSV rows, 1 JSON rows"]),
    ],
    ids=["twins", "changed-cell", "missing-column", "missing-row"],
)
def test_csv_twin_check(tmp_path, csv_text, found):
    spec = importlib.util.spec_from_file_location("check_results", CHECK_RESULTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    (tmp_path / "t.csv").write_text(csv_text)
    (tmp_path / "t.json").write_text(json.dumps({"rows": [{"k": 2, "ball_mass": "1/2", "inverse_mass": None}]}))
    problems = module.twin_problems(tmp_path / "t.csv", tmp_path / "t.json")
    assert len(problems) == len(found)
    assert all(text in problem for text, problem in zip(found, problems))


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


@pytest.mark.parametrize("path", RESULT_JSON, ids=[p.name for p in RESULT_JSON])
def test_committed_json_is_strict(path):
    json.loads(path.read_text(), parse_constant=_reject_constant)


@pytest.mark.parametrize("path", RESULT_JSON, ids=[p.name for p in RESULT_JSON])
def test_committed_json_is_canonical(path):
    text = path.read_text()
    assert text == canonical_json(json.loads(text))


def test_readme_layout_names_every_export():
    section = (ROOT / "README.md").read_text().split("## Library layout", 1)[1]
    lines = takewhile(lambda line: line.startswith("|"), section.strip().splitlines())
    rows = [line.split("|")[1:-1] for line in lines][2:]
    named = [re.findall(r"`(\w+)`", row[1]) for row in rows]
    exports = {name for name, value in vars(cantorframes).items() if not (name.startswith("_") or inspect.ismodule(value))}
    assert sorted(exports - {name for names in named for name in names}) == []
    assert sorted({name for names in named for name in names} - exports) == []
    assert all(row[2].strip() for row in rows)
