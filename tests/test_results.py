"""The committed results/ tables must regenerate from the current code.

Runs ``scripts/check_results.py``: every table field matches exactly,
floats within its 1e-8 tolerance, so any skeleton or frame-bound change
that moves a committed number fails here.
"""
import importlib.util
from pathlib import Path

CHECK_RESULTS = Path(__file__).resolve().parent.parent / "scripts" / "check_results.py"


def test_committed_tables_regenerate():
    spec = importlib.util.spec_from_file_location("check_results", CHECK_RESULTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main() == 0
