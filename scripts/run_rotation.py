#!/usr/bin/env python3
"""Sweep the planar rotation experiment and the collinear collapse run.

Writes results/rotation.csv with per-angle frame bounds; right angles are
flagged instead of computed.
"""
import sys
from pathlib import Path

from cantorframes.cli import main

RESULTS = Path(__file__).resolve().parent.parent / "results"


def run(results: Path = RESULTS) -> int:
    results.mkdir(exist_ok=True)
    args = [
        "exp", "rotation",
        "--thetas", "0,10,30,45,60,80,90",
        "--level", "4",
        "--collapse-levels", "2,3,4,5",
        "--manifest",
    ]
    rc = main(args + ["--format", "csv", "--out", str(results / "rotation.csv")])
    rc |= main(args + ["--format", "json", "--out", str(results / "rotation.json")])
    print(f"wrote {results / 'rotation.csv'}")
    return rc


if __name__ == "__main__":
    sys.exit(run())
