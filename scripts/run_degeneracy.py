#!/usr/bin/env python3
"""Run the degeneracy experiment for the quarter/sixteenth Cantor sum.

Writes the quotient-vs-ball-mass table and the lower-bound collapse run
to results/degeneracy.csv (plus a JSON twin and the resolved config).
"""
import sys
from pathlib import Path

from cantorframes.cli import main

RESULTS = Path(__file__).resolve().parent.parent / "results"


def run(results: Path = RESULTS) -> int:
    results.mkdir(exist_ok=True)
    args = [
        "exp", "degeneracy",
        "--nu", "16:0,1",
        "--lam", "16:0,4",
        "--t", "0",
        "--level", "2",
        "--freq-system", "4:0,1",
        "--freq-digits", "0,2",
        "--freq-level", "4",
        "--k", "2,8,32,128,512",
        "--collapse-levels", "2,3,4,5",
        "--manifest",
    ]
    rc = main(args + ["--format", "csv", "--out", str(results / "degeneracy.csv")])
    rc |= main(args + ["--format", "json", "--out", str(results / "degeneracy.json")])
    print(f"wrote {results / 'degeneracy.csv'}")
    return rc


if __name__ == "__main__":
    sys.exit(run())
