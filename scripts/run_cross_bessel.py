#!/usr/bin/env python3
"""Push the eighth-Cantor orthonormal spectra against the quarter measure.

Exploratory run: the Bessel constant column has no pass threshold; the
growth trend is the point. Writes results/cross_bessel.csv.
"""
import sys
from pathlib import Path

from cantorframes.cli import main

RESULTS = Path(__file__).resolve().parent.parent / "results"


def run(results: Path = RESULTS) -> int:
    results.mkdir(exist_ok=True)
    args = [
        "exp", "cross-bessel",
        "--src", "8:0,1",
        "--src-freqs", "0,4",
        "--dst", "4:0,1",
        "--levels", "2,3,4,5,6,7,8",
        "--manifest",
    ]
    rc = main(args + ["--format", "csv", "--out", str(results / "cross_bessel.csv")])
    rc |= main(args + ["--format", "json", "--out", str(results / "cross_bessel.json")])
    print(f"wrote {results / 'cross_bessel.csv'}")
    return rc


if __name__ == "__main__":
    sys.exit(run())
