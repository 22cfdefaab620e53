"""The benchmark's workloads: jobs that drive ``cantorframes`` and check its outputs.

Each job is one CLI command, one ``scripts/run_*.py`` configuration or one
library call, run in-process. ``run`` is timed; ``check`` is not, and
returns the list of problems found in the output (empty when correct).

Outputs are read field by field, never compared as bytes: script
configurations against the committed ``results/*.json`` (rational and
integer fields exactly, float fields within the acceptance tolerance),
every other job against an acceptance invariant. Fields a check does not
name are ignored, so an added field or a bumped schema string does not
break it.
"""
from __future__ import annotations

import ast
import csv
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

FLOAT_TOL = 1e-8  # acceptance tolerance for float fields and orthonormal bounds
TRANSLATE_TOL = 1e-10  # criterion 7
FACTORIZATION_TOL = 1e-10  # criterion 4

# Seeded input shapes. Only values are drawn from the seed; these counts
# are fixed, so every seed asks for the same amount of work.
TRANSLATE_ATOMS = 128
TRANSLATE_FREQS = 256
EXTRA_ANGLES = 3
WITNESS_LEVEL = 6
CONVOLVE_LEVEL = 6
SSC_DEPTH = 7
COLLAPSE_LEVELS = "2,3,4,5,6,7"
FACTORIZATION_GRID = 100


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable
    check: Callable


class Context:
    """Inputs of one benchmark run: the checkout, an output directory and the seeded draws."""

    def __init__(self, root: Path, out: Path, seed: int):
        import cantorframes
        from cantorframes import cli

        self.cf = cantorframes
        self.cli = cli
        self.root = root
        self.out = out
        rng = random.Random(seed)
        self.translate_instance = _translate_instance(cantorframes, rng)
        self.extra_angles = [round(rng.uniform(1.0, 89.0), 3) for _ in range(EXTRA_ANGLES)]
        self.grid_offset = rng.uniform(0.0, 0.25)

    def path(self, name: str) -> str:
        return str(self.out / name)

    def main(self, args) -> int:
        # Looked up on each call so that a traced run sees the wrapped entry point.
        return self.cli.main([str(a) for a in args])

    def committed(self, name: str) -> dict:
        return json.loads((self.root / "results" / name).read_text())

    def script_args(self, script: str, **overrides) -> list:
        """The argument list a ``scripts/run_*.py`` passes to the CLI, with overrides."""
        tree = ast.parse((self.root / "scripts" / script).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "args" for t in node.targets):
                args = list(ast.literal_eval(node.value))
                break
        else:
            raise ValueError(f"{script} has no literal args list")
        for flag, value in overrides.items():
            flag = "--" + flag.replace("_", "-")
            if flag in args:
                args[args.index(flag) + 1] = value
            else:
                args += [flag, value]
        return args


def _translate_instance(cf, rng: random.Random):
    """A criterion-7 instance: random rational measure, float frequencies, float shift."""
    support = rng.sample(range(4 * TRANSLATE_ATOMS), TRANSLATE_ATOMS)
    raw = [rng.randint(1, 8) for _ in support]
    total = sum(raw)
    measure = cf.AtomicMeasure.from_atoms(
        1, [((Fraction(x, 256),), Fraction(w, total)) for x, w in zip(support, raw)]
    )
    freqs: set = set()
    while len(freqs) < TRANSLATE_FREQS:
        freqs.add(round(rng.uniform(-8.0, 8.0), 5))
    return measure, cf.FrequencySet.from_scalars(sorted(freqs)), rng.uniform(-1.0, 1.0)


# -- comparison helpers -----------------------------------------------------

_ROW_KEYS = ("level", "theta_degrees", "k")


def compare(ref, out, where: str = "$") -> list:
    """Problems found comparing ``out`` with ``ref`` on the fields ``ref`` names.

    Floats match within FLOAT_TOL (NaN matches NaN); everything else,
    including "p/q" rational strings, must be equal. Lists of rows are
    matched on their key field, so extra rows in ``out`` are allowed.
    """
    if isinstance(ref, dict):
        problems = []
        for key, value in ref.items():
            if key == "schema":
                continue
            if not isinstance(out, dict) or key not in out:
                problems.append(f"{where}.{key} missing")
            else:
                problems += compare(value, out[key], f"{where}.{key}")
        return problems
    if isinstance(ref, list):
        if not isinstance(out, list):
            return [f"{where} is not a list"]
        key = _row_key(ref)
        if key is None:
            if len(ref) != len(out):
                return [f"{where} has {len(out)} entries, expected {len(ref)}"]
            pairs = [(r, o, f"{where}[{i}]") for i, (r, o) in enumerate(zip(ref, out))]
        else:
            by_key = {row.get(key): row for row in out if isinstance(row, dict)}
            pairs = [(r, by_key.get(r[key]), f"{where}[{key}={r[key]}]") for r in ref]
        problems = []
        for r, o, w in pairs:
            problems += [f"{w} missing"] if o is None else compare(r, o, w)
        return problems
    if isinstance(ref, float) or isinstance(out, float):
        if not isinstance(out, (int, float)) or not isinstance(ref, (int, float)):
            return [f"{where}: {out!r} is not a number"]
        if math.isnan(ref) and math.isnan(out):
            return []
        return [] if abs(out - ref) <= FLOAT_TOL else [f"{where}: {out!r} differs from {ref!r}"]
    return [] if ref == out else [f"{where}: {out!r} differs from {ref!r}"]


def _row_key(rows):
    if rows and all(isinstance(r, dict) for r in rows):
        for key in _ROW_KEYS:
            if all(key in r for r in rows):
                return key
    return None


def _load(path: str) -> dict:
    return json.loads(Path(path).read_text())


def _cli_job(name: str, args_fn: Callable, check_fn: Callable) -> Job:
    """A job that runs one CLI invocation writing ``<name>.out``."""

    def run(ctx):
        target = ctx.path(f"{name}.out")
        return ctx.main([*args_fn(ctx), "--out", target]), target

    def check(ctx, value):
        rc, target = value
        return [f"exit code {rc}"] if rc != 0 else check_fn(ctx, target)

    return Job(name, run, check)


# -- dense-frame ------------------------------------------------------------


def _check_orthonormal(ctx, target):
    report = _load(target)
    problems = []
    for key in ("lower", "upper"):
        if abs(report[key] - 1.0) > FLOAT_TOL:
            problems.append(f"{key} = {report[key]!r}, expected 1 within {FLOAT_TOL}")
    if (report["atom_count"], report["freq_count"]) != (256, 256):
        problems.append(f"shape {report['atom_count']}x{report['freq_count']}, expected 256x256")
    return problems


def _check_cross_bessel(ctx, target):
    return compare(ctx.committed("cross_bessel.json"), _load(target))


def _check_collapse(ctx, target):
    """Committed collapse levels must match; deeper levels must sit at the committed floor.

    From sum level 5 on the committed value is 0.0: float64's resolution
    floor, not a resolved bound. Levels past the committed sweep are held
    to that same value within FLOAT_TOL, which says only that they are
    unresolved too.
    """
    ref = ctx.committed("degeneracy.json")
    out = _load(target)
    problems = compare(ref, out)
    floor = max(ref["collapse"], key=lambda row: row["level"])
    seen = {row["level"] for row in ref["collapse"]}
    for row in out["collapse"]:
        if row["level"] not in seen and abs(row["lower"] - floor["lower"]) > FLOAT_TOL:
            problems.append(f"collapse level {row['level']}: {row['lower']!r} above the float floor")
    if len(out["collapse"]) != len(COLLAPSE_LEVELS.split(",")):
        problems.append(f"collapse has {len(out['collapse'])} levels")
    return problems


def _run_translate(ctx):
    measure, freq_set, shift = ctx.translate_instance
    base = ctx.cf.frame_bounds(measure, freq_set)
    moved = ctx.cf.frame_bounds(ctx.cf.translate(measure, shift), freq_set)
    return base, moved


def _check_translate(ctx, value):
    base, moved = value
    worst = max(abs(base.lower - moved.lower), abs(base.upper - moved.upper))
    return [] if worst < TRANSLATE_TOL else [f"translated bounds differ by {worst:.3e}"]


DENSE_FRAME = [
    _cli_job("frame_bounds", lambda ctx: ["frame", "bounds", "--system", "4:0,1", "--level", 8, "--spectrum", "jp"], _check_orthonormal),
    _cli_job("cross_bessel", lambda ctx: ctx.script_args("run_cross_bessel.py", format="json"), _check_cross_bessel),
    _cli_job(
        "collapse",
        lambda ctx: ctx.script_args("run_degeneracy.py", format="json", collapse_levels=COLLAPSE_LEVELS),
        _check_collapse,
    ),
    Job("translate", _run_translate, _check_translate),
]


# -- greedy-rotation ----------------------------------------------------------


def _rotation_args(ctx):
    fixed = ctx.script_args("run_rotation.py")
    thetas = fixed[fixed.index("--thetas") + 1]
    extra = ",".join(repr(a) for a in ctx.extra_angles)
    return ctx.script_args("run_rotation.py", format="json", thetas=f"{thetas},{extra}")


def _check_rotation(ctx, target):
    out = _load(target)
    problems = compare(ctx.committed("rotation.json"), out)
    rows = {row["theta_degrees"]: row for row in out["rows"]}
    for angle in ctx.extra_angles:
        row = rows.get(angle)
        if row is None or row["status"] != "ok":
            problems.append(f"theta {angle}: missing or not ok")
            continue
        for key in ("lower_deviation", "upper_deviation"):
            if not row[key] < FLOAT_TOL:
                problems.append(f"theta {angle}: {key} = {row[key]!r}")
    return problems


GREEDY_ROTATION = [_cli_job("rotation", _rotation_args, _check_rotation)]


# -- exact-skeleton -----------------------------------------------------------


def _check_witness(ctx, target):
    witness = _load(target)
    problems = []
    if Fraction(witness["rho_mass"]) > Fraction(1, 2**WITNESS_LEVEL):
        problems.append(f"rho_mass {witness['rho_mass']} exceeds 2^-{WITNESS_LEVEL}")
    if Fraction(witness["overlap_mass"]) != 1:
        problems.append(f"overlap_mass {witness['overlap_mass']} is not 1")
    return problems


def _run_convolve(ctx):
    a, b, c, ref = (ctx.path(f"convolve_{x}.json") for x in "abcr")
    rcs = [
        ctx.main(["measure", "build", "--system", "16:0,1", "--level", CONVOLVE_LEVEL, "--out", a]),
        ctx.main(["measure", "build", "--system", "16:0,4", "--level", CONVOLVE_LEVEL, "--out", b]),
        ctx.main(["measure", "convolve", "--a", a, "--b", b, "--out", c]),
        ctx.main(["measure", "build", "--system", "4:0,1", "--level", 2 * CONVOLVE_LEVEL, "--out", ref]),
    ]
    return rcs, c, ref


def _exact_measure(data: dict):
    atoms = [(tuple(Fraction(x) for x in a["location"]), Fraction(a["weight"])) for a in data["atoms"]]
    return data["dim"], data["offset"], Fraction(data["total"]), atoms


def _check_convolve(ctx, value):
    rcs, c, ref = value
    if any(rcs):
        return [f"exit codes {rcs}"]
    conv, reference = _exact_measure(_load(c)), _exact_measure(_load(ref))
    problems = [] if conv == reference else [f"convolution differs from the level-{2 * CONVOLVE_LEVEL} measure"]
    if len(conv[3]) != 4**CONVOLVE_LEVEL:
        problems.append(f"{len(conv[3])} atoms, expected {4**CONVOLVE_LEVEL}")
    return problems


def _run_ssc(ctx):
    return ctx.cf.ssc_certificate(ctx.cf.DigitSystem.one_dimensional(4, [0, 1]), SSC_DEPTH)


def _check_ssc(ctx, cert):
    return [] if cert.status == "certified-ssc" else [f"status {cert.status}"]


def _run_factorization(ctx):
    """Criterion 4's four cylinder windows on a seeded-offset grid."""
    import numpy as np

    cf = ctx.cf
    s01 = cf.DigitSystem.one_dimensional(16, [0, 1])
    s04 = cf.DigitSystem.one_dimensional(16, [0, 4])
    nu = cf.level_measure(s01, 4)
    lam = cf.level_measure(s04, 4)
    grid = np.linspace(-25.0, 25.0, FACTORIZATION_GRID) + ctx.grid_offset
    windows = [
        (cf.cylinder_points(s01, 4, [(0,)]), lam.locations),
        (nu.locations, cf.cylinder_points(s04, 4, [(4,)])),
        (cf.cylinder_points(s01, 4, [(1,), (0,)]), cf.cylinder_points(s04, 4, [(0,)])),
        (nu.locations, lam.locations),
    ]
    return [cf.factorization_check(nu, lam, e, f, grid) for e, f in windows]


def _check_factorization(ctx, reports):
    worst = max(r.max_deviation for r in reports)
    problems = [] if worst < FACTORIZATION_TOL else [f"max deviation {worst:.3e}"]
    if not all(r.certified for r in reports):
        problems.append("atom supports not certified as packing")
    return problems


FT_COUNT = 1001


def _check_ft_grid(ctx, target):
    """Each value must lie within its certified tail bound of an independent 60-factor product."""
    import numpy as np

    with open(target, newline="") as handle:
        rows = list(csv.DictReader(handle))
    if len(rows) != FT_COUNT:
        return [f"{len(rows)} rows, expected {FT_COUNT}"]
    xi = np.array([float(r["xi1"]) for r in rows])
    value = np.array([complex(float(r["re"]), float(r["im"])) for r in rows])
    tail = np.array([float(r["certified_tail_bound"]) for r in rows])
    reference = np.ones_like(value)
    for k in range(1, 61):
        reference *= (1 + np.exp(-2j * np.pi * xi / 4.0**k)) / 2
    excess = np.abs(value - reference) - tail
    problems = [] if np.all(excess <= 1e-12) else [f"value off its tail bound by {excess.max():.3e}"]
    if np.any(tail > 1e-10):
        problems.append("tail bound above the requested 1e-10")
    return problems


def _ft_grid_args(ctx):
    return ["ft", "grid", "--system", "4:0,1", "--count", FT_COUNT, "--format", "csv"]


EXACT_SKELETON = [
    _cli_job(
        "witness",
        lambda ctx: ["packing", "witness", "--nu", "16:0,1", "--lam", "16:0,4", "--t", "0", "--level", WITNESS_LEVEL],
        _check_witness,
    ),
    Job("convolve", _run_convolve, _check_convolve),
    Job("ssc", _run_ssc, _check_ssc),
    Job("factorization", _run_factorization, _check_factorization),
    _cli_job("ft_grid", _ft_grid_args, _check_ft_grid),
]


WORKLOADS = {
    "dense-frame": DENSE_FRAME,
    "greedy-rotation": GREEDY_ROTATION,
    "exact-skeleton": EXACT_SKELETON,
}
