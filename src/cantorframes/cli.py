"""Command-line surface: construction, certification, and the experiments.

Exit codes: 0 success, 2 computed-but-negative answers (a refuted packing
pair, a rejected certificate, a failed witness search), 1 errors, usage
errors included. Outputs are deterministic: identical invocations write
byte-identical files.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import NoWitnessFound
from .experiments import _ROTATION_FRAME, CrossBesselRow, DegeneracyRow, RotationRow, integer_pool
from .experiments import cross_bessel_experiment, degeneracy_experiment, rotation_experiment
from .fourier import _mu_hat_grid
from .frames import FrequencySet, frame_bounds, jp_spectrum
from .measures import DigitSystem, convolve, level_measure
from .packing import CERTIFIED_NOT_PACKING, _digit_certificate, singularity_witness
from .serialize import _atom_strings, _json_list, canonical_json, certificate_to_jsonable, csv_text
from .serialize import digit_system_from_jsonable, fraction_to_str, frame_report_to_jsonable, load_json
from .serialize import measure_from_jsonable, measure_json, verify_certificate, witness_to_jsonable

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2
_TABLE_FORMATS = ("json", "csv")  # --format choices of the commands whose output is a table


def parse_digit_system(text: str):
    """Parse `N:b1,b2,...` for 1D or a JSON file path for d >= 2."""
    if text.endswith(".json"):
        return digit_system_from_jsonable(load_json(text))
    base, _, digits = text.partition(":")
    if not digits:
        raise ValueError(f"cannot parse digit system {text!r}; expected N:b1,b2,...")
    return DigitSystem.one_dimensional(base, digits.split(","))


def _parse_int_list(text: str) -> list:
    return [int(x) for x in text.split(",") if x != ""]


def _parse_float_list(text: str) -> list:
    values = [float(x) for x in text.split(",") if x != ""]
    if bad := [v for v in values if not math.isfinite(v)]:
        raise ValueError(f"{bad[0]} is not finite")
    return values


def _default_hadamard_digits(ds) -> list:
    """Canonical frequency digits for a two-digit system {0, b}: {0, N/(2b)}, a Hadamard pair (phase 1/2)."""
    if ds.dim != 1 or ds.branch != 2:
        raise ValueError("automatic frequency digits exist only for 1D two-digit systems")
    base = abs(ds.matrix[0][0])
    nonzero = [b[0] for b in ds.digits if b[0] != 0]
    if len(nonzero) != 1:
        raise ValueError("automatic frequency digits need digits {0, b}")
    b = abs(nonzero[0])
    if base % (2 * b) != 0:
        raise ValueError("no canonical frequency digit: base not divisible by 2*digit")
    return [0, base // (2 * b)]


def _emit(args, payload) -> None:
    """Write ``payload`` (text rendered in ``args.format``, or a JSON object), then its manifest, to files or stdout."""
    outputs = [(args.out, payload)]
    if args.manifest:
        config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
        if args.out:
            # Relative to the working directory, so a manifest reads the same in any checkout.
            config["out"] = os.path.relpath(args.out)
        target = Path(args.out).with_suffix(Path(args.out).suffix + ".manifest.json") if args.out else None
        outputs.append((target, {"command": f"{args.group} {args.action}", "config": config}))
    for path, obj in outputs:
        text = obj if isinstance(obj, str) else canonical_json(obj)
        if path:
            Path(path).write_text(text)
        else:
            sys.stdout.write(text)


def _emit_table(args, schema: str, row_type, rows, **fields) -> None:
    """Emit rows as CSV columns or JSON row keys, both the fields of ``row_type``; JSON writes Fractions as "p/q"."""
    header = [f.name for f in dataclasses.fields(row_type)]
    cells = [[getattr(row, name) for name in header] for row in rows]
    if args.format == "csv":
        _emit(args, csv_text(header, cells))
    else:
        json_rows = [
            {name: fraction_to_str(v) if isinstance(v, Fraction) else v for name, v in zip(header, row)}
            for row in cells
        ]
        _emit(args, {"schema": schema, **fields, "rows": json_rows})


def _cmd_measure_build(args) -> int:
    ds = parse_digit_system(args.system)
    measure = level_measure(ds, args.level, args.atom_budget)
    if args.format == "csv":
        header = [f"x{i+1}" for i in range(measure.dim)] + ["weight"]
        coordinates, weights = _atom_strings(measure)
        locations = zip(*[iter(coordinates)] * measure.dim)
        rows = [[*location, weight] for location, weight in zip(locations, weights)]
        _emit(args, csv_text(header, rows))
    else:
        _emit(args, measure_json(measure))
    return EXIT_OK


def _cmd_measure_convolve(args) -> int:
    a = measure_from_jsonable(load_json(args.a))
    b = measure_from_jsonable(load_json(args.b))
    result = convolve(a, b, args.atom_budget)
    _emit(args, measure_json(result))
    return EXIT_OK


def _cmd_ft_grid(args) -> int:
    """The grid as CSV rows or ``ft-grid/1`` JSON, rendered in one pass as ``csv_text``/``canonical_json`` would."""
    for flag, value in (("--xi-min", args.xi_min), ("--xi-max", args.xi_max)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} {value} is not finite")
    if args.count < 0:
        raise ValueError(f"--count {args.count} is negative")
    ds = parse_digit_system(args.system)
    if ds.dim != 1:
        raise ValueError("the CLI grid is one-dimensional; use the library for d >= 2")
    xs = np.linspace(args.xi_min, args.xi_max, args.count)
    re, im, bound, _ = _mu_hat_grid(ds, xs, args.tol)
    # Every cell is a finite float, which both formats write as its repr.
    columns = [a.tolist() for a in (xs, re, im, bound)]
    if args.format == "csv":
        _emit(args, "xi1,re,im,certified_tail_bound\n" + "".join(map("{!r},{!r},{!r},{!r}\n".format, *columns)))
    else:
        # Keys sorted and indented as canonical_json writes them.
        row = (
            '{{\n      "certified_tail_bound": {3!r},\n      "im": {2!r},'
            '\n      "re": {1!r},\n      "xi": {0!r}\n    }}'
        )
        rows = _json_list(list(map(row.format, *columns)), 2)
        _emit(args, '{\n  "rows": ' + rows + ',\n  "schema": "ft-grid/1"\n}\n')
    return EXIT_OK


def _cmd_packing_check(args) -> int:
    cert = _digit_certificate(parse_digit_system(args.system_a), parse_digit_system(args.system_b))
    _emit(args, certificate_to_jsonable(cert))
    return EXIT_NEGATIVE if cert.status == CERTIFIED_NOT_PACKING else EXIT_OK


def _read_pair(args) -> tuple:
    """The digit systems of ``--nu`` and ``--lam`` and the exact shift of ``--t``."""
    nu, lam = parse_digit_system(args.nu), parse_digit_system(args.lam)
    return nu, lam, tuple(Fraction(x) for x in args.t.split(","))


def _cmd_packing_witness(args) -> int:
    nu, lam, shift = _read_pair(args)
    try:
        witness = singularity_witness(nu, lam, shift, args.level, args.atom_budget)
    except NoWitnessFound as exc:
        payload = {
            "schema": "singularity-witness/1",
            "error": "no-witness-found",
            "detail": str(exc),
            "suggested_level": exc.suggested_level,
        }
        _emit(args, payload)
        return EXIT_NEGATIVE
    _emit(args, witness_to_jsonable(witness))
    return EXIT_OK


def _build_spectrum(args, ds, level):
    choice = args.spectrum
    if choice == "jp":
        digits = _parse_int_list(args.freq_digits) if args.freq_digits else _default_hadamard_digits(ds)
        return jp_spectrum(ds, digits, level, args.atom_budget)
    if choice.startswith("pool:"):
        return integer_pool(int(choice.split(":", 1)[1]))
    data = load_json(choice)
    return FrequencySet(dim=data["dim"], freqs=tuple(tuple(f) for f in data["freqs"]))


def _cmd_frame_bounds(args) -> int:
    ds = parse_digit_system(args.system)
    measure = level_measure(ds, args.level, args.atom_budget)
    freq_set = _build_spectrum(args, ds, args.level)
    report = frame_bounds(measure, freq_set)
    _emit(args, frame_report_to_jsonable(report))
    return EXIT_OK


def _cmd_exp_degeneracy(args) -> int:
    nu, lam, shift = _read_pair(args)
    freq_ds = parse_digit_system(args.freq_system)
    freq_set = jp_spectrum(freq_ds, _parse_int_list(args.freq_digits), args.freq_level, args.atom_budget)
    result = degeneracy_experiment(
        nu,
        lam,
        shift,
        args.level,
        freq_set,
        _parse_int_list(args.k),
        collapse_levels=_parse_int_list(args.collapse_levels) if args.collapse_levels else (),
        budget=args.atom_budget,
    )
    _emit_table(
        args,
        "degeneracy-table/1",
        DegeneracyRow,
        result.rows,
        upper_estimate=result.upper_estimate,
        nu_upper_estimate=result.nu_upper_estimate,
        certificate_status=result.certificate_status,
        collapse=[{"level": n, "lower": a} for n, a in result.collapse],
    )
    return EXIT_OK


def _cmd_exp_rotation(args) -> int:
    result = rotation_experiment(
        args.level,
        _parse_float_list(args.thetas),
        collapse_levels=_parse_int_list(args.collapse_levels) if args.collapse_levels else (),
        budget=args.atom_budget,
    )
    _emit_table(
        args,
        "rotation-table/3",
        RotationRow,
        result.rows,
        base={"lower": result.base_report.lower, "upper": result.base_report.upper, "frame": _ROTATION_FRAME},
        collapse=[{"level": n, "lower": a} for n, a in result.collapse],
    )
    return EXIT_OK


def _cmd_exp_cross_bessel(args) -> int:
    src = parse_digit_system(args.src)
    dst = parse_digit_system(args.dst)
    result = cross_bessel_experiment(
        src,
        _parse_int_list(args.src_freqs),
        dst,
        _parse_int_list(args.levels),
        depth_ratio=args.depth_ratio,
        budget=args.atom_budget,
    )
    _emit_table(args, "cross-bessel-table/1", CrossBesselRow, result.rows)
    return EXIT_OK


def _cmd_verify_certificate(args) -> int:
    data = load_json(args.path)
    ok, reason = verify_certificate(data)
    payload = {"schema": "verification/1", "valid": ok, "reason": reason}
    _emit(args, payload)
    return EXIT_OK if ok else EXIT_NEGATIVE


def _add_pair(parser) -> None:
    """``--nu``, ``--lam`` and ``--t``, which ``_read_pair`` reads."""
    parser.add_argument("--nu", required=True)
    parser.add_argument("--lam", required=True)
    parser.add_argument("--t", default="0", help="rational shift, comma-separated per coordinate")


def _add_common(parser, formats=("json",)) -> None:
    parser.add_argument("--out", help="output file (stdout when omitted)")
    parser.add_argument("--format", choices=formats, default="json")
    parser.add_argument("--manifest", action="store_true", help="emit the resolved config next to the output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantorframes",
        description="Finite-level self-affine measures, packing certificates, and Fourier frame bounds.",
    )
    top = parser.add_subparsers(dest="group", required=True)

    measure = top.add_parser("measure", help="build and combine atomic measures").add_subparsers(
        dest="action", required=True
    )
    build = measure.add_parser("build", help="level-n self-affine measure")
    build.add_argument("--system", required=True, help="digit system, e.g. 4:0,1 or a JSON file")
    build.add_argument("--level", type=int, required=True)
    _add_common(build, _TABLE_FORMATS)
    build.set_defaults(func=_cmd_measure_build)

    conv = measure.add_parser("convolve", help="convolve two serialized measures")
    conv.add_argument("--a", required=True)
    conv.add_argument("--b", required=True)
    _add_common(conv)
    conv.set_defaults(func=_cmd_measure_convolve)

    ft = top.add_parser("ft", help="Fourier transform evaluation").add_subparsers(
        dest="action", required=True
    )
    grid = ft.add_parser("grid", help="transform values on a frequency grid")
    grid.add_argument("--system", required=True)
    grid.add_argument("--xi-min", type=float, default=-10.0)
    grid.add_argument("--xi-max", type=float, default=10.0)
    grid.add_argument("--count", type=int, default=201)
    grid.add_argument("--tol", type=float, default=1e-10)
    _add_common(grid, _TABLE_FORMATS)
    grid.set_defaults(func=_cmd_ft_grid)

    packing = top.add_parser("packing", help="packing certification and witnesses").add_subparsers(
        dest="action", required=True
    )
    check = packing.add_parser("check", help="digit-criterion packing certificate")
    check.add_argument("--system-a", required=True, help="first digit system, e.g. 16:0,1 or a JSON file")
    check.add_argument("--system-b", required=True, help="second digit system, same matrix")
    _add_common(check)
    check.set_defaults(func=_cmd_packing_check)

    witness = packing.add_parser("witness", help="translational-singularity witness search")
    _add_pair(witness)
    witness.add_argument("--level", type=int, required=True)
    _add_common(witness)
    witness.set_defaults(func=_cmd_packing_witness)

    frame = top.add_parser("frame", help="frame bound computation").add_subparsers(
        dest="action", required=True
    )
    bounds = frame.add_parser("bounds", help="frame bounds of a spectrum on a level measure")
    bounds.add_argument("--system", required=True)
    bounds.add_argument("--level", type=int, required=True)
    bounds.add_argument("--spectrum", default="jp", help="jp, pool:K, or a JSON file")
    bounds.add_argument("--freq-digits", default=None, help="frequency digits for the jp spectrum")
    _add_common(bounds)
    bounds.set_defaults(func=_cmd_frame_bounds)

    exp = top.add_parser("exp", help="the three experiments").add_subparsers(dest="action", required=True)
    deg = exp.add_parser("degeneracy", help="quotient vs ball-mass table")
    _add_pair(deg)
    deg.add_argument("--level", type=int, required=True, help="level of the two factors")
    deg.add_argument("--freq-system", required=True)
    deg.add_argument("--freq-digits", required=True)
    deg.add_argument("--freq-level", type=int, required=True)
    deg.add_argument("--k", default="2,8,32,128,512")
    deg.add_argument("--collapse-levels", default=None)
    _add_common(deg, _TABLE_FORMATS)
    deg.set_defaults(func=_cmd_exp_degeneracy)

    rot = exp.add_parser("rotation", help="frame-bound invariance under rotation")
    rot.add_argument("--thetas", default="10,30,45,60,80,90")
    rot.add_argument("--level", type=int, default=4)
    rot.add_argument("--collapse-levels", default=None)
    _add_common(rot, _TABLE_FORMATS)
    rot.set_defaults(func=_cmd_exp_rotation)

    cross = exp.add_parser("cross-bessel", help="Bessel growth across measures")
    cross.add_argument("--src", required=True)
    cross.add_argument("--src-freqs", required=True)
    cross.add_argument("--dst", required=True)
    cross.add_argument("--levels", default="2,3,4,5,6")
    cross.add_argument("--depth-ratio", type=int, default=1)
    _add_common(cross, _TABLE_FORMATS)
    cross.set_defaults(func=_cmd_exp_cross_bessel)

    verify = top.add_parser("verify", help="independent re-checks").add_subparsers(
        dest="action", required=True
    )
    vcert = verify.add_parser("certificate", help="re-derive a serialized certificate")
    vcert.add_argument("--path", required=True)
    _add_common(vcert)
    vcert.set_defaults(func=_cmd_verify_certificate)

    for enumerating in (build, conv, witness, bounds, deg, rot, cross):
        enumerating.add_argument("--atom-budget", type=int, default=None, help="override the atom budget")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call reuses, built on the first call rather than at import."""
    return build_parser()


def main(argv=None) -> int:
    # argparse reads "-1/15" or "-1e3" as an option unless it looks like -N or -N.N, so a
    # token of "-" and a digit or "." is glued to the long flag before it as its value.
    tokens = []
    for token in sys.argv[1:] if argv is None else argv:
        if tokens and tokens[-1].startswith("--") and "=" not in tokens[-1] and re.match(r"-[0-9.]", token):
            tokens[-1] += "=" + token
        else:
            tokens.append(token)
    try:
        args = _parser().parse_args(tokens)
        return args.func(args)
    except SystemExit as exc:  # argparse has printed the help (code 0) or a usage error
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
