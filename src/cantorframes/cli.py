"""Command-line surface: construction, certification, and the experiments.

Exit codes: 0 success, 2 computed-but-negative answers (a refuted packing
pair, a rejected certificate, a failed witness search), 1 errors. Outputs
are deterministic: identical invocations write byte-identical files.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2


def parse_digit_system(text: str):
    """Parse `N:b1,b2,...` for 1D or a JSON file path for d >= 2."""
    from .measures import DigitSystem
    from .serialize import digit_system_from_jsonable, load_json

    if text.endswith(".json") or text.startswith("@"):
        path = text[1:] if text.startswith("@") else text
        return digit_system_from_jsonable(load_json(path))
    base, _, digits = text.partition(":")
    if not digits:
        raise ValueError(f"cannot parse digit system {text!r}; expected N:b1,b2,...")
    return DigitSystem.one_dimensional(int(base), [int(b) for b in digits.split(",")])


def _parse_int_list(text: str) -> list:
    return [int(x) for x in text.split(",") if x != ""]


def _parse_float_list(text: str) -> list:
    return [float(x) for x in text.split(",") if x != ""]


def _default_hadamard_digits(ds) -> list:
    """Canonical frequency digits for a two-digit system {0, b}: {0, N/(2b)}."""
    from .frames import hadamard_triple_check

    if ds.dim != 1 or ds.branch != 2:
        raise ValueError("automatic frequency digits exist only for 1D two-digit systems")
    base = abs(ds.matrix[0][0])
    nonzero = [b[0] for b in ds.digits if b[0] != 0]
    if len(nonzero) != 1:
        raise ValueError("automatic frequency digits need digits {0, b}")
    b = abs(nonzero[0])
    if base % (2 * b) != 0:
        raise ValueError("no canonical frequency digit: base not divisible by 2*digit")
    candidate = [0, base // (2 * b)]
    if not hadamard_triple_check(ds.matrix, ds.digits, candidate):
        raise ValueError("canonical frequency digits fail the unitarity check")
    return candidate


def _emit(args, payload_json, csv_header=None, csv_rows=None) -> None:
    from .serialize import canonical_json, csv_text, write_json

    fmt = getattr(args, "format", "json")
    if fmt == "csv" and csv_header is not None:
        text = csv_text(csv_header, csv_rows)
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
    else:
        if args.out:
            write_json(args.out, payload_json)
        else:
            sys.stdout.write(canonical_json(payload_json))
    if getattr(args, "manifest", False):
        config = {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in {"func", "command_path"} and not k.startswith("_")
        }
        if args.out:
            # Relative to the working directory, so a manifest reads the same in any checkout.
            config["out"] = os.path.relpath(args.out)
        manifest = {"command": args.command_path, "config": config}
        target = Path(args.out).with_suffix(Path(args.out).suffix + ".manifest.json") if args.out else None
        if target is None:
            sys.stdout.write(canonical_json(manifest))
        else:
            write_json(target, manifest)


def _cmd_measure_build(args) -> int:
    from .measures import level_measure
    from .serialize import measure_to_jsonable

    ds = parse_digit_system(args.system)
    measure = level_measure(ds, args.level, args.atom_budget)
    data = measure_to_jsonable(measure)
    rows = [[*(str(x) for x in p), str(w)] for p, w in measure.atoms]
    header = [f"x{i+1}" for i in range(measure.dim)] + ["weight"]
    _emit(args, data, header, rows)
    return EXIT_OK


def _cmd_measure_convolve(args) -> int:
    from .measures import convolve
    from .serialize import load_json, measure_from_jsonable, measure_to_jsonable

    a = measure_from_jsonable(load_json(args.a))
    b = measure_from_jsonable(load_json(args.b))
    result = convolve(a, b, args.atom_budget)
    _emit(args, measure_to_jsonable(result))
    return EXIT_OK


def _cmd_ft_grid(args) -> int:
    import numpy as np

    from .fourier import mu_hat

    for flag, value in (("--xi-min", args.xi_min), ("--xi-max", args.xi_max)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} {value} is not finite")
    ds = parse_digit_system(args.system)
    if ds.dim != 1:
        raise ValueError("the CLI grid is one-dimensional; use the library for d >= 2")
    xs = np.linspace(args.xi_min, args.xi_max, args.count)
    rows = []
    for x in xs:
        value = mu_hat(ds, float(x), args.tol)
        rows.append([float(x), value.value.real, value.value.imag, value.tail_bound])
    payload = {
        "schema": "ft-grid/1",
        "rows": [
            {"xi": r[0], "re": r[1], "im": r[2], "certified_tail_bound": r[3]} for r in rows
        ],
    }
    _emit(args, payload, ["xi1", "re", "im", "certified_tail_bound"], rows)
    return EXIT_OK


def _cmd_packing_check(args) -> int:
    from .packing import CERTIFIED_NOT_PACKING, packing_certificate_from_digits
    from .serialize import certificate_to_jsonable

    if args.R is not None:
        matrix = ((args.R,),)
        digits_b = tuple((b,) for b in _parse_int_list(args.B))
        digits_c = tuple((c,) for c in _parse_int_list(args.C))
    else:
        ds_a = parse_digit_system(args.system_a)
        ds_b = parse_digit_system(args.system_b)
        if ds_a.matrix != ds_b.matrix:
            raise ValueError("the digit criterion needs a common matrix")
        matrix, digits_b, digits_c = ds_a.matrix, ds_a.digits, ds_b.digits
    cert = packing_certificate_from_digits(matrix, digits_b, digits_c)
    _emit(args, certificate_to_jsonable(cert))
    return EXIT_NEGATIVE if cert.status == CERTIFIED_NOT_PACKING else EXIT_OK


def _cmd_packing_witness(args) -> int:
    from fractions import Fraction

    from .errors import NoWitnessFound
    from .packing import singularity_witness
    from .serialize import witness_to_jsonable

    nu = parse_digit_system(args.nu)
    lam = parse_digit_system(args.lam)
    shift = tuple(Fraction(x) for x in args.t.split(","))
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
    from .frames import FrequencySet, jp_spectrum
    from .serialize import load_json

    choice = args.spectrum
    if choice == "jp":
        digits = _parse_int_list(args.freq_digits) if args.freq_digits else _default_hadamard_digits(ds)
        return jp_spectrum(ds, digits, level, args.atom_budget)
    if choice.startswith("pool:"):
        return FrequencySet.from_scalars(range(int(choice.split(":", 1)[1])), provenance="lattice-pool")
    data = load_json(choice)
    return FrequencySet(dim=data["dim"], freqs=tuple(tuple(f) for f in data["freqs"]))


def _cmd_frame_bounds(args) -> int:
    from .frames import frame_bounds
    from .measures import level_measure
    from .serialize import frame_report_to_jsonable

    ds = parse_digit_system(args.system)
    measure = level_measure(ds, args.level, args.atom_budget)
    freq_set = _build_spectrum(args, ds, args.level)
    report = frame_bounds(measure, freq_set)
    _emit(args, frame_report_to_jsonable(report))
    return EXIT_OK


def _cmd_exp_degeneracy(args) -> int:
    from .experiments import degeneracy_experiment
    from .frames import jp_spectrum

    nu = parse_digit_system(args.nu)
    lam = parse_digit_system(args.lam)
    freq_ds = parse_digit_system(args.freq_system)
    freq_set = jp_spectrum(freq_ds, _parse_int_list(args.freq_digits), args.freq_level, args.atom_budget)
    from fractions import Fraction

    shift = tuple(Fraction(x) for x in args.t.split(","))
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
    header = ["k", "ball_mass", "quotient", "quotient_over_mass", "inverse_mass"]
    rows = [[r.k, r.ball_mass, r.quotient, r.quotient_over_mass, r.inverse_mass] for r in result.rows]
    payload = {
        "schema": "degeneracy-table/1",
        "upper_estimate": result.upper_estimate,
        "nu_upper_estimate": result.nu_upper_estimate,
        "certificate_status": result.certificate_status,
        "rows": [
            {
                "k": r.k,
                "ball_mass": str(r.ball_mass),
                "quotient": r.quotient,
                "quotient_over_mass": r.quotient_over_mass,
                "inverse_mass": None if r.inverse_mass is None else str(r.inverse_mass),
            }
            for r in result.rows
        ],
        "collapse": [{"level": n, "lower": a} for n, a in result.collapse],
    }
    _emit(args, payload, header, rows)
    return EXIT_OK


def _cmd_exp_rotation(args) -> int:
    from .experiments import rotation_experiment

    result = rotation_experiment(
        args.level,
        _parse_float_list(args.thetas),
        collapse_levels=_parse_int_list(args.collapse_levels) if args.collapse_levels else (),
        budget=args.atom_budget,
    )
    header = ["theta_degrees", "status", "lower", "upper", "lower_deviation", "upper_deviation"]
    rows = [
        [r.theta_degrees, r.status, r.lower, r.upper, r.lower_deviation, r.upper_deviation]
        for r in result.rows
    ]
    payload = {
        "schema": "rotation-table/1",
        "base": {"lower": result.base_report.lower, "upper": result.base_report.upper},
        "rows": [
            {
                "theta_degrees": r.theta_degrees,
                "status": r.status,
                "lower": r.lower,
                "upper": r.upper,
                "lower_deviation": r.lower_deviation,
                "upper_deviation": r.upper_deviation,
            }
            for r in result.rows
        ],
        "collapse": [{"level": n, "lower": a} for n, a in result.collapse],
    }
    _emit(args, payload, header, rows)
    return EXIT_OK


def _cmd_exp_cross_bessel(args) -> int:
    from .experiments import cross_bessel_experiment

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
    header = ["level", "freq_count", "atom_count", "upper"]
    rows = [[r.level, r.freq_count, r.atom_count, r.upper] for r in result.rows]
    payload = {
        "schema": "cross-bessel-table/1",
        "rows": [
            {"level": r.level, "freq_count": r.freq_count, "atom_count": r.atom_count, "upper": r.upper}
            for r in result.rows
        ],
    }
    _emit(args, payload, header, rows)
    return EXIT_OK


def _cmd_verify_certificate(args) -> int:
    from .serialize import load_json, verify_certificate

    data = load_json(args.path)
    ok, reason = verify_certificate(data)
    payload = {"schema": "verification/1", "valid": ok, "reason": reason}
    _emit(args, payload)
    return EXIT_OK if ok else EXIT_NEGATIVE


def _add_common(parser) -> None:
    parser.add_argument("--out", help="output file (stdout when omitted)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--manifest", action="store_true", help="emit the resolved config next to the output")
    parser.add_argument("--atom-budget", type=int, default=None, help="override the atom budget")


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
    _add_common(build)
    build.set_defaults(func=_cmd_measure_build, command_path="measure build")

    conv = measure.add_parser("convolve", help="convolve two serialized measures")
    conv.add_argument("--a", required=True)
    conv.add_argument("--b", required=True)
    _add_common(conv)
    conv.set_defaults(func=_cmd_measure_convolve, command_path="measure convolve")

    ft = top.add_parser("ft", help="Fourier transform evaluation").add_subparsers(
        dest="action", required=True
    )
    grid = ft.add_parser("grid", help="transform values on a frequency grid")
    grid.add_argument("--system", required=True)
    grid.add_argument("--xi-min", type=float, default=-10.0)
    grid.add_argument("--xi-max", type=float, default=10.0)
    grid.add_argument("--count", type=int, default=201)
    grid.add_argument("--tol", type=float, default=1e-10)
    _add_common(grid)
    grid.set_defaults(func=_cmd_ft_grid, command_path="ft grid")

    packing = top.add_parser("packing", help="packing certification and witnesses").add_subparsers(
        dest="action", required=True
    )
    check = packing.add_parser("check", help="digit-criterion packing certificate")
    check.add_argument("--R", type=int, default=None, help="1D base (with --B and --C)")
    check.add_argument("--B", default=None, help="first digit set, e.g. 0,1")
    check.add_argument("--C", default=None, help="second digit set, e.g. 0,4")
    check.add_argument("--system-a", default=None)
    check.add_argument("--system-b", default=None)
    _add_common(check)
    check.set_defaults(func=_cmd_packing_check, command_path="packing check")

    witness = packing.add_parser("witness", help="translational-singularity witness search")
    witness.add_argument("--nu", required=True)
    witness.add_argument("--lam", required=True)
    witness.add_argument("--t", default="0", help="rational shift, comma-separated per coordinate")
    witness.add_argument("--level", type=int, required=True)
    _add_common(witness)
    witness.set_defaults(func=_cmd_packing_witness, command_path="packing witness")

    frame = top.add_parser("frame", help="frame bound computation").add_subparsers(
        dest="action", required=True
    )
    bounds = frame.add_parser("bounds", help="frame bounds of a spectrum on a level measure")
    bounds.add_argument("--system", required=True)
    bounds.add_argument("--level", type=int, required=True)
    bounds.add_argument("--spectrum", default="jp", help="jp, pool:K, or a JSON file")
    bounds.add_argument("--freq-digits", default=None, help="frequency digits for the jp spectrum")
    _add_common(bounds)
    bounds.set_defaults(func=_cmd_frame_bounds, command_path="frame bounds")

    exp = top.add_parser("exp", help="the three experiments").add_subparsers(dest="action", required=True)
    deg = exp.add_parser("degeneracy", help="quotient vs ball-mass table")
    deg.add_argument("--nu", required=True)
    deg.add_argument("--lam", required=True)
    deg.add_argument("--t", default="0")
    deg.add_argument("--level", type=int, required=True, help="level of the two factors")
    deg.add_argument("--freq-system", required=True)
    deg.add_argument("--freq-digits", required=True)
    deg.add_argument("--freq-level", type=int, required=True)
    deg.add_argument("--k", default="2,8,32,128,512")
    deg.add_argument("--collapse-levels", default=None)
    _add_common(deg)
    deg.set_defaults(func=_cmd_exp_degeneracy, command_path="exp degeneracy")

    rot = exp.add_parser("rotation", help="frame-bound invariance under rotation")
    rot.add_argument("--thetas", default="10,30,45,60,80,90")
    rot.add_argument("--level", type=int, default=4)
    rot.add_argument("--collapse-levels", default=None)
    _add_common(rot)
    rot.set_defaults(func=_cmd_exp_rotation, command_path="exp rotation")

    cross = exp.add_parser("cross-bessel", help="Bessel growth across measures")
    cross.add_argument("--src", required=True)
    cross.add_argument("--src-freqs", required=True)
    cross.add_argument("--dst", required=True)
    cross.add_argument("--levels", default="2,3,4,5,6")
    cross.add_argument("--depth-ratio", type=int, default=1)
    _add_common(cross)
    cross.set_defaults(func=_cmd_exp_cross_bessel, command_path="exp cross-bessel")

    verify = top.add_parser("verify", help="independent re-checks").add_subparsers(
        dest="action", required=True
    )
    vcert = verify.add_parser("certificate", help="re-derive a serialized certificate")
    vcert.add_argument("--path", required=True)
    _add_common(vcert)
    vcert.set_defaults(func=_cmd_verify_certificate, command_path="verify certificate")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command_path == "packing check":
        has_compact = args.R is not None and args.B is not None and args.C is not None
        has_systems = args.system_a is not None and args.system_b is not None
        if not (has_compact or has_systems):
            parser.error("packing check needs either --R/--B/--C or --system-a/--system-b")
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
