"""JSON schemas, CSV writers, and independent certificate verification.

All exact rationals serialize as "p/q" strings; floats use their shortest
round-tripping repr, so identical inputs give byte-identical files.
"""
from __future__ import annotations

import csv
import io
import json
import math
import operator
from fractions import Fraction
from itertools import chain, repeat
from pathlib import Path

from .errors import CantorFramesError, DimensionMismatch
from .frames import FrameReport
from .measures import AtomicMeasure, DigitSystem, PointCloud, translate
from .packing import (
    METHOD_DIFFERENCE_INTERSECTION,
    METHOD_DIGIT_CRITERION,
    METHOD_FINITE_LEVEL,
    PackingCertificate,
    SingularityWitness,
    packing_certificate_from_clouds,
    packing_certificate_from_digits,
)

SCHEMA_DIGIT_SYSTEM = "digit-system/1"
SCHEMA_MEASURE = "atomic-measure/1"
SCHEMA_CERTIFICATE = "packing-certificate/1"
SCHEMA_FRAME_REPORT = "frame-report/2"
SCHEMA_WITNESS = "singularity-witness/1"


def fraction_to_str(value: Fraction | int) -> str:
    return _ratio_strs([value.numerator], value.denominator)[0]


def _ratio_strs(numerators, denominator: int) -> list:
    """Each numerator/denominator (denominator > 0) in lowest terms, "p/q" or "p".

    The one ratio formatter: one gcd per numerator, one suffix per reduced denominator.
    """
    gcds = list(map(math.gcd, numerators, repeat(denominator)))
    suffixes = {g: "" if g == denominator else f"/{denominator // g}" for g in set(gcds)}
    return [f"{x // g}{suffixes[g]}" for x, g in zip(numerators, gcds)]


def point_to_strs(point) -> list:
    return [fraction_to_str(x) for x in point]


def strs_to_point(values) -> tuple:
    return tuple(Fraction(v) for v in values)


def digit_system_to_jsonable(ds: DigitSystem) -> dict:
    return {
        "schema": SCHEMA_DIGIT_SYSTEM,
        "dim": ds.dim,
        "matrix": [list(row) for row in ds.matrix],
        "digits": [list(b) for b in ds.digits],
    }


def digit_system_from_jsonable(data: dict) -> DigitSystem:
    if data.get("schema") != SCHEMA_DIGIT_SYSTEM:
        raise CantorFramesError(f"unexpected schema {data.get('schema')!r}")
    ds = DigitSystem(tuple(tuple(row) for row in data["matrix"]), tuple(tuple(b) for b in data["digits"]))
    if data.get("dim", ds.dim) != ds.dim:
        raise DimensionMismatch(f"dim {data['dim']!r} does not match the {ds.dim}x{ds.dim} matrix")
    return ds


def _atom_strings(m: AtomicMeasure) -> tuple:
    """The location strings of every atom, flat in atom order, and each atom's weight string."""
    distinct = list(set(m.masses))
    weights = dict(zip(distinct, _ratio_strs(distinct, m.mass_denominator)))
    return _ratio_strs(list(chain.from_iterable(m.numerators)), m.denominator), list(map(weights.get, m.masses))


def _json_list(items, indent: int) -> str:
    """Rendered JSON values as a list at ``indent``, laid out as ``canonical_json`` does."""
    if not items:
        return "[]"
    pad = "\n" + " " * (indent + 2)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * indent + "]"


def measure_json(m: AtomicMeasure) -> str:
    """The ``atomic-measure/1`` file of ``m``, as ``canonical_json`` would render the object.

    Atoms are written from the integer skeleton; ``offset`` is always zero.
    Every value is a ratio string of digits, "-" and "/", a float repr or
    an int, none of which JSON escapes, so the atoms are one join of their
    strings with the fixed text that ``canonical_json`` puts between them.
    """
    coordinates, weights = _atom_strings(m)
    locations = map('",\n        "'.join, zip(*[iter(coordinates)] * m.dim))
    entries = map(operator.add, locations, map('"\n      ],\n      "weight": "'.__add__, weights))
    body = '"\n    },\n    {\n      "location": [\n        "'.join(entries)
    atoms = '[\n    {\n      "location": [\n        "' + body + '"\n    }\n  ]' if m.numerators else "[]"
    return (
        '{\n  "atoms": ' + atoms
        + f',\n  "dim": {m.dim},\n  "offset": ' + _json_list(["0.0"] * m.dim, 2)
        + f',\n  "schema": "{SCHEMA_MEASURE}",\n  "total": "{fraction_to_str(m.total)}"\n}}\n'
    )


def measure_from_jsonable(data: dict) -> AtomicMeasure:
    if data.get("schema") != SCHEMA_MEASURE:
        raise CantorFramesError(f"unexpected schema {data.get('schema')!r}")
    atoms = [(a["location"], a["weight"]) for a in data["atoms"]]  # from_atoms parses each string once
    measure = AtomicMeasure.from_atoms(data["dim"], atoms)
    recorded = Fraction(data["total"])
    if measure.total != recorded:
        raise CantorFramesError("recorded total does not match the atom weights")
    # Older files may record a float shift of every atom; it moves the skeleton exactly.
    offset = data.get("offset")
    return translate(measure, offset) if offset and any(offset) else measure


def _evidence_value_to_jsonable(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return fraction_to_str(value)
    if isinstance(value, tuple):
        return point_to_strs(value)
    raise CantorFramesError(f"unsupported evidence value {value!r}")


def certificate_to_jsonable(cert: PackingCertificate) -> dict:
    inputs = {}
    for key, value in cert.inputs.items():
        if key == "matrix":
            inputs[key] = [list(row) for row in value]
        elif key.startswith("digits"):
            inputs[key] = [list(b) for b in value]
        elif key.startswith("points"):
            inputs[key] = [point_to_strs(p) for p in value]
        elif key.startswith("tail"):
            inputs[key] = None if value is None else fraction_to_str(value)
        else:
            raise CantorFramesError(f"unsupported certificate input {key!r}")
    evidence = {k: _evidence_value_to_jsonable(v) for k, v in cert.evidence.items()}
    return {
        "schema": SCHEMA_CERTIFICATE,
        "status": cert.status,
        "method": cert.method,
        "inputs": inputs,
        "evidence": evidence,
    }


def frame_report_to_jsonable(report: FrameReport) -> dict:
    return {
        "schema": SCHEMA_FRAME_REPORT,
        "lower": report.lower,
        "upper": report.upper,
        "ratio": None if math.isinf(report.ratio) else report.ratio,
        "rank": report.rank,
        "atom_count": report.atom_count,
        "freq_count": report.freq_count,
        "resolution": report.resolution,
        "worst_vector": [[z.real, z.imag] for z in report.worst_vector],
    }


def witness_to_jsonable(witness: SingularityWitness) -> dict:
    return {
        "schema": SCHEMA_WITNESS,
        "level": witness.level,
        "shift_point": point_to_strs(witness.shift_point),
        "witness_points": [point_to_strs(p) for p in witness.witness_points],
        "rho_mass": fraction_to_str(witness.rho_mass),
        "overlap_mass": fraction_to_str(witness.overlap_mass),
        "overlap_mass_total": fraction_to_str(witness.overlap_mass_total),
        "certificate": certificate_to_jsonable(witness.certificate),
    }


_CERTIFICATE_KEYS = {"schema", "status", "method", "inputs", "evidence"}
_VALID_METHODS = {METHOD_DIGIT_CRITERION, METHOD_FINITE_LEVEL, METHOD_DIFFERENCE_INTERSECTION}


def _recompute_certificate(inputs: dict) -> PackingCertificate:
    keys = set(inputs)
    if keys == {"matrix", "digits_b", "digits_c"}:
        return packing_certificate_from_digits(
            tuple(tuple(row) for row in inputs["matrix"]),
            tuple(tuple(b) for b in inputs["digits_b"]),
            tuple(tuple(b) for b in inputs["digits_c"]),
        )
    if keys == {"points_1", "tail_1", "points_2", "tail_2"}:
        def cloud(points, tail):
            pts = tuple(strs_to_point(p) for p in points)
            return PointCloud(len(pts[0]), pts, None if tail is None else Fraction(tail))

        return packing_certificate_from_clouds(
            cloud(inputs["points_1"], inputs["tail_1"]),
            cloud(inputs["points_2"], inputs["tail_2"]),
        )
    raise CantorFramesError(f"unrecognized certificate inputs: {sorted(keys)}")


def verify_certificate(data: dict) -> tuple[bool, str]:
    """Re-derive a serialized certificate from its inputs and compare.

    Strict: unknown keys, a wrong schema, or any evidence value that does
    not match the recomputation make the certificate invalid.
    """
    try:
        if not isinstance(data, dict) or set(data) != _CERTIFICATE_KEYS:
            return False, "certificate object must have exactly the schema keys"
        if data["schema"] != SCHEMA_CERTIFICATE:
            return False, f"unexpected schema {data['schema']!r}"
        if data["method"] not in _VALID_METHODS:
            return False, f"unknown method {data['method']!r}"
        recomputed = certificate_to_jsonable(_recompute_certificate(data["inputs"]))
    except (CantorFramesError, KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        return False, f"re-derivation failed: {exc}"
    if recomputed != data:
        return False, "certificate does not match its re-derivation"
    return True, "ok"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return fraction_to_str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_cell(v) for v in row])
    return buf.getvalue()
