import argparse
import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from functools import lru_cache

import numpy as np

from cantorframes import (
    AtomicMeasure,
    DigitSystem,
    DimensionMismatch,
    DuplicateDigits,
    FrequencySet,
    NonExpandingMatrix,
    PointCloud,
    SingularMatrix,
    add,
    attractor_points,
    convolve,
    degeneracy_experiment,
    frame_bounds,
    jp_spectrum,
    level_measure,
    packing_certificate_from_clouds,
    packing_certificate_from_digits,
    rotation_experiment,
    singularity_witness,
    translate,
)
from cantorframes import cli, measures
from cantorframes.cli import EXIT_ERROR, EXIT_OK, main, parse_digit_system
from cantorframes.serialize import (
    canonical_json,
    certificate_to_jsonable,
    csv_text,
    digit_system_from_jsonable,
    digit_system_to_jsonable,
    fraction_to_str,
    frame_report_to_jsonable,
    load_json,
    measure_from_jsonable,
    measure_json,
    verify_certificate,
    witness_to_jsonable,
)
from oracles import oracle_measure_jsonable, oracle_mu_hat

FOUR = DigitSystem.one_dimensional(4, [0, 1])
SIXTEEN_01 = DigitSystem.one_dimensional(16, [0, 1])
SIXTEEN_04 = DigitSystem.one_dimensional(16, [0, 4])
PLANAR = DigitSystem(((4, 0), (0, 4)), ((0, 0), (1, 0), (0, 1)))
NON_TRIANGULAR = DigitSystem(((1, 2), (-2, 1)), ((0, 0), (1, -1), (-2, 1)))
PLANAR_16 = [DigitSystem(((16, 0), (0, 16)), ((0, 0), (k, 0), (0, k))) for k in (1, 4)]


@lru_cache(maxsize=None)
def _oracle_ft_grid(count: int) -> tuple:
    """CSV and JSON of the default ft grid on 4:0,1, built point by point from the oracle."""
    rows = []
    for x in np.linspace(-10.0, 10.0, count).tolist():
        value, tail_bound, _ = oracle_mu_hat(FOUR, x, 1e-10)
        rows.append([x, value.real, value.imag, tail_bound])
    payload = {
        "schema": "ft-grid/1",
        "rows": [{"xi": r[0], "re": r[1], "im": r[2], "certified_tail_bound": r[3]} for r in rows],
    }
    return csv_text(["xi1", "re", "im", "certified_tail_bound"], rows), canonical_json(payload)


class TestSerializeRoundTrips:
    def test_digit_system(self):
        data = digit_system_to_jsonable(SIXTEEN_04)
        assert digit_system_from_jsonable(json.loads(json.dumps(data))) == SIXTEEN_04

    def test_digit_system_dim_must_match_the_matrix(self):
        # The dim field was ignored: this object loaded as the 1-D system 4:{0,1}.
        data = {"schema": "digit-system/1", "dim": 3, "matrix": [[4]], "digits": [[0], [1]]}
        with pytest.raises(DimensionMismatch):
            digit_system_from_jsonable(data)
        assert digit_system_from_jsonable({**data, "dim": 1}) == FOUR

    def test_measure(self):
        m = translate(level_measure(FOUR, 3), 0.25)
        data = json.loads(measure_json(m))
        assert measure_from_jsonable(json.loads(json.dumps(data))) == m

    def test_legacy_offset_folds_into_skeleton(self):
        m = level_measure(FOUR, 3)
        data = json.loads(measure_json(m))
        data["offset"] = [0.1]
        loaded = measure_from_jsonable(json.loads(json.dumps(data)))
        assert loaded == translate(m, 0.1)
        assert json.loads(measure_json(loaded))["offset"] == [0.0]
        assert '"offset": [\n    0.0\n  ]' in measure_json(loaded)

    @pytest.mark.parametrize("field, text", [("location", ["1/x"]), ("weight", "one")])
    def test_malformed_string_is_value_error(self, tmp_path, field, text):
        data = json.loads(measure_json(level_measure(FOUR, 2)))
        data["atoms"][1][field] = text
        with pytest.raises(ValueError):
            measure_from_jsonable(data)
        a_path, b_path, out = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
        a_path.write_text(canonical_json(data))
        b_path.write_text(measure_json(level_measure(FOUR, 1)))
        argv = ["measure", "convolve", "--a", str(a_path), "--b", str(b_path), "--out", str(out)]
        assert main(argv) == EXIT_ERROR
        assert not out.exists()

    def test_measure_total_guard(self):
        data = json.loads(measure_json(level_measure(FOUR, 2)))
        data["total"] = "2"
        with pytest.raises(Exception):
            measure_from_jsonable(data)

    @pytest.mark.parametrize(
        "measure",
        [
            level_measure(FOUR, 5),
            level_measure(SIXTEEN_04, 3),
            translate(level_measure(FOUR, 3), 0.1),
            translate(level_measure(FOUR, 2), (Fraction(-7, 3),)),
            level_measure(PLANAR, 3),
            translate(level_measure(PLANAR, 2), (0.25, -1.5)),
            convolve(level_measure(FOUR, 3), level_measure(FOUR, 2)),
            add(level_measure(FOUR, 2), AtomicMeasure.dirac((Fraction(1, 64),), Fraction(2, 3))),
            AtomicMeasure.from_atoms(2, [((Fraction(-1, 6), 2), 3), ((0, Fraction(5, 4)), Fraction(1, 9))]),
            level_measure(FOUR, 12),
            level_measure(NON_TRIANGULAR, 4),
            translate(level_measure(FOUR, 6), -1e-20),
            translate(level_measure(PLANAR, 3), (-(2.0**-70), 3 * 2.0**-64)),
            AtomicMeasure.from_atoms(1, [(k, 1) for k in range(-3, 4)]),
            AtomicMeasure.from_atoms(2, [((1, -2), 1), ((Fraction(1, 2), 3), 2), ((Fraction(-5, 6), 0), 3)]),
            AtomicMeasure.from_atoms(1, []),
        ],
        ids=["4:0,1-level5", "16:0,4-level3", "float-offset", "negative-shift", "planar",
             "planar-float-offset", "convolution", "sum", "from-atoms", "mu4-level12", "non-triangular",
             "big-integer-negative", "planar-big-integer", "integer-atoms", "mixed-denominators", "empty"],
    )
    def test_measure_writer_matches_fraction_view(self, measure):
        assert json.loads(measure_json(measure)) == oracle_measure_jsonable(measure)
        assert measure_json(measure) == canonical_json(oracle_measure_jsonable(measure))

    @pytest.mark.parametrize(
        "value, text", [(Fraction(3, 4), "3/4"), (Fraction(-8, 2), "-4"), (0, "0"), (-12, "-12")]
    )
    def test_fraction_to_str(self, value, text):
        assert fraction_to_str(value) == text

    def test_witness_serializes(self):
        witness = singularity_witness(SIXTEEN_01, SIXTEEN_04, 0, 2)
        data = witness_to_jsonable(witness)
        assert data["overlap_mass"] == "1"
        assert Fraction(data["rho_mass"]) == witness.rho_mass


class TestCertificateVerification:
    def test_digit_certificate_verifies(self):
        cert = packing_certificate_from_digits(((16,),), [(0,), (1,)], [(0,), (4,)])
        ok, reason = verify_certificate(certificate_to_jsonable(cert))
        assert ok, reason

    @pytest.mark.parametrize(
        "clouds, method",
        [
            ((attractor_points(SIXTEEN_01, 2), attractor_points(SIXTEEN_04, 2)), "finite-level-separation"),
            (
                (PointCloud(1, ((0,), (1,)), Fraction(0)), PointCloud(1, ((0,), (1,), (2,)), Fraction(0))),
                "difference-intersection",
            ),
            (tuple(attractor_points(ds, 2) for ds in PLANAR_16), "finite-level-separation"),
        ],
        ids=["sixteen", "refuted", "planar"],
    )
    def test_cloud_certificate_verifies(self, clouds, method):
        data = certificate_to_jsonable(packing_certificate_from_clouds(*clouds))
        assert data["method"] == method
        ok, reason = verify_certificate(json.loads(canonical_json(data)))
        assert ok, reason

    def test_unknown_key_rejected(self):
        data = certificate_to_jsonable(
            packing_certificate_from_digits(((16,),), [(0,), (1,)], [(0,), (4,)])
        )
        data["note"] = "tampered"
        assert not verify_certificate(data)[0]

    def test_every_evidence_character_flip_rejected(self):
        cert = packing_certificate_from_digits(((16,),), [(0,), (1,)], [(0,), (4,)])
        data = certificate_to_jsonable(cert)
        text = canonical_json(data)
        evidence_text = json.dumps(data["evidence"], sort_keys=True)
        start = text.index('"evidence"')
        region = text[start : start + len(evidence_text) + 200]
        flips = 0
        for offset, char in enumerate(region):
            if not (char.isalnum() or char in "/-"):
                continue
            replacement = "0" if char != "0" else "1"
            tampered_text = text[: start + offset] + replacement + text[start + offset + 1 :]
            try:
                tampered = json.loads(tampered_text)
            except json.JSONDecodeError:
                flips += 1
                continue
            assert not verify_certificate(tampered)[0], f"undetected flip at {offset}: {char!r}"
            flips += 1
        assert flips > 20

    def test_status_tamper_rejected(self):
        data = certificate_to_jsonable(
            packing_certificate_from_digits(((10,),), [(0,), (1,)], [(0,), (4,)])
        )
        assert data["status"] == "inconclusive"
        data["status"] = "certified-packing"
        assert not verify_certificate(data)[0]


class TestCliCommands:
    def test_measure_build(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["measure", "build", "--system", "4:0,1", "--level", "2", "--out", str(out)]) == 0
        data = load_json(out)
        assert data["atoms"][1]["location"] == ["1/16"]

    @pytest.mark.parametrize(
        "system, ds", [("4:0,1", FOUR), ("-5:0,3,-7", DigitSystem.one_dimensional(-5, [0, 3, -7]))]
    )
    def test_measure_build_csv_matches_fraction_view(self, tmp_path, system, ds):
        out = tmp_path / "m.csv"
        assert main(["measure", "build", f"--system={system}", "--level", "3", "--format", "csv", "--out", str(out)]) == 0
        rows = [[*(str(x) for x in p), str(w)] for p, w in level_measure(ds, 3).atoms]
        assert out.read_text() == csv_text(["x1", "weight"], rows)

    def test_measure_build_refuses_non_integer_digit(self, tmp_path, capsys):
        # int() read the digit 1.9 as 1 and built 4:{0,1}.
        system = tmp_path / "ds.json"
        system.write_text(json.dumps({"schema": "digit-system/1", "dim": 1, "matrix": [[4]], "digits": [[0], [1.9]]}))
        assert main(["measure", "build", "--system", str(system), "--level", "1"]) == EXIT_ERROR
        assert "ValueError" in capsys.readouterr().err

    def test_measure_build_refuses_dim_mismatch(self, tmp_path, capsys):
        system = tmp_path / "bad.json"
        system.write_text(json.dumps({"schema": "digit-system/1", "dim": 3, "matrix": [[4]], "digits": [[0], [1]]}))
        assert main(["measure", "build", "--system", str(system), "--level", "1"]) == EXIT_ERROR
        assert "DimensionMismatch" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "system, error",
        [
            ("0:0,1", SingularMatrix),
            ("4:0,1,0", DuplicateDigits),
            ("1:0,1", NonExpandingMatrix),
            ("-1:0,1", NonExpandingMatrix),
            ({"matrix": [[2, 4], [1, 2]], "digits": [[0, 0]]}, SingularMatrix),
            ({"matrix": [[4, 0], [0, 4]], "digits": [[0, 0], [1, 0], [0, 0]]}, DuplicateDigits),
            ({"matrix": [[4, 0], [0, 4]], "digits": []}, DuplicateDigits),
            ({"matrix": [[1, 1], [1, 0]], "digits": [[0, 0]]}, NonExpandingMatrix),
        ],
        ids=[
            "singular", "duplicate", "identity", "minus_one",
            "file_singular", "file_duplicate", "file_empty", "file_general",
        ],
    )
    def test_invalid_system_refused_at_parse(self, tmp_path, capsys, system, error):
        if isinstance(system, dict):
            path = tmp_path / "ds.json"
            path.write_text(json.dumps({"schema": "digit-system/1", "dim": 2, **system}))
            system = str(path)
        with pytest.raises(error):
            parse_digit_system(system)
        out = tmp_path / "m.json"
        assert main(["measure", "build", f"--system={system}", "--level", "1", "--out", str(out)]) == EXIT_ERROR
        assert error.__name__ in capsys.readouterr().err
        assert not out.exists()

    def test_digit_system_file_is_named_by_its_json_path(self, tmp_path):
        path = tmp_path / "ds"
        path.write_text(json.dumps({"schema": "digit-system/1", "dim": 1, "matrix": [[4]], "digits": [[0], [1]]}))
        (tmp_path / "ds.json").write_text(path.read_text())
        assert parse_digit_system(str(tmp_path / "ds.json")) == DigitSystem.one_dimensional(4, [0, 1])
        with pytest.raises(ValueError, match="cannot parse digit system"):
            parse_digit_system(f"@{path}")

    @pytest.mark.parametrize(
        "argv",
        [
            ["frame", "bounds", "--system", "4:0,1", "--level", "2"],
            ["measure", "convolve", "--a", "a.json", "--b", "b.json"],
            ["packing", "check", "--system-a", "16:0,1", "--system-b", "16:0,4"],
            ["packing", "witness", "--nu", "16:0,1", "--lam", "16:0,4", "--level", "2"],
            ["verify", "certificate", "--path", "cert.json"],
        ],
        ids=["frame_bounds", "measure_convolve", "packing_check", "packing_witness", "verify_certificate"],
    )
    def test_csv_refused_where_no_table_exists(self, tmp_path, capsys, argv):
        # These commands wrote JSON to the --out path and recorded "format": "csv" in the manifest.
        out = tmp_path / "out.csv"
        assert main(argv + ["--format", "csv", "--out", str(out), "--manifest"]) == EXIT_ERROR
        assert "invalid choice: 'csv'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_measure_build_json_forms_no_csv_rows(self, monkeypatch, capsys):
        from cantorframes import cli

        emitted = []
        monkeypatch.setattr(cli, "_emit", lambda args, *payload: emitted.append(payload))
        assert main(["measure", "build", "--system", "4:0,1", "--level", "2"]) == 0
        assert emitted == [(measure_json(level_measure(FOUR, 2)),)]

    def test_measure_files_match_fraction_view(self, tmp_path):
        a_path, b_path, conv, built, table = (tmp_path / n for n in ("a.json", "b.json", "c.json", "m.json", "m.csv"))
        assert main(["measure", "build", "--system", "4:0,1", "--level", "12", "--out", str(built)]) == 0
        assert main(["measure", "build", "--system", "4:0,1", "--level", "12", "--format", "csv", "--out", str(table)]) == 0
        main(["measure", "build", "--system", "16:0,1", "--level", "6", "--out", str(a_path)])
        main(["measure", "build", "--system", "16:0,4", "--level", "6", "--out", str(b_path)])
        assert main(["measure", "convolve", "--a", str(a_path), "--b", str(b_path), "--out", str(conv)]) == 0
        measure = level_measure(FOUR, 12)
        assert built.read_text() == canonical_json(oracle_measure_jsonable(measure))
        product = convolve(level_measure(SIXTEEN_01, 6), level_measure(SIXTEEN_04, 6))
        assert conv.read_text() == canonical_json(oracle_measure_jsonable(product))
        rows = [[*(str(x) for x in p), str(w)] for p, w in measure.atoms]
        assert table.read_text() == csv_text(["x1", "weight"], rows)

    @pytest.mark.parametrize("system", [FOUR, NON_TRIANGULAR], ids=["4:0,1", "non-triangular"])
    def test_measure_csv_matches_fraction_view(self, tmp_path, system):
        # The CSV rows and the JSON atoms come from one formatter; both match the Fraction view.
        (tmp_path / "system.json").write_text(canonical_json(digit_system_to_jsonable(system)))
        table = tmp_path / "m.csv"
        argv = ["measure", "build", "--system", str(tmp_path / "system.json"), "--level", "5", "--format", "csv"]
        assert main(argv + ["--out", str(table)]) == 0
        measure = level_measure(system, 5)
        jsonable = oracle_measure_jsonable(measure)
        rows = [[*atom["location"], atom["weight"]] for atom in jsonable["atoms"]]
        header = [f"x{i + 1}" for i in range(system.dim)] + ["weight"]
        assert table.read_text() == csv_text(header, rows)

    def test_measure_convolve_matches_library(self, tmp_path):
        a_path, b_path, out = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
        main(["measure", "build", "--system", "16:0,1", "--level", "2", "--out", str(a_path)])
        main(["measure", "build", "--system", "16:0,4", "--level", "2", "--out", str(b_path)])
        assert main(["measure", "convolve", "--a", str(a_path), "--b", str(b_path), "--out", str(out)]) == 0
        assert measure_from_jsonable(load_json(out)) == level_measure(FOUR, 4)

    def test_packing_check_exit_codes(self, tmp_path):
        cert = tmp_path / "cert.json"
        assert main(["packing", "check", "--system-a", "16:0,1", "--system-b", "16:0,4", "--out", str(cert)]) == 0
        data = load_json(cert)
        assert data["status"] == "certified-packing"
        assert data["evidence"]["D"] == "5"
        assert main(["packing", "check", "--system-a", "16:0,1", "--system-b", "16:0,1", "--out", str(cert)]) == 2
        assert main(["packing", "check", "--system-a", "10:0,1", "--system-b", "10:0,4", "--out", str(cert)]) == 0
        assert load_json(cert)["status"] == "inconclusive"

    def test_packing_check_reads_planar_system_files(self, tmp_path, capsys):
        paths = [tmp_path / f"ds{k}.json" for k in (1, 4)]
        for path, ds in zip(paths, PLANAR_16):
            path.write_text(canonical_json(digit_system_to_jsonable(ds)))
        cert = tmp_path / "cert.json"
        argv = ["packing", "check", "--system-a", str(paths[0]), "--system-b", str(paths[1])]
        assert main(argv + ["--out", str(cert)]) == 0
        expected = packing_certificate_from_digits(PLANAR_16[0].matrix, PLANAR_16[0].digits, PLANAR_16[1].digits)
        assert cert.read_text() == canonical_json(certificate_to_jsonable(expected))
        assert main(["packing", "check", "--system-a", str(paths[0]), "--system-b", "16:0,4"]) == EXIT_ERROR
        assert "the digit criterion needs a common matrix" in capsys.readouterr().err

    def test_packing_witness(self, tmp_path):
        out = tmp_path / "w.json"
        rc = main(
            ["packing", "witness", "--nu", "16:0,1", "--lam", "16:0,4", "--t", "0", "--level", "3", "--out", str(out)]
        )
        assert rc == 0
        data = load_json(out)
        assert data["overlap_mass"] == "1"
        assert Fraction(data["rho_mass"]) <= Fraction(1, 8)

    def test_frame_bounds_jp_default(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["frame", "bounds", "--system", "4:0,1", "--level", "4", "--spectrum", "jp", "--out", str(out)]) == 0
        data = load_json(out)
        assert abs(data["lower"] - 1) < 1e-8 and abs(data["upper"] - 1) < 1e-8

    def test_frame_bounds_jp_past_exact_doubles(self, tmp_path):
        # 64:{0,1} at level 10 has jp frequencies up to 2^59; as floats, distinct ones used to coincide.
        out = tmp_path / "r.json"
        argv = ["frame", "bounds", "--system", "64:0,1", "--level", "10", "--spectrum", "jp", "--out", str(out)]
        assert main(argv) == 0
        data = load_json(out)
        assert data["freq_count"] == 1024
        assert abs(data["lower"] - 1) < 1e-8 and abs(data["upper"] - 1) < 1e-8

    def test_exp_degeneracy_refuses_k_below_one(self, tmp_path, capsys):
        argv = ["exp", "degeneracy", "--nu", "16:0,1", "--lam", "16:0,4", "--t", "0", "--level", "1",
                "--freq-system", "4:0,1", "--freq-digits", "0,2", "--freq-level", "2", "--k", "0"]
        assert main(argv + ["--out", str(tmp_path / "d.json")]) == EXIT_ERROR
        assert "k must be >= 1, got 0" in capsys.readouterr().err

    def test_exp_cross_bessel_refuses_depth_ratio_below_one(self, tmp_path, capsys):
        argv = ["exp", "cross-bessel", "--src", "8:0,1", "--src-freqs", "0,4", "--dst", "4:0,1",
                "--levels", "3", "--depth-ratio", "0", "--out", str(tmp_path / "cb.json")]
        assert main(argv) == EXIT_ERROR
        assert "depth ratio must be >= 1" in capsys.readouterr().err

    def test_frame_bounds_pool_spectrum(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["frame", "bounds", "--system", "4:0,1", "--level", "3", "--spectrum", "pool:20", "--out", str(out)]) == 0
        pool = FrequencySet.from_scalars(range(20))
        report = frame_bounds(level_measure(DigitSystem.one_dimensional(4, [0, 1]), 3), pool)
        assert out.read_text() == canonical_json(frame_report_to_jsonable(report))

    def test_ft_grid_csv(self, tmp_path):
        out = tmp_path / "grid.csv"
        rc = main(
            ["ft", "grid", "--system", "4:0,1", "--xi-min", "-2", "--xi-max", "2", "--count", "5",
             "--tol", "1e-8", "--format", "csv", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "xi1,re,im,certified_tail_bound"
        assert len(lines) == 6

    def test_ft_grid_nan_tolerance_is_error(self, tmp_path, capsys):
        # A NaN tolerance used to print value 1 beside a "certified" tail bound far above it.
        out = tmp_path / "grid.csv"
        rc = main(
            ["ft", "grid", "--system", "4:0,1", "--count", "3", "--tol", "nan", "--format", "csv", "--out", str(out)]
        )
        assert rc == EXIT_ERROR
        assert "ToleranceUnreachable" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_ft_grid_matches_per_point_oracle(self, tmp_path, fmt):
        out = tmp_path / f"grid.{fmt}"
        assert main(["ft", "grid", "--system", "4:0,1", "--count", "1001", "--format", fmt, "--out", str(out)]) == 0
        expected_csv, expected_json = _oracle_ft_grid(1001)
        assert out.read_text() == (expected_csv if fmt == "csv" else expected_json)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_ft_grid_edge_counts_match_oracle(self, tmp_path, fmt, count):
        # The one-pass writers at the edges of the grid: no rows ("rows": []), one row, two rows.
        out = tmp_path / f"grid.{fmt}"
        assert main(["ft", "grid", "--system", "4:0,1", "--count", str(count), "--format", fmt, "--out", str(out)]) == 0
        expected_csv, expected_json = _oracle_ft_grid(count)
        assert out.read_text() == (expected_csv if fmt == "csv" else expected_json)

    def test_ft_grid_negative_count_is_error(self, tmp_path, capsys):
        # numpy refused it with "Number of samples, -1, must be non-negative.", naming no flag.
        out = tmp_path / "grid.csv"
        rc = main(["ft", "grid", "--system", "4:0,1", "--count", "-1", "--format", "csv", "--out", str(out)])
        assert rc == EXIT_ERROR
        assert "--count -1 is negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--xi-max", "nan"), ("--xi-max", "inf"), ("--xi-max", "-inf"),
         ("--xi-min", "nan"), ("--xi-min", "inf"), ("--xi-min", "-inf")],
        ids=["nan", "inf", "-inf", "xi-min-nan", "xi-min-inf", "xi-min--inf"],
    )
    def test_ft_grid_non_finite_bound_is_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "grid.csv"
        bounds = {"--xi-min": "0", "--xi-max": "1", flag: value}
        rc = main(
            ["ft", "grid", "--system", "4:0,1", "--count", "3", *(f"{k}={v}" for k, v in bounds.items()),
             "--format", "csv", "--out", str(out)]
        )
        assert rc == EXIT_ERROR
        assert f"{flag} {value} is not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_exp_rotation_non_finite_theta_is_error(self, tmp_path, capsys, value):
        out = tmp_path / "rotation.json"
        assert main(["exp", "rotation", "--level", "2", "--thetas", value, "--out", str(out)]) == EXIT_ERROR
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_certificate_roundtrip(self, tmp_path):
        cert_path = tmp_path / "cert.json"
        main(["packing", "check", "--system-a", "16:0,1", "--system-b", "16:0,4", "--out", str(cert_path)])
        assert main(["verify", "certificate", "--path", str(cert_path)]) == 0
        data = load_json(cert_path)
        data["evidence"]["D"] = "6"
        cert_path.write_text(canonical_json(data))
        assert main(["verify", "certificate", "--path", str(cert_path)]) == 2

    def test_exp_rotation_flags_right_angle(self, tmp_path):
        out = tmp_path / "rot.csv"
        rc = main(
            ["exp", "rotation", "--thetas", "10,90", "--level", "2", "--format", "csv", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert "singular-a4" in lines[2]

    def test_exp_degeneracy_csv(self, tmp_path):
        out = tmp_path / "deg.csv"
        rc = main(
            ["exp", "degeneracy", "--nu", "16:0,1", "--lam", "16:0,4", "--t", "0", "--level", "2",
             "--freq-system", "4:0,1", "--freq-digits", "0,2", "--freq-level", "4",
             "--k", "2,8", "--format", "csv", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("k,ball_mass,quotient")

    def test_exp_cross_bessel(self, tmp_path):
        out = tmp_path / "cb.json"
        rc = main(
            ["exp", "cross-bessel", "--src", "8:0,1", "--src-freqs", "0,4", "--dst", "4:0,1",
             "--levels", "1,2", "--out", str(out)]
        )
        assert rc == 0
        assert len(load_json(out)["rows"]) == 2

    @pytest.mark.parametrize(
        "argv, row_type",
        [
            (["exp", "rotation", "--thetas", "10,90", "--level", "2"], "RotationRow"),
            (["exp", "degeneracy", "--nu", "16:0,1", "--lam", "16:0,4", "--level", "1", "--freq-system",
              "4:0,1", "--freq-digits", "0,2", "--freq-level", "2", "--k", "2,8"], "DegeneracyRow"),
            (["exp", "cross-bessel", "--src", "8:0,1", "--src-freqs", "0,4", "--dst", "4:0,1", "--levels", "1,2"],
             "CrossBesselRow"),
            (["exp", "cross-bessel", "--src", "8:0,1", "--src-freqs", "0,4", "--dst", "4:0,1", "--levels", ""],
             "CrossBesselRow"),
        ],
        ids=["rotation", "degeneracy", "cross-bessel", "empty-table"],
    )
    def test_exp_tables_follow_row_dataclass(self, tmp_path, argv, row_type):
        import dataclasses

        from cantorframes import experiments

        fields = [f.name for f in dataclasses.fields(getattr(experiments, row_type))]
        assert main(argv + ["--format", "csv", "--out", str(tmp_path / "t.csv")]) == 0
        assert main(argv + ["--out", str(tmp_path / "t.json")]) == 0
        lines = (tmp_path / "t.csv").read_text().splitlines()
        rows = load_json(tmp_path / "t.json")["rows"]
        assert lines[0].split(",") == fields
        assert len(lines) - 1 == len(rows) == (0 if argv[-1] == "" else 2)
        assert all(sorted(row) == sorted(fields) for row in rows)

    def test_usage_error_exit_code(self, capsys):
        rc = main(["packing", "witness", "--nu", "16:0,1", "--lam", "16:0,1", "--t", "0", "--level", "2"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_help_exits_zero_and_usage_errors_exit_one(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "usage: cantorframes" in capsys.readouterr().out
        assert main(["frame", "bounds", "--system", "4:0,1"]) == EXIT_ERROR
        assert "--level" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["packing", "witness", "--nu", "16:0,1", "--lam", "16:0,4", "--level", "3"], "--t", "-1/15"),
            (["exp", "degeneracy", "--nu", "16:0,1", "--lam", "16:0,4", "--level", "1", "--freq-system", "4:0,1",
              "--freq-digits", "0,2", "--freq-level", "2", "--k", "2,8"], "--t", "-1/15"),
            (["exp", "rotation", "--level", "2"], "--thetas", "-30,10"),
            (["ft", "grid", "--system", "4:0,1", "--count", "5"], "--xi-min", "-1e3"),
        ],
        ids=["witness", "degeneracy", "rotation", "ft-grid"],
    )
    def test_negative_value_after_its_flag(self, tmp_path, argv, flag, value):
        # argparse alone takes "-1/15", "-30,10" and "-1e3" for options; only --flag=value reached it.
        assert main(argv + [flag, value, "--out", str(tmp_path / "spaced")]) == EXIT_OK
        assert main(argv + [f"{flag}={value}", "--out", str(tmp_path / "joined")]) == EXIT_OK
        assert (tmp_path / "spaced").read_bytes() == (tmp_path / "joined").read_bytes()

    def test_flag_before_another_flag_is_still_a_usage_error(self, capsys):
        assert main(["packing", "witness", "--nu", "16:0,1", "--lam", "16:0,4", "--t", "--level", "3"]) == EXIT_ERROR
        assert "argument --t: expected one argument" in capsys.readouterr().err

    def test_witness_not_found_is_negative_exit(self, tmp_path):
        out = tmp_path / "w.json"
        rc = main(
            ["packing", "witness", "--nu", "4:0,1", "--lam", "4:0,2", "--t", "0", "--level", "1", "--out", str(out)]
        )
        assert rc in (1, 2)


def test_no_cli_function_imports():
    # The CLI imports everything once, at the top of the module.
    tree = ast.parse(Path(cli.__file__).read_text())
    offenders = [
        f"{func.name}:{node.lineno}"
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not offenders


def test_exact_frame_report_past_the_eigen_budget(capsys):
    # 8192 atoms, twice the eigen budget, but the jp Gram is decided diagonal, so no eigensolve runs.
    assert main(["frame", "bounds", "--system", "4:0,1", "--level", "13", "--spectrum", "jp"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["lower"] == report["upper"] == 1.0 and report["atom_count"] == 8192


def _spectrum_file(path, dim: int, freqs) -> str:
    path.write_text(json.dumps({"dim": dim, "freqs": [list(f) for f in freqs]}))
    return str(path)


def test_spectrum_file_reports_as_the_jp_set(tmp_path):
    argv = ["frame", "bounds", "--system", "4:0,1", "--level", "8", "--out"]
    spectrum = _spectrum_file(tmp_path / "jp8.json", 1, jp_spectrum(FOUR, [0, 2], 8).freqs)
    assert main(argv + [str(tmp_path / "jp.json"), "--spectrum", "jp"]) == 0
    assert main(argv + [str(tmp_path / "file.json"), "--spectrum", spectrum]) == 0
    assert (tmp_path / "file.json").read_bytes() == (tmp_path / "jp.json").read_bytes()


def test_spectrum_file_past_the_eigen_budget(tmp_path, capsys):
    # The file's set is read as a cube, as the built jp set is, so its Gram is decided diagonal too.
    spectrum = _spectrum_file(tmp_path / "jp13.json", 1, jp_spectrum(FOUR, [0, 2], 13).freqs)
    assert main(["frame", "bounds", "--system", "4:0,1", "--level", "13", "--spectrum", spectrum]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["lower"] == report["upper"] == 1.0 and report["atom_count"] == 8192


def test_spectrum_file_of_another_dimension_exits_one(tmp_path, capsys):
    spectrum = _spectrum_file(tmp_path / "planar.json", 2, [(0, 0), (2, 0)])
    assert main(["frame", "bounds", "--system", "4:0,1", "--level", "3", "--spectrum", spectrum]) == EXIT_ERROR
    assert "SizeMismatch" in capsys.readouterr().err


def test_atom_budget_flag_refuses_past_its_value(capsys):
    assert main(["measure", "build", "--system", "2:0,1", "--level", "5", "--atom-budget", "8"]) == EXIT_ERROR
    assert "AtomBudgetExceeded" in capsys.readouterr().err


def test_atom_budget_flag_is_recorded_in_the_manifest(tmp_path):
    # The flag is the one input of the budget besides budget=, so the manifest records every budget a run used.
    out = tmp_path / "m.json"
    argv = ["measure", "build", "--system", "2:0,1", "--level", "3", "--atom-budget", "8", "--manifest"]
    assert main(argv + ["--out", str(out)]) == 0
    assert len(measure_from_jsonable(load_json(out))) == 8
    assert load_json(tmp_path / "m.json.manifest.json")["config"]["atom_budget"] == 8


@pytest.mark.parametrize(
    "argv",
    [
        ["ft", "grid", "--system", "4:0,1", "--count", "3"],
        ["packing", "check", "--system-a", "16:0,1", "--system-b", "16:0,4"],
        ["verify", "certificate", "--path", "cert.json"],
    ],
    ids=["ft_grid", "packing_check", "verify_certificate"],
)
def test_atom_budget_refused_where_nothing_is_enumerated(tmp_path, monkeypatch, capsys, argv):
    # These commands took --atom-budget and ignored it.
    monkeypatch.chdir(tmp_path)
    assert main(["packing", "check", "--system-a", "16:0,1", "--system-b", "16:0,4", "--out", "cert.json"]) == 0
    assert main(argv + ["--atom-budget", "1", "--out", "out.json", "--manifest"]) == EXIT_ERROR
    assert "unrecognized arguments: --atom-budget 1" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cert.json"]


def _leaf_parsers(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _leaf_parsers(sub)
    if parser.get_default("func"):
        yield parser


def test_every_cli_flag_is_read():
    # Each flag besides --out, --format and --manifest must be read as args.<dest> by its
    # command's function or by a CLI function that the command hands args to.
    functions = {f.name: f for f in ast.parse(Path(cli.__file__).read_text()).body if isinstance(f, ast.FunctionDef)}

    def reads(name, seen):
        seen.add(name)
        found = set()
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args":
                found.add(node.attr)
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) in functions.keys() - seen
                and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)
            ):
                found |= reads(node.func.id, seen)
        return found

    unread, commands = [], 0
    for parser in _leaf_parsers(cli.build_parser()):
        commands += 1
        flags = {a.dest for a in parser._actions if a.option_strings} - {"help", "out", "format", "manifest"}
        unread += [f"{parser.prog} --{d}" for d in sorted(flags - reads(parser.get_default("func").__name__, set()))]
    assert commands == 10 and not unread


FOUR_LEVEL2_SPECTRUM = jp_spectrum(FOUR, [0, 2], 2)


@pytest.mark.parametrize(
    "call, builds",
    [
        (lambda: jp_spectrum(FOUR, [0, 2], 3), 0),
        (lambda: singularity_witness(SIXTEEN_01, SIXTEEN_04, 0, 2), 0),
        (lambda: degeneracy_experiment(SIXTEEN_01, SIXTEEN_04, 0, 2, FOUR_LEVEL2_SPECTRUM, [2, 8], (2, 3)), 0),
        # One build for each --system-* argument it parses.
        (lambda: main(["packing", "check", "--system-a", "16:0,1", "--system-b", "16:0,4"]), 2),
        # 4:{0,1}, 16:{0,1} and 16:{0,4}, once each.
        (lambda: rotation_experiment(2, [0], collapse_levels=(2,)), 3),
    ],
    ids=["jp_spectrum", "singularity_witness", "degeneracy_experiment", "packing_check", "rotation_experiment"],
)
def test_built_digit_systems_are_not_rebuilt(monkeypatch, capsys, call, builds):
    # Each DigitSystem build inverts its matrix once; these calls used to rebuild systems they were handed.
    inversions, original = [], measures._fraction_inverse
    monkeypatch.setattr(measures, "_fraction_inverse", lambda matrix: inversions.append(matrix) or original(matrix))
    call()
    assert len(inversions) == builds


class TestDeterminism:
    def test_identical_invocations_byte_identical(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["exp", "degeneracy", "--nu", "16:0,1", "--lam", "16:0,4", "--t", "0", "--level", "2",
                "--freq-system", "4:0,1", "--freq-digits", "0,2", "--freq-level", "4",
                "--k", "2,8,32", "--collapse-levels", "2,3"]
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_manifest_round_trips(self, tmp_path):
        out = tmp_path / "cert.json"
        argv = ["packing", "check", "--system-a", "16:0,1", "--system-b", "16:0,4",
                "--out", str(out), "--manifest"]
        assert main(argv) == 0
        manifest_path = Path(str(out) + ".manifest.json")
        manifest = load_json(manifest_path)
        assert manifest["command"] == "packing check"
        assert manifest["config"]["system_a"] == "16:0,1"
        assert json.loads(canonical_json(manifest)) == manifest

    def test_manifest_records_out_relative_to_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "tables" / "cert.json"
        out.parent.mkdir()
        argv = ["packing", "check", "--system-a", "16:0,1", "--system-b", "16:0,4",
                "--out", str(out), "--manifest"]
        assert out.is_absolute() and main(argv) == 0
        manifest = load_json(Path(str(out) + ".manifest.json"))
        assert manifest["config"]["out"] == "tables/cert.json"


class TestParserReuse:
    """``main`` builds its parser once; a run of calls must give what a fresh parser per call gives."""

    SEQUENCE = [
        ["packing", "check", "--system-a", "16:0,1", "--system-b", "16:0,4", "--out", "a.json", "--manifest"],
        ["packing", "check", "--system-a", "16:0,1", "--system-b", "16:0,4", "--out", "b.json"],
        ["measure", "build", "--system", "4:0,1", "--out", "c.json"],
        ["measure", "build", "--system", "4:0,1", "--level", "3", "--out", "c.json"],
        ["packing", "check", "--system-a", "16:0,1"],
        ["packing", "check", "--system-a", "16:0,1", "--system-b", "16:0,1", "--manifest"],
    ]

    def _run(self, directory, monkeypatch, capsys):
        monkeypatch.chdir(directory)
        calls = []
        for argv in self.SEQUENCE:
            calls.append((main(argv), *capsys.readouterr()))
        return calls, {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    def test_reused_parser_matches_fresh_parsers(self, tmp_path, monkeypatch, capsys):
        from cantorframes import cli

        (tmp_path / "reused").mkdir()
        (tmp_path / "fresh").mkdir()
        cli._parser.cache_clear()
        reused = self._run(tmp_path / "reused", monkeypatch, capsys)
        assert cli._parser.cache_info().hits == len(self.SEQUENCE) - 1
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = self._run(tmp_path / "fresh", monkeypatch, capsys)
        assert reused == fresh
        calls, files = reused
        assert [c[0] for c in calls] == [0, 0, 1, 0, 1, 2]
        assert "--level" in calls[2][2] and "--system-b" in calls[4][2]
        assert '"command": "packing check"' in calls[5][1]
        assert sorted(files) == ["a.json", "a.json.manifest.json", "b.json", "c.json"]


def test_jp_frame_bounds_do_not_depend_on_blas_threads(tmp_path):
    # The jp Gram is decided exactly diagonal, so no eigensolve runs and the bounds are exactly 1.
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    texts = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.json"
        args = ["frame", "bounds", "--system", "4:0,1", "--level", "8", "--spectrum", "jp", "--out", str(out)]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        subprocess.run([sys.executable, "-m", "cantorframes.cli", *args], env=env, timeout=120, check=True)
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    report = json.loads(texts[0])
    assert report["lower"] == report["upper"] == 1.0
