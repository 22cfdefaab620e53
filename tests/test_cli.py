import json
from fractions import Fraction
from pathlib import Path

import pytest

from cantorframes import (
    DigitSystem,
    attractor_points,
    level_measure,
    packing_certificate_from_clouds,
    packing_certificate_from_digits,
    singularity_witness,
    translate,
)
from cantorframes.cli import EXIT_ERROR, main
from cantorframes.serialize import (
    canonical_json,
    certificate_to_jsonable,
    digit_system_from_jsonable,
    digit_system_to_jsonable,
    load_json,
    measure_from_jsonable,
    measure_to_jsonable,
    verify_certificate,
    witness_to_jsonable,
)

FOUR = DigitSystem.one_dimensional(4, [0, 1])
SIXTEEN_01 = DigitSystem.one_dimensional(16, [0, 1])
SIXTEEN_04 = DigitSystem.one_dimensional(16, [0, 4])


class TestSerializeRoundTrips:
    def test_digit_system(self):
        data = digit_system_to_jsonable(SIXTEEN_04)
        assert digit_system_from_jsonable(json.loads(json.dumps(data))) == SIXTEEN_04

    def test_measure(self):
        m = translate(level_measure(FOUR, 3), 0.25)
        data = measure_to_jsonable(m)
        assert measure_from_jsonable(json.loads(json.dumps(data))) == m

    def test_measure_total_guard(self):
        data = measure_to_jsonable(level_measure(FOUR, 2))
        data["total"] = "2"
        with pytest.raises(Exception):
            measure_from_jsonable(data)

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

    def test_cloud_certificate_verifies(self):
        cert = packing_certificate_from_clouds(
            attractor_points(SIXTEEN_01, 2), attractor_points(SIXTEEN_04, 2)
        )
        ok, reason = verify_certificate(certificate_to_jsonable(cert))
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

    def test_measure_convolve_matches_library(self, tmp_path):
        a_path, b_path, out = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
        main(["measure", "build", "--system", "16:0,1", "--level", "2", "--out", str(a_path)])
        main(["measure", "build", "--system", "16:0,4", "--level", "2", "--out", str(b_path)])
        assert main(["measure", "convolve", "--a", str(a_path), "--b", str(b_path), "--out", str(out)]) == 0
        assert measure_from_jsonable(load_json(out)) == level_measure(FOUR, 4)

    def test_packing_check_exit_codes(self, tmp_path):
        cert = tmp_path / "cert.json"
        assert main(["packing", "check", "--R", "16", "--B", "0,1", "--C", "0,4", "--out", str(cert)]) == 0
        data = load_json(cert)
        assert data["status"] == "certified-packing"
        assert data["evidence"]["D"] == "5"
        assert main(["packing", "check", "--R", "16", "--B", "0,1", "--C", "0,1", "--out", str(cert)]) == 2
        assert main(["packing", "check", "--R", "10", "--B", "0,1", "--C", "0,4", "--out", str(cert)]) == 0
        assert load_json(cert)["status"] == "inconclusive"

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

    def test_verify_certificate_roundtrip(self, tmp_path):
        cert_path = tmp_path / "cert.json"
        main(["packing", "check", "--R", "16", "--B", "0,1", "--C", "0,4", "--out", str(cert_path)])
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

    def test_usage_error_exit_code(self, capsys):
        rc = main(["packing", "witness", "--nu", "16:0,1", "--lam", "16:0,1", "--t", "0", "--level", "2"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_witness_not_found_is_negative_exit(self, tmp_path):
        out = tmp_path / "w.json"
        rc = main(
            ["packing", "witness", "--nu", "4:0,1", "--lam", "4:0,2", "--t", "0", "--level", "1", "--out", str(out)]
        )
        assert rc in (1, 2)


def test_atom_budget_env_var(monkeypatch):
    from cantorframes import AtomBudgetExceeded, level_measure

    monkeypatch.setenv("CANTORFRAMES_ATOM_BUDGET", "8")
    with pytest.raises(AtomBudgetExceeded):
        level_measure(DigitSystem.one_dimensional(2, [0, 1]), 5)
    assert len(level_measure(DigitSystem.one_dimensional(2, [0, 1]), 3)) == 8


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
        argv = ["packing", "check", "--R", "16", "--B", "0,1", "--C", "0,4",
                "--out", str(out), "--manifest"]
        assert main(argv) == 0
        manifest_path = Path(str(out) + ".manifest.json")
        manifest = load_json(manifest_path)
        assert manifest["command"] == "packing check"
        assert manifest["config"]["R"] == 16
        assert json.loads(canonical_json(manifest)) == manifest

    def test_manifest_records_out_relative_to_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "tables" / "cert.json"
        out.parent.mkdir()
        argv = ["packing", "check", "--R", "16", "--B", "0,1", "--C", "0,4",
                "--out", str(out), "--manifest"]
        assert out.is_absolute() and main(argv) == 0
        manifest = load_json(Path(str(out) + ".manifest.json"))
        assert manifest["config"]["out"] == "tables/cert.json"
