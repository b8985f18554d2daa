import json
import warnings

import numpy as np
import pytest

from normalflat import CaseSpec, CoefficientSet, GridSpec
from normalflat.cli import main


@pytest.fixture
def torus_file(tmp_path):
    spec = GridSpec.over_box((0, 1), (0, 1), 33, 33)
    path = tmp_path / "torus.json"
    CoefficientSet.from_arrays(spec, alpha1=-1.0, beta3=-1.0).save(path)
    return path


@pytest.fixture
def violation_file(tmp_path):
    spec = GridSpec.over_box((0, 1), (0, 1), 33, 33)
    path = tmp_path / "bad.json"
    CoefficientSet.from_arrays(spec, alpha2=1.0).save(path)
    return path


def test_verify_passes_on_torus(torus_file, tmp_path):
    report = tmp_path / "report.json"
    rc = main(["verify", "--coeffs", str(torus_file), "--case", "R", "--l0", "0",
               "--out", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert set(doc) == {"tool_version", "case", "grid", "metrics", "verdicts"}
    assert doc["verdicts"]["passed"] is True
    for name in ("gauss", "ricci", "codazzi1", "codazzi2", "codazzi3", "codazzi4"):
        assert doc["metrics"][name]["max"] <= 1e-12


def test_verify_fails_on_violation(violation_file, tmp_path):
    report = tmp_path / "report.json"
    rc = main(["verify", "--coeffs", str(violation_file), "--case", "R",
               "--out", str(report)])
    assert rc == 2
    doc = json.loads(report.read_text())
    assert doc["metrics"]["gauss"]["max"] == pytest.approx(1.0, abs=1e-10)


def test_verify_env_tolerance_override(violation_file, monkeypatch):
    monkeypatch.setenv("NORMALFLAT_TOL", "10.0")
    assert main(["verify", "--coeffs", str(violation_file), "--case", "R"]) == 0
    monkeypatch.delenv("NORMALFLAT_TOL")
    assert main(["verify", "--coeffs", str(violation_file), "--case", "R"]) == 2


def test_construct_product_then_detect(tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({
        "family": "product", "case": "R", "l0": 0.0,
        "grid": {"u0": 0, "v0": 0, "du": 0.03, "dv": 0.03, "nu": 34, "nv": 34},
        "params": {"radius1": 1.0, "radius2": 1.0}}))
    out = tmp_path / "coeffs.json"
    rc = main(["construct", "--family", "product", "--case", "R",
               "--params", str(params), "--out", str(out)])
    assert rc == 0
    assert (tmp_path / "coeffs.json.cert.json").exists()
    cert = json.loads((tmp_path / "coeffs.json.cert.json").read_text())
    assert cert["passed"] and cert["k_pm_identically_zero"]

    report = tmp_path / "detect.json"
    rc = main(["detect", "--coeffs", str(out), "--case", "R", "--out", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["verdicts"]["verdict"] == "none"


def test_construct_phi_and_light(tmp_path):
    params = tmp_path / "phi.json"
    params.write_text(json.dumps({
        "family": "phi", "case": "R", "l0": 0.0,
        "grid": {"u0": 0, "v0": 0, "du": 0.025, "dv": 0.025, "nu": 41, "nv": 41},
        "params": {"lambda": 0.0, "phi": "u", "theta": "0.785398163397448",
                   "xi": "s"}}))
    out = tmp_path / "phi_coeffs.json"
    assert main(["construct", "--params", str(params), "--out", str(out)]) == 0

    report = tmp_path / "detect.json"
    main(["detect", "--coeffs", str(out), "--case", "R", "--out", str(report)])
    doc = json.loads(report.read_text())
    assert doc["verdicts"]["verdict"] == "none"
    assert doc["verdicts"]["dependence_satisfied"] is True

    params2 = tmp_path / "light.json"
    params2.write_text(json.dumps({
        "family": "light", "case": "NT", "l0": 0.0, "eps": 1,
        "grid": {"u0": 0, "v0": 0, "du": 0.025, "dv": 0.025, "nu": 41, "nv": 41},
        "params": {"gamma": "0.3*u", "profile": "1 + 0.1*u"}}))
    out2 = tmp_path / "light_coeffs.json"
    assert main(["construct", "--params", str(params2), "--out", str(out2)]) == 0
    main(["detect", "--coeffs", str(out2), "--case", "NT", "--out", str(report)])
    doc = json.loads(report.read_text())
    assert doc["verdicts"]["verdict"] == "parallel-exists"
    assert doc["verdicts"]["field_kind"] == "light"


def test_construct_notld_cli(tmp_path):
    params = tmp_path / "notld.json"
    params.write_text(json.dumps({
        "family": "notld", "case": "R", "l0": 0.0,
        "grid": {"u0": 0, "v0": 0, "du": 0.025, "dv": 0.025, "nu": 41, "nv": 41},
        "params": {"f_minus": "u", "angle": "1.2", "theta_minus": "0.5"}}))
    out = tmp_path / "notld_coeffs.json"
    rc = main(["construct", "--params", str(params), "--out", str(out),
               "--cert", str(tmp_path / "cert.json")])
    assert rc == 0
    cert = json.loads((tmp_path / "cert.json").read_text())
    assert cert["residual_max"] <= 1e-10


def test_integrate_reconstruct_cli(torus_file, tmp_path):
    mesh = tmp_path / "mesh.json"
    rc = main(["integrate", "--coeffs", str(torus_file), "--case", "R",
               "--frame0", "auto", "--out", str(mesh),
               "--report", str(tmp_path / "int.json")])
    assert rc == 0
    drift = json.loads((tmp_path / "int.json").read_text())
    assert drift["metrics"]["gram_max"]["max"] <= 1e-8
    assert drift["verdicts"]["notes"] == []

    out = tmp_path / "rec.json"
    rc = main(["reconstruct", "--mesh", str(mesh), "--case", "R", "--out", str(out)])
    assert rc == 0
    rec = CoefficientSet.load(out)
    assert np.max(np.abs(rec.lam.values)) <= 1e-3


def test_integrate_cli_keeps_compatibility_warning(violation_file, tmp_path):
    report = tmp_path / "int.json"
    rc = main(["integrate", "--coeffs", str(violation_file), "--case", "R",
               "--out", str(tmp_path / "mesh.json"), "--report", str(report)])
    assert rc == 0
    notes = json.loads(report.read_text())["verdicts"]["notes"]
    assert len(notes) == 1 and "violate integrability" in notes[0]


def test_integrate_overflow_exit_code(tmp_path, capsys):
    # e^{2 lambda} overflows: the Gram check must fail cleanly, not warn or trace
    spec = GridSpec.over_box((0, 1), (0, 1), 9, 9)
    path = tmp_path / "big.json"
    CoefficientSet.from_arrays(spec, lam=400.0).save(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["integrate", "--coeffs", str(path), "--case", "R",
                   "--out", str(tmp_path / "mesh.json")])
    assert rc in (1, 2)
    assert "normalflat:" in capsys.readouterr().err


def test_riccati_cli(tmp_path):
    out = tmp_path / "t.json"
    report = tmp_path / "ric.json"
    rc = main(["riccati", "--fminus", "u", "--xi", "0", "--case", "R",
               "--t0", "0.3", "--grid", "0:0:0.05:0.05:21:21",
               "--out", str(out), "--report", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["verdicts"]["obstruction"] == "identically-zero"
    assert doc["metrics"]["path_defect"]["max"] <= 1e-12
    from normalflat import load_fields
    t = load_fields(out)["t"]
    assert np.max(np.abs(t.values - 0.3)) <= 1e-12


def test_riccati_cli_blowup_exit_code(tmp_path):
    rc = main(["riccati", "--fminus", "u", "--xi", "1", "--case", "NT",
               "--t0", "0.999999999", "--grid", "0:0:0.05:0.05:21:21",
               "--out", str(tmp_path / "t.json")])
    assert rc in (1, 2)


def test_usage_errors_exit_one(tmp_path):
    assert main(["verify"]) == 1                      # missing required args
    assert main(["frobnicate"]) == 1                  # unknown subcommand
    assert main(["riccati", "--fminus", "u", "--case", "R", "--t0", "0",
                 "--grid", "bad", "--out", str(tmp_path / "x.json")]) == 1
    assert main(["verify", "--coeffs", str(tmp_path / "missing.json"),
                 "--case", "R"]) == 1


def test_report_deterministic(torus_file, tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["verify", "--coeffs", str(torus_file), "--case", "R", "--out", str(r1)])
    main(["verify", "--coeffs", str(torus_file), "--case", "R", "--out", str(r2)])
    assert r1.read_bytes() == r2.read_bytes()
