import base64
import json
import os
import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_read_as_json, random_coefficients, text_document
from normalflat import CaseSpec, CoefficientSet, FieldGrid, GridSpec, cli, save_fields
from normalflat.cli import CASE_FLAGS, main
from normalflat.families import NotldPotentials, build_notld_family
from normalflat.integrator import canonical_frame0, integrate_frame
from normalflat.riccati import build_forms


ROOT = Path(__file__).resolve().parent.parent


def _readme_block(after: str, lang: str) -> str:
    """The first ```lang block of README.md after the text ``after``."""
    text = (ROOT / "README.md").read_text()
    start = text.index(f"```{lang}\n", text.index(after)) + len(lang) + 4
    return text[start:text.index("```", start)]


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


def test_readme_chain(tmp_path, monkeypatch, capsys):
    # the descriptor and the sh chain of README's "Command line" section, read
    # from README.md itself: every line exits 0 in a temporary directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "product.json").write_text(_readme_block("the flat-torus descriptor", "json"))
    chain = _readme_block("the subcommands chain as", "sh").replace("\\\n", " ")
    lines = [shlex.split(line) for line in chain.splitlines() if line.strip()]
    assert all(argv[0] == "normalflat" for argv in lines), lines
    assert {argv[1] for argv in lines} == set(CASE_FLAGS)  # all six subcommands
    for argv in lines:
        assert main(argv[1:]) == 0, argv
    assert capsys.readouterr().err == ""


def test_entry_points_exit_codes(tmp_path):
    # the `python -m` entry and, wherever it is on PATH, the installed console
    # script: a passing run exits 0, a usage error 1 with a normalflat: line
    src = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    entries = [([sys.executable, "-m", "normalflat.cli"], {**os.environ, "PYTHONPATH": src})]
    if shutil.which("normalflat"):
        entries.append(([shutil.which("normalflat")], None))  # the environment as it is
    riccati = ["riccati", "--fminus", "u", "--case", "R", "--t0", "0.1", "--out", "t.json"]
    for entry, env in entries:
        for grid, code in (("0:0:0.1:0.1:9:9", 0), ("0:0:0.1:0.1:9", 1)):
            run = subprocess.run(entry + riccati + ["--grid", grid], cwd=tmp_path, env=env,
                                 capture_output=True, text=True, timeout=120)
            assert run.returncode == code, (entry, run.stderr)
        assert run.stderr == "normalflat: grid must be u0:v0:du:dv:nu:nv\n", entry
        assert (tmp_path / "t.json").exists()


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


def test_verify_reads_its_tolerance_before_it_computes(torus_file, monkeypatch, capsys):
    # a bad --tol or NORMALFLAT_TOL exits 1 before any residual is computed
    def computed(*args):
        raise AssertionError("verify computed before it read its tolerance")

    monkeypatch.setattr(cli, "gcr_residuals", computed)
    monkeypatch.setattr(cli, "compatibility_defect", computed)
    assert main(["verify", "--coeffs", str(torus_file), "--case", "R", "--tol", "-1"]) == 1
    monkeypatch.setenv("NORMALFLAT_TOL", "nan")
    assert main(["verify", "--coeffs", str(torus_file), "--case", "R"]) == 1
    assert capsys.readouterr().err.count(
        "normalflat: tolerance must be finite and non-negative") == 2


def test_detect_takes_no_variant(torus_file, capsys):
    # the dependence variant is read off the case and the data
    for variant in ("auto", "light"):
        assert main(["detect", "--coeffs", str(torus_file), "--case", "R",
                     "--variant", variant]) == 1
        assert capsys.readouterr().err == (
            f"normalflat: unrecognized arguments: --variant {variant}\n")


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


def test_construct_numeric_expression_params(tmp_path):
    # a number where a one-variable expression is expected reads as that constant
    grid = {"u0": 0, "v0": 0, "du": 0.025, "dv": 0.025, "nu": 41, "nv": 41}
    for family, case, params, key in (
            ("phi", "R", {"lambda": 0.0, "phi": "u", "theta": "0.785398163397448"}, "xi"),
            ("light", "NT", {"gamma": "0.3*u"}, "profile")):
        outs = []
        for value in (2, "2"):
            path = tmp_path / f"{family}.json"
            path.write_text(json.dumps({"family": family, "case": case, "grid": grid,
                                        "params": {**params, key: value}}))
            outs.append(tmp_path / f"{family}_{value!r}.json")
            assert main(["construct", "--params", str(path), "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes(), family


def test_construct_notld_cli(tmp_path):
    # the real notld pipeline once per sign of kappa (R: +1, NT: -1), with a
    # constant and with a varying theta_minus or t_minus: each set certifies
    # and verifies; a constant theta_minus leaves only round-off in the residuals
    grid41 = {"u0": 0, "v0": 0, "du": 0.025, "dv": 0.025, "nu": 41, "nv": 41}
    grid65 = {"u0": 0, "v0": 0, "du": 0.015625, "dv": 0.015625, "nu": 65, "nv": 65}
    for name, doc, residual in (
            ("constant", {"family": "notld", "case": "R", "l0": 0.0, "grid": grid41,
                          "params": {"f_minus": "u", "angle": "1.2", "theta_minus": "0.5"}},
             1e-10),
            ("r", {"family": "notld", "case": "R", "l0": 0.0, "grid": grid65,
                   "params": {"f_minus": "u", "angle": "1.2",
                              "theta_minus": "0.5 + 0.2*sin(u)"}}, 1e-5),
            ("nt", {"family": "notld", "case": "NT", "l0": 0.0, "eps": 1, "grid": grid65,
                    "params": {"f_minus": "u", "angle": "0.7", "t_minus": "0.4 + 0.1*cos(v)",
                               "eps_prime": 1}}, 1e-5)):
        params = tmp_path / f"{name}.json"
        params.write_text(json.dumps(doc))
        out, cert = tmp_path / f"{name}_coeffs.json", tmp_path / f"{name}_cert.json"
        assert main(["construct", "--params", str(params), "--out", str(out),
                     "--cert", str(cert)]) == 0, name
        cert = json.loads(cert.read_text())
        assert cert["passed"] is True and cert["residual_max"] <= residual, name
        assert main(["verify", "--coeffs", str(out), "--case", doc["case"]]) == 0, name


def test_integrate_reconstruct_cli(torus_file, tmp_path):
    mesh = tmp_path / "mesh.json"
    rc = main(["integrate", "--coeffs", str(torus_file), "--case", "R",
               "--frame0", "auto", "--out", str(mesh),
               "--report", str(tmp_path / "int.json")])
    assert rc == 0
    drift = json.loads((tmp_path / "int.json").read_text())
    assert drift["metrics"]["gram_max"]["max"] <= 1e-8
    assert drift["verdicts"]["notes"] == []
    # h ||M||_F = sqrt(3) / 32 on the 33^2 torus: one substep per cell
    assert drift["verdicts"]["substeps"] == {"u": 1, "v": 1}
    # the residual level of the compatibility warning, 10 h^2 (1 + s) with s = 1
    assert drift["verdicts"]["tolerance"] == pytest.approx(10 * 32.0**-2 * 2, rel=1e-14)

    out = tmp_path / "rec.json"
    rc = main(["reconstruct", "--mesh", str(mesh), "--case", "R", "--out", str(out)])
    assert rc == 0
    rec = CoefficientSet.load(out)
    assert np.max(np.abs(rec.lam.values)) <= 1e-3


def test_reconstruct_cli_checks_the_quadric(tmp_path, capsys):
    # a mesh integrated at --l0 1 reconstructs at --l0 1, and is a usage
    # error at --l0 2, whose quadric <x, x> = 1/2 it is off
    spec = GridSpec.over_box((-0.5, 0.5), (-0.5, 0.5), 33, 33)
    U, V = spec.mesh()
    sphere = tmp_path / "sphere.json"
    CoefficientSet.from_arrays(spec, lam=np.log(2.0 / (1.0 + U**2 + V**2))).save(sphere)
    mesh = str(tmp_path / "mesh.json")
    assert main(["integrate", "--coeffs", str(sphere), "--case", "R", "--l0", "1",
                 "--out", mesh]) == 0
    assert main(["reconstruct", "--mesh", mesh, "--case", "R", "--l0", "1",
                 "--out", str(tmp_path / "rec1.json")]) == 0
    capsys.readouterr()
    assert main(["reconstruct", "--mesh", mesh, "--case", "R", "--l0", "2",
                 "--out", str(tmp_path / "rec2.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("normalflat: mesh is off the quadric <x, x> = 1/L0 = 0.5: max "
                          "deviation 5.000e-01 > tolerance ") and "Traceback" not in err
    assert not (tmp_path / "rec2.json").exists()


@pytest.mark.parametrize("point", [(2, 0), (2, 3)], ids=["base-row", "column"])
def test_reconstruct_cli_mesh_through_the_origin(tmp_path, capsys, point):
    # at --l0 1 on a grid of step 1 the quadric tolerance (20) admits a mesh
    # point at the origin, where the projection onto F would divide by
    # <F, F> = 0; the gate refuses any point with L0 <x, x> <= 0, on the
    # base row as in a column
    spec = GridSpec(0.0, 0.0, 1.0, 1.0, 5, 5)
    U, V = spec.mesh()
    F = np.stack([0.3 * U, 0.3 * V, 0 * U, 0 * U, 1 + 0 * U], axis=-1)
    F[point] = 0.0
    mesh = tmp_path / "mesh.json"
    save_fields(mesh, {f"x{k}": FieldGrid(spec, F[..., k]) for k in range(5)})
    assert main(["reconstruct", "--mesh", str(mesh), "--case", "R", "--l0", "1",
                 "--out", str(tmp_path / "rec.json")]) == 1
    assert capsys.readouterr().err == ("normalflat: mesh is off the quadric <x, x> = 1/L0 = 1: "
                                       "min L0 <x, x> = 0.000e+00 <= 0\n")
    assert not (tmp_path / "rec.json").exists()


def test_integrate_cli_keeps_compatibility_warning(violation_file, tmp_path):
    report = tmp_path / "int.json"
    rc = main(["integrate", "--coeffs", str(violation_file), "--case", "R",
               "--out", str(tmp_path / "mesh.json"), "--report", str(report)])
    assert rc == 0
    verdicts = json.loads(report.read_text())["verdicts"]
    notes = verdicts["notes"]
    assert len(notes) == 1 and "violate integrability" in notes[0]
    assert f" > {verdicts['tolerance']:.3e});" in notes[0]


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


def test_integrate_fails_as_integrate_frame_raises(tmp_path, capsys):
    # the command line integrates through its mesh path, which shares
    # integrate_frame's frame0 gate and sweep: each failure exits as
    # integrate_frame's exception under the command line's floating-point
    # state directs, 2 for an overflow (in the gate's e^{2 lambda}, in the
    # sweep's matmul) and 1 for a frame0 of the wrong shape or off the Gram
    # conditions, with its message
    spec = GridSpec.over_box((0, 1), (0, 1), 9, 9)
    case = CaseSpec("R", 0.0)
    frame = canonical_frame0(case)
    doubled = frame.copy()
    doubled[:, 1] *= 2
    runs = [({"lam": 400.0}, None, 2, "floating-point failure: overflow encountered in exp"),
            ({"alpha1": 1e200, "beta3": 1e200}, None, 2,
             "floating-point failure: overflow encountered in matmul"),
            ({}, frame[:3], 1, "frame0 must have shape (4, 5)"),
            ({}, doubled, 1, "frame0 violates the Gram conditions at the base point: "
                             "gram_max 3.000e+00 > ")]
    for n, (fields, frame0, rc, message) in enumerate(runs):
        coeffs = CoefficientSet.from_arrays(spec, **fields)
        coeffs.save(tmp_path / "coeffs.json")
        argv = ["integrate", "--coeffs", str(tmp_path / "coeffs.json"), "--case", "R",
                "--out", str(tmp_path / "mesh.json")]
        if frame0 is not None:
            (tmp_path / "frame.json").write_text(json.dumps({"frame0": frame0.tolist()}))
            argv += ["--frame0", str(tmp_path / "frame.json")]
        assert main(argv) == rc, n
        assert not (tmp_path / "mesh.json").exists()
        err = capsys.readouterr().err
        with np.errstate(over="raise", invalid="raise", divide="raise"), \
                pytest.raises((FloatingPointError, ValueError)) as exc:
            integrate_frame(coeffs, case, frame0)
        prefix = "floating-point failure: " if rc == 2 else ""
        assert err == f"normalflat: {prefix}{exc.value}\n", n
        assert err.startswith(f"normalflat: {message}"), n


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
    # the quadratic level of the omega scale, 10 h^2 (1 + s)^2
    spec = GridSpec(0.0, 0.0, 0.05, 0.05, 21, 21)
    forms = build_forms(FieldGrid.from_function(spec, lambda U, V: U), 0.0, CaseSpec("R", 0.0))
    s = forms.omega_scale()
    assert doc["verdicts"]["tolerance"] == pytest.approx(10 * 0.05**2 * (1 + s)**2, rel=1e-14)
    from normalflat import load_fields
    t = load_fields(out)["t"]
    assert np.max(np.abs(t.values - 0.3)) <= 1e-12


def test_riccati_cli_blowup_exit_code(tmp_path):
    rc = main(["riccati", "--fminus", "u", "--xi", "1", "--case", "NT",
               "--t0", "0.999999999", "--grid", "0:0:0.05:0.05:21:21",
               "--out", str(tmp_path / "t.json")])
    assert rc in (1, 2)


def test_usage_errors_exit_one(tmp_path, torus_file, monkeypatch, capsys):
    assert main(["verify"]) == 1                      # missing required args
    assert main(["frobnicate"]) == 1                  # unknown subcommand
    assert main(["riccati", "--fminus", "u", "--case", "R", "--t0", "0",
                 "--grid", "bad", "--out", str(tmp_path / "x.json")]) == 1
    assert main(["verify", "--coeffs", str(tmp_path / "missing.json"),
                 "--case", "R"]) == 1
    # malformed descriptors: a null or fractional grid size, list-valued params,
    # a top-level list, params values that are neither strings nor numbers,
    # and a grid origin or step that is not finite
    good = {"family": "product", "case": "R",
            "grid": {"u0": 0, "v0": 0, "du": 0.03, "dv": 0.03, "nu": 34, "nv": 34},
            "params": {"radius1": 1.0, "radius2": 1.0}}
    for name, doc in (("null_nu", {**good, "grid": {**good["grid"], "nu": None}}),
                      ("fractional_nu", {**good, "grid": {**good["grid"], "nu": 34.7}}),
                      ("list_params", {**good, "params": [1, 2]}),
                      ("list_doc", [good]),
                      ("null_radius", {**good, "params": {"radius1": None}}),
                      ("null_f_minus", {**good, "family": "notld",
                                        "params": {"f_minus": None, "angle": "1.2"}}),
                      ("bool_radius", {**good, "params": {"radius2": True}}),
                      ("inf_du", {**good, "grid": {**good["grid"], "du": float("inf")}}),
                      ("nan_u0", {**good, "grid": {**good["grid"], "u0": float("nan")}})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert main(["construct", "--params", str(path),
                     "--out", str(tmp_path / "c.json")]) == 1, name
    for t0 in ("nan", "inf"):
        assert main(["riccati", "--fminus", "u + 0.3*v", "--case", "R", "--t0", t0,
                     "--grid", "0:0:0.05:0.05:21:21", "--out", str(tmp_path / "t.json")]) == 1
    assert main(["riccati", "--fminus", "u + 0.3*v", "--case", "R", "--t0", "0.1",
                 "--grid", "0:0:inf:0.02:8:8", "--out", str(tmp_path / "t.json")]) == 1
    # a tolerance that is not finite or is negative, from --tol or NORMALFLAT_TOL
    for tol in ("nan", "inf", "-inf", "-1"):
        for cmd in ("verify", "detect"):
            argv = [cmd, "--coeffs", str(torus_file), "--case", "R"]
            assert main(argv + [f"--tol={tol}"]) == 1, (cmd, tol)
            monkeypatch.setenv("NORMALFLAT_TOL", tol)
            assert main(argv) == 1, (cmd, tol)
            monkeypatch.delenv("NORMALFLAT_TOL")
    # documents of the wrong shape, an OBJ axis below -dim, a directory as mesh
    (tmp_path / "list.json").write_text("[1, 2]")
    fields_list = json.loads(torus_file.read_text())
    fields_list["fields"] = list(fields_list["fields"].values())
    (tmp_path / "fields_list.json").write_text(json.dumps(fields_list))
    mesh = str(tmp_path / "mesh.json")
    for argv in (["integrate", "--coeffs", str(torus_file), "--case", "R",
                  "--frame0", str(tmp_path / "list.json"), "--out", mesh],
                 ["verify", "--coeffs", str(tmp_path / "list.json"), "--case", "R"],
                 ["verify", "--coeffs", str(tmp_path / "fields_list.json"), "--case", "R"],
                 ["integrate", "--coeffs", str(torus_file), "--case", "R", "--out", mesh,
                  "--export-obj", str(tmp_path / "o.obj"), "--obj-axes", "0,1,-9"],
                 ["reconstruct", "--mesh", str(tmp_path), "--case", "R",
                  "--out", str(tmp_path / "rec.json")]):
        assert main(argv) == 1, argv
    # field files whose grid, kind, encoding or field data is of the wrong JSON
    # type, a grid step too large for a double, and base64 payloads that are
    # not a string, hold a character outside the alphabet or are a double short
    torus = text_document(torus_file)
    fields = torus["fields"]
    encoded = json.loads(torus_file.read_text())
    lam = encoded["fields"]["lambda"]
    short = base64.b64encode(base64.b64decode(lam)[:-8]).decode()
    for name, doc in (("str_du", {**torus, "du": "0.1"}),
                      ("null_u0", {**torus, "u0": None}),
                      ("bool_du", {**torus, "du": True}),
                      ("huge_du", {**torus, "du": 10**400}),
                      ("foo_kind", {**torus, "kind": "foo"}),
                      ("object_field", {**torus, "fields": {**fields, "lambda": {"a": 1}}}),
                      ("wrapped_field", {**torus, "fields": {
                          **fields, "lambda": [[x] for x in fields["lambda"]]}}),
                      ("foo_encoding", {**encoded, "encoding": "foo"}),
                      ("list_payload", {**encoded, "fields": {
                          **encoded["fields"], "lambda": fields["lambda"]}}),
                      ("bad_char", {**encoded, "fields": {
                          **encoded["fields"], "lambda": lam[:8] + "!" + lam[8:]}}),
                      ("short_payload", {**encoded, "fields": {
                          **encoded["fields"], "lambda": short}})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "--coeffs", str(path), "--case", "R"]) == 1, name
    # descriptor entries of the wrong type or value, and a param no family reads
    for name, doc in (("str_du", {**good, "grid": {**good["grid"], "du": "0.05"}}),
                      ("str_l0", {**good, "l0": "0.5"}),
                      ("huge_l0", {**good, "l0": 10**400}),
                      ("fractional_eps", {**good, "eps": 1.5}),
                      ("unread_radius", {**good, "params": {"radius": 2.0}}),
                      ("fractional_eps_prime", {**good, "family": "notld", "case": "NT",
                                                "params": {"f_minus": "u", "angle": "0.7",
                                                           "t_minus": "0.4", "eps_prime": 1.5}})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert main(["construct", "--params", str(path),
                     "--out", str(tmp_path / "c.json")]) == 1, name
    # an expression nested past the parser's limit (an --fminus 200 levels deep,
    # a phi of 2000 minus signs), a frame0 that is an object, holds objects or
    # a string, and a grid past the size cap
    assert main(["riccati", "--fminus", "(" * 200 + "u" + ")" * 200, "--case", "R",
                 "--t0", "0.1", "--grid", "0:0:0.05:0.05:9:9",
                 "--out", str(tmp_path / "t.json")]) == 1
    path = tmp_path / "deep_phi.json"
    path.write_text(json.dumps({**good, "family": "phi",
                                "params": {"phi": "-" * 2000 + "u", "theta": "0.7"}}))
    assert main(["construct", "--params", str(path), "--out", str(tmp_path / "c.json")]) == 1
    canonical = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]]
    for name, frame0 in (("object_frame0", {}),
                         ("object_rows", [[{}] * 5] * 4),
                         ("string_entry", [["1", 0, 0, 0, 0]] + canonical[1:])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"frame0": frame0}))
        assert main(["integrate", "--coeffs", str(torus_file), "--case", "R",
                     "--frame0", str(path), "--out", mesh]) == 1, name
    assert main(["riccati", "--fminus", "u", "--case", "R", "--t0", "0.1",
                 "--grid", "0:0:0.1:0.1:1e18:9", "--out", str(tmp_path / "t.json")]) == 1
    # a mesh file holds x0..x{d-1} and nothing else
    assert main(["integrate", "--coeffs", str(torus_file), "--case", "R", "--out", mesh]) == 0
    mesh_doc = json.loads((tmp_path / "mesh.json").read_text())
    x = mesh_doc["fields"]
    mesh_doc["fields"] = {"x0": x["x0"], "x1": x["x1"], "x3": x["x2"], "xtra": x["x3"]}
    (tmp_path / "bad_mesh.json").write_text(json.dumps(mesh_doc))
    assert main(["reconstruct", "--mesh", str(tmp_path / "bad_mesh.json"), "--case", "R",
                 "--out", str(tmp_path / "rec.json")]) == 1
    # settings that change no output are not accepted: the case flags a
    # subcommand does not read, --project-quadric and a notld param gamma0;
    # a coefficient file holds the nine coefficients and no other field
    for argv in (["verify", "--coeffs", str(torus_file), "--case", "R", "--eps", "-1"],
                 ["detect", "--coeffs", str(torus_file), "--case", "R", "--delta", "1"],
                 ["integrate", "--coeffs", str(torus_file), "--case", "R", "--out", mesh,
                  "--project-quadric"],
                 ["reconstruct", "--mesh", mesh, "--case", "R", "--eps", "1",
                  "--out", str(tmp_path / "rec.json")],
                 ["riccati", "--fminus", "u", "--case", "R", "--l0", "1", "--t0", "0.1",
                  "--grid", "0:0:0.1:0.1:9:9", "--out", str(tmp_path / "t.json")]):
        assert main(argv) == 1, argv
    path = tmp_path / "gamma0.json"
    path.write_text(json.dumps({**good, "family": "notld", "params": {
        "f_minus": "u", "angle": "1.2", "theta_minus": "0.5", "gamma0": 5}}))
    assert main(["construct", "--params", str(path), "--out", str(tmp_path / "c.json")]) == 1
    extra = json.loads(torus_file.read_text())
    extra["fields"]["alpha4"] = extra["fields"]["alpha1"]
    (tmp_path / "alpha4.json").write_text(json.dumps(extra))
    assert main(["verify", "--coeffs", str(tmp_path / "alpha4.json"), "--case", "R"]) == 1
    err = capsys.readouterr().err
    assert err.count("normalflat: ") == 68
    for flag in ("--eps -1", "--delta 1", "--project-quadric", "--eps 1", "--l0 1"):
        assert f"normalflat: unrecognized arguments: {flag}\n" in err
    assert "normalflat: family 'notld' reads no param 'gamma0'" in err
    assert ("alpha4.json is not a coefficient file: expected the fields lambda, alpha1, "
            "alpha2, alpha3, beta1, beta2, beta3, mu1, mu2 and no other, got ['alpha1', "
            "'alpha2', 'alpha3', 'alpha4', 'beta1'") in err
    assert err.count("normalflat: expression nested deeper than 160 levels") == 2
    assert "'frame0' is a list of rows of 5 numbers, got {}" in err
    assert "normalflat: frame0 entry [0][0] must be a number, got {}" in err
    assert "normalflat: frame0 entry [0][0] must be a number, got \"1\"" in err
    assert "normalflat: a 1000000000000000000x9 grid exceeds the cap of 67108864 points" in err
    assert err.count("tolerance must be finite and non-negative") == 16
    assert "grid size 'nu' must be an integral number, got 34.7" in err
    assert "normalflat: grid entry 'du' must be a number, got \"0.1\"" in err
    assert "normalflat: field kind must be 'real' or 'complex', got \"foo\"" in err
    for name in ("object_field", "wrapped_field"):
        assert (f"normalflat: field 'lambda' of {tmp_path}/{name}.json must be a flat list of "
                "numbers") in err
    assert "normalflat: grid entry 'du' is too large for a double" in err
    assert "normalflat: field encoding must be 'text' or 'base64-f64le', got \"foo\"" in err
    assert (f"normalflat: field 'lambda' of {tmp_path}/list_payload.json must be a base64 "
            "string") in err
    assert f"normalflat: field 'lambda' of {tmp_path}/bad_char.json is not valid base64" in err
    assert (f"normalflat: field 'lambda' of {tmp_path}/short_payload.json holds 8704 bytes, not "
            "the 8712 of 1089 doubles") in err
    assert "normalflat: case entry 'l0' must be a number, got \"0.5\"" in err
    assert "normalflat: case entry 'eps' must be 1 or -1, got 1.5" in err
    assert "normalflat: case entry 'l0' is too large for a double" in err
    assert "normalflat: param 'eps_prime' must be 1 or -1, got 1.5" in err
    assert "normalflat: family 'product' reads no param 'radius'" in err
    assert "is not a mesh file" in err
    assert "Traceback" not in err


def test_memory_error_exits_one(tmp_path, monkeypatch, capsys):
    # a MemoryError that passes the grid cap is a usage error, not a traceback
    def no_memory(self):
        raise MemoryError("Unable to allocate 6.94 EiB")

    monkeypatch.setattr(GridSpec, "mesh", no_memory)
    assert main(["riccati", "--fminus", "u", "--case", "R", "--t0", "0.1",
                 "--grid", "0:0:0.1:0.1:9:9", "--out", str(tmp_path / "t.json")]) == 1
    assert capsys.readouterr().err == "normalflat: out of memory: Unable to allocate 6.94 EiB\n"


def test_integrate_frame0_file(torus_file, tmp_path, capsys):
    # the canonical frame read from a file integrates to the bytes of --frame0 auto;
    # a frame of the wrong shape, or with a column doubled, is a usage error
    frame = canonical_frame0(CaseSpec("R", 0.0), float(CoefficientSet.load(torus_file)
                                                       .lam.values[0, 0]))
    doubled = frame.copy()
    doubled[:, 1] *= 2
    argv = ["integrate", "--coeffs", str(torus_file), "--case", "R", "--out"]
    assert main(argv + [str(tmp_path / "auto.json")]) == 0
    for name, f in (("file", frame), ("short", frame[:3]), ("doubled", doubled)):
        (tmp_path / f"{name}_frame.json").write_text(json.dumps({"frame0": f.tolist()}))
    assert main(argv + [str(tmp_path / "file.json"),
                        "--frame0", str(tmp_path / "file_frame.json")]) == 0
    assert (tmp_path / "file.json").read_bytes() == (tmp_path / "auto.json").read_bytes()
    for name in ("short", "doubled"):
        assert main(argv + [str(tmp_path / f"{name}.json"),
                            "--frame0", str(tmp_path / f"{name}_frame.json")]) == 1, name
        assert not (tmp_path / f"{name}.json").exists()
    err = capsys.readouterr().err
    assert "normalflat: frame0 must have shape (4, 5)" in err
    assert "normalflat: frame0 violates the Gram conditions at the base point: gram_max " in err


def test_construct_notld_ls_cli(tmp_path):
    # the complex pipeline from f_re, f_im and sigma: the bits of
    # build_notld_family on the same complex field
    grid = {"u0": 0, "v0": 0, "du": 0.025, "dv": 0.025, "nu": 41, "nv": 41}
    params = tmp_path / "notld_ls.json"
    params.write_text(json.dumps({
        "family": "notld", "case": "LS", "grid": grid,
        "params": {"f_re": "u + sqrt(2)*v", "f_im": "u - v/sqrt(2)", "sigma": np.pi / 2}}))
    out = tmp_path / "ls.json"
    assert main(["construct", "--params", str(params), "--out", str(out)]) == 0
    assert json.loads((tmp_path / "ls.json.cert.json").read_text())["passed"] is True
    spec = GridSpec.from_json(grid)
    U, V = spec.mesh()
    f = FieldGrid(spec, (U + np.sqrt(2) * V) + 1j * (U - V / np.sqrt(2)))
    built = build_notld_family(NotldPotentials(f=f, sigma=FieldGrid.constant(spec, np.pi / 2)),
                               CaseSpec("LS", 0.0)).coeffs.arrays()
    read = CoefficientSet.load(out).arrays()
    assert built.keys() == read.keys()
    assert all(built[k].tobytes() == read[k].tobytes() for k in built)


def test_detect_reports_its_tolerance(torus_file, tmp_path, monkeypatch):
    # the level the verdict was judged against: the default, --tol or NORMALFLAT_TOL
    report = tmp_path / "detect.json"
    argv = ["detect", "--coeffs", str(torus_file), "--case", "R", "--out", str(report)]
    spec = GridSpec.over_box((0, 1), (0, 1), 33, 33)
    for extra, env, tol in (([], None, 10 * spec.hmax**2 * 2**2),
                            (["--tol", "0.5"], None, 0.5),
                            ([], "0.25", 0.25)):
        if env:
            monkeypatch.setenv("NORMALFLAT_TOL", env)
        assert main(argv + extra) == 0
        assert json.loads(report.read_text())["verdicts"]["tolerance"] == tol


def test_construct_flags_override_the_descriptor(tmp_path):
    grid = {"u0": 0, "v0": 0, "du": 0.025, "dv": 0.025, "nu": 41, "nv": 41}
    doc = {"family": "light", "case": "NT", "l0": 0.0, "eps": 1, "grid": grid,
           "params": {"gamma": "0.3*u", "profile": "1 + 0.1*u"}}
    outs = {}
    for name, eps, argv in (("flag", 1, ["--eps", "-1"]), ("doc", -1, [])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**doc, "eps": eps}))
        outs[name] = [tmp_path / f"{name}_{suffix}.json" for suffix in ("c", "r")]
        assert main(["construct", "--params", str(path), "--out", str(outs[name][0]),
                     "--report", str(outs[name][1])] + argv) == 0
    assert json.loads(outs["flag"][1].read_text())["case"]["eps"] == -1
    for a, b in zip(outs["flag"], outs["doc"]):
        assert a.read_bytes() == b.read_bytes()


# arbitrary JSON values; numbers stay small, because a grid size is a memory request
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-40, 40) | st.floats(-40, 40) | st.text(max_size=4)
    | st.sampled_from([float("nan"), float("inf"), 1e-300, 1e300, 34.0, 1.5]),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=2), kids,
                                                              max_size=2),
    max_leaves=4)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    CoefficientSet.from_arrays(GridSpec.over_box((0, 1), (0, 1), 9, 9),
                               alpha1=-1.0, beta3=-1.0).save(d / "torus.json")
    descriptor = {"family": "product", "case": "R", "l0": 0.0, "eps": 1, "delta": 1,
                  "grid": {"u0": 0, "v0": 0, "du": 0.1, "dv": 0.1, "nu": 9, "nv": 9},
                  "params": {"radius1": 1.0, "radius2": 1.0}}
    encoded = json.loads((d / "torus.json").read_text())
    return d, text_document(d / "torus.json"), encoded, descriptor


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(target=st.sampled_from(["u0", "v0", "du", "dv", "nu", "nv", "kind", "encoding",
                               "field", "payload", "grid.u0", "grid.v0", "grid.du",
                               "grid.dv", "grid.nu", "grid.nv", "case", "l0", "eps", "delta",
                               "--grid"]),
       value=_json_values,
       grid=st.lists(st.text(max_size=4) | st.floats(-40, 40).map(repr)
                     | st.sampled_from(["nan", "inf", "8.0", "8.5", "1e300"]),
                     max_size=7).map(":".join),
       cut=st.integers(0, 12), tail=st.text(max_size=3))
def test_document_readers_never_raise(fuzz_inputs, target, value, grid, cut, tail):
    d, torus, encoded, descriptor = fuzz_inputs
    if target == "--grid":
        argv = ["riccati", "--fminus", "u + 0.3*v", "--case", "R", "--t0", "0.1",
                "--grid", grid, "--out", str(d / "t.json")]
    elif target in encoded or target in ("field", "payload"):
        # text documents for entries of any JSON value; the base64 one for the
        # encoding and for a payload cut by up to 12 characters and extended
        src = encoded if target in ("encoding", "payload") else torus
        doc = {**src, "fields": dict(src["fields"])}
        if target == "field":
            doc["fields"]["lambda"] = value
        elif target == "payload":
            lam = doc["fields"]["lambda"]
            doc["fields"]["lambda"] = lam[:len(lam) - cut] + tail
        else:
            doc[target] = value
        # the base64 documents in save_fields' layout, which is streamed
        # while json reads the unchanged one: the same fields or the same error
        (d / "coeffs.json").write_text(json.dumps(doc) + ("\n" if src is encoded else ""))
        if src is encoded:
            assert_read_as_json(d / "coeffs.json", streamed=doc == encoded)
        argv = ["verify", "--coeffs", str(d / "coeffs.json"), "--case", "R"]
    else:
        doc = {**descriptor, "grid": dict(descriptor["grid"])}
        if target.startswith("grid."):
            doc["grid"][target[5:]] = value
        else:
            doc[target] = value
        (d / "descriptor.json").write_text(json.dumps(doc))
        argv = ["construct", "--params", str(d / "descriptor.json"),
                "--out", str(d / "c.json")]
    assert main(argv) in (0, 1, 2)


def test_field_reference_must_share_the_grid(tmp_path, capsys):
    # an @file field on a 33^2 grid, referenced by commands on an 8^2 grid
    spec = GridSpec(0.0, 0.0, 0.1, 0.1, 33, 33)
    U, V = spec.mesh()
    save_fields(tmp_path / "fm.json", {"f": FieldGrid(spec, U + 0.3 * V)})
    ref = "@" + str(tmp_path / "fm.json")
    assert main(["riccati", "--fminus", ref, "--case", "R", "--t0", "0.1",
                 "--grid", "0:0:0.1:0.1:8:8", "--out", str(tmp_path / "t.json")]) == 1
    assert not (tmp_path / "t.json").exists()
    params = tmp_path / "params.json"
    params.write_text(json.dumps({
        "family": "notld", "case": "R",
        "grid": {"u0": 0, "v0": 0, "du": 0.1, "dv": 0.1, "nu": 8, "nv": 8},
        "params": {"f_minus": ref, "angle": "1.2", "theta_minus": "0.5"}}))
    assert main(["construct", "--params", str(params), "--out", str(tmp_path / "c.json")]) == 1
    err = capsys.readouterr().err
    command_grid = "GridSpec(u0=0.0, v0=0.0, du=0.1, dv=0.1, nu=8, nv=8)"
    assert err.count(f"not on the command's {command_grid}") == 2
    # on the command's own grid the reference is read as before
    assert main(["riccati", "--fminus", ref, "--case", "R", "--t0", "0.1",
                 "--grid", "0:0:0.1:0.1:33:33", "--out", str(tmp_path / "t.json")]) == 0
    # a file of several fields needs the field's name
    save_fields(tmp_path / "two.json", {"f": FieldGrid(spec, U), "g": FieldGrid(spec, V)})
    argv = ["riccati", "--case", "R", "--t0", "0.1", "--grid", "0:0:0.1:0.1:33:33",
            "--out", str(tmp_path / "t.json"), "--fminus"]
    assert main(argv + ["@" + str(tmp_path / "two.json")]) == 1
    assert "holds several fields; use @" in capsys.readouterr().err
    assert main(argv + ["@" + str(tmp_path / "two.json") + ":f"]) == 0


def test_report_deterministic(torus_file, tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["verify", "--coeffs", str(torus_file), "--case", "R", "--out", str(r1)])
    main(["verify", "--coeffs", str(torus_file), "--case", "R", "--out", str(r2)])
    assert r1.read_bytes() == r2.read_bytes()
    # the text encoding of the same doubles verifies to the same report bytes,
    # for the torus and for a set of doubles that are not short decimals
    rough = tmp_path / "rough.json"
    random_coefficients(np.random.default_rng(5), GridSpec.over_box((0, 1), (0, 1), 17, 17)
                        ).save(rough)
    for path in (torus_file, rough):
        text = tmp_path / f"{path.stem}_text.json"
        text.write_text(json.dumps(text_document(path)))
        for coeffs, report in ((path, r1), (text, r2)):
            main(["verify", "--coeffs", str(coeffs), "--case", "R", "--out", str(report)])
        assert r1.read_bytes() == r2.read_bytes(), path.name
    for r in (r1, r2):
        main(["integrate", "--coeffs", str(torus_file), "--case", "R",
              "--out", str(tmp_path / "mesh.json"), "--report", str(r)])
    assert r1.read_bytes() == r2.read_bytes()


def _outputs(workdir, argv, capsys) -> tuple:
    """(exit code, stderr, every file the command wrote); a report's echoed
    case block is left out."""
    workdir.mkdir()
    rc = main([str(workdir / a[1:]) if a.startswith("@") else a for a in argv])
    files = {}
    for path in sorted(workdir.iterdir()):
        doc = path.read_bytes()
        if path.suffix == ".json" and b'"case"' in doc:
            doc = {k: v for k, v in json.loads(doc).items() if k != "case"}
        files[path.name] = doc
    return rc, capsys.readouterr().err.replace(str(workdir), ""), files


def test_every_case_flag_changes_an_output(tmp_path, torus_file, capsys):
    # each of --case, --l0, --eps and --delta that a subcommand accepts must
    # change its exit code, its messages or a file it writes (the echoed case
    # block aside); a flag it does not read is refused
    mesh = tmp_path / "mesh.json"
    assert main(["integrate", "--coeffs", str(torus_file), "--case", "R", "--out", str(mesh)]) == 0
    descriptor = tmp_path / "notld_nt.json"
    descriptor.write_text(json.dumps({
        "family": "notld", "case": "NT",
        "grid": {"u0": 0, "v0": 0, "du": 0.05, "dv": 0.05, "nu": 17, "nv": 17},
        "params": {"f_minus": "u", "angle": "0.7", "t_minus": "0.4 + 0.1*cos(v)"}}))
    coeffs = ["--coeffs", str(torus_file), "--case", "R"]
    commands = {
        "verify": ["verify", *coeffs, "--out", "@r.json"],
        "detect": ["detect", *coeffs, "--out", "@r.json"],
        "integrate": ["integrate", *coeffs, "--out", "@m.json", "--report", "@r.json"],
        "reconstruct": ["reconstruct", "--mesh", str(mesh), "--case", "R", "--out", "@c.json",
                        "--report", "@r.json"],
        "riccati": ["riccati", "--fminus", "u + 0.3*v", "--xi", "0.2", "--case", "NT",
                    "--t0", "0.1", "--grid", "0:0:0.05:0.05:9:9", "--out", "@t.json",
                    "--report", "@r.json"],
        "construct": ["construct", "--params", str(descriptor), "--out", "@c.json",
                      "--report", "@r.json"],
    }
    values = {"--case": ("NT", "R"), "--l0": ("0", "1"), "--eps": ("1", "-1"),
              "--delta": ("1", "-1")}
    accepted = {}
    for command, argv in commands.items():
        accepted[command] = []
        for flag, pair in values.items():
            if flag == "--case" and flag in argv:
                continue  # a required --case is read by every command
            runs = [_outputs(tmp_path / f"{command}{flag}{value}", argv + [flag, value], capsys)
                    for value in pair]
            refused = [rc == 1 and f"unrecognized arguments: {flag}" in err and files == {}
                       for rc, err, files in runs]
            if any(refused):
                assert all(refused), (command, flag)
                continue
            accepted[command].append(flag)
            assert runs[0] != runs[1], (command, flag)
    assert accepted == {"verify": ["--l0"], "detect": ["--l0"], "integrate": ["--l0"],
                        "reconstruct": ["--l0"], "riccati": ["--eps", "--delta"],
                        "construct": ["--case", "--l0", "--eps", "--delta"]}
