"""The input checks that the other tests do not reach.

Each check raises its documented error class.  Where a command-line input
reaches it, `main` exits 1 with one `normalflat: ` line and no traceback.
"""

import base64
import json

import numpy as np
import pytest

from normalflat import CaseSpec, CoefficientSet, FieldGrid, GridSpec, save_fields
from normalflat.cli import UsageError, _build_parser, main
from normalflat.expressions import ParseError
from normalflat.families import (
    FamilyInputError,
    NotldPotentials,
    _sqrt_tracked,
    angle_link,
    build_notld_family,
    rotation_angle,
)
from normalflat.grid import GridShapeError, field_map
from normalflat.integrator import SignatureError, export_mesh

GRID = {"u0": 0, "v0": 0, "du": 0.1, "dv": 0.1, "nu": 9, "nv": 9}
SPEC = GridSpec.from_json(GRID)
OTHER = GridSpec(0.0, 0.0, 0.2, 0.1, 9, 9)
U, V = SPEC.mesh()
TORUS = CoefficientSet.from_arrays(SPEC, alpha1=-1.0, beta3=-1.0)
NAMES = ("lambda", "alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3", "mu1", "mu2")
# a notld set per case that builds on NOTLD_GRID, with the params that case reads
NOTLD_GRID = {**GRID, "du": 1 / 32, "dv": 1 / 32, "nu": 33, "nv": 33}
NOTLD_SETS = {
    "R": {"f_minus": "u", "angle": "1.2", "theta_minus": "0.5"},
    "NS": {"f_minus": "u", "angle": "1.2", "theta_minus": "0.5"},
    "NT": {"f_minus": "u", "angle": "0.7", "t_minus": "0.4", "eps_prime": 1},
    "LS": {"f_re": "u + 1.4142*v", "f_im": "u - 0.7071*v", "sigma": 1.5708},
    "LT": {"f_re": "u + 1.4142*v", "f_im": "u + 0.7071*v", "sigma": 1.5708},
}


def _construct(family, case="R", grid=GRID, **params):
    def argv(d):
        (d / "d.json").write_text(json.dumps({"family": family, "case": case, "grid": grid,
                                              "params": params}))
        return ["construct", "--params", str(d / "d.json"), "--out", str(d / "c.json")]
    return argv


def _riccati(fminus, case="R"):
    return lambda d: ["riccati", "--fminus", fminus, "--case", case, "--t0", "0.1",
                      "--grid", "0:0:0.1:0.1:9:9", "--out", str(d / "t.json")]


def _with(command, *flags, **entries):
    """command with flags appended, and entries added to the descriptor it writes."""
    def argv(d):
        out = command(d)
        if entries:
            path = d / "d.json"
            path.write_text(json.dumps({**json.loads(path.read_text()), **entries}))
        return [*out, *flags]
    return argv


def _reading(command, fields, *flags):
    """A command reading a field file of the given fields."""
    def argv(d):
        save_fields(d / "f.json", fields)
        flag = "--mesh" if command == "reconstruct" else "--coeffs"
        return [command, flag, str(d / "f.json"), *flags, "--out", str(d / "o.json")]
    return argv


def _mesh(positions, spec=SPEC):
    return {f"x{k}": FieldGrid(spec, positions[..., k]) for k in range(positions.shape[-1])}


# a base row whose second-order u-tangent is e0 at u-index 0 and e2 at index 1,
# with T2 = e1 (steps of 1): the normal plane at index 1 holds no component
# of the normal at index 0.  Transposed, the turn is along v, and the first
# column step is the one that finds no normal
_STEP = GridSpec(0.0, 0.0, 1.0, 1.0, 5, 5)
_ROW = np.array([[0, 0, 0, 0], [0.5, 0, 0.5, 0], [0, 0, 2, 0], [2.5, 0, 0.5, 0], [2, 0, 2, 0]])
_TURN = _ROW[:, None, :] + np.arange(5)[None, :, None] * np.eye(4)[1]
# in neutral 4-space (+ + - -), the plane of T1 = (1, -1, 1, 0) and T2 = e3 has
# the null normals (1, 0, 1, 0) and (0, 1, -1, 0) of product 1: every axis
# projects onto a null or a time-like normal, none onto a space-like one
_NULL_NORMALS = U[..., None] * np.array([1.0, -1.0, 1.0, 0.0]) + V[..., None] * np.eye(4)[3]
# the same turns onto e3, N2's seed, where N1's seed e2 stays normal
_TURN2 = _TURN[..., [0, 1, 3, 2]]
# the base row turns as _TURN2 (N2 fails at u-index 1) and every row along v
# as _TURN along u (N1 fails at v-index 1): N2 comes first in propagation order
_BOTH = _ROW[:, None, [0, 1, 3, 2]] + _ROW[None, :, [1, 0, 2, 3]]
# in E^4_1, x3 = 0.9 u^2 is time-like along u from u = 0.6 (index 6) on; 0.9 v^2 along v
_STEEP_U, _STEEP_V = (np.stack([U, V, 0 * U, 0.9 * W**2], axis=-1) for W in (U, V))
_TORUS_MESH = np.stack([np.cos(U), np.sin(U), np.cos(V), np.sin(V)], axis=-1)


def _cli(name, argv, error, message):
    return pytest.param(argv, None, error, message, id=name)


def _call(name, fn, error, message):
    return pytest.param(None, fn, error, message, id=name)


CHECKS = [
    _cli("product-radius", _construct("product", radius1=-1.0, radius2=-1.0),
         FamilyInputError, "radii must be positive"),
    _cli("phi-case", _construct("phi", "NT", phi="u", theta="0.7"),
         FamilyInputError, "phi family implemented for cases R, NS, LT"),
    _cli("phi-gradient", _construct("phi", phi="1", theta="0.7"),
         FamilyInputError, "grad phi must be nonvanishing"),
    _cli("phi-needs-phi", _construct("phi", theta="0.7"),
         UsageError, "family 'phi' needs param 'phi'"),
    _cli("phi-needs-theta", _construct("phi", phi="u"),
         UsageError, "family 'phi' needs param 'theta'"),
    _cli("light-case", _construct("light", gamma="0.3*u"),
         FamilyInputError, "light-dependent family implemented for case NT, L0=0"),
    # a family that reads no delta refuses -1 rather than build the set of +1
    _cli("phi-delta", _with(_construct("phi", "LT", phi="u + 0.3*v", theta="0.7"), "--delta", "-1"),
         FamilyInputError, "family 'phi' reads no delta: it must be 1, got -1"),
    _cli("light-delta", _with(_construct("light", "NT", gamma="0.3*u", profile="1 + 0.5*u"),
                              "--delta", "-1"),
         FamilyInputError, "family 'light' reads no delta: it must be 1, got -1"),
    _call("angle-link-angle", lambda d: angle_link(FieldGrid(SPEC, U), None, CaseSpec("R")),
          ValueError, "real cases need the angle field"),
    _call("rotation-angle-case", lambda d: rotation_angle(FieldGrid(SPEC, U + 1j * V),
                                                          CaseSpec("R")),
          ValueError, "rotation_angle serves the complex cases only"),
    _cli("notld-complex-inputs", _construct("notld", "LS", sigma=1.0),
         FamilyInputError, "need the complex potential f and the gauge angle sigma"),
    _call("notld-real-f", lambda d: build_notld_family(
        NotldPotentials(f=FieldGrid(SPEC, U), sigma=FieldGrid.constant(SPEC, 1.0)),
        CaseSpec("LS")), FamilyInputError, "f must be complex-valued"),
    # a case-R set that builds without xi_tilde, which only LS and LT read
    _cli("notld-real-xi-tilde", _construct("notld", "R", NOTLD_GRID, **NOTLD_SETS["R"],
                                           xi_tilde="0.3*s"),
         UsageError, "family 'notld' reads no param 'xi_tilde'"),
    # every case's set builds; a param that only another case reads is refused
    *(_cli(f"notld-foreign-{case}", _construct("notld", case, NOTLD_GRID, **NOTLD_SETS[case],
                                               **{name: value}),
           UsageError, f"family 'notld' reads no param {name!r}")
      for case, name, value in (("R", "eps_prime", 1), ("NS", "sigma", 1.0),
                                ("NT", "theta_minus", "0.5"), ("LS", "t_minus", "0.4"),
                                ("LT", "f_minus", "u"))),
    _cli("notld-needs-f-im", _construct("notld", "LS", NOTLD_GRID,
                                        **{k: v for k, v in NOTLD_SETS["LS"].items()
                                           if k != "f_im"}),
         UsageError, "family 'notld' needs param 'f_im'"),
    _cli("notld-reality", _construct("notld", "LS", {**GRID, "u0": 1, "v0": 1}, f_re="u",
                                     f_im="u*v", sigma=1.0),
         FamilyInputError, "f_u^2 + f_v^2 is not real-valued (defect 3.600e+00)"),
    _call("coefficients-grid", lambda d: CoefficientSet(
        *(FieldGrid(OTHER if n == "lambda" else SPEC, np.zeros(SPEC.shape)) for n in NAMES)),
        GridShapeError, "coefficient fields live on different grids"),
    _cli("coefficients-real", _reading("verify", {n: FieldGrid(SPEC, U + 1j * V) for n in NAMES},
                                       "--case", "R"),
         ValueError, "coefficient fields must be real"),
    _call("field-shape", lambda d: FieldGrid(SPEC, np.zeros(3)),
          GridShapeError, "values shape (3,) != grid shape (9, 9)"),
    _call("field-map-empty", lambda d: field_map(np.sin),
          ValueError, "field_map needs at least one field"),
    _call("save-nothing", lambda d: save_fields(d / "f.json", {}), ValueError, "nothing to save"),
    _call("save-two-grids", lambda d: save_fields(d / "f.json", {
        "f": FieldGrid(SPEC, U), "g": FieldGrid(OTHER, U)}),
        GridShapeError, "all fields in one file must share a grid"),
    _cli("normal-causal-type", _reading("reconstruct", _mesh(_TURN, _STEP), "--case", "R"),
         SignatureError, "normal candidate has the wrong causal type: N1 at (u, v) = (1, 0)"),
    _cli("normal-causal-type-v", _reading("reconstruct", _mesh(np.swapaxes(_TURN, 0, 1), _STEP),
                                          "--case", "R"),
         SignatureError, "normal candidate has the wrong causal type: N1 at (u, v) = (0, 1)"),
    _cli("normal-causal-type-n2", _reading("reconstruct", _mesh(_TURN2, _STEP), "--case", "R"),
         SignatureError, "normal candidate has the wrong causal type: N2 at (u, v) = (1, 0)"),
    _cli("normal-causal-type-n2-v", _reading("reconstruct",
                                             _mesh(np.swapaxes(_TURN2, 0, 1), _STEP),
                                             "--case", "R"),
         SignatureError, "normal candidate has the wrong causal type: N2 at (u, v) = (0, 1)"),
    _cli("normal-propagation-order", _reading("reconstruct", _mesh(_BOTH, _STEP), "--case", "R"),
         SignatureError, "normal candidate has the wrong causal type: N2 at (u, v) = (1, 0)"),
    _cli("normal-axis", _reading("reconstruct", _mesh(_NULL_NORMALS), "--case", "NT"),
         SignatureError, "no ambient axis projects to the required normal type"),
    _cli("tangent-causal-type", _reading("reconstruct", _mesh(_STEEP_U), "--case", "LS"),
         SignatureError, "tangent has the wrong causal type: T1 at (u, v) = (6, 0)"),
    _cli("tangent-causal-type-v", _reading("reconstruct", _mesh(_STEEP_V), "--case", "LS"),
         SignatureError, "tangent has the wrong causal type: T2 at (u, v) = (0, 6)"),
    _cli("mesh-complex", _reading("reconstruct", _mesh(_TORUS_MESH + 1e-3j), "--case", "R"),
         ValueError, "mesh positions must be real"),
    # a case refuses a branch sign it does not have, from a flag or a descriptor
    _cli("case-eps-flag", _with(_riccati("u", "R"), "--eps", "-1", "--delta", "-1"),
         ValueError, "case entry 'eps' must be 1 in case R, got -1"),
    _cli("case-delta-flag", _with(_riccati("u", "NS"), "--delta", "-1"),
         ValueError, "case entry 'delta' must be 1 in case NS, got -1"),
    _cli("case-eps-descriptor", _with(_construct("phi", phi="u", theta="0.7"), eps=-1, delta=-1),
         ValueError, "case entry 'eps' must be 1 in case R, got -1"),
    _cli("case-delta-descriptor", _with(_construct("phi", phi="u", theta="0.7"), "--delta", "-1"),
         ValueError, "case entry 'delta' must be 1 in case R, got -1"),
    _call("csv-bare-array", lambda d: export_mesh(np.zeros((5, 5, 4)), d / "m.csv", "csv"),
          ValueError, "csv export needs a SurfaceMesh (u, v columns)"),
    _call("mesh-format", lambda d: export_mesh(np.zeros((5, 5, 4)), d / "m.ply", "ply"),
          ValueError, "unknown mesh format 'ply'"),
    _cli("riccati-case", _riccati("u", "LS"), ValueError, "no Riccati angle system for case LS"),
    _cli("case-l0", _reading("verify", dict(zip(NAMES, TORUS.fields().values())),
                             "--case", "R", "--l0", "nan"), ValueError, "l0 must be finite"),
    _cli("bad-number", _riccati("1.2.3*u"), ParseError, "bad number '1.2.3' (at offset 0)"),
    _cli("bad-character", _riccati("u $ v"), ParseError, "unexpected character '$' (at offset 2)"),
    _cli("trailing-input", _riccati("u v"),
         ParseError, "unexpected trailing input 'v' (at offset 2)"),
    _cli("unknown-family", _construct("foo"), UsageError, "unknown family 'foo'"),
]


@pytest.mark.parametrize("argv, call, error, message", CHECKS)
def test_input_check(tmp_path, capsys, argv, call, error, message):
    if argv is not None:
        argv = argv(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"normalflat: {message}\n"
        args = _build_parser().parse_args(argv)

        def call(d):
            return args.fn(args)

    with pytest.raises(error) as raised:
        call(tmp_path)
    assert type(raised.value) is error and str(raised.value) == message


def test_sqrt_tracked_flips_the_base_row():
    # w^2 = e^{i theta} with theta rising through pi down the base column: the
    # principal root jumps to the other sheet there, and the tracked one
    # flips it back, so the root stays e^{i theta / 2} on the whole grid
    theta = np.linspace(2.5, 3.9, 8)[:, None] + np.linspace(0.0, 0.2, 5)[None, :]
    w2 = np.exp(1j * theta)
    assert np.max(np.abs(np.sqrt(w2) - np.exp(0.5j * theta))) > 1
    assert np.max(np.abs(_sqrt_tracked(w2) - np.exp(0.5j * theta))) <= 1e-14


def test_detect_notes_a_normal_connection_that_is_not_flat(tmp_path):
    # mu = (v, 0): (mu1)_v - (mu2)_u = 1 on the whole grid
    path = tmp_path / "c.json"
    CoefficientSet.from_arrays(SPEC, alpha1=-1.0, beta3=-1.0, mu1=V).save(path)
    report = tmp_path / "detect.json"
    assert main(["detect", "--coeffs", str(path), "--case", "R", "--out", str(report)]) == 0
    notes = json.loads(report.read_text())["verdicts"]["notes"]
    assert "normal connection not flat (defect 1.000e+00)" in notes


def test_undecodable_field_names_file_and_field(tmp_path, capsys):
    # the base64 of alpha2 in a 9^2 coefficient file, cut by 8 characters
    path = tmp_path / "c.json"
    TORUS.save(path)
    doc = json.loads(path.read_text())
    doc["fields"]["alpha2"] = doc["fields"]["alpha2"][:-8]
    path.write_text(json.dumps(doc))
    message = f"field 'alpha2' of {path} holds 642 bytes, not the 648 of 81 doubles"
    assert main(["verify", "--coeffs", str(path), "--case", "R"]) == 1
    assert capsys.readouterr().err == f"normalflat: {message}\n"
    with pytest.raises(ValueError) as raised:
        CoefficientSet.load(path)
    assert str(raised.value) == message


def test_non_finite_value_names_file_field_and_point(tmp_path, capsys):
    # a NaN at alpha2[3, 4] of a 9^2 coefficient file
    path = tmp_path / "c.json"
    TORUS.save(path)
    doc = json.loads(path.read_text())
    alpha2 = np.zeros(SPEC.shape)
    alpha2[3, 4] = np.nan
    doc["fields"]["alpha2"] = base64.b64encode(alpha2.astype("<f8").tobytes()).decode("ascii")
    path.write_text(json.dumps(doc))
    message = (
        "field values must be finite: 1 of 81 values are NaN or infinite, the first at (3, 4)")
    assert main(["verify", "--coeffs", str(path), "--case", "R"]) == 1
    assert capsys.readouterr().err == f"normalflat: {message}, in field 'alpha2' of {path}\n"
    with pytest.raises(ValueError) as raised:
        FieldGrid(SPEC, alpha2)
    assert str(raised.value) == message
    alpha2[6, 0] = alpha2[0, 7] = -np.inf
    with pytest.raises(ValueError, match="3 of 81 values are NaN or infinite, the first at "
                                         r"\(0, 7\)$"):
        FieldGrid(SPEC, alpha2)


@pytest.mark.parametrize("command", ["riccati", "construct-R", "construct-NT"])
def test_complex_field_reference_names_file_and_field(tmp_path, capsys, command):
    # every @file param is read as a real field; a complex one is refused
    path = tmp_path / "z.json"
    save_fields(path, {"f": FieldGrid(SPEC, U + 0.5j * V)})
    params = {"construct-R": {"f_minus": f"@{path}", "angle": "1.2", "theta_minus": "0.5"},
              "construct-NT": {"f_minus": "u", "angle": "0.7", "t_minus": f"@{path}:f"}}
    if command == "riccati":
        argv = _riccati(f"@{path}")(tmp_path)
    else:
        argv = _construct("notld", command.split("-")[1], **params[command])(tmp_path)
    assert main(argv) == 1
    message = f"field 'f' of {path} is complex; a real field is needed"
    assert capsys.readouterr().err == f"normalflat: {message}\n"
    assert not (tmp_path / "t.json").exists() and not (tmp_path / "c.json").exists()


def test_missing_field_reference_names_file_and_fields(tmp_path, capsys):
    # an @file:name reference to a field the file does not hold
    path = tmp_path / "t.json"
    save_fields(path, {"t": FieldGrid(SPEC, U), "s": FieldGrid(SPEC, V)})
    message = f"{path} holds no field 'alpha9'; its fields are 's', 't'"
    assert main(["riccati", "--fminus", f"@{path}:alpha9", "--case", "R", "--t0", "0.1",
                 "--grid", "0:0:0.1:0.1:9:9", "--out", str(tmp_path / "o.json")]) == 1
    assert capsys.readouterr().err == f"normalflat: {message}\n"
    assert not (tmp_path / "o.json").exists()
