import base64
import importlib
import json
import pkgutil
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normalflat
from conftest import assert_read_as_json, text_document
from normalflat import (FieldGrid, GridSpec, diff_u, diff_v, field_map, grid, load_fields,
                        save_fields)
from normalflat.grid import (GridShapeError, _diff2_along, _diff_along, curl, grad, hessian,
                             wedge)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(0, 0, -0.1, 0.1, 10, 10)
    with pytest.raises(ValueError):
        GridSpec(0, 0, 0.1, 0.1, 4, 10)
    for k in range(4):  # a non-finite origin or step
        for bad in (np.inf, -np.inf, np.nan):
            args = [0.0, 0.0, 0.1, 0.1]
            args[k] = bad
            with pytest.raises(ValueError):
                GridSpec(*args, 8, 8)
    # more points than the cap, refused before anything is allocated
    with pytest.raises(ValueError, match="exceeds the cap of 67108864 points"):
        GridSpec(0.0, 0.0, 0.1, 0.1, 10**18, 9)
    with pytest.raises(ValueError, match="exceeds the cap"):
        GridSpec.from_json({"du": 0.1, "dv": 0.1, "nu": 1e18, "nv": 9})
    GridSpec(0.0, 0.0, 0.1, 0.1, 2**13, 2**13)  # exactly at the cap
    spec = GridSpec(0, 0, 0.1, 0.2, 6, 5)
    assert spec.shape == (6, 5)
    assert np.allclose(spec.u_axis(), [0, 0.1, 0.2, 0.3, 0.4, 0.5])


def test_diff_u_linear_exact():
    spec = GridSpec.over_box((0, 2), (0, 1), 9, 7)
    f = FieldGrid.from_function(spec, lambda U, V: U)
    assert np.max(np.abs(diff_u(f).values - 1.0)) < 1e-13


def test_diff_u_constant_zero():
    spec = GridSpec.over_box((0, 2), (0, 1), 9, 7)
    f = FieldGrid.constant(spec, 3.7)
    assert np.max(np.abs(diff_u(f).values)) == 0.0


def test_diff_u_sin_accuracy():
    # du = 0.01: second-order stencil on sin(u) stays within 1e-4 of cos(u)
    spec = GridSpec(0, 0, 0.01, 0.01, 200, 5)
    f = FieldGrid.from_function(spec, lambda U, V: np.sin(U))
    err = diff_u(f).values - np.cos(spec.mesh()[0])
    assert np.max(np.abs(err)) <= 1e-4


def test_diff_v_mirror():
    spec = GridSpec(0, 0, 0.01, 0.01, 5, 200)
    f = FieldGrid.from_function(spec, lambda U, V: np.sin(V))
    err = diff_v(f).values - np.cos(spec.mesh()[1])
    assert np.max(np.abs(err)) <= 1e-4


def test_diff_quadratic_exact_interior():
    spec = GridSpec.over_box((0, 1), (0, 1), 11, 11)
    f = FieldGrid.from_function(spec, lambda U, V: 2 * U**2 - 3 * U + 1)
    exact = 4 * spec.mesh()[0] - 3
    # one-sided boundary stencils are exact for quadratics as well
    assert np.max(np.abs(diff_u(f).values - exact)) < 1e-12


def test_mixed_partials_commute():
    spec = GridSpec.over_box((0, 1), (0, 1), 41, 41)
    f = FieldGrid.from_function(spec, lambda U, V: np.sin(U) * np.cos(V))
    comm = diff_v(diff_u(f)).values - diff_u(diff_v(f)).values
    assert np.max(np.abs(comm)) <= 5 * (spec.du**2 + spec.dv**2)


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-5, 5), b=st.floats(-5, 5))
def test_diff_u_linearity(a, b):
    spec = GridSpec.over_box((0, 1), (0, 1), 17, 9)
    f = FieldGrid.from_function(spec, lambda U, V: np.sin(U + V))
    g = FieldGrid.from_function(spec, lambda U, V: U * V**2)
    combo = FieldGrid(spec, a * f.values + b * g.values)
    lhs = diff_u(combo).values
    rhs = a * diff_u(f).values + b * diff_u(g).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (1 + abs(a) + abs(b))


def test_field_map_basics(unit_spec):
    one = FieldGrid.constant(unit_spec, 1.0)
    two = FieldGrid.constant(unit_spec, 2.0)
    three = field_map(lambda x, y: x + y, one, two)
    assert np.all(three.values == 3.0)

    u = FieldGrid.from_function(unit_spec, lambda U, V: U)
    sq = field_map(lambda x: x**2, u)
    assert np.max(np.abs(sq.values - unit_spec.mesh()[0] ** 2)) == 0.0


def test_field_map_jacobian_of_coordinates(unit_spec):
    u = FieldGrid.from_function(unit_spec, lambda U, V: U)
    v = FieldGrid.from_function(unit_spec, lambda U, V: V)
    jac = field_map(
        lambda a, b, c, d: a * d - b * c,
        diff_u(u), diff_v(u), diff_u(v), diff_v(v))
    assert np.max(np.abs(jac.values - 1.0)) < 1e-12


def test_field_map_promotes_complex(unit_spec):
    re = FieldGrid.constant(unit_spec, 1.0)
    im = FieldGrid(unit_spec, 1j * np.ones(unit_spec.shape))
    out = field_map(lambda x, y: x + y, re, im)
    assert out.kind == "complex"


def test_field_map_grid_mismatch(unit_spec):
    other = GridSpec.over_box((0, 1), (0, 1), 9, 9)
    with pytest.raises(GridShapeError):
        field_map(lambda x, y: x + y,
                  FieldGrid.constant(unit_spec, 1.0), FieldGrid.constant(other, 1.0))


def test_field_rejects_nonfinite(unit_spec):
    bad = np.ones(unit_spec.shape)
    bad[3, 3] = np.inf
    with pytest.raises(ValueError):
        FieldGrid(unit_spec, bad)


def test_field_file_roundtrip_bit_exact(tmp_path, unit_spec):
    rng = np.random.default_rng(7)
    f = FieldGrid(unit_spec, rng.standard_normal(unit_spec.shape))
    g = FieldGrid(unit_spec, rng.standard_normal(unit_spec.shape)
                  + 1j * rng.standard_normal(unit_spec.shape))
    path = tmp_path / "fields.json"
    save_fields(path, {"f": f, "g": g})
    back = load_fields(path)
    assert np.array_equal(back["f"].values, f.values.astype(complex))
    assert np.array_equal(back["g"].values, g.values)
    doc = json.loads(path.read_text())
    assert list(doc) == ["u0", "v0", "du", "dv", "nu", "nv", "kind", "encoding", "fields"]
    assert doc["kind"] == "complex" and doc["encoding"] == "base64-f64le"


_SPECIAL = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, -5e-324, 1e-300, -1e300]


def _special_fields():
    """Real fields "a", "b" and a complex "z" on one grid, each starting with _SPECIAL."""
    spec = GridSpec(-0.0, 0.1, 0.1, 1e-3, 5, 7)
    rng = np.random.default_rng(11)
    vals = 10.0 ** rng.uniform(-300, 300, (3, 5, 7)) * rng.choice([-1, 1], (3, 5, 7))
    vals.reshape(3, -1)[:, :len(_SPECIAL)] = _SPECIAL
    real = {"b": FieldGrid(spec, vals[0]), "a": FieldGrid(spec, vals[1])}
    return real, {**real, "z": FieldGrid(spec, vals[2] - 1j * vals[0])}


def _doubles(field, kind):
    """A field's doubles as Python floats, row-major, complex ones as [re, im, ...]."""
    values = field.values.ravel().tolist()
    if kind == "real":
        return values
    return [x for z in values for x in (complex(z).real, complex(z).imag)]


def _document(kind, fields, encode):
    return {"u0": -0.0, "v0": 0.1, "du": 0.1, "dv": 1e-3, "nu": 5, "nv": 7, "kind": kind,
            **({"encoding": "base64-f64le"} if encode else {}),
            "fields": {name: encode(_doubles(fields[name], kind)) if encode
                       else _doubles(fields[name], kind) for name in sorted(fields)}}


def _dump(doc):
    # the reference is the pure-Python encoder json.dump streams through
    return "".join(json.JSONEncoder().iterencode(doc)) + "\n"


def test_field_file_bytes_pinned_to_json_dump(tmp_path):
    def encode(doubles):
        return base64.b64encode(struct.pack("<%dd" % len(doubles), *doubles)).decode()

    for kind, fields in zip(("real", "complex"), _special_fields()):
        path = tmp_path / f"{kind}.json"
        save_fields(path, fields)
        assert path.read_bytes() == _dump(_document(kind, fields, encode)).encode(), kind
        assert_read_as_json(path, streamed=True)
        back = load_fields(path)
        for name, f in fields.items():  # bitwise, so the sign of every zero is kept
            values = back[name].values
            assert values.tobytes() == f.values.astype(values.dtype).tobytes(), (kind, name)


def test_text_field_file_reads_bit_exact(tmp_path):
    # lists of shortest-repr doubles, with no "encoding" key or "text", stay a readable input
    for kind, fields in zip(("real", "complex"), _special_fields()):
        dtype = complex if kind == "complex" else float
        for encoding in ({}, {"encoding": "text"}):
            path = tmp_path / f"{kind}.json"
            path.write_text(_dump({**_document(kind, fields, None), **encoding}))
            back = load_fields(path)
            assert back.keys() == fields.keys()
            for name, f in fields.items():
                assert back[name].values.dtype == dtype
                assert back[name].values.tobytes() == f.values.astype(dtype).tobytes(), (kind, name)


def test_field_file_real_kind(tmp_path, unit_spec):
    f = FieldGrid.from_function(unit_spec, lambda U, V: U - V)
    path = tmp_path / "real.json"
    save_fields(path, {"f": f})
    back = load_fields(path)
    assert back["f"].kind == "real"
    assert np.array_equal(back["f"].values, f.values)


def test_grid_json_round_trip():
    # the field-file header order is pinned by test_field_file_bytes_pinned_to_json_dump
    spec = GridSpec(-0.0, 0.1, 0.1, 1e-3, 5, 7)
    assert GridSpec.from_json(spec.to_json()) == spec
    # the origin defaults to 0; numbers are floats, sizes integral numbers
    assert GridSpec.from_json({"du": 1, "dv": 0.5, "nu": 5.0, "nv": 6}) == GridSpec(
        0.0, 0.0, 1.0, 0.5, 5, 6)
    for doc, entry in ((None, "a grid must be a JSON object"),
                       ({**spec.to_json(), "u0": "0"}, "'u0'"),
                       ({**spec.to_json(), "dv": False}, "'dv'"),
                       ({**spec.to_json(), "du": [0.1]}, "'du'"),
                       ({**spec.to_json(), "nu": 5.5}, "grid size 'nu'"),
                       ({**spec.to_json(), "du": 10**400}, "'du' is too large for a double")):
        with pytest.raises(ValueError, match=entry):
            GridSpec.from_json(doc)


def test_field_file_grid_size_must_be_integral(tmp_path, unit_spec):
    f = FieldGrid.from_function(unit_spec, lambda U, V: U - V)
    path = tmp_path / "f.json"
    save_fields(path, {"f": f})
    doc = text_document(path)
    path.write_text(json.dumps({**doc, "nu": 33.0}))  # integral, though written as a float
    assert np.array_equal(load_fields(path)["f"].values, f.values)
    for nv in (32.7, "33", None, True):
        for end in ("", "\n"):  # json.dump's bytes, and save_fields' with its newline
            path.write_text(json.dumps({**doc, "nv": nv}) + end)
            assert_read_as_json(path, streamed=False)
            with pytest.raises(ValueError, match="grid size 'nv' must be an integral number"):
                load_fields(path)
    for bad in ([doc], {**doc, "fields": list(doc["fields"].values())}):
        for end in ("", "\n"):
            path.write_text(json.dumps(bad) + end)
            assert_read_as_json(path, streamed=False)
            with pytest.raises(ValueError, match="is not a field file"):
                load_fields(path)
    data = doc["fields"]["f"]
    for bad, message in (({**doc, "kind": "foo"}, "field kind must be 'real' or 'complex'"),
                         ({**doc, "kind": None}, "field kind"),
                         ({**doc, "fields": {"f": [[x] for x in data]}}, "flat list of numbers"),
                         ({**doc, "fields": {"f": {"0": 1}}}, "flat list of numbers"),
                         ({**doc, "fields": {"f": data[:-1] + ["1"]}}, "flat list of numbers"),
                         ({**doc, "fields": {"f": data[:-1] + [True]}}, "flat list of numbers")):
        for end in ("", "\n"):
            path.write_text(json.dumps(bad) + end)
            assert_read_as_json(path, streamed=False)
            with pytest.raises(ValueError, match=message):
                load_fields(path)


def test_field_file_base64_payload_checks(tmp_path, unit_spec):
    f = FieldGrid.from_function(unit_spec, lambda U, V: U - V)
    path = tmp_path / "f.json"
    save_fields(path, {"f": f})
    doc, text = json.loads(path.read_text()), text_document(path)
    data = doc["fields"]["f"]
    n = unit_spec.nu * unit_spec.nv
    field = re.escape(f"field 'f' of {path}")
    for bad, message in (({**doc, "encoding": "base64"}, "field encoding must be"),
                         ({**doc, "encoding": None}, "field encoding must be"),
                         ({**doc, "fields": {"f": [1.0] * n}}, f"{field} must be a base64 string"),
                         ({**doc, "fields": {"f": data[:8] + "*" + data[8:]}}, "not valid base64"),
                         ({**doc, "fields": {"f": data[:-1]}}, f"{field} is not valid base64"),
                         ({**doc, "fields": {"f": data[:-4]}}, f"holds {8 * n - 3} bytes"),
                         ({**doc, "fields": {"f": base64.b64encode(bytes(8 * n - 8)).decode()}},
                          f"{field} holds {8 * n - 8} bytes, not the {8 * n} of {n} doubles"),
                         ({**doc, "kind": "complex"}, f"not the {16 * n} of {2 * n} doubles"),
                         ({**text, "fields": {"f": [1.0] * (n - 1)}},
                          f"{field} holds {n - 1} numbers, not {n}")):
        for end in ("", "\n"):  # json.dump's bytes, and save_fields' with its newline
            path.write_text(json.dumps(bad) + end)
            assert_read_as_json(path, streamed=False)
            with pytest.raises(ValueError, match=message):
                load_fields(path)
    # a payload that decodes to a non-finite double is refused like a text one
    for end in ("", "\n"):
        path.write_text(json.dumps({**doc, "fields": {"f": base64.b64encode(
            struct.pack("<%dd" % n, *[float("nan")] * n)).decode()}}) + end)
        assert_read_as_json(path, streamed=False)
        with pytest.raises(ValueError, match=f"field values must be finite: {n} of {n} values "
                           f"are NaN or infinite, the first at \\(0, 0\\), in {field}$"):
            load_fields(path)


def _writer_file(tmp_path, name, fields):
    """save_fields' bytes for fields, and its document as json reads it."""
    path = tmp_path / name
    save_fields(path, fields)
    return path.read_bytes(), json.loads(path.read_bytes())


def _variants(tmp_path):
    """(case, bytes, streamed): save_fields' files, the same documents in other
    JSON layouts and corrupted ones."""
    real, cplx = _special_fields()
    spec6 = GridSpec(0.0, 0.0, 0.25, 0.5, 6, 6)  # 288 bytes: base64 with no padding
    six = {"s": FieldGrid(spec6, np.arange(36.0).reshape(6, 6) - 7.5)}
    out = []
    for kind, fields in (("real", real), ("complex", cplx), ("pad0", six)):
        good, doc = _writer_file(tmp_path, f"{kind}.json", fields)
        first = sorted(fields)[0]
        body = doc["fields"][first].encode()
        at = good.index(body)

        def body_as(new, good=good, at=at, body=body):
            return good[:at] + new + good[at + len(body):]

        head = {k: v for k, v in doc.items() if k != "fields"}
        du = good.index(b",", good.index(b'"du": '))  # a trailing 0 keeps its value
        out += [
            (f"{kind}: save_fields' file", good, True),
            (f"{kind}: indented", json.dumps(doc, indent=1).encode(), False),
            (f"{kind}: compact", json.dumps(doc, separators=(",", ":")).encode() + b"\n", False),
            (f"{kind}: no newline", good[:-1], False),
            (f"{kind}: trailing whitespace", good + b" \r\n\t", False),
            (f"{kind}: CRLF", good[:-1] + b"\r\n", False),
            (f"{kind}: header key order",
             json.dumps({"kind": doc["kind"], **doc}).encode() + b"\n", False),
            (f"{kind}: fields unsorted", json.dumps(
                {**head, "fields": dict(reversed(doc["fields"].items()))}).encode() + b"\n",
             len(fields) == 1),
            (f"{kind}: escaped name", good.replace(
                json.dumps(first).encode() + b": ",
                b'"' + "".join(f"\\u{ord(c):04x}" for c in first).encode() + b'": ', 1), False),
            (f"{kind}: duplicate field", good[:-3] + b", " + json.dumps(first).encode()
             + b': "' + doc["fields"][sorted(fields)[-1]].encode() + b'"' + good[-3:], False),
            (f"{kind}: duplicate header key", good.replace(b'"nu": ', b'"nu": 9, "nu": ', 1),
             False),
            (f"{kind}: a grid step spelled otherwise", good[:du] + b"0" + good[du:], False),
            (f"{kind}: text encoding", json.dumps(
                {**text_document(tmp_path / f"{kind}.json"), "encoding": "text"}).encode() + b"\n",
             False),
            (f"{kind}: = inside the body", body_as(body[:9] + b"=" + body[10:]), False),
            (f"{kind}: == ending a group inside the body", body_as(body[:6] + b"==" + body[8:]),
             False),
            (f"{kind}: a character outside the alphabet", body_as(body[:9] + b"-" + body[10:]),
             False),
            (f"{kind}: an escape in the body", body_as(body[:9] + b"\\/" + body[10:]), False),
            (f"{kind}: a group short", body_as(body[4:]), False),
            (f"{kind}: a group long", body_as(b"AAAA" + body), False),
            (f"{kind}: its padding or last character dropped", body_as(
                body.rstrip(b"=") if body.endswith(b"=") else body[:-1]), False),
            (f"{kind}: trailing data", good + b"x", False),
            (f"{kind}: a second document", good + good, False),
            (f"{kind}: nothing after the fields", good[:-2] + b"\n", False),
            (f"{kind}: no fields", good[:good.index(b'"fields": {') + 11] + b"}}\n", False),
            (f"{kind}: a NaN", body_as(base64.b64encode(
                struct.pack("<d", float("nan")) + base64.b64decode(body)[8:])), False),
            (f"{kind}: UTF-8 name", good.replace(
                json.dumps(first).encode() + b": ",
                json.dumps(first + "é", ensure_ascii=False).encode() + b": ", 1), False),
        ]
        out += [(f"{kind}: cut to {k} bytes", good[:k], False)
                for k in (0, 1, 40, at - 2, at, at + 5, len(good) - 4, len(good) - 2)]
    nonascii = {"éè\n": FieldGrid(spec6, np.ones((6, 6)))}
    out.append(("escaped non-ASCII name", _writer_file(tmp_path, "n.json", nonascii)[0], True))
    # a grid given in integers is written "u0": 0, and read back as 0.0
    ints = {"f": FieldGrid(GridSpec(0, 0, 1, 2, 5, 5), np.ones((5, 5)))}
    out.append(("integral grid entries", _writer_file(tmp_path, "i.json", ints)[0], True))
    return out


def test_field_file_reader_matches_json(tmp_path):
    # every document reads as json.load's path reads it, bit for bit or with
    # its exception and message; only save_fields' own bytes stream
    for case, data, streamed in _variants(tmp_path):
        path = tmp_path / "case.json"
        path.write_bytes(data)
        assert_read_as_json(path, streamed), case


@pytest.mark.parametrize("chunk", [16, 120, 124, 130, 256, 1000])
def test_field_file_stream_spans_chunks(tmp_path, monkeypatch, chunk):
    # chunks smaller than a body; one smaller than the head reads through json
    real, cplx = _special_fields()
    files = {kind: _writer_file(tmp_path, f"{kind}.json", fields)
             for kind, fields in (("real", real), ("complex", cplx))}
    monkeypatch.setattr(grid, "_CHUNK", chunk)
    for kind, fields in (("real", real), ("complex", cplx)):
        good, doc = files[kind]
        path = tmp_path / "case.json"
        save_fields(path, fields)  # the writer's chunks give the same bytes
        assert path.read_bytes() == good
        head = good.index(b"{", 1)  # where the fields begin
        assert_read_as_json(path, streamed=head < chunk)
        # "==" ending each group of the body in turn: every chunk boundary
        # gets one, which a per-chunk b64decode(validate=True) on Python 3.10
        # would let through; the whole string is invalid base64
        body = doc["fields"]["b"].encode()
        at = good.index(body)
        for k in range(4, len(body) - 4, 4):
            path.write_bytes(good[:at] + body[:k - 2] + b"==" + body[k:] + good[at + len(body):])
            assert_read_as_json(path, streamed=False), (kind, k)
            with pytest.raises(ValueError, match="field 'b' of .* is not valid base64"):
                load_fields(path)


def test_field_file_read_holds_its_fields_and_one_chunk(tmp_path):
    # a 256^2 nine-field file (6.3 MB): the read's peak is its fields (4.7 MB)
    # plus at most 2 MiB; json.load held the text and every base64 str, 12.6 MB
    spec = GridSpec(0.0, 0.0, 0.01, 0.01, 256, 256)
    rng = np.random.default_rng(3)
    names = ["lambda", "alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3", "mu1", "mu2"]
    fields = {name: FieldGrid(spec, rng.standard_normal(spec.shape)) for name in names}
    path = tmp_path / "coeffs.json"
    save_fields(path, fields)
    del fields
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        back = load_fields(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    held = sum(f.values.nbytes for f in back.values())
    assert held == 9 * 256 * 256 * 8
    assert peak <= held + 2 * 2**20, (peak, held)


# ---------------------------------------------------------------------------
# the calculus: grad, hessian, curl, wedge
# ---------------------------------------------------------------------------

def test_grad_hessian_exact_on_quadratics():
    # second-order stencils, one-sided ones included, are exact on quadratics
    spec = GridSpec.over_box((-0.3, 1.1), (0.2, 0.9), 15, 11)
    U, V = spec.mesh()
    f = 1.5 * U**2 - 0.7 * U * V + 2.0 * V**2 + 0.3 * U - 1.1 * V + 0.4
    fu, fv = grad(f, spec)
    assert np.max(np.abs(fu - (3.0 * U - 0.7 * V + 0.3))) < 1e-12
    assert np.max(np.abs(fv - (-0.7 * U + 4.0 * V - 1.1))) < 1e-12
    fuu, fuv, fvv = hessian(f, spec)
    assert np.max(np.abs(fuu - 3.0)) < 1e-10
    assert np.max(np.abs(fuv + 0.7)) < 1e-10
    assert np.max(np.abs(fvv - 4.0)) < 1e-10


def test_curl_of_gradient_is_round_off():
    spec = GridSpec.over_box((0, 2), (-1, 1), 41, 37)
    U, V = spec.mesh()
    f = np.sin(1.3 * U) * np.cos(V) + np.exp(0.4 * U * V)
    # the u and v stencils act on different axes, so they commute up to round-off
    assert np.max(np.abs(curl(*grad(f, spec), spec))) < 1e-11
    assert np.max(np.abs(curl(-V, U, spec) + 2.0)) < 1e-12


def test_wedge_antisymmetric():
    rng = np.random.default_rng(3)
    a = tuple(rng.standard_normal((2, 9, 7)))
    b = tuple(rng.standard_normal((2, 9, 7)))
    assert np.array_equal(wedge(a, b), -wedge(b, a))
    assert np.max(np.abs(wedge(a, a))) == 0.0
    assert wedge((1.0, 0.0), (0.0, 1.0)) == 1.0  # du ^ dv


def test_hessian_matches_nested_stencils_bitwise():
    spec = GridSpec.over_box((0, 1), (0, 2), 23, 19)
    U, V = spec.mesh()
    f = np.sin(U + 2 * V) * np.exp(U)
    fuu, fuv, fvv = hessian(f, spec)
    assert np.array_equal(fuv, _diff_along(_diff_along(f, spec.du, 0), spec.dv, 1))
    assert np.array_equal(fuu, _diff2_along(f, spec.du, 0))
    assert np.array_equal(fvv, _diff2_along(f, spec.dv, 1))
    # a caller that holds f_u gets the same arrays
    for a, b in zip(hessian(f, spec, grad(f, spec)[0]), (fuu, fuv, fvv)):
        assert a.tobytes() == b.tobytes()


def test_only_grid_binds_the_stencils():
    """Every other module differentiates through grad/hessian/curl."""
    stencils = {_diff_along, _diff2_along}
    binders = []
    for info in pkgutil.iter_modules(normalflat.__path__):
        mod = importlib.import_module(f"normalflat.{info.name}")
        if info.name != "grid":
            binders += [f"{info.name}.{name}" for name, obj in vars(mod).items()
                        if any(obj is s for s in stencils)]
    assert binders == []
