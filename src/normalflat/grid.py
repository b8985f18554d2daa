"""Uniform rectangular (u, v) grids, sampled scalar/complex fields, and
the calculus of functions and 1-forms on them.

Every quantity in this package lives on a shared :class:`GridSpec`: a
rectangle sampled at ``nu x nv`` points with spacings ``du, dv``.  Fields
are stored as 2-d arrays indexed ``[i, j]`` with ``u = u0 + i*du`` and
``v = v0 + j*dv``.  Differentiation uses second-order central stencils in
the interior and second-order one-sided stencils on the boundary, so every
residual computed downstream carries a uniform O(h^2) truncation budget.

The calculus is ``grad``, ``hessian`` (without f_uv: ``second_derivatives``),
``curl`` and ``wedge``; a 1-form a du + b dv is its pair (a, b).  Every
other module differentiates through these, so this is the one place where
a step is paired with an axis.  The one exception is the fourth-order
lambda gradient of the frame connection (``_diff_along4``).

``slabs`` cuts a grid into slabs of rows (``row_slabs``: ``SLAB_ROWS`` at a
time) or of columns with a stencil halo, so a whole-grid pass can hold one
slab's temporaries at a time and still give, bit for bit, the whole-grid
values.

A field file (``save_fields``, ``load_fields``) is one JSON document.  Any
JSON layout of it is read; the layout ``save_fields`` writes is streamed, a
1 MiB chunk at a time, each field's base64 decoded straight into its array,
so that read holds its fields plus one chunk and its decoded bytes.
"""

from __future__ import annotations

import base64
import binascii
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "GridSpec",
    "FieldGrid",
    "diff_u",
    "diff_v",
    "grad",
    "hessian",
    "second_derivatives",
    "curl",
    "wedge",
    "field_map",
    "save_fields",
    "load_fields",
]


def _float(x, entry: str) -> float:
    """float(x) of a JSON number; anything else (a bool too), or an integer too
    large for a double, is a ValueError naming the entry."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"{entry} must be a number, got {json.dumps(x)}")
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{entry} is too large for a double") from None


class GridShapeError(ValueError):
    """Fields on mismatched grids were combined."""


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a uniform rectangular sampling of the (u, v) plane."""

    u0: float
    v0: float
    du: float
    dv: float
    nu: int
    nv: int

    def __post_init__(self):
        if not all(np.isfinite((self.u0, self.v0, self.du, self.dv))):
            raise ValueError(f"grid origin and steps must be finite, got u0={self.u0}, "
                             f"v0={self.v0}, du={self.du}, dv={self.dv}")
        if not (self.du > 0 and self.dv > 0):
            raise ValueError(f"grid steps must be positive, got du={self.du}, dv={self.dv}")
        if self.nu < 5 or self.nv < 5:
            # one-sided boundary stencils need five points per direction
            raise ValueError(f"need at least 5 points per direction, got {self.nu}x{self.nv}")
        if self.nu * self.nv > MAX_POINTS:  # checked before anything is allocated
            raise ValueError(f"a {self.nu}x{self.nv} grid exceeds the cap of {MAX_POINTS} points")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nu, self.nv)

    @property
    def hmax(self) -> float:
        return max(self.du, self.dv)

    def u_axis(self) -> np.ndarray:
        return self.u0 + self.du * np.arange(self.nu)

    def v_axis(self) -> np.ndarray:
        return self.v0 + self.dv * np.arange(self.nv)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays U, V of shape (nu, nv)."""
        return np.meshgrid(self.u_axis(), self.v_axis(), indexing="ij")

    def to_json(self) -> dict:
        """The grid's JSON form, as field-file headers and reports print it."""
        return {"u0": self.u0, "v0": self.v0, "du": self.du, "dv": self.dv,
                "nu": self.nu, "nv": self.nv}

    @classmethod
    def from_json(cls, doc) -> "GridSpec":
        """The grid of a JSON object {u0, v0, du, dv, nu, nv}, the origin 0 by
        default; a ValueError names the first entry that is not a number, or
        for nu and nv not an integral one (34 or 34.0)."""
        if not isinstance(doc, dict):
            raise ValueError(f"a grid must be a JSON object, got {json.dumps(doc)}")
        entries = {"u0": 0.0, "v0": 0.0, **doc}
        values = [_float(entries.get(key), f"grid entry {key!r}")
                  for key in ("u0", "v0", "du", "dv")]
        for key in ("nu", "nv"):
            n = entries.get(key)
            if isinstance(n, bool) or not (isinstance(n, int)
                                           or isinstance(n, float) and n.is_integer()):
                raise ValueError(f"grid size {key!r} must be an integral number, "
                                 f"got {json.dumps(n)}")
            values.append(int(n))
        return cls(*values)

    @classmethod
    def over_box(cls, u_range, v_range, nu: int, nv: int) -> "GridSpec":
        """Grid whose first/last samples hit the box corners exactly."""
        u0, u1 = u_range
        v0, v1 = v_range
        return cls(u0, v0, (u1 - u0) / (nu - 1), (v1 - v0) / (nv - 1), nu, nv)


class FieldGrid:
    """A real- or complex-valued function sampled on a :class:`GridSpec`."""

    def __init__(self, spec: GridSpec, values):
        values = np.asarray(values)
        if values.shape != spec.shape:
            raise GridShapeError(f"values shape {values.shape} != grid shape {spec.shape}")
        if np.iscomplexobj(values):
            values = values.astype(np.complex128, copy=False)
        else:
            values = values.astype(np.float64, copy=False)
        finite = np.isfinite(values)
        if not np.all(finite):
            bad = values.size - np.count_nonzero(finite)
            at = tuple(int(i) for i in np.unravel_index(np.argmin(finite), values.shape))
            raise ValueError(f"field values must be finite: {bad} of {values.size} values "
                             f"are NaN or infinite, the first at {at}")
        self.spec = spec
        self.values = values

    @property
    def kind(self) -> str:
        return "complex" if self.values.dtype == np.complex128 else "real"

    @classmethod
    def from_function(cls, spec: GridSpec, fn) -> "FieldGrid":
        U, V = spec.mesh()
        return cls(spec, np.broadcast_to(fn(U, V), spec.shape).copy())

    @classmethod
    def constant(cls, spec: GridSpec, value) -> "FieldGrid":
        return cls(spec, np.full(spec.shape, value))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def max_mean(values) -> dict:
    """{max, mean} of |values|: how a report summarizes a field."""
    a = np.abs(np.asarray(values))
    return {"max": float(np.max(a)), "mean": float(np.mean(a))}


def _diff_along(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second-order first derivative along one axis of a sampled array."""
    f = np.moveaxis(values, axis, 0)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2 * h)
    # difference form: exactly zero on constant fields
    out[0] = (4 * (f[1] - f[0]) - (f[2] - f[0])) / (2 * h)
    out[-1] = (4 * (f[-1] - f[-2]) - (f[-1] - f[-3])) / (2 * h)
    return np.moveaxis(out, 0, axis)


def _diff_along4(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Fourth-order first derivative (five-point stencils); needs n >= 5.

    The grid module's public calculus is second order; this higher-order
    variant gives the frame connection its lambda gradients, whose
    truncation would otherwise throttle the fourth-order stepping.
    """
    f = np.moveaxis(values, axis, 0)
    out = np.empty_like(f)
    out[2:-2] = ((f[:-4] - f[4:]) + 8 * (f[3:-1] - f[1:-3])) / (12 * h)
    out[0] = (48 * (f[1] - f[0]) - 36 * (f[2] - f[0])
              + 16 * (f[3] - f[0]) - 3 * (f[4] - f[0])) / (12 * h)
    out[1] = (-3 * (f[0] - f[1]) + 18 * (f[2] - f[1])
              - 6 * (f[3] - f[1]) + (f[4] - f[1])) / (12 * h)
    out[-2] = -(-3 * (f[-1] - f[-2]) + 18 * (f[-3] - f[-2])
                - 6 * (f[-4] - f[-2]) + (f[-5] - f[-2])) / (12 * h)
    out[-1] = -(48 * (f[-2] - f[-1]) - 36 * (f[-3] - f[-1])
                + 16 * (f[-4] - f[-1]) - 3 * (f[-5] - f[-1])) / (12 * h)
    return np.moveaxis(out, 0, axis)


def _diff2_along(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second-order second derivative along one axis."""
    f = np.moveaxis(values, axis, 0)
    out = np.empty_like(f)
    out[1:-1] = ((f[2:] - f[1:-1]) - (f[1:-1] - f[:-2])) / (h * h)
    # five-point one-sided stencils keep the boundary at second order
    out[0] = (-104 * (f[1] - f[0]) + 114 * (f[2] - f[0])
              - 56 * (f[3] - f[0]) + 11 * (f[4] - f[0])) / (12 * h * h)
    out[-1] = (-104 * (f[-2] - f[-1]) + 114 * (f[-3] - f[-1])
               - 56 * (f[-4] - f[-1]) + 11 * (f[-5] - f[-1])) / (12 * h * h)
    return np.moveaxis(out, 0, axis)


def grad(f: np.ndarray, spec: GridSpec):
    """(f_u, f_v) of an array whose first two axes are the grid's."""
    return _diff_along(f, spec.du, 0), _diff_along(f, spec.dv, 1)


def hessian(f: np.ndarray, spec: GridSpec, f_u: np.ndarray | None = None):
    """(f_uu, f_uv, f_vv), with the mixed derivative taken as (f_u)_v; a
    caller that holds grad(f, spec)[0] passes it as f_u."""
    if f_u is None:
        f_u = _diff_along(f, spec.du, 0)
    f_uu, f_vv = second_derivatives(f, spec)
    return f_uu, _diff_along(f_u, spec.dv, 1), f_vv


def second_derivatives(f: np.ndarray, spec: GridSpec):
    """(f_uu, f_vv), the hessian without its mixed derivative."""
    return _diff2_along(f, spec.du, 0), _diff2_along(f, spec.dv, 1)


def curl(gu: np.ndarray, gv: np.ndarray, spec: GridSpec) -> np.ndarray:
    """(gu)_v - (gv)_u: minus the du^dv coefficient of d(gu du + gv dv)."""
    return _diff_along(gu, spec.dv, 1) - _diff_along(gv, spec.du, 0)


def wedge(a, b):
    """du^dv coefficient of a ^ b, for 1-forms given as (du, dv) coefficient pairs."""
    return a[0] * b[1] - a[1] * b[0]


# grid rows per slab of a streamed whole-grid pass: a slab of 5x5 matrices
# on a 1024-column grid is 3 MB, so a pass holds a few of those, not a
# whole-grid connection
SLAB_ROWS = 16


class Slab(NamedTuple):
    """One slab of grid lines along an axis: ``lines`` of the grid, padded
    to ``pad`` (a grid of its own, ``spec``), whose lines ``keep`` are
    ``lines``."""

    lines: slice
    pad: slice
    keep: slice
    spec: GridSpec


def slabs(spec: GridSpec, axis: int, size: int):
    """The grid's lines along axis (0: rows, 1: columns) in slabs of size,
    each padded by a one-line halo and to at least the five lines a
    one-sided stencil reads.

    A second-order stencil applied to a slab's padded lines (``grad``,
    ``hessian``, ``curl``) is therefore, on its kept lines, bit for bit
    the whole-grid result, edge lines included; the central fourth-order
    stencil reaches two lines and needs the whole grid.
    """
    n = spec.shape[axis]
    for r0 in range(0, n, size):
        r1 = min(r0 + size, n)
        p0, p1 = max(r0 - 1, 0), min(r1 + 1, n)
        if p1 - p0 < 5:  # widened to five lines, inside the grid
            p0 = min(p0, n - 5)
            p1 = p0 + 5
        if axis == 0:
            part = GridSpec(spec.u0 + p0 * spec.du, spec.v0, spec.du, spec.dv, p1 - p0, spec.nv)
        else:
            part = GridSpec(spec.u0, spec.v0 + p0 * spec.dv, spec.du, spec.dv, spec.nu, p1 - p0)
        yield Slab(slice(r0, r1), slice(p0, p1), slice(r0 - p0, r1 - p0), part)


def row_slabs(spec: GridSpec):
    """The grid's rows in slabs of SLAB_ROWS (``slabs`` along axis 0)."""
    return slabs(spec, 0, SLAB_ROWS)


# ---------------------------------------------------------------------------
# tolerance policy: every pass level and size cap of the package; gates
# compare NaN-strictly, ``not (x <= tol)``
# ---------------------------------------------------------------------------

# round-off floor of quantities that are exact on closed-form inputs
ROUND_OFF_TOL = 1e-10

# the most points a grid may hold: 2^26, a (nu, nv, 5, 5) connection of 13 GB
MAX_POINTS = 1 << 26

# floors of the quantities that must stay away from zero (require_nonzero)
DEGENERACY_FLOOR = 1e-12  # products of potential gradients dividing an assembly
EXCLUSION_MARGIN = 1e-9  # an angle, slope or Riccati solution off its excluded values
FORMS_FLOOR = 1e-14  # the gradient square dividing the Riccati forms


def require_nonzero(error, message: str, *fields, floor: float) -> None:
    """Raise error(message) unless min |x| >= floor for every field; a NaN fails."""
    for x in fields:
        if not (np.min(np.abs(x)) >= floor):
            raise error(message)


def residual_tolerance(spec: GridSpec, scale: float) -> float:
    """10 h^2 (1 + scale): residuals linear in coefficients of magnitude scale."""
    return 10.0 * spec.hmax**2 * (1.0 + scale)


def quadratic_tolerance(spec: GridSpec, scale: float) -> float:
    """10 h^2 (1 + scale)^2: quantities quadratic in the coefficients."""
    return residual_tolerance(spec, scale) * (1.0 + scale)


def family_tolerance(spec: GridSpec, scale: float) -> float:
    """10 h^2 (1 + scale) scale: constructor inputs, scale already 1 + magnitude."""
    return residual_tolerance(spec, scale) * scale


def angle_link_tolerance(spec: GridSpec, scale: float) -> float:
    """100 h^2 (1 + scale): curl of a rotated gradient, two stencils deep."""
    return residual_tolerance(spec, scale) * 10


def isothermality_tolerance(spec: GridSpec, scale: float) -> float:
    """50 h^2 (1 + scale): first differences of a sampled mesh of magnitude scale."""
    return 50.0 * spec.hmax**2 * (1.0 + scale)


def diff_u(field: FieldGrid) -> FieldGrid:
    """d/du by central differences, one-sided at the u-boundaries."""
    return FieldGrid(field.spec, _diff_along(field.values, field.spec.du, 0))


def diff_v(field: FieldGrid) -> FieldGrid:
    """d/dv by central differences, one-sided at the v-boundaries."""
    return FieldGrid(field.spec, _diff_along(field.values, field.spec.dv, 1))


def field_map(fn, *fields: FieldGrid) -> FieldGrid:
    """Apply a pointwise function to one or more fields on a common grid.

    The result is complex whenever any input is complex.
    """
    if not fields:
        raise ValueError("field_map needs at least one field")
    spec = fields[0].spec
    for f in fields[1:]:
        if f.spec != spec:
            raise GridShapeError("field_map inputs live on different grids")
    return FieldGrid(spec, fn(*(f.values for f in fields)))


# ---------------------------------------------------------------------------
# field files: one JSON document per grid, any number of named fields;
# written as base64 doubles, read in that encoding or as lists of numbers
# ---------------------------------------------------------------------------

TEXT, BASE64 = "text", "base64-f64le"

# a field file is written, and in save_fields' layout read, this many bytes
# at a time
_CHUNK = 1 << 20

# save_fields' layout, the one load_fields streams: _head, then per field
# (from the second on after _SEP) its name as json.dumps writes it, _OPEN,
# its base64 and _CLOSE, then _TAIL: json.dump's bytes for the document
_FIELDS, _SEP, _OPEN, _CLOSE, _TAIL = b'"fields": {', b", ", b': "', b'"', b"}}\n"


def _head(grid: dict, kind: str) -> bytes:
    """A field file's bytes up to its first field, for its grid's JSON form."""
    head = json.dumps({**grid, "kind": kind, "encoding": BASE64})
    return head[:-1].encode() + _SEP + _FIELDS


def _doubles(spec: GridSpec, kind: str) -> int:
    """How many doubles a field holds: a complex one's interleave [re, im, ...]."""
    return spec.nu * spec.nv * (2 if kind == "complex" else 1)


def _field(spec: GridSpec, doubles: np.ndarray, kind: str, what: str) -> FieldGrid:
    """The field of a grid's doubles, a complex one's [re, im, ...] (viewed as
    complex, so the sign of every zero is kept); what names it and its file
    if one is not finite."""
    values = (doubles.view(np.complex128) if kind == "complex" else doubles).reshape(spec.shape)
    try:
        return FieldGrid(spec, values)
    except ValueError as exc:  # values of the grid's shape: only a non-finite one
        raise ValueError(f"{exc}, in {what}") from None


def _decode(what: str, data, spec: GridSpec, kind: str, encoding: str) -> np.ndarray:
    """The doubles of one field; what names it and its file in an error."""
    n = _doubles(spec, kind)
    if encoding == BASE64:
        if not isinstance(data, str):
            raise ValueError(f"{what} must be a base64 string")
        try:
            raw = base64.b64decode(data, validate=True)
        except ValueError:  # binascii.Error
            raise ValueError(f"{what} is not valid base64") from None
        if len(raw) != 8 * n:
            raise ValueError(f"{what} holds {len(raw)} bytes, not the {8 * n} of {n} doubles")
        return np.frombuffer(raw, dtype="<f8").astype(np.float64)  # writable, native order
    if not (isinstance(data, list) and set(map(type, data)) <= {int, float}):
        raise ValueError(f"{what} must be a flat list of numbers")
    if len(data) != n:
        raise ValueError(f"{what} holds {len(data)} numbers, not {n}")
    return np.asarray(data, dtype=np.float64)


def save_fields(path, fields: dict[str, FieldGrid]) -> None:
    """Write named fields sharing one grid to a JSON field file.

    Each field is one base64 string of its little-endian doubles, so
    values round-trip bit-exactly; a complex field's bytes are those of
    <c16, so its doubles interleave [re, im, ...].  The base64 is written
    _CHUNK bytes at a time.
    """
    if not fields:
        raise ValueError("nothing to save")
    specs = {f.spec for f in fields.values()}
    if len(specs) != 1:
        raise GridShapeError("all fields in one file must share a grid")
    spec = next(iter(specs))
    kind = "complex" if any(f.kind == "complex" for f in fields.values()) else "real"
    dtype = "<c16" if kind == "complex" else "<f8"
    step = _CHUNK // 4 * 3  # bytes whose base64 is one chunk
    with open(path, "wb") as fh:
        fh.write(_head(spec.to_json(), kind))
        for n, (name, f) in enumerate(sorted(fields.items())):
            fh.write((_SEP if n else b"") + json.dumps(name).encode() + _OPEN)
            raw = memoryview(np.ascontiguousarray(f.values, dtype=dtype)).cast("B")
            for at in range(0, len(raw), step):
                fh.write(binascii.b2a_base64(raw[at:at + step], newline=False))
            fh.write(_CLOSE)
        fh.write(_TAIL)


class _Chunks:
    """A binary file read _CHUNK bytes at a time into one buffer, whose bytes
    pos:end are read and not yet consumed."""

    def __init__(self, fh):
        self.fh = fh
        self.buf = bytearray(_CHUNK)
        self.view = memoryview(self.buf)
        self.pos = self.end = 0

    def more(self) -> bool:
        """Move the unconsumed bytes to the front and read on after them;
        False at the end of the file or with the buffer full."""
        kept = self.end - self.pos
        self.buf[:kept] = self.view[self.pos:self.end].tobytes()
        self.pos, self.end = 0, kept
        got = self.fh.readinto(self.view[kept:])
        self.end += got
        return got > 0

    def find(self, token: bytes, skip: int = 0) -> int:
        """Where in buf token next begins, skip bytes or more past pos; -1 if
        the file ends or the buffer fills first."""
        while (at := self.buf.find(token, self.pos + skip, self.end)) < 0:
            if not self.more():
                return -1
        return at

    def take(self, token: bytes) -> bool:
        """Consume token if the unconsumed bytes begin with it."""
        while self.end - self.pos < len(token):
            if not self.more():
                return False
        if not self.buf.startswith(token, self.pos):
            return False
        self.pos += len(token)
        return True

    def decode_into(self, out: memoryview, pad: int) -> bool:
        """Consume the base64 of len(out) bytes, its last pad characters "="
        and all others of its alphabet, decoding it into out a chunk at a
        time; False for anything else.

        Each piece decoded is a whole number of 4-character groups, so
        padding can only end the data (RFC 4648, section 4), and a piece
        with a character outside the alphabet, or an "=" that does not end
        the data, decodes to fewer than its 3 bytes per group.
        """
        left, done = 4 * -(-len(out) // 3), 0
        while left:
            if self.end - self.pos < 4:
                if not self.more():
                    return False
                continue
            step = min(self.end - self.pos, left) // 4 * 4
            piece = self.view[self.pos:self.pos + step]
            tail = pad if step == left else 0
            raw = binascii.a2b_base64(piece)
            if len(raw) != step // 4 * 3 - tail or piece[step - tail:] != b"=" * tail:
                return False
            out[done:done + len(raw)] = raw
            done, left, self.pos = done + len(raw), left - step, self.pos + step
        return True


def _stream_fields(path) -> dict[str, FieldGrid] | None:
    """The fields of a file in save_fields' layout, each field's base64
    decoded a chunk at a time straight into its array; None for any other
    document and for a bad one, for json to read it.  A file that cannot be
    opened or read raises as json's read would."""
    try:
        with open(path, "rb", buffering=0) as fh:
            src = _Chunks(fh)
            at = src.find(_FIELDS)
            if at < 0:
                return None
            head = src.view[:at + len(_FIELDS)].tobytes()
            doc = json.loads(head.decode("ascii") + "}}")
            spec, kind = GridSpec.from_json(doc), doc.get("kind")
            # the grid's entries as json.dumps writes them (0 or 0.0), in order
            grid = {key: doc.get(key) for key in spec.to_json()}
            if kind not in ("real", "complex") or _head(grid, kind) != head:
                return None
            src.pos = len(head)
            n = _doubles(spec, kind)
            fields = {}
            while True:
                at = src.find(_CLOSE + _OPEN, 1)  # the name's closing quote
                if at < 0:
                    return None
                quoted = src.view[src.pos:at + 1].tobytes()
                name = json.loads(quoted.decode("ascii"))
                # json.dumps' own bytes for a string, and the names sorted
                if (json.dumps(name).encode() != quoted
                        or fields and not name > next(reversed(fields))):
                    return None
                src.pos = at + 1 + len(_OPEN)
                arr = np.empty(n, dtype="<f8")
                if not (src.decode_into(memoryview(arr).cast("B"), -8 * n % 3)
                        and src.take(_CLOSE)):
                    return None
                fields[name] = _field(spec, arr.astype(np.float64, copy=False), kind,
                                      f"field {name!r} of {path}")
                if src.take(_TAIL):
                    return None if src.pos < src.end or src.more() else fields
                if not src.take(_SEP):
                    return None
    except (ValueError, RecursionError):  # json reads it again and raises its own error
        return None


def load_fields(path) -> dict[str, FieldGrid]:
    """Read a field file in either encoding: base64 strings, or (an absent
    or "text" encoding) flat lists of numbers.

    A file in save_fields' layout is streamed, holding its fields and one
    chunk; any other JSON document is read whole with json.load.
    """
    fields = _stream_fields(path)
    if fields is not None:
        return fields
    with open(path) as fh:
        doc = json.load(fh)
    if not (isinstance(doc, dict) and isinstance(doc.get("fields"), dict)):
        raise ValueError(f"{path} is not a field file: expected an object with a 'fields' object")
    spec = GridSpec.from_json(doc)
    kind = doc.get("kind", "real")
    if kind not in ("real", "complex"):
        raise ValueError(f"field kind must be 'real' or 'complex', got {json.dumps(kind)}")
    encoding = doc.get("encoding", TEXT)
    if encoding not in (TEXT, BASE64):
        raise ValueError(f"field encoding must be {TEXT!r} or {BASE64!r}, "
                         f"got {json.dumps(encoding)}")
    fields = {}
    for name, data in doc["fields"].items():
        what = f"field {name!r} of {path}"
        fields[name] = _field(spec, _decode(what, data, spec, kind, encoding), kind, what)
    return fields
