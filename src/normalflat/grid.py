"""Uniform rectangular (u, v) grids and sampled scalar/complex fields.

Every quantity in this package lives on a shared :class:`GridSpec`: a
rectangle sampled at ``nu x nv`` points with spacings ``du, dv``.  Fields
are stored as 2-d arrays indexed ``[i, j]`` with ``u = u0 + i*du`` and
``v = v0 + j*dv``.  Differentiation uses second-order central stencils in
the interior and second-order one-sided stencils on the boundary, so every
residual computed downstream carries a uniform O(h^2) truncation budget.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "FieldGrid",
    "diff_u",
    "diff_v",
    "field_map",
    "save_fields",
    "load_fields",
]


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
        if not (self.du > 0 and self.dv > 0):
            raise ValueError(f"grid steps must be positive, got du={self.du}, dv={self.dv}")
        if self.nu < 5 or self.nv < 5:
            # one-sided boundary stencils need five points per direction
            raise ValueError(f"need at least 5 points per direction, got {self.nu}x{self.nv}")

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
        if values.size == spec.nu * spec.nv and values.ndim == 1:
            values = values.reshape(spec.nu, spec.nv)
        if values.shape != spec.shape:
            raise GridShapeError(f"values shape {values.shape} != grid shape {spec.shape}")
        if np.iscomplexobj(values):
            values = values.astype(np.complex128, copy=False)
        else:
            values = values.astype(np.float64, copy=False)
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
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

    def copy(self) -> "FieldGrid":
        return FieldGrid(self.spec, self.values.copy())

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


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
    variant serves the frame integrator, whose stepping is fourth order
    and would otherwise be throttled by the gradient truncation.
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


# ---------------------------------------------------------------------------
# tolerance policy: every pass level of the package; gates compare
# NaN-strictly, ``not (x <= tol)``
# ---------------------------------------------------------------------------

# round-off floor of quantities that are exact on closed-form inputs
ROUND_OFF_TOL = 1e-10


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
# field files: one JSON document per grid, any number of named fields
# ---------------------------------------------------------------------------

def _encode(values: np.ndarray, kind: str) -> list:
    flat = values.reshape(-1)
    if kind == "complex":
        out = np.empty(2 * flat.size)
        out[0::2] = flat.real
        out[1::2] = flat.imag
        return out.tolist()
    return flat.astype(float).tolist()


def _decode(data: list, spec: GridSpec, kind: str) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if kind == "complex":
        if arr.size != 2 * spec.nu * spec.nv:
            raise ValueError("complex field length must be 2*nu*nv")
        return (arr[0::2] + 1j * arr[1::2]).reshape(spec.shape)
    if arr.size != spec.nu * spec.nv:
        raise ValueError("field length must be nu*nv")
    return arr.reshape(spec.shape)


def save_fields(path, fields: dict[str, FieldGrid]) -> None:
    """Write named fields sharing one grid to a JSON field file.

    Doubles round-trip bit-exactly (shortest-repr JSON floats).
    """
    if not fields:
        raise ValueError("nothing to save")
    specs = {f.spec for f in fields.values()}
    if len(specs) != 1:
        raise GridShapeError("all fields in one file must share a grid")
    spec = next(iter(specs))
    kind = "complex" if any(f.kind == "complex" for f in fields.values()) else "real"
    doc = {
        "u0": spec.u0, "v0": spec.v0,
        "du": spec.du, "dv": spec.dv,
        "nu": spec.nu, "nv": spec.nv,
        "kind": kind,
        "fields": {
            name: _encode(
                f.values.astype(np.complex128) if kind == "complex" else f.values, kind
            )
            for name, f in sorted(fields.items())
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_fields(path) -> dict[str, FieldGrid]:
    with open(path) as fh:
        doc = json.load(fh)
    spec = GridSpec(doc["u0"], doc["v0"], doc["du"], doc["dv"], int(doc["nu"]), int(doc["nv"]))
    kind = doc.get("kind", "real")
    return {
        name: FieldGrid(spec, _decode(data, spec, kind))
        for name, data in doc["fields"].items()
    }
