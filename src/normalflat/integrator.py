"""Frame integration and its inverse.

``integrate_frame`` propagates the 5-column moving frame (T1 T2 N1 N2 F)
through the linear system of :mod:`normalflat.frames` with that module's
4th-order ``sweep``, base row first and then every column.  No
re-orthonormalization is applied; Gram and quadric drift are the
accuracy diagnostics.  ``reconstruct_coefficients`` inverts
the frame definitions on a sampled conformal immersion.

Both stream their whole-grid work: the connection is assembled in column
windows and row slabs (:class:`normalflat.frames.FrameConnection`), the
Gram drift and the reconstructed coefficients are computed one row slab
at a time (``grid.row_slabs``), so the largest arrays either holds are
its input and its output, plus, in reconstruction, the normal frame.

For L0 = 0 the ambient model is 4-dimensional and the fifth frame column
is the position itself (affine frame); for L0 != 0 everything lives in
the flat 5-space containing the quadric model.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .frames import COEFF_NAMES, CoefficientSet, FrameConnection
from .grid import (ROUND_OFF_TOL, FieldGrid, GridSpec, grad, hessian, isothermality_tolerance,
                   load_fields, residual_tolerance, row_slabs, save_fields)
from .spaceform import CaseSpec, ambient_inner, ambient_signature, quadric_defect

__all__ = [
    "FrameField",
    "SurfaceMesh",
    "canonical_frame0",
    "integrate_frame",
    "reconstruct_coefficients",
    "export_mesh",
    "load_mesh",
    "save_mesh",
]


class SignatureError(ValueError):
    """Sampled mesh does not have the causal type of the requested case."""


class NotConformalError(ValueError):
    pass


class OffQuadricError(ValueError):
    """Sampled mesh does not lie on the quadric <x, x> = 1/L0 of the case."""


@dataclass
class SurfaceMesh:
    spec: GridSpec
    positions: np.ndarray  # (nu, nv, dim)

    @property
    def dim(self) -> int:
        return self.positions.shape[-1]


@dataclass
class FrameField:
    case: CaseSpec
    spec: GridSpec
    values: np.ndarray  # (nu, nv, dim, 5) columns T1 T2 N1 N2 F

    def column(self, k: int) -> np.ndarray:
        return self.values[..., k]

    def mesh(self) -> SurfaceMesh:
        return SurfaceMesh(self.spec, self.values[..., 4].copy())

    def gram_drift(self, lam: FieldGrid) -> dict:
        """Max deviation of the frame Gram matrix from its target.

        Frame-block deviations are scaled by e^{-2 lambda}; quadric and
        mixed-F deviations are absolute.  The Gram matrices are formed one
        row slab at a time; a NaN anywhere is the maximum.
        """
        signs = ambient_signature(self.case).array()[:, None]
        target = np.diag(self.case.frame_signs)
        maxima = {"gram_max": [], "quadric_max": [], "position_cross_max": []}
        for slab in row_slabs(self.spec):
            Y = self.values[slab.rows]
            gram = np.swapaxes(Y * signs, -1, -2) @ Y
            e2l = np.exp(2 * lam.values[slab.rows])[..., None, None]
            maxima["gram_max"].append(np.max(np.abs(gram[..., :4, :4] - target * e2l) / e2l))
            if self.case.l0 != 0:
                maxima["quadric_max"].append(np.max(np.abs(gram[..., 4, 4] - 1.0 / self.case.l0)))
                maxima["position_cross_max"].append(np.max(np.abs(gram[..., 4, :4])))
        return {name: float(np.max(m)) for name, m in maxima.items() if m}


def canonical_frame0(case: CaseSpec, lam0: float = 0.0) -> np.ndarray:
    """Initial frame from the ambient axes, scaled by e^{lambda(base)}.

    Positive columns take the leading ambient axes, negative columns the
    axes after them; for L0 != 0 the last axis of sign L0 is left over and
    carries the base position on the quadric.
    """
    sig = ambient_signature(case)
    frame = np.zeros((sig.dim, 5))
    axes = list(range(sig.dim))
    if case.l0 != 0:
        point = max(ax for ax in axes if sig.signs[ax] * case.l0 > 0)
        frame[axes.pop(point), 4] = 1.0 / np.sqrt(abs(case.l0))
    columns = sorted(range(4), key=lambda col: -case.frame_signs[col])
    frame[axes, columns] = np.exp(lam0)
    return frame


def _frame0_gram_defect(frame0: np.ndarray, case: CaseSpec, lam0: float) -> float:
    """Max deviation of an initial frame from its required Gram matrix."""
    sig = ambient_signature(case)
    e2l = np.exp(2 * lam0)
    gram = np.einsum("ak,a,al->kl", frame0, sig.array(), frame0)
    target = np.diag([*(s * e2l for s in case.frame_signs),
                      1.0 / case.l0 if case.l0 != 0 else 0.0])
    n = 5 if case.l0 != 0 else 4  # the flat model leaves the position unconstrained
    dev = np.max(np.abs(gram[:n, :n] - target[:n, :n]))
    return float(dev / max(e2l, 1.0))


def integrate_frame(coeffs: CoefficientSet, case: CaseSpec, frame0=None):
    """Propagate the moving frame over the grid; returns (FrameField, report).

    frame0: (dim, 5) initial frame at the base corner, or None for the
    canonical axis-aligned frame.  The frame is never projected onto the
    quadric, so the report's Gram and quadric drift are integration error;
    when the input coefficients violate compatibility, that defect is the
    expected error floor (warned, not blocked).  The report states the
    defect and the residual level it is warned at, as
    ``compatibility_defect`` and ``compatibility_tolerance``.
    """
    sig = ambient_signature(case)
    if frame0 is None:
        frame0 = canonical_frame0(case, float(coeffs.lam.values[0, 0]))
    frame0 = np.asarray(frame0, dtype=float)
    if frame0.shape != (sig.dim, 5):
        raise ValueError(f"frame0 must have shape ({sig.dim}, 5)")
    gram_err = _frame0_gram_defect(frame0, case, float(coeffs.lam.values[0, 0]))
    if not (gram_err <= ROUND_OFF_TOL):
        raise ValueError(
            f"frame0 violates the Gram conditions at the base point ({gram_err:.3e})")

    spec = coeffs.spec
    conn = FrameConnection(coeffs, case)
    values, (substeps_u, substeps_v) = conn.sweep(frame0)
    field = FrameField(case, spec, values)

    report = field.gram_drift(coeffs.lam)
    report["frame0"] = frame0.tolist()
    report["substeps"] = {"u": substeps_u, "v": substeps_v}
    # the defect of the connection just swept: compatibility_defect(coeffs, case)
    compat = conn.curvature_norm().max_abs()
    report["compatibility_defect"] = compat
    tol = report["compatibility_tolerance"] = residual_tolerance(spec, coeffs.max_abs())
    if not (compat <= tol):
        # incompatible data is integrated anyway; the drift is the signal
        report["compatibility_warning"] = (
            f"input coefficients violate integrability ({compat:.3e} > {tol:.3e}); "
            "expect Gram/quadric drift of the same order")
    return field, report


def reconstruct_coefficients(mesh: SurfaceMesh, case: CaseSpec):
    """Recover a CoefficientSet from a sampled conformal immersion.

    Tangents come from first differences, lambda from their inner
    product, the normal frame from sign-aligned Gram-Schmidt seeded on
    the canonical ambient axes, and the coefficients from second
    differences, one row slab at a time.  The normal gauge is only fixed
    up to the case's residual freedom, so compare gauge invariants, not raw
    fields.  Returns (CoefficientSet, gauge report).  Raises OffQuadricError
    when L0 != 0 and the mesh leaves <x, x> = 1/L0 by more than
    ``residual_tolerance(spec, 1/|L0|)``, SignatureError when a tangent or
    normal has the wrong causal type, and NotConformalError when the
    isothermality defect exceeds its tolerance (a NaN fails each check).
    """
    sig = ambient_signature(case)
    if mesh.dim != sig.dim:
        raise ValueError(f"mesh dimension {mesh.dim} does not match case ({sig.dim})")
    spec = mesh.spec
    F = mesh.positions
    if case.l0 != 0:
        off = float(np.max(np.abs(quadric_defect(F, case))))
        tol = residual_tolerance(spec, 1.0 / abs(case.l0))
        if not (off <= tol):
            raise OffQuadricError(f"mesh is off the quadric <x, x> = 1/L0 = {1.0 / case.l0:g}: "
                                  f"max deviation {off:.3e} > tolerance {tol:.3e}")

    T1, T2 = grad(F, spec)
    g1, g2, n1s, n2s = case.frame_signs
    q11 = g1 * ambient_inner(T1, T1, sig)
    q22 = g2 * ambient_inner(T2, T2, sig)
    if not (np.all(q11 > 0) and np.all(q22 > 0)):
        raise SignatureError("tangent causal type does not match the case")
    e2l = q11
    lam = 0.5 * np.log(q11)
    iso = max(float(np.max(np.abs(q11 - q22) / e2l)),
              float(np.max(np.abs(ambient_inner(T1, T2, sig)) / e2l)))
    # first differences are O(h^2) accurate, so isothermality can only be
    # checked to that order
    iso_tol = max(1e-6, isothermality_tolerance(spec, float(np.max(np.abs(F)))))
    if not (iso <= iso_tol):
        raise NotConformalError(f"isothermality defect {iso:.3e} exceeds {iso_tol:.3e}")

    # gauge: canonical seed at the base corner, then continuous propagation
    # (each point re-projects its neighbor's normal into its own normal
    # space), which keeps the causal type stable across the grid.  Fields
    # are stored as (nv, dim, nu) blocks, so that a column step reads
    # contiguous memory; the dot products sum the components in order, as
    # a per-point sum does, so the normals do not depend on the layout.
    seed = canonical_frame0(case, 0.0)
    sg = sig.array()[:, None]

    def dot(x, y):  # (..., dim, m) -> (..., 1, m)
        return np.sum(x * y, axis=-2, keepdims=True)

    def blocks(x):  # (nu, nv, ...) -> (nv, ..., nu)
        return np.ascontiguousarray(np.moveaxis(x, 0, -1))

    def projector(b):
        return b, dot(sg * b, b)

    # the blocks are copies: the tangents go once the projectors exist, and
    # the projectors once the normals do
    projectors = [projector(blocks(b)) for b in (T1, T2, *([F] if case.l0 != 0 else []))]
    del T1, T2
    el = blocks(np.exp(lam)[..., None])
    base = (0, slice(None), slice(0, 1))

    def project_point(cand, idx, extra):
        # sg is +-1, so sg * cand . b is cand . sg * b bit for bit
        for b, bb in (*projectors, *extra):
            cand = cand - dot(sg * cand, b[idx]) / bb[idx] * b[idx]
        return cand

    def normalize(cand, idx, want_sign, prev):
        sq = dot(sg * cand, cand)
        if not np.all(want_sign * sq > 0):
            raise SignatureError("normal candidate has the wrong causal type")
        cand = cand * (el[idx] / np.sqrt(np.abs(sq)))
        if prev is not None:
            cand = np.where(dot(cand, prev) < 0, -cand, cand)
        return cand

    def base_candidate(preferred, want_sign, extra):
        # fall back to any ambient axis whose projection has the right type
        # and is not numerically degenerate (axis nearly tangent)
        for cand in (preferred, *np.eye(sig.dim)[..., None]):
            proj = project_point(cand, base, extra)
            if np.all(want_sign * dot(sg * proj, proj) > 1e-6):
                return proj
        raise SignatureError("no ambient axis projects to the required normal type")

    def propagate(want_sign, base_seed, extra):
        N = np.empty((spec.nv, sig.dim, spec.nu))
        N[base] = normalize(base_candidate(base_seed, want_sign, extra), base, want_sign, None)
        for i in range(1, spec.nu):
            idx, prev = (0, slice(None), slice(i, i + 1)), N[0, :, i - 1:i]
            N[idx] = normalize(project_point(prev, idx, extra), idx, want_sign, prev)
        for j in range(1, spec.nv):
            N[j] = normalize(project_point(N[j - 1], j, extra), j, want_sign, N[j - 1])
        return N

    N1 = propagate(n1s, seed[:, 2:3], [])
    N2 = propagate(n2s, seed[:, 3:4], [projector(N1)])
    del projectors
    N1 = np.ascontiguousarray(np.moveaxis(N1, -1, 0))
    N2 = np.ascontiguousarray(np.moveaxis(N2, -1, 0))

    # the second forms of F along the normals, and the normal connection
    fields = {name: np.empty(spec.shape) for name in COEFF_NAMES[1:]}
    for slab in row_slabs(spec):
        rows = slab.rows
        Fuu, Fuv, Fvv = (x[slab.keep] for x in hessian(F[slab.pad], slab.spec))
        N1u, N1v = (x[slab.keep] for x in grad(N1[slab.pad], slab.spec))
        inv1 = n1s / e2l[rows]
        inv2 = n2s / e2l[rows]
        for name, inv, d2F, N in (("alpha1", inv1, Fuu, N1), ("alpha2", inv1, Fuv, N1),
                                  ("alpha3", inv1, Fvv, N1), ("beta1", inv2, Fuu, N2),
                                  ("beta2", inv2, Fuv, N2), ("beta3", inv2, Fvv, N2),
                                  ("mu1", inv2, N1u, N2), ("mu2", inv2, N1v, N2)):
            fields[name][rows] = inv * ambient_inner(d2F, N[rows], sig)

    coeffs = CoefficientSet.from_arrays(spec, lam=lam, **fields)
    report = {
        "isothermality_defect": iso,
        "base_normal1": N1[0, 0].tolist(),
        "base_normal2": N2[0, 0].tolist(),
    }
    return coeffs, report


# ---------------------------------------------------------------------------
# mesh files
# ---------------------------------------------------------------------------

def save_mesh(path, mesh: SurfaceMesh) -> None:
    fields = {f"x{k}": FieldGrid(mesh.spec, mesh.positions[..., k])
              for k in range(mesh.dim)}
    save_fields(path, fields)


def load_mesh(path) -> SurfaceMesh:
    fields = load_fields(path)
    names = [f"x{k}" for k in range(len(fields))]
    if not fields or set(fields) != set(names):
        raise ValueError(f"{path} is not a mesh file: expected the fields x0, x1, ... "
                         f"and no other, got {sorted(fields)}")
    pos = np.stack([fields[n].values for n in names], axis=-1)
    return SurfaceMesh(fields["x0"].spec, pos)


def export_mesh(mesh, path, fmt: str = "csv", axes=(0, 1, 2)) -> None:
    """Write a mesh as CSV (all ambient coordinates) or OBJ (3-axis projection).

    OBJ export also accepts a bare (nu, nv, dim) position array, with quad
    faces over the grid; CSV needs a SurfaceMesh for its (u, v) columns.
    Complex positions are rejected, not truncated to their real parts.
    """
    positions = np.asarray(mesh.positions if isinstance(mesh, SurfaceMesh) else mesh)
    if np.iscomplexobj(positions):
        raise ValueError("mesh positions must be real")
    positions = positions.astype(float, copy=False)
    nu, nv, dim = positions.shape
    if fmt == "csv":
        if not isinstance(mesh, SurfaceMesh):
            raise ValueError("csv export needs a SurfaceMesh (u, v columns)")
        table = np.concatenate([np.stack(mesh.spec.mesh(), axis=-1), positions], axis=-1)
        with open(path, "w", newline="") as fh:
            fh.write(",".join(["u", "v"] + [f"x{k}" for k in range(dim)]) + "\r\n")
            _write_lines(fh, ",".join(["%r"] * (2 + dim)) + "\r\n",
                         table.reshape(-1, 2 + dim))
    elif fmt == "obj3d":
        if len(axes) != 3 or not all(-dim <= a < dim for a in axes):
            raise ValueError("obj export needs three valid projection axes")
        a = (np.arange(nu - 1)[:, None] * nv + np.arange(nv - 1) + 1).reshape(-1, 1)
        with open(path, "w") as fh:
            _write_lines(fh, "v %r %r %r\n", positions[..., list(axes)].reshape(-1, 3))
            _write_lines(fh, "f %d %d %d %d\n", np.hstack([a, a + nv, a + nv + 1, a + 1]))
    else:
        raise ValueError(f"unknown mesh format {fmt!r}")


_ROWS_PER_WRITE = 1 << 16  # bounds the Python floats and text alive at once


def _write_lines(fh, line: str, table: np.ndarray) -> None:
    """Write ``line % row`` for every row of a 2-d array, in bulk.

    The values go through ``tolist()``, so ``%r`` prints a float as its
    shortest repr, exactly as ``repr(float(x))`` would.
    """
    for start in range(0, len(table), _ROWS_PER_WRITE):
        rows = table[start:start + _ROWS_PER_WRITE]
        fh.write((line * len(rows)) % tuple(rows.reshape(-1).tolist()))


def load_mesh_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read back a CSV mesh: (u, v, coords) flat arrays, bit-exact."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    data = np.array([[float(x) for x in row] for row in body])
    return data[:, 0], data[:, 1], data[:, 2:]
