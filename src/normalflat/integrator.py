"""Frame integration and its inverse.

``integrate_frame`` propagates the 5-column moving frame (T1 T2 N1 N2 F)
through the linear system of :mod:`normalflat.frames` with that module's
4th-order ``sweep``, base row first and then every column.  No
re-orthonormalization is applied; Gram and quadric drift are the
accuracy diagnostics.  ``reconstruct_coefficients`` inverts
the frame definitions on a sampled conformal immersion.

For L0 = 0 the ambient model is 4-dimensional and the fifth frame column
is the position itself (affine frame); for L0 != 0 everything lives in
the flat 5-space containing the quadric model.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .frames import CoefficientSet, assemble_connection, sweep
from .grid import (ROUND_OFF_TOL, FieldGrid, GridSpec, _diff2_along, _diff_along, _diff_along4,
                   isothermality_tolerance, residual_tolerance)
from .spaceform import CaseSpec, ambient_signature, metric_conventions

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
        mixed-F deviations are absolute.
        """
        sig = ambient_signature(self.case)
        e2l = np.exp(2 * lam.values)
        signs = sig.array()
        gram = np.einsum("ijak,a,ijal->ijkl", self.values, signs, self.values)
        target = np.diag(metric_conventions(self.case).frame_signs) * e2l[..., None, None]
        frame_dev = np.max(np.abs(gram[..., :4, :4] - target) / e2l[..., None, None])
        out = {"gram_max": float(frame_dev)}
        if self.case.l0 != 0:
            out["quadric_max"] = float(np.max(np.abs(gram[..., 4, 4] - 1.0 / self.case.l0)))
            out["position_cross_max"] = float(np.max(np.abs(gram[..., 4, :4])))
        return out


def canonical_frame0(case: CaseSpec, lam0: float = 0.0) -> np.ndarray:
    """Initial frame from the ambient axes, scaled by e^{lambda(base)}.

    Axes are assigned greedily so that each column's self inner product
    has the sign demanded by the case conventions; for L0 != 0 the
    remaining axis carries the base position on the quadric.
    """
    sig = ambient_signature(case)
    need = metric_conventions(case).frame_signs
    signs = list(sig.signs)
    used = [False] * sig.dim
    frame = np.zeros((sig.dim, 5))
    s = float(np.exp(lam0))
    for col, want in enumerate(need):
        for ax in range(sig.dim):
            if not used[ax] and signs[ax] == want:
                frame[ax, col] = s
                used[ax] = True
                break
        else:  # pragma: no cover - table guarantees feasibility
            raise ValueError(f"no ambient axis with sign {want} left for case {case.case_id}")
    if case.l0 != 0:
        ax = used.index(False)
        want = 1 if case.l0 > 0 else -1
        if signs[ax] != want:  # pragma: no cover
            raise ValueError("leftover axis cannot carry the quadric base point")
        frame[ax, 4] = 1.0 / np.sqrt(abs(case.l0))
    return frame


def _frame0_gram_defect(frame0: np.ndarray, case: CaseSpec, lam0: float) -> float:
    """Max deviation of an initial frame from its required Gram matrix."""
    sig = ambient_signature(case)
    e2l = np.exp(2 * lam0)
    gram = np.einsum("ak,a,al->kl", frame0, sig.array(), frame0)
    target = np.diag([*(s * e2l for s in metric_conventions(case).frame_signs),
                      1.0 / case.l0 if case.l0 != 0 else 0.0])
    n = 5 if case.l0 != 0 else 4  # the flat model leaves the position unconstrained
    dev = np.max(np.abs(gram[:n, :n] - target[:n, :n]))
    return float(dev / max(e2l, 1.0))


def integrate_frame(coeffs: CoefficientSet, case: CaseSpec, frame0=None,
                    project_quadric: bool = False):
    """Propagate the moving frame over the grid; returns (FrameField, report).

    frame0: (dim, 5) initial frame at the base corner, or None for the
    canonical axis-aligned frame.  The report carries Gram/quadric drift
    and, when the input coefficients violate compatibility, that defect
    is the expected error floor (warned, not blocked).
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

    # fourth-order conformal-factor gradients keep the stepping order honest
    spec = coeffs.spec
    lam_grad = (_diff_along4(coeffs.lam.values, spec.du, 0),
                _diff_along4(coeffs.lam.values, spec.dv, 1))
    S, T = assemble_connection(coeffs, case, lam_gradients=lam_grad)
    field = FrameField(case, spec, sweep(S, T, frame0, spec))
    if project_quadric and case.l0 != 0:
        F = field.values[..., 4]
        norm = np.einsum("ija,a,ija->ij", F, sig.array(), F)
        scale = np.sqrt(np.abs(1.0 / case.l0 / norm))
        field.values[..., 4] = F * scale[..., None]

    report = field.gram_drift(coeffs.lam)
    report["frame0"] = frame0.tolist()
    from .frames import compatibility_defect
    compat = compatibility_defect(coeffs, case).max_abs()
    report["compatibility_defect"] = compat
    tol = residual_tolerance(spec, coeffs.max_abs())
    if not (compat <= tol):
        # incompatible data is integrated anyway; the drift is the signal
        report["compatibility_warning"] = (
            f"input coefficients violate integrability ({compat:.3e} > {tol:.3e}); "
            "expect Gram/quadric drift of the same order")
    return field, report


def reconstruct_coefficients(mesh: SurfaceMesh, case: CaseSpec, tol: float = 1e-6):
    """Recover a CoefficientSet from a sampled conformal immersion.

    Tangents come from first differences, lambda from their inner
    product, the normal frame from sign-aligned Gram-Schmidt seeded on
    the canonical ambient axes, and the coefficients from second
    differences.  The normal gauge is only fixed up to the case's
    residual freedom, so compare gauge invariants, not raw fields.
    Returns (CoefficientSet, gauge report).
    """
    sig = ambient_signature(case)
    if mesh.dim != sig.dim:
        raise ValueError(f"mesh dimension {mesh.dim} does not match case ({sig.dim})")
    spec = mesh.spec
    F = mesh.positions
    signs = sig.array()

    def inner(x, y):
        return np.einsum("ija,a,ija->ij", x, signs, y)

    T1 = _diff_along(F, spec.du, 0)
    T2 = _diff_along(F, spec.dv, 1)
    g1, g2, n1s, n2s = metric_conventions(case).frame_signs
    q11 = g1 * inner(T1, T1)
    q22 = g2 * inner(T2, T2)
    if np.any(q11 <= 0) or np.any(q22 <= 0):
        raise SignatureError("tangent causal type does not match the case")
    e2l = q11
    lam = 0.5 * np.log(q11)
    iso = max(float(np.max(np.abs(q11 - q22) / e2l)),
              float(np.max(np.abs(inner(T1, T2)) / e2l)))
    # first differences are O(h^2) accurate, so isothermality can only be
    # checked to that order
    iso_tol = max(tol, isothermality_tolerance(spec, float(np.max(np.abs(F)))))
    if not (iso <= iso_tol):
        raise NotConformalError(f"isothermality defect {iso:.3e} exceeds {iso_tol:.3e}")

    # gauge: canonical seed at the base corner, then continuous propagation
    # (each point re-projects its neighbor's normal into its own normal
    # space), which keeps the causal type stable across the grid
    seed = canonical_frame0(case, 0.0)

    def inner1(x, y):
        return np.sum(signs * x * y, axis=-1)

    def project_point(cand, idx, others):
        for b in (T1[idx], T2[idx], *([F[idx]] if case.l0 != 0 else []), *others):
            cand = cand - (inner1(cand, b) / inner1(b, b))[..., None] * b
        return cand

    def normalize(cand, idx, want_sign, prev):
        sq = inner1(cand, cand)
        if np.any(want_sign * sq <= 0):
            raise SignatureError("normal candidate has the wrong causal type")
        cand = cand * (np.exp(lam[idx]) / np.sqrt(np.abs(sq)))[..., None]
        if prev is not None:
            flip = np.sum(cand * prev, axis=-1) < 0
            cand = np.where(flip[..., None], -cand, cand)
        return cand

    def base_candidate(preferred, want_sign, others):
        # fall back to any ambient axis whose projection has the right type
        # and is not numerically degenerate (axis nearly tangent)
        trials = [preferred] + [np.eye(sig.dim)[ax] for ax in range(sig.dim)]
        for cand in trials:
            proj = project_point(cand.copy(), (0, 0), others)
            if want_sign * inner1(proj, proj) > 1e-6:
                return proj
        raise SignatureError("no ambient axis projects to the required normal type")

    def propagate(want_sign, base_seed, others_of):
        N = np.empty_like(F)
        N[0, 0] = normalize(base_candidate(base_seed, want_sign, others_of((0, 0))),
                            (0, 0), want_sign, None)
        for i in range(1, spec.nu):
            idx = (i, 0)
            N[idx] = normalize(project_point(N[i - 1, 0], idx, others_of(idx)),
                               idx, want_sign, N[i - 1, 0])
        for j in range(1, spec.nv):
            idx = (slice(None), j)
            N[:, j] = normalize(project_point(N[:, j - 1], idx, others_of(idx)),
                                idx, want_sign, N[:, j - 1])
        return N

    N1 = propagate(n1s, seed[:, 2].copy(), lambda idx: [])
    N2 = propagate(n2s, seed[:, 3].copy(), lambda idx: [N1[idx]])

    Fuu = _diff2_along(F, spec.du, 0)
    Fuv = _diff_along(T1, spec.dv, 1)
    Fvv = _diff2_along(F, spec.dv, 1)
    inv1 = n1s / e2l
    inv2 = n2s / e2l
    a1 = inv1 * inner(Fuu, N1)
    a2 = inv1 * inner(Fuv, N1)
    a3 = inv1 * inner(Fvv, N1)
    b1 = inv2 * inner(Fuu, N2)
    b2 = inv2 * inner(Fuv, N2)
    b3 = inv2 * inner(Fvv, N2)
    m1 = inv2 * inner(_diff_along(N1, spec.du, 0), N2)
    m2 = inv2 * inner(_diff_along(N1, spec.dv, 1), N2)

    coeffs = CoefficientSet.from_arrays(
        spec, lam=lam, alpha1=a1, alpha2=a2, alpha3=a3,
        beta1=b1, beta2=b2, beta3=b3, mu1=m1, mu2=m2)
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
    from .grid import save_fields
    fields = {f"x{k}": FieldGrid(mesh.spec, mesh.positions[..., k])
              for k in range(mesh.dim)}
    save_fields(path, fields)


def load_mesh(path) -> SurfaceMesh:
    from .grid import load_fields
    fields = load_fields(path)
    names = sorted(n for n in fields if n.startswith("x"))
    if not names:
        raise ValueError("mesh file holds no coordinate fields x0..")
    spec = fields[names[0]].spec
    pos = np.stack([fields[n].values for n in names], axis=-1)
    return SurfaceMesh(spec, pos)


def export_mesh(mesh, path, fmt: str = "csv", axes=(0, 1, 2)) -> None:
    """Write a mesh as CSV (all ambient coordinates) or OBJ (3-axis projection).

    OBJ export also accepts a bare (nu, nv, dim) position array, with quad
    faces over the grid; CSV needs a SurfaceMesh for its (u, v) columns.
    """
    positions = mesh.positions if isinstance(mesh, SurfaceMesh) else np.asarray(mesh)
    nu, nv, dim = positions.shape
    if fmt == "csv":
        if not isinstance(mesh, SurfaceMesh):
            raise ValueError("csv export needs a SurfaceMesh (u, v columns)")
        U, V = mesh.spec.mesh()
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["u", "v"] + [f"x{k}" for k in range(dim)])
            for i in range(nu):
                for j in range(nv):
                    w.writerow([repr(float(U[i, j])), repr(float(V[i, j]))]
                               + [repr(float(c)) for c in positions[i, j]])
    elif fmt == "obj3d":
        if len(axes) != 3 or max(axes) >= dim:
            raise ValueError("obj export needs three valid projection axes")
        with open(path, "w") as fh:
            for i in range(nu):
                for j in range(nv):
                    p = positions[i, j]
                    fh.write(f"v {float(p[axes[0]])!r} {float(p[axes[1]])!r} "
                             f"{float(p[axes[2]])!r}\n")
            for i in range(nu - 1):
                for j in range(nv - 1):
                    a = i * nv + j + 1
                    b = (i + 1) * nv + j + 1
                    fh.write(f"f {a} {b} {b + 1} {a + 1}\n")
    else:
        raise ValueError(f"unknown mesh format {fmt!r}")


def load_mesh_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read back a CSV mesh: (u, v, coords) flat arrays, bit-exact."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    data = np.array([[float(x) for x in row] for row in body])
    return data[:, 0], data[:, 1], data[:, 2:]
