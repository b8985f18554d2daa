"""Linear connections: the moving frame's S, T and the shared RK4 kernel.

The frame (T1 T2 N1 N2 F) satisfies a linear system

    d/du (frame) = (frame) S,      d/dv (frame) = (frame) T,

with 5x5 coefficient matrices S, T built pointwise from the conformal
factor log lambda, the second-fundamental-form components alpha_k, beta_k
and the normal-connection components mu_1, mu_2.  Entry signs come from
the case's sign table (see :mod:`normalflat.spaceform`).

The kernel serves any connection dY = Y (S du + T dv).  States are rows:
Y is (r, d) and the d x d matrices act from the right, so each row (an
ambient coordinate of the frame, or the single row [p q] of the angle
system) moves on its own.  ``curvature`` is S_v - T_u - (ST - TS); it
vanishes exactly when every path from the base corner carries Y to the
same value, and its Frobenius norm is the compatibility defect.
``sweep`` steps the base row along u, then every column along v, with
classic RK4: four substeps per cell, matrices interpolated by cubics on
the nearest 4-point stencil.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import FieldGrid, GridShapeError, GridSpec, _diff_along, load_fields, save_fields
from .spaceform import CaseSpec, metric_conventions

__all__ = ["CoefficientSet", "assemble_connection", "compatibility_defect"]

COEFF_NAMES = ("lambda", "alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3", "mu1", "mu2")


@dataclass
class CoefficientSet:
    """The nine frame-coefficient fields on one grid (all real)."""

    lam: FieldGrid
    alpha1: FieldGrid
    alpha2: FieldGrid
    alpha3: FieldGrid
    beta1: FieldGrid
    beta2: FieldGrid
    beta3: FieldGrid
    mu1: FieldGrid
    mu2: FieldGrid

    def __post_init__(self):
        spec = self.lam.spec
        for f in self.fields().values():
            if f.spec != spec:
                raise GridShapeError("coefficient fields live on different grids")
            if f.kind != "real":
                raise ValueError("coefficient fields must be real")

    @property
    def spec(self) -> GridSpec:
        return self.lam.spec

    def fields(self) -> dict[str, FieldGrid]:
        return {
            "lambda": self.lam,
            "alpha1": self.alpha1, "alpha2": self.alpha2, "alpha3": self.alpha3,
            "beta1": self.beta1, "beta2": self.beta2, "beta3": self.beta3,
            "mu1": self.mu1, "mu2": self.mu2,
        }

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: f.values for name, f in self.fields().items()}

    def alravel(self):
        """(lam, a1, a2, a3, b1, b2, b3, m1, m2) as plain arrays."""
        d = self.arrays()
        return tuple(d[n] for n in COEFF_NAMES)

    def max_abs(self) -> float:
        return max(f.max_abs() for f in self.fields().values())

    @classmethod
    def from_arrays(cls, spec: GridSpec, **named) -> "CoefficientSet":
        """Build from arrays/scalars; unspecified fields default to zero."""
        def fg(name):
            val = named.get(name, 0.0)
            if np.isscalar(val):
                return FieldGrid.constant(spec, float(val))
            return FieldGrid(spec, val)

        return cls(fg("lam"), fg("alpha1"), fg("alpha2"), fg("alpha3"),
                   fg("beta1"), fg("beta2"), fg("beta3"), fg("mu1"), fg("mu2"))

    def save(self, path) -> None:
        save_fields(path, self.fields())

    @classmethod
    def load(cls, path) -> "CoefficientSet":
        fields = load_fields(path)
        missing = [n for n in COEFF_NAMES if n not in fields]
        if missing:
            raise ValueError(f"coefficient file is missing fields: {missing}")
        return cls(*(fields[n] for n in COEFF_NAMES))


def assemble_connection(coeffs: CoefficientSet, case: CaseSpec, lam_gradients=None):
    """Pointwise connection matrices S, T as arrays of shape (nu, nv, 5, 5).

    lam_gradients optionally supplies (lambda_u, lambda_v) arrays; by
    default they come from the second-order grid calculus.
    """
    lam, a1, a2, a3, b1, b2, b3, m1, m2 = coeffs.alravel()
    spec = coeffs.spec
    if lam_gradients is None:
        lu = _diff_along(lam, spec.du, 0)
        lv = _diff_along(lam, spec.dv, 1)
    else:
        lu, lv = lam_gradients
    *g, n1, n2 = metric_conventions(case).frame_signs
    q = case.l0 * np.exp(2 * lam)  # L0 e^{2 lambda}
    S = np.zeros((*spec.shape, 5, 5))
    T = np.zeros((*spec.shape, 5, 5))
    # S is the u-matrix (k = 0), T the v-matrix (k = 1): T repeats S with
    # every alpha/beta/mu index raised by one and the lambda roles swapped
    for k, M, l_own, l_other in ((0, S, lu, lv), (1, T, lv, lu)):
        alpha = (a1, a2, a3)[k:k + 2]
        beta = (b1, b2, b3)[k:k + 2]
        mu = (m1, m2)[k]
        for i in range(4):
            M[..., i, i] = l_own
        M[..., k, 1 - k] = l_other
        M[..., 1 - k, k] = -g[0] * g[1] * l_other
        for i in range(2):
            M[..., i, 2] = -g[i] * n1 * alpha[i]
            M[..., i, 3] = -g[i] * n2 * beta[i]
            M[..., 2, i] = alpha[i]
            M[..., 3, i] = beta[i]
        M[..., 2, 3] = -n1 * n2 * mu
        M[..., 3, 2] = mu
        M[..., k, 4] = 1.0
        M[..., 4, k] = -g[k] * q
    return S, T


def compatibility_defect(coeffs: CoefficientSet, case: CaseSpec) -> FieldGrid:
    """Frobenius norm per grid point of the frame connection's curvature."""
    S, T = assemble_connection(coeffs, case)
    K = curvature(S, T, coeffs.spec)
    return FieldGrid(coeffs.spec, np.sqrt(np.sum(K * K, axis=(-2, -1))))


# ---------------------------------------------------------------------------
# the linear-connection kernel
# ---------------------------------------------------------------------------

def curvature(S: np.ndarray, T: np.ndarray, spec: GridSpec) -> np.ndarray:
    """S_v - T_u - (ST - TS) per grid point, for (nu, nv, d, d) matrices."""
    return _diff_along(S, spec.dv, 1) - _diff_along(T, spec.du, 0) - (S @ T - T @ S)


_SUBSTEPS = 4


# cubic Lagrange weights on stencil nodes 0..3 at the 2 * _SUBSTEPS + 1
# sub-nodes of a cell (substep ends and midpoints), for a cell that is the
# first, middle or last interval of its stencil: shape (3, 9, 4)
_SUBNODES = np.arange(3.0)[:, None] + np.arange(2 * _SUBSTEPS + 1) / (2 * _SUBSTEPS)
_SUBNODE_WEIGHTS = np.stack(
    [np.prod([(_SUBNODES - b) / (a - b) for b in range(4) if b != a], axis=0) for a in range(4)],
    axis=-1)


def _advance(state: np.ndarray, h: float, mats: np.ndarray, k: int) -> np.ndarray:
    """One cell of dY/ds = Y M(s), RK4 with four substeps.

    state: (..., r, d); mats: matrices along the line, line index first
    (leading axes of mats must broadcast against state's leading axes).
    """
    k0 = min(max(k - 1, 0), mats.shape[0] - 4)
    # all 9 sub-node matrices at once; einsum, unlike a matmul, calls no
    # BLAS, so the sums do not depend on the BLAS build
    sub = np.einsum("ns,s...->n...", _SUBNODE_WEIGHTS[k - k0], mats[k0:k0 + 4])
    hs = h / _SUBSTEPS
    for m in range(_SUBSTEPS):
        M0, Mm, M1 = sub[2 * m:2 * m + 3]
        k1 = state @ M0
        k2 = (state + 0.5 * hs * k1) @ Mm
        k3 = (state + 0.5 * hs * k2) @ Mm
        k4 = (state + hs * k3) @ M1
        state = state + hs / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    if not np.all(np.isfinite(state)):
        raise OverflowError(f"linear propagation left the finite range near cell {k}")
    return state


def sweep(S: np.ndarray, T: np.ndarray, state0: np.ndarray, spec: GridSpec) -> np.ndarray:
    """Y over the grid from Y(u0, v0) = state0, base row first, then every column.

    S, T: (nu, nv, d, d); state0: (r, d).  Returns (nu, nv, r, d).
    """
    nu, nv = spec.shape
    out = np.empty((nu, nv, *state0.shape))
    out[0, 0] = state0
    row = S[:, 0]  # (nu, d, d) along the base row
    for i in range(nu - 1):
        out[i + 1, 0] = _advance(out[i, 0], spec.du, row, i)
    # columns, all u-indices at once: line index first, and contiguous so
    # that each cell's 4-point stencil is one block for the contraction
    cols = np.ascontiguousarray(np.moveaxis(T, 1, 0))  # (nv, nu, d, d)
    state = out[:, 0]
    for j in range(nv - 1):
        state = _advance(state, spec.dv, cols, j)
        out[:, j + 1] = state
    return out
