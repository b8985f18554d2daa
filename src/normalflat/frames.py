"""Connection matrices of the moving frame and their integrability defect.

The frame (T1 T2 N1 N2 F) satisfies a linear system

    d/du (frame) = (frame) S,      d/dv (frame) = (frame) T,

with 5x5 coefficient matrices S, T built pointwise from the conformal
factor log lambda, the second-fundamental-form components alpha_k, beta_k
and the normal-connection components mu_1, mu_2.  The system is solvable
exactly when S_v - T_u = ST - TS; the Frobenius norm of the mismatch is
the compatibility defect measured here.  Entry signs come from the
case's sign table (see :mod:`normalflat.spaceform`).
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
    """Frobenius norm per grid point of S_v - T_u - (ST - TS)."""
    S, T = assemble_connection(coeffs, case)
    spec = coeffs.spec
    Sv = _diff_along(S, spec.dv, 1)
    Tu = _diff_along(T, spec.du, 0)
    bracket = S @ T - T @ S
    err = Sv - Tu - bracket
    return FieldGrid(spec, np.sqrt(np.sum(err * err, axis=(-2, -1))))
