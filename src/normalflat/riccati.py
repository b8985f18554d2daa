"""Over-determined quadratic Pfaffian system dt = w0 + t*w1 + t^2*w2.

The angle variable of the not-linearly-dependent construction satisfies a
single scalar equation of this shape, with 1-form coefficients built from
one input potential and a one-variable function.  Solvability of the full
two-dimensional system is governed by the obstruction 2-forms

    O0 = d w0 + w0 ^ w1,   O1 = d w1 + 2 w0 ^ w2,   O2 = d w2 + w1 ^ w2,

through O0 + t O1 + t^2 O2 = 0: the t-expansion of d(dt) = 0 once dt is
substituted (the t^2 term collects w2 ^ w1 from dt ^ w1 and 2 w1 ^ w2
from 2t dt ^ w2).  The solver integrates the ODE restriction
along the base row and then down every column (classic 4th-order stepping,
four substeps per cell, linear interpolation of the coefficients) and
reports the row/column path-order swap defect as its integrability
diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import FieldGrid, GridSpec, _diff2_along, _diff_along, quadratic_tolerance
from .spaceform import CaseSpec

__all__ = [
    "OneForm",
    "RiccatiForms",
    "build_forms",
    "solve_riccati",
    "obstruction_verdict",
    "riccati_residual",
    "RiccatiBlowUpError",
    "RangeConstraintError",
]


class RiccatiBlowUpError(RuntimeError):
    def __init__(self, msg, u=None, v=None):
        super().__init__(msg)
        self.location = (u, v)


class RangeConstraintError(RuntimeError):
    pass


class DegenerateFormsError(ValueError):
    pass


@dataclass
class OneForm:
    """P du + Q dv with sampled coefficients on one grid."""

    spec: GridSpec
    cu: np.ndarray
    cv: np.ndarray

    def exterior_derivative(self) -> np.ndarray:
        """du^dv coefficient of d(P du + Q dv) = (Q_u - P_v) du^dv."""
        return _diff_along(self.cv, self.spec.du, 0) - _diff_along(self.cu, self.spec.dv, 1)

    def wedge(self, other: "OneForm") -> np.ndarray:
        """du^dv coefficient of the wedge product."""
        return self.cu * other.cv - self.cv * other.cu

    def max_abs(self) -> float:
        return float(max(np.max(np.abs(self.cu)), np.max(np.abs(self.cv))))


@dataclass
class RiccatiForms:
    omega0: OneForm
    omega1: OneForm
    omega2: OneForm
    Omega0: FieldGrid
    Omega1: FieldGrid
    Omega2: FieldGrid

    @property
    def spec(self) -> GridSpec:
        return self.omega0.spec

    def omega_scale(self) -> float:
        return max(self.omega0.max_abs(), self.omega1.max_abs(), self.omega2.max_abs())

    def obstruction_max(self) -> float:
        return max(self.Omega0.max_abs(), self.Omega1.max_abs(), self.Omega2.max_abs())


def forms_from_vectors(spec: GridSpec, vec0, vec1, vec2) -> RiccatiForms:
    """Assemble RiccatiForms from three (coeff_u, coeff_v) pairs."""
    w0 = OneForm(spec, *vec0)
    w1 = OneForm(spec, *vec1)
    w2 = OneForm(spec, *vec2)
    O0 = FieldGrid(spec, w0.exterior_derivative() + w0.wedge(w1))
    O1 = FieldGrid(spec, w1.exterior_derivative() + 2 * w0.wedge(w2))
    O2 = FieldGrid(spec, w2.exterior_derivative() + w1.wedge(w2))
    return RiccatiForms(w0, w1, w2, O0, O1, O2)


def build_forms(f_minus: FieldGrid, xi_tilde, case: CaseSpec) -> RiccatiForms:
    """Coefficient 1-forms of the angle equation from the input potential.

    Case R (and NS, which shares the pipeline): t = tan(psi), requires
    grad(f)^2 = fu^2 + fv^2 nonzero.  Case NT: t = tanh(rho), requires
    fu^2 - fv^2 nonzero; the eps = -1 branch swaps the roles of the
    cos^2/sin^2 coefficient vectors, and delta enters the rotation.
    """
    spec = f_minus.spec
    f = f_minus.values
    fu = _diff_along(f, spec.du, 0)
    fv = _diff_along(f, spec.dv, 1)
    fuu = _diff2_along(f, spec.du, 0)
    fvv = _diff2_along(f, spec.dv, 1)
    fuv = _diff_along(fu, spec.dv, 1)
    xi = xi_tilde(f) if callable(xi_tilde) else float(xi_tilde) * np.ones(spec.shape)
    cid = case.case_id

    if cid in ("R", "NS"):
        B = fu * fu + fv * fv
        if np.min(np.abs(B)) < 1e-14:
            raise DegenerateFormsError("grad(f)^2 vanishes somewhere (case R/NS)")
        p1 = xi * (fu * fu - fv * fv)
        p2 = -fuu + fvv
        q1 = xi * fu * fv
        q2 = -fuv
        a = ((fu * p1 + fv * p2) / B, (-fv * p1 + fu * p2) / B)
        b = ((2 * (fu * q1 + fv * q2) + fv * p1 - fu * p2) / B,
             (2 * (-fv * q1 + fu * q2) + fu * p1 + fv * p2) / B)
        c = (2 * (fv * q1 - fu * q2) / B, 2 * (fu * q1 + fv * q2) / B)
        return forms_from_vectors(spec, a, b, c)

    if cid == "NT":
        delta = case.delta
        B = case.eps * (fu * fu - fv * fv)
        if np.min(np.abs(B)) < 1e-14:
            raise DegenerateFormsError("fu^2 - fv^2 vanishes somewhere (case NT)")
        r1 = fuv
        r2 = -xi * fu * fv
        s1 = -(fuu + fvv)
        s2 = xi * (fu * fu + fv * fv)
        a = (2 * (delta * fu * r1 + fv * r2) / B,
             2 * (-delta * fv * r1 - fu * r2) / B)
        b = ((fu * s1 + delta * fv * s2 + 2 * (-fv * r1 - delta * fu * r2)) / B,
             (-fv * s1 - delta * fu * s2 + 2 * (fu * r1 + delta * fv * r2)) / B)
        c = ((-delta * fv * s1 - fu * s2) / B, (delta * fu * s1 + fv * s2) / B)
        if case.eps == 1:
            return forms_from_vectors(spec, a, b, c)
        return forms_from_vectors(spec, c, b, a)

    raise ValueError(f"no Riccati angle system for case {cid}")


@dataclass
class RiccatiSolution:
    t: FieldGrid
    path_defect: float
    obstruction_max: float


_SUBSTEPS = 4


def _rhs(t, A, B, C):
    return A + t * (B + t * C)


def _step_cell(t, h, coef0, coef1, bound, interval, margin, loc):
    """Advance across one grid cell (four RK4 substeps, linear coefficient
    interpolation).  t may be a scalar cell state or a batch of states."""
    hs = h / _SUBSTEPS
    for m in range(_SUBSTEPS):
        f0 = m / _SUBSTEPS
        fm = (m + 0.5) / _SUBSTEPS
        f1 = (m + 1.0) / _SUBSTEPS
        c0 = [(1 - f0) * a + f0 * b for a, b in zip(coef0, coef1)]
        cm = [(1 - fm) * a + fm * b for a, b in zip(coef0, coef1)]
        c1 = [(1 - f1) * a + f1 * b for a, b in zip(coef0, coef1)]
        k1 = _rhs(t, *c0)
        k2 = _rhs(t + 0.5 * hs * k1, *cm)
        k3 = _rhs(t + 0.5 * hs * k2, *cm)
        k4 = _rhs(t + hs * k3, *c1)
        t = t + hs / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if np.any(~np.isfinite(t)) or np.any(np.abs(t) > bound):
            raise RiccatiBlowUpError(
                f"solution escaped |t| <= {bound:g} near {loc}", *loc)
        if interval is not None:
            lo, hi = interval
            if np.any(t <= lo + margin) or np.any(t >= hi - margin) \
                    or np.any(np.abs(t) < margin):
                raise RangeConstraintError(
                    f"solution left the admissible range {interval} \\ {{0}} near {loc}")
    return t


def _sweep(spec, w0u, w0v, w1u, w1v, w2u, w2v, t0, bound, interval, margin):
    """Row-then-column integration over the whole grid."""
    nu, nv = spec.shape
    t = np.empty((nu, nv))
    t[0, 0] = t0
    uax, vax = spec.u_axis(), spec.v_axis()
    # base row: along u at j = 0
    for i in range(nu - 1):
        t[i + 1, 0] = _step_cell(
            t[i, 0], spec.du,
            (w0u[i, 0], w1u[i, 0], w2u[i, 0]),
            (w0u[i + 1, 0], w1u[i + 1, 0], w2u[i + 1, 0]),
            bound, interval, margin, (uax[i], vax[0]))
    # all columns at once: along v
    for j in range(nv - 1):
        t[:, j + 1] = _step_cell(
            t[:, j], spec.dv,
            (w0v[:, j], w1v[:, j], w2v[:, j]),
            (w0v[:, j + 1], w1v[:, j + 1], w2v[:, j + 1]),
            bound, interval, margin, (None, vax[j]))
    return t


def solve_riccati(forms: RiccatiForms, t0: float, case: CaseSpec | None = None,
                  bound: float = 1e6, margin: float = 1e-9) -> RiccatiSolution:
    """Path-ordered solution of dt = w0 + t w1 + t^2 w2 from t(u0, v0) = t0.

    Integrates along the base row, then down every column; the defect is
    the max difference against the transposed (column-first) order.  For
    case NT the solution is constrained to (-1, 1) minus zero.  Riccati
    solutions can escape to infinity in finite time; crossing ``bound``
    raises :class:`RiccatiBlowUpError` with the grid location.
    """
    interval = (-1.0, 1.0) if (case is not None and case.case_id == "NT") else None
    if interval is not None and (abs(t0) >= 1 - margin or abs(t0) < margin):
        raise RangeConstraintError(f"initial value t0={t0} outside {interval} \\ {{0}}")
    spec = forms.spec
    w0, w1, w2 = forms.omega0, forms.omega1, forms.omega2
    t_rc = _sweep(spec, w0.cu, w0.cv, w1.cu, w1.cv, w2.cu, w2.cv,
                  t0, bound, interval, margin)
    # transposed order: v first, then u; realized by swapping axes/roles
    swapped = GridSpec(spec.v0, spec.u0, spec.dv, spec.du, spec.nv, spec.nu)
    t_cr = _sweep(swapped,
                  w0.cv.T, w0.cu.T, w1.cv.T, w1.cu.T, w2.cv.T, w2.cu.T,
                  t0, bound, interval, margin).T
    defect = float(np.max(np.abs(t_rc - t_cr)))
    return RiccatiSolution(FieldGrid(spec, t_rc), defect, forms.obstruction_max())


def obstruction_verdict(forms: RiccatiForms, tol: float | None = None):
    """('identically-zero' | 'nontrivial', max norms of the three 2-forms)."""
    if tol is None:
        tol = quadratic_tolerance(forms.spec, forms.omega_scale())
    norms = {
        "Omega0": forms.Omega0.max_abs(),
        "Omega1": forms.Omega1.max_abs(),
        "Omega2": forms.Omega2.max_abs(),
    }
    verdict = "identically-zero" if max(norms.values()) <= tol else "nontrivial"
    return verdict, norms


def riccati_residual(forms: RiccatiForms, t: FieldGrid):
    """Components of d t - (w0 + t w1 + t^2 w2) by finite differences."""
    spec = forms.spec
    tv = t.values
    ru = _diff_along(tv, spec.du, 0) - _rhs(tv, forms.omega0.cu, forms.omega1.cu, forms.omega2.cu)
    rv = _diff_along(tv, spec.dv, 1) - _rhs(tv, forms.omega0.cv, forms.omega1.cv, forms.omega2.cv)
    return FieldGrid(spec, ru), FieldGrid(spec, rv)
