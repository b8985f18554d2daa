"""Over-determined quadratic Pfaffian system dt = w0 + t*w1 + t^2*w2.

The angle variable of the not-linearly-dependent construction satisfies a
single scalar equation of this shape, with 1-form coefficients built from
one input potential and a one-variable function.  With t = p/q it is the
linear connection d[p q] = [p q] A^T, A = [[w1/2, w0], [-w2, -w1/2]], so
the solver is the frame's 4th-order kernel (:mod:`normalflat.frames`):
base row first, then every column, from [t0 1], fed one window of A^T
at a time (``_block``).  t escapes to infinity where q changes sign,
which is located to the cell.  Solvability of the
two-dimensional system is governed by the obstruction 2-forms

    O0 = d w0 + w0 ^ w1,   O1 = d w1 + 2 w0 ^ w2,   O2 = d w2 + w1 ^ w2,

through O0 + t O1 + t^2 O2 = 0, the t-expansion of d(dt) = 0.  They are
computed as written; the connection's curvature [[-O1/2, O2], [-O0, O1/2]]
agrees to a few ulps.  The path-order swap defect is the solver's diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import fill, sweep
from .grid import (EXCLUSION_MARGIN, FORMS_FLOOR, FieldGrid, GridSpec, curl, grad, hessian,
                   quadratic_tolerance, require_nonzero, wedge)
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

    def wedge(self, other: "OneForm") -> np.ndarray:
        """du^dv coefficient of the wedge product."""
        return wedge((self.cu, self.cv), (other.cu, other.cv))

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

    def obstruction_tolerance(self) -> float:
        """The level :func:`obstruction_verdict` judges the 2-forms at: the
        quadratic level of the omega scale."""
        return quadratic_tolerance(self.spec, self.omega_scale())


def _block(w0: OneForm, w1: OneForm, w2: OneForm):
    """The block function of S, T in d[p q] = [p q] (S du + T dv): A^T along du, dv."""
    def block(k, view):
        c0, c1, c2 = (view(w.cv if k else w.cu) for w in (w0, w1, w2))
        M = np.empty((*c0.shape, 2, 2))
        M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1] = 0.5 * c1, -c2, c0, -0.5 * c1
        return M
    return block


def forms_from_vectors(spec: GridSpec, vec0, vec1, vec2) -> RiccatiForms:
    """Assemble RiccatiForms from three (coeff_u, coeff_v) pairs; the 2-forms
    are their equations, d w = -curl(w.cu, w.cv) taken first (a lower peak)."""
    w0 = OneForm(spec, *vec0)
    w1 = OneForm(spec, *vec1)
    w2 = OneForm(spec, *vec2)
    return RiccatiForms(w0, w1, w2, FieldGrid(spec, -curl(w0.cu, w0.cv, spec) + w0.wedge(w1)),
                        FieldGrid(spec, -curl(w1.cu, w1.cv, spec) + 2 * w0.wedge(w2)),
                        FieldGrid(spec, -curl(w2.cu, w2.cv, spec) + w1.wedge(w2)))


def build_forms(f_minus: FieldGrid, xi_tilde, case: CaseSpec) -> RiccatiForms:
    """Coefficient 1-forms of the angle equation from the input potential.

    kappa = g1 g2 = +1 (cases R and NS): t = tan(psi), requires
    grad(f)^2 = fu^2 + fv^2 nonzero.  kappa = -1 (case NT): t = tanh(rho),
    requires fu^2 - fv^2 nonzero; the eps = -1 branch swaps the roles of
    the cos^2/sin^2 coefficient vectors, and delta enters the rotation.
    The Lorentzian-ambient cases (LS, LT) have no real angle system.
    """
    if case.parity < 0:
        raise ValueError(f"no Riccati angle system for case {case.case_id}")
    spec = f_minus.spec
    f = f_minus.values
    fu, fv = grad(f, spec)
    fuu, fuv, fvv = hessian(f, spec, fu)
    xi = xi_tilde(f) if callable(xi_tilde) else float(xi_tilde) * np.ones(spec.shape)

    if case.kappa > 0:
        B = fu * fu + fv * fv
        require_nonzero(DegenerateFormsError, "grad(f)^2 vanishes somewhere (case R/NS)", B,
                        floor=FORMS_FLOOR)
        p1 = xi * (fu * fu - fv * fv)
        p2 = -fuu + fvv
        q1 = xi * fu * fv
        q2 = -fuv
        a = ((fu * p1 + fv * p2) / B, (-fv * p1 + fu * p2) / B)
        b = ((2 * (fu * q1 + fv * q2) + fv * p1 - fu * p2) / B,
             (2 * (-fv * q1 + fu * q2) + fu * p1 + fv * p2) / B)
        c = (2 * (fv * q1 - fu * q2) / B, 2 * (fu * q1 + fv * q2) / B)
        return forms_from_vectors(spec, a, b, c)

    delta = case.delta
    B = case.eps * (fu * fu - fv * fv)
    require_nonzero(DegenerateFormsError, "fu^2 - fv^2 vanishes somewhere (case NT)", B,
                    floor=FORMS_FLOOR)
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


@dataclass
class RiccatiSolution:
    t: FieldGrid
    path_defect: float


def _first_cell(bad: np.ndarray, spec: GridSpec, transposed: bool):
    """(u, v) of the first cell, in sweep order, whose end node is flagged:
    (u_i, v0) for cell i of the base row, (None, v_j) for step j of the
    columns; a transposed sweep reports in the original (u, v)."""
    row, col = np.flatnonzero(bad[1:, 0]), np.flatnonzero(np.any(bad[:, 1:], axis=0))
    if not (row.size or col.size):
        return None
    loc = (float(spec.u_axis()[row[0]]), float(spec.v0)) if row.size \
        else (None, float(spec.v_axis()[col[0]]))
    return loc[::-1] if transposed else loc


def _solve_one_order(block, spec, t0, bound, interval, transposed):
    """t = p/q from one sweep of [p q] = [t0 1], checked once it is done."""
    Y = np.empty((*spec.shape, 1, 2))
    sweep(block, np.array([[t0, 1.0]]), spec, fill(Y))
    p, q = Y[..., 0, 0], Y[..., 0, 1]
    if interval is not None:
        lo, hi = interval
        margin = EXCLUSION_MARGIN
        # lo + margin < p/q < hi - margin and |p/q| >= margin; all fail unless q > 0
        left = ~((lo + margin) * q < p) | ~(p < (hi - margin) * q) | ~(np.abs(p) >= margin * q)
        loc = _first_cell(left, spec, transposed)
        if loc is not None:
            raise RangeConstraintError(f"solution left the admissible range {interval} "
                                       f"\\ {{0}} in the cell at (u, v) = {loc}")
    # q changes sign where t passes through infinity
    escaped = ~(q > 0) | ~(np.abs(p) <= bound * q)
    loc = _first_cell(escaped, spec, transposed)
    if loc is not None:
        raise RiccatiBlowUpError(
            f"solution escaped |t| <= {bound:g} in the cell at (u, v) = {loc}", *loc)
    return p / q


def solve_riccati(forms: RiccatiForms, t0: float, case: CaseSpec | None = None,
                  bound: float = 1e6) -> RiccatiSolution:
    """Path-ordered solution of dt = w0 + t w1 + t^2 w2 from t(u0, v0) = t0.

    Integrates along the base row, then down every column; the defect is
    the max difference against the transposed (column-first) order.  For
    case NT the solution is constrained to (-1, 1) minus zero, with margin
    ``EXCLUSION_MARGIN``.  Riccati solutions can escape to infinity in
    finite time; a sign change of q or |t| > ``bound`` raises
    :class:`RiccatiBlowUpError` with the first such cell in sweep order
    (``location``, None standing for a whole line swept at once).
    """
    interval = (-1.0, 1.0) if (case is not None and case.case_id == "NT") else None
    if interval is not None and (abs(t0) >= 1 - EXCLUSION_MARGIN
                                 or abs(t0) < EXCLUSION_MARGIN):
        raise RangeConstraintError(f"initial value t0={t0} outside {interval} \\ {{0}}")
    spec = forms.spec
    block = _block(forms.omega0, forms.omega1, forms.omega2)
    t_rc = _solve_one_order(block, spec, t0, bound, interval, False)
    # transposed order: v first, then u; the swapped grid's u-matrices are T
    swapped = GridSpec(spec.v0, spec.u0, spec.dv, spec.du, spec.nv, spec.nu)
    t_cr = _solve_one_order(lambda k, view: block(1 - k, lambda x: view(x.T)), swapped,
                            t0, bound, interval, True).T
    defect = float(np.max(np.abs(t_rc - t_cr)))
    return RiccatiSolution(FieldGrid(spec, t_rc), defect)


def obstruction_verdict(forms: RiccatiForms):
    """('identically-zero' | 'nontrivial', max norms of the three 2-forms),
    judged at the quadratic level of the omega scale."""
    tol = forms.obstruction_tolerance()
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
    w0, w1, w2 = forms.omega0, forms.omega1, forms.omega2
    t_u, t_v = grad(tv, spec)
    ru = t_u - (w0.cu + tv * (w1.cu + tv * w2.cu))
    rv = t_v - (w0.cv + tv * (w1.cv + tv * w2.cv))
    return FieldGrid(spec, ru), FieldGrid(spec, rv)
