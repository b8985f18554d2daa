"""Scalar Gauss/Codazzi/Ricci residuals, curvature and normal-bundle
diagnostics, the linearly-dependent condition, and the parallel-normal
vector-field decision procedure.

All residuals are LHS - RHS of the active case's equation, evaluated
pointwise with the finite-difference calculus of :mod:`normalflat.grid`.
The equations are ``frames.gcr_equations`` (the Gauss line alone:
``frames.gauss_equation``) fed the grid's second-order lambda derivatives;
fed the frame connection's, they are the defect's six middle terms.
The dependence condition and its angle are read off |alpha|^2, |beta|^2
and alpha.beta, never off a chosen component.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .frames import CoefficientSet, gauss_equation, gauss_quadratic, gcr_equations
from .grid import (FieldGrid, curl, grad, max_mean, quadratic_tolerance, residual_tolerance,
                   second_derivatives)
from .spaceform import CaseSpec

__all__ = [
    "GcrResiduals",
    "DependenceReport",
    "ParallelNormalReport",
    "gauss_residual",
    "codazzi_residual",
    "ricci_residual",
    "gcr_residuals",
    "normal_flatness_defect",
    "curvature_minus_l0",
    "gamma_potential",
    "integrate_gradient",
    "dependence_report",
    "detect_parallel_normal",
    "second_form_pseudo_norm",
]


class NonIntegrableError(ValueError):
    """A candidate gradient field failed its curl test."""


def lambda_lap(lam: np.ndarray, spec, case: CaseSpec) -> np.ndarray:
    """The Gauss equation's lap, lambda_uu + k lambda_vv, with the grid's stencils."""
    l_uu, l_vv = second_derivatives(lam, spec)
    return l_uu + case.kappa * l_vv


def gauss_residual(coeffs: CoefficientSet, case: CaseSpec) -> FieldGrid:
    return gcr_residuals(coeffs, case).gauss


def codazzi_residual(coeffs: CoefficientSet, case: CaseSpec) -> list[FieldGrid]:
    """The four Codazzi residuals of the active case."""
    return gcr_residuals(coeffs, case).codazzi


def ricci_residual(coeffs: CoefficientSet, case: CaseSpec) -> FieldGrid:
    return gcr_residuals(coeffs, case).ricci


@dataclass
class GcrResiduals:
    gauss: FieldGrid
    codazzi: list[FieldGrid]
    ricci: FieldGrid
    flatness: FieldGrid  # the Ricci left side; not a residual, so not in max_abs

    def max_abs(self) -> float:
        return max([self.gauss.max_abs(), self.ricci.max_abs()]
                   + [c.max_abs() for c in self.codazzi])

    def passed(self, tol: float) -> bool:
        """Residuals and flatness defect at or under tol; a NaN fails."""
        return bool(self.max_abs() <= tol and self.flatness.max_abs() <= tol)

    def metrics(self) -> dict:
        named = {"gauss": self.gauss, "ricci": self.ricci,
                 **{f"codazzi{i+1}": c for i, c in enumerate(self.codazzi)}}
        return {name: max_mean(f.values) for name, f in named.items()}


def gcr_residuals(coeffs: CoefficientSet, case: CaseSpec) -> GcrResiduals:
    """``frames.gcr_equations`` fed the grid's second-order lambda derivatives."""
    fields, spec = coeffs.alravel(), coeffs.spec
    lu, lv = grad(fields[0], spec)
    gauss, *codazzi, ricci, flat = (FieldGrid(spec, x) for x in gcr_equations(
        fields, lu, lv, lambda_lap(fields[0], spec, case), case, spec))
    return GcrResiduals(gauss, codazzi, ricci, flat)


def normal_flatness_defect(coeffs: CoefficientSet) -> FieldGrid:
    """(mu1)_v - (mu2)_u; zero exactly when the normal connection is flat."""
    spec = coeffs.spec
    return FieldGrid(spec, curl(coeffs.mu1.values, coeffs.mu2.values, spec))


def curvature_minus_l0(coeffs: CoefficientSet, case: CaseSpec) -> FieldGrid:
    """Signed K - L0 field, read off the Gauss quadratic side.

    When the Gauss equation holds, K - L0 = -e^{-2 lambda} * quadratic.
    """
    return _curvature_minus_l0(coeffs, gauss_quadratic(coeffs.alravel(), case))


def _curvature_minus_l0(coeffs: CoefficientSet, q: np.ndarray) -> FieldGrid:
    return FieldGrid(coeffs.spec, -np.exp(-2 * coeffs.lam.values) * q)


def integrate_gradient(spec, gu: np.ndarray, gv: np.ndarray) -> np.ndarray:
    """Trapezoidal path integral of a gradient from 0: base row, then columns."""
    out = np.zeros(spec.shape)
    out[1:, 0] += np.cumsum(0.5 * spec.du * (gu[:-1, 0] + gu[1:, 0]))  # 0.0 + -0.0 is +0.0
    steps = 0.5 * spec.dv * (gv[:, :-1] + gv[:, 1:])
    out[:, 1:] = out[:, :1] + np.cumsum(steps, axis=1)
    return out


def closed_potential(spec, gu: np.ndarray, gv: np.ndarray, tol: float,
                     what: str) -> tuple[np.ndarray, float]:
    """(Path integral, max |curl|) of gu du + gv dv; a curl above tol, or a
    NaN, raises :class:`NonIntegrableError` naming ``what``."""
    defect = float(np.max(np.abs(curl(gu, gv, spec))))
    if not (defect <= tol):
        raise NonIntegrableError(f"{what} is not closed (curl {defect:.3e} > {tol:.3e})")
    return integrate_gradient(spec, gu, gv), defect


def gamma_potential(coeffs: CoefficientSet) -> FieldGrid:
    """Potential gamma with gamma_u = mu1, gamma_v = mu2, gamma(u0, v0) = 0.

    Requires the flatness defect to sit at the residual level 10 h^2 (1 + s).
    """
    spec = coeffs.spec
    tol = residual_tolerance(spec, coeffs.max_abs())
    gamma, _ = closed_potential(spec, coeffs.mu1.values, coeffs.mu2.values, tol,
                                "normal connection form mu1 du + mu2 dv")
    return FieldGrid(spec, gamma)


# ---------------------------------------------------------------------------
# linearly dependent condition
# ---------------------------------------------------------------------------

def dependence_minors(coeffs: CoefficientSet) -> FieldGrid:
    """Pointwise norm of the three 2x2 minors of the (alpha, beta) rows.

    Gauge-invariant: zero exactly where the two rows are linearly dependent.
    """
    _, a1, a2, a3, b1, b2, b3, _, _ = coeffs.alravel()
    m1 = a1 * b2 - a2 * b1
    m2 = a1 * b3 - a3 * b1
    m3 = a2 * b3 - a3 * b2
    return FieldGrid(coeffs.spec, np.sqrt(m1 * m1 + m2 * m2 + m3 * m3))


@dataclass
class DependenceReport:
    variant: str
    defect: FieldGrid
    satisfied: bool
    angle: FieldGrid | None = None      # theta or t_pm; None unless satisfied, and for light
    eps: int | None = None              # light variant only
    degenerate_fraction: float = 0.0    # fraction of points with alpha = beta = 0
    tol: float = 0.0

    @property
    def degenerate(self) -> bool:
        return self.degenerate_fraction >= 1.0


def dependence_report(coeffs: CoefficientSet, case: CaseSpec, *,
                      tol: float | None = None) -> DependenceReport:
    """Test the linearly dependent condition; where it holds, recover the angle.

    The variant is a fact of the case and the data, not a choice:
    "generic" (trig theta) on a definite normal bundle (R, NS, LT); on a
    Lorentzian one (NT, LS) "light" when the rows are dependent and
    alpha + eps beta = 0 holds at tol for eps = 1 or -1, else "space" or
    "time" (hyperbolic t_pm) as the median |beta| / |alpha| is above 1 or
    not.  The angle is read off |alpha|^2, |beta|^2 and alpha.beta.  tol
    defaults to the quadratic level 10 h^2 (1 + s)^2, s the largest
    coefficient magnitude.
    """
    spec = coeffs.spec
    _, a1, a2, a3, b1, b2, b3, _, _ = coeffs.alravel()
    if tol is None:
        tol = quadratic_tolerance(spec, coeffs.max_abs())

    defect = dependence_minors(coeffs)
    anorm2 = a1 * a1 + a2 * a2 + a3 * a3
    bnorm2 = b1 * b1 + b2 * b2 + b3 * b3
    both_zero = (anorm2 + bnorm2) <= (tol * tol)
    degenerate_fraction = float(np.mean(both_zero))
    satisfied = bool(np.max(defect.values) <= tol) and not bool(np.all(both_zero))

    n1, n2 = case.n_signs
    eps = None
    if n1 != n2 and satisfied:  # the sign whose alpha + eps beta is nearest 0, if it holds
        dev = {e: max(np.max(np.abs(a + e * b)) for a, b in ((a1, b1), (a2, b2), (a3, b3)))
               for e in (1, -1)}
        best = min(dev, key=dev.get)
        eps = best if dev[best] <= tol else None
    if n1 == n2:  # a definite normal bundle rotates by a trigonometric angle
        variant = "generic"
    elif eps is not None:
        variant = "light"
    elif np.all(both_zero):
        variant = "space"  # no ratio to classify; the report is degenerate anyway
    else:  # beta = c alpha has the ratio |c|
        with np.errstate(divide="ignore", invalid="ignore"):
            med = np.median(np.sqrt(bnorm2 / anorm2)[~both_zero])
        variant = "space" if med > 1.0 else "time"

    angle = None
    if satisfied and variant != "light":  # the angle is read only where the condition holds
        dot = a1 * b1 + a2 * b2 + a3 * b3
        if variant == "generic":
            # cos(theta) alpha + sin(theta) beta = 0  =>  2 theta is the direction
            # (|beta|^2 - |alpha|^2, -2 alpha.beta), taken mod 2 pi and unwrapped
            two = np.mod(np.arctan2(-2.0 * dot, bnorm2 - anorm2), 2.0 * np.pi)
            two = np.where(both_zero, 0.0, two)
            two[:, 0] = np.unwrap(two[:, 0])
            angle = FieldGrid(spec, 0.5 * np.unwrap(two, axis=1))
        else:
            # space: cosh(t+) alpha + sinh(t+) beta = 0  =>  tanh(t+) = -alpha.beta / |beta|^2
            # time:  sinh(t-) alpha + cosh(t-) beta = 0  =>  tanh(t-) = -alpha.beta / |alpha|^2
            # a 0/0 is NaN and fails: no t solves the equation there
            with np.errstate(divide="ignore", invalid="ignore"):
                r = np.where(both_zero, 0.0, -dot / (bnorm2 if variant == "space" else anorm2))
            satisfied = bool(np.all(np.abs(r) < 1.0))
            if satisfied:
                angle = FieldGrid(spec, np.arctanh(r))

    return DependenceReport(variant, defect, satisfied, angle, eps, degenerate_fraction, tol)


# ---------------------------------------------------------------------------
# parallel normal vector fields
# ---------------------------------------------------------------------------

@dataclass
class ParallelNormalReport:
    verdict: str                 # parallel-exists | none | degenerate | indeterminate
    ld: DependenceReport
    gamma: FieldGrid | None
    gamma_angle_defect: float    # spread (max - min) of gamma + theta, resp. gamma - t_pm
    k_equals_l0_defect: float    # max |K - L0| over the grid
    curvature_regime: str        # equal | nowhere-equal | mixed
    field_kind: str = ""         # space | time | light | generic ('' when none)
    notes: list = field(default_factory=list)

    def verdict_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "variant": self.ld.variant,
            "dependence_satisfied": self.ld.satisfied,
            "dependence_defect_max": float(np.max(self.ld.defect.values)),
            "gamma_angle_defect": self.gamma_angle_defect,
            "k_equals_l0_defect": self.k_equals_l0_defect,
            "curvature_regime": self.curvature_regime,
            "field_kind": self.field_kind,
            "notes": self.notes,
        }


def second_form_pseudo_norm(coeffs: CoefficientSet, case: CaseSpec) -> FieldGrid:
    """Gauge-invariant n-sign weighted square norm of the second form."""
    _, a1, a2, a3, b1, b2, b3, _, _ = coeffs.alravel()
    n1, n2 = case.n_signs
    return FieldGrid(coeffs.spec,
                     n1 * (a1 * a1 + a2 * a2 + a3 * a3) + n2 * (b1 * b1 + b2 * b2 + b3 * b3))


def parallel_field_coefficients(report: "ParallelNormalReport",
                                coeffs: CoefficientSet) -> tuple[FieldGrid, FieldGrid]:
    """(c1, c2) with the detected parallel field xi = c1 N1 + c2 N2.

    Generic variant: e^{-lambda} (cos theta, sin theta); space-likely:
    e^{-lambda} (cosh t+, -sinh t+); time-likely: e^{-lambda}
    (sinh t-, -cosh t-); light-likely: e^{-lambda + eps gamma} (1, -eps).
    """
    if report.verdict != "parallel-exists":
        raise ValueError(f"no parallel field detected (verdict {report.verdict})")
    spec = coeffs.spec
    el = np.exp(-coeffs.lam.values)
    kind = report.field_kind
    if kind == "light":
        amp = el * np.exp(report.ld.eps * report.gamma.values)
        return FieldGrid(spec, amp), FieldGrid(spec, -report.ld.eps * amp)
    ang = report.ld.angle.values
    if kind == "generic":
        return FieldGrid(spec, el * np.cos(ang)), FieldGrid(spec, el * np.sin(ang))
    if kind == "space":
        return FieldGrid(spec, el * np.cosh(ang)), FieldGrid(spec, -el * np.sinh(ang))
    return FieldGrid(spec, el * np.sinh(ang)), FieldGrid(spec, -el * np.cosh(ang))


def detect_parallel_normal(coeffs: CoefficientSet, case: CaseSpec, *,
                           tol: float | None = None) -> ParallelNormalReport:
    """Decide whether a parallel normal vector field exists.

    "Parallel" means a normal field xi with nabla-perp xi = 0 and A_xi = 0,
    so constant in the ambient space; for L0 = 0 the surface then lies in
    a hyperplane.  With a flat normal bundle every normal vector extends to
    a nabla-perp-parallel field, so the weaker reading would make the
    question empty.  The dependence variant is ``dependence_report``'s,
    read off the case and the data.

    Decision procedure (a non-flat normal connection or a failed Gauss equation is noted):

    * K nowhere equal to L0: a parallel field exists iff the dependence
      condition holds; the matching angle combination is then constant.
    * K identically L0: a parallel field exists iff the dependence
      condition holds AND gamma + theta (generic), gamma - t_pm
      (hyperbolic variants) is constant at tolerance.
    * light variant (Lorentzian normal bundle): dependence alpha + eps
      beta = 0 with K = L0 gives the light-like field e^{-lambda + eps
      gamma} (N1 - eps N2).
    * mixed-sign K - L0 over the grid: outside the decision
      procedure's hypotheses; reported as indeterminate, not guessed.
    """
    spec = coeffs.spec
    ld = dependence_report(coeffs, case, tol=tol)

    notes = []
    flat = normal_flatness_defect(coeffs)
    if not (flat.max_abs() <= ld.tol):
        notes.append(f"normal connection not flat (defect {flat.max_abs():.3e})")
    gamma = FieldGrid(spec, integrate_gradient(spec, coeffs.mu1.values, coeffs.mu2.values))

    lam = coeffs.lam.values
    q = gauss_quadratic(coeffs.alravel(), case)
    gauss = float(np.max(np.abs(gauss_equation(lam, lambda_lap(lam, spec, case), q, case))))
    if not (gauss <= ld.tol):
        notes.append(f"Gauss equation fails at L0 = {case.l0:g} (residual {gauss:.3e})")
    kml = _curvature_minus_l0(coeffs, q).values
    k_defect = float(np.max(np.abs(kml)))
    if k_defect <= ld.tol:
        regime = "equal"
    elif np.all(kml > ld.tol) or np.all(kml < -ld.tol):
        regime = "nowhere-equal"
    else:
        regime = "mixed"

    combo_defect = 0.0
    if ld.satisfied and ld.variant != "light":
        combo = gamma.values + ld.angle.values if ld.variant == "generic" \
            else gamma.values - ld.angle.values
        combo_defect = float(np.max(combo) - np.min(combo))

    if ld.degenerate:
        verdict = "degenerate"
        notes.append("second form vanishes identically")
    elif regime == "mixed":
        verdict = "indeterminate"
        notes.append("K - L0 changes sign on the grid")
    elif regime == "nowhere-equal":  # the light field needs K = L0
        verdict = "parallel-exists" if ld.satisfied and ld.variant != "light" else "none"
    else:  # K = L0 identically
        verdict = "parallel-exists" if ld.satisfied and (
            ld.variant == "light" or combo_defect <= ld.tol) else "none"
    return ParallelNormalReport(verdict, ld, gamma, combo_defect, k_defect, regime,
                                field_kind=ld.variant if verdict == "parallel-exists" else "",
                                notes=notes)
