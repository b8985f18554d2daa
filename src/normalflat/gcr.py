"""Scalar Gauss/Codazzi/Ricci residuals, curvature and normal-bundle
diagnostics, the linearly-dependent condition, and the parallel-normal
vector-field decision procedure.

All residuals are LHS - RHS of the active case's equation, evaluated
pointwise with the finite-difference calculus of :mod:`normalflat.grid`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .frames import CoefficientSet
from .grid import FieldGrid, _diff2_along, _diff_along, quadratic_tolerance, residual_tolerance
from .spaceform import CaseSpec, metric_conventions

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
    "default_tolerance",
    "second_form_pseudo_norm",
]


class NonIntegrableError(ValueError):
    """A candidate gradient field failed its curl test."""


default_tolerance = residual_tolerance  # public name of the residual pass level


def gauss_quadratic(coeffs: CoefficientSet, case: CaseSpec) -> np.ndarray:
    """Quadratic side of the active Gauss equation.

    Vanishing of this form is exactly K = L0 once the equation holds.
    """
    _, a1, a2, a3, b1, b2, b3, _, _ = coeffs.alravel()
    g1, g2, n1, n2 = metric_conventions(case).frame_signs
    s = -g1 * g2
    return s * n1 * (a1 * a3) + s * n2 * (b1 * b3) - s * n1 * a2**2 - s * n2 * b2**2


def gauss_lhs(lam: FieldGrid, case: CaseSpec) -> np.ndarray:
    """Conformal side of the Gauss equation, lambda_uu + g1 g2 lambda_vv + L0 e^{2 lambda}."""
    g1, g2 = metric_conventions(case).g_signs
    spec = lam.spec
    l_uu = _diff2_along(lam.values, spec.du, 0)
    l_vv = _diff2_along(lam.values, spec.dv, 1)
    return l_uu + g1 * g2 * l_vv + case.l0 * np.exp(2 * lam.values)


def gauss_residual(coeffs: CoefficientSet, case: CaseSpec) -> FieldGrid:
    return FieldGrid(coeffs.spec, gauss_lhs(coeffs.lam, case) - gauss_quadratic(coeffs, case))


def codazzi_residual(coeffs: CoefficientSet, case: CaseSpec) -> list[FieldGrid]:
    """The four Codazzi residuals of the active case."""
    lam, a1, a2, a3, b1, b2, b3, m1, m2 = coeffs.alravel()
    spec = coeffs.spec
    lu, lv = _diff_along(lam, spec.du, 0), _diff_along(lam, spec.dv, 1)
    g1, g2, n1, n2 = metric_conventions(case).frame_signs
    k, p = g1 * g2, n1 * n2
    rhs = [a2 * lu + k * a3 * lv - p * b2 * m1 + p * b1 * m2,
           -k * a1 * lu - a2 * lv - p * b3 * m1 + p * b2 * m2,
           b2 * lu + k * b3 * lv + a2 * m1 - a1 * m2,
           -k * b1 * lu - b2 * lv + a3 * m1 - a2 * m2]
    lhs = [_diff_along(x, spec.dv, 1) - _diff_along(y, spec.du, 0)
           for x, y in ((a1, a2), (a2, a3), (b1, b2), (b2, b3))]
    return [FieldGrid(spec, L - R) for L, R in zip(lhs, rhs)]


def ricci_quadratic(coeffs: CoefficientSet, case: CaseSpec) -> np.ndarray:
    _, a1, a2, a3, b1, b2, b3, _, _ = coeffs.alravel()
    m13 = a1 * b2 - a2 * b1
    m23 = a2 * b3 - a3 * b2
    g1, g2, n1, _ = metric_conventions(case).frame_signs
    return n1 * (m13 + g1 * g2 * m23)


def ricci_residual(coeffs: CoefficientSet, case: CaseSpec) -> FieldGrid:
    flat = normal_flatness_defect(coeffs).values
    return FieldGrid(coeffs.spec, flat - ricci_quadratic(coeffs, case))


@dataclass
class GcrResiduals:
    gauss: FieldGrid
    codazzi: list[FieldGrid]
    ricci: FieldGrid

    def max_abs(self) -> float:
        return max([self.gauss.max_abs(), self.ricci.max_abs()]
                   + [c.max_abs() for c in self.codazzi])

    def metrics(self) -> dict:
        named = {"gauss": self.gauss, "ricci": self.ricci}
        named.update({f"codazzi{i+1}": c for i, c in enumerate(self.codazzi)})
        return {
            name: {"max": float(np.max(np.abs(f.values))),
                   "mean": float(np.mean(np.abs(f.values)))}
            for name, f in named.items()
        }


def gcr_residuals(coeffs: CoefficientSet, case: CaseSpec) -> GcrResiduals:
    return GcrResiduals(gauss_residual(coeffs, case),
                        codazzi_residual(coeffs, case),
                        ricci_residual(coeffs, case))


def normal_flatness_defect(coeffs: CoefficientSet) -> FieldGrid:
    """(mu1)_v - (mu2)_u; zero exactly when the normal connection is flat."""
    spec = coeffs.spec
    m1v = _diff_along(coeffs.mu1.values, spec.dv, 1)
    m2u = _diff_along(coeffs.mu2.values, spec.du, 0)
    return FieldGrid(spec, m1v - m2u)


def curvature_minus_l0(coeffs: CoefficientSet, case: CaseSpec) -> FieldGrid:
    """Signed K - L0 field, read off the Gauss quadratic side.

    When the Gauss equation holds, K - L0 = -e^{-2 lambda} * quadratic.
    """
    q = gauss_quadratic(coeffs, case)
    return FieldGrid(coeffs.spec, -np.exp(-2 * coeffs.lam.values) * q)


def integrate_gradient(spec, gu: np.ndarray, gv: np.ndarray, base_value: float = 0.0) -> np.ndarray:
    """Trapezoidal path integral of a gradient: base row in u, then columns in v."""
    out = np.empty(spec.shape)
    out[0, 0] = base_value
    out[1:, 0] = base_value + np.cumsum(0.5 * spec.du * (gu[:-1, 0] + gu[1:, 0]))
    steps = 0.5 * spec.dv * (gv[:, :-1] + gv[:, 1:])
    out[:, 1:] = out[:, :1] + np.cumsum(steps, axis=1)
    return out


def gamma_potential(coeffs: CoefficientSet, tol: float | None = None) -> FieldGrid:
    """Potential gamma with gamma_u = mu1, gamma_v = mu2, gamma(u0, v0) = 0.

    Requires the flatness defect to sit below tol (default 10 h^2 scale).
    """
    spec = coeffs.spec
    defect = normal_flatness_defect(coeffs)
    if tol is None:
        tol = residual_tolerance(spec, coeffs.max_abs())
    if not (defect.max_abs() <= tol):
        raise NonIntegrableError(
            f"normal connection is not flat: defect {defect.max_abs():.3e} > tol {tol:.3e}")
    return FieldGrid(spec, integrate_gradient(spec, coeffs.mu1.values, coeffs.mu2.values))


# ---------------------------------------------------------------------------
# linearly dependent condition
# ---------------------------------------------------------------------------

VARIANTS = ("generic", "space", "time", "light")


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
    angle: FieldGrid | None = None      # theta or t_pm (unused for light)
    eps: int | None = None              # light variant only
    degenerate_fraction: float = 0.0    # fraction of points with alpha = beta = 0
    tol: float = 0.0

    @property
    def degenerate(self) -> bool:
        return self.degenerate_fraction >= 1.0


def _unwrap_angle_mod_pi(theta: np.ndarray) -> np.ndarray:
    """Make a mod-pi angle field continuous along the row/column sweep."""
    two = 2.0 * theta
    two[:, 0] = np.unwrap(two[:, 0])
    two = np.unwrap(two, axis=1)
    return 0.5 * two


def dependence_report(coeffs: CoefficientSet, case: CaseSpec, variant: str = "auto",
                      tol: float | None = None) -> DependenceReport:
    """Test the linearly dependent condition and recover the angle field.

    variant: "generic" (trig theta; cases R/NS/LT), "space"/"time"
    (hyperbolic t_pm; cases NT/LS), "light" (alpha + eps*beta = 0), or
    "auto" to classify from the data.
    """
    spec = coeffs.spec
    _, a1, a2, a3, b1, b2, b3, _, _ = coeffs.alravel()
    scale = max(coeffs.alpha1.max_abs(), coeffs.alpha2.max_abs(), coeffs.alpha3.max_abs(),
                coeffs.beta1.max_abs(), coeffs.beta2.max_abs(), coeffs.beta3.max_abs())
    if tol is None:
        tol = quadratic_tolerance(spec, scale)

    defect = dependence_minors(coeffs)
    anorm2 = a1 * a1 + a2 * a2 + a3 * a3
    bnorm2 = b1 * b1 + b2 * b2 + b3 * b3
    both_zero = (anorm2 + bnorm2) <= (tol * tol)
    degenerate_fraction = float(np.mean(both_zero))
    dependent = bool(np.max(defect.values) <= tol)

    # component pair with the largest magnitude carries the angle recovery
    comps_a = np.stack([a1, a2, a3], axis=-1)
    comps_b = np.stack([b1, b2, b3], axis=-1)
    weight = comps_a**2 + comps_b**2
    j = np.argmax(weight, axis=-1)
    aj = np.take_along_axis(comps_a, j[..., None], axis=-1)[..., 0]
    bj = np.take_along_axis(comps_b, j[..., None], axis=-1)[..., 0]

    n1, n2 = metric_conventions(case).n_signs
    # a definite normal bundle rotates by a trigonometric angle; a Lorentzian
    # one (NT, LS) is classified from the data
    req = "generic" if variant == "auto" and n1 == n2 else variant
    if req == "auto" and np.all(both_zero):
        req = "space"  # no ratio to classify; the report is degenerate anyway
    elif req == "auto":
        # NT / LS: classify by the proportionality ratio beta = c * alpha
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(np.abs(aj) > 0, bj / np.where(aj == 0, 1.0, aj), np.inf)
        med = np.nanmedian(np.abs(np.where(both_zero, np.nan, ratio)))
        if abs(med - 1.0) <= 0.05:
            req = "light"
        elif med > 1.0:
            req = "space"
        else:
            req = "time"

    angle = None
    eps = None
    satisfied = dependent and not bool(np.all(both_zero))
    if req == "generic":
        theta = np.arctan2(-aj, bj)
        theta = np.where(both_zero, 0.0, theta)
        angle = FieldGrid(spec, _unwrap_angle_mod_pi(np.mod(theta, np.pi)))
    elif req in ("space", "time"):
        # space: cosh(t+) alpha_j + sinh(t+) beta_j = 0  =>  tanh(t+) = -alpha_j/beta_j
        # time:  sinh(t-) alpha_j + cosh(t-) beta_j = 0  =>  tanh(t-) = -beta_j/alpha_j
        num, den = (aj, bj) if req == "space" else (bj, aj)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(np.abs(den) > 0, -num / np.where(den == 0, 1.0, den), 0.0)
        solvable = np.abs(r) < 1.0
        satisfied = satisfied and bool(np.all(solvable | both_zero))
        r = np.clip(r, -1 + 1e-15, 1 - 1e-15)
        angle = FieldGrid(spec, np.arctanh(np.where(both_zero, 0.0, r)))
    elif req == "light":
        best_eps, best = None, np.inf
        for cand in (1, -1):
            dev = max(np.max(np.abs(a1 + cand * b1)), np.max(np.abs(a2 + cand * b2)),
                      np.max(np.abs(a3 + cand * b3)))
            if dev < best:
                best, best_eps = dev, cand
        eps = best_eps
        satisfied = bool(satisfied and best <= tol)
    else:
        raise ValueError(f"unknown dependence variant {req!r}")

    return DependenceReport(req, defect, satisfied, angle, eps, degenerate_fraction, tol)


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
    n1, n2 = metric_conventions(case).n_signs
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


def detect_parallel_normal(coeffs: CoefficientSet, case: CaseSpec, variant: str = "auto",
                           tol: float | None = None) -> ParallelNormalReport:
    """Decide whether a parallel normal vector field exists.

    Decision procedure (flat normal connection assumed and checked):

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
    scale = coeffs.max_abs()
    if tol is None:
        tol = quadratic_tolerance(spec, scale)

    notes = []
    flat = normal_flatness_defect(coeffs)
    if not (flat.max_abs() <= tol):
        notes.append(f"normal connection not flat (defect {flat.max_abs():.3e})")

    ld = dependence_report(coeffs, case, variant, tol)
    gamma = FieldGrid(spec, integrate_gradient(spec, coeffs.mu1.values, coeffs.mu2.values))

    kml = curvature_minus_l0(coeffs, case).values
    k_defect = float(np.max(np.abs(kml)))
    if k_defect <= tol:
        regime = "equal"
    elif np.all(kml > tol) or np.all(kml < -tol):
        regime = "nowhere-equal"
    else:
        regime = "mixed"

    if ld.degenerate:
        return ParallelNormalReport("degenerate", ld, gamma, 0.0, k_defect, regime,
                                    notes=notes + ["second form vanishes identically"])

    combo_defect = 0.0
    if ld.satisfied and ld.variant != "light" and ld.angle is not None:
        combo = gamma.values + ld.angle.values if ld.variant == "generic" \
            else gamma.values - ld.angle.values
        combo_defect = float(np.max(combo) - np.min(combo))

    if regime == "mixed":
        return ParallelNormalReport("indeterminate", ld, gamma, combo_defect, k_defect, regime,
                                    notes=notes + ["K - L0 changes sign on the grid"])

    if ld.variant == "light":
        if ld.satisfied and regime == "equal":
            return ParallelNormalReport("parallel-exists", ld, gamma, combo_defect, k_defect,
                                        regime, field_kind="light", notes=notes)
        return ParallelNormalReport("none", ld, gamma, combo_defect, k_defect, regime,
                                    notes=notes)

    if regime == "nowhere-equal":
        verdict = "parallel-exists" if ld.satisfied else "none"
    else:  # K = L0 identically
        verdict = "parallel-exists" if (ld.satisfied and combo_defect <= tol) else "none"
    return ParallelNormalReport(verdict, ld, gamma, combo_defect, k_defect, regime,
                                field_kind=ld.variant if verdict == "parallel-exists" else "",
                                notes=notes)
