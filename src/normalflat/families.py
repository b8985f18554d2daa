"""Constructors for coefficient sets with flat normal connection.

Three families are produced, each with a numerical self-certificate
(residual maxima, curvature and flatness defects, dependence witnesses,
and the algebraic identities the derivation promises):

* the product of two equal circles in flat 4-space (the standing oracle),
* the angle-potential family: second form proportional to
  (phi_u^2, phi_u phi_v, phi_v^2), linearly dependent rows, curvature
  equal to the ambient one, with or without a parallel normal field
  depending on the chosen one-variable reparametrization xi,
* the not-linearly-dependent pipelines driven by one potential and a
  rotation angle.  The parity g1 g2 n1 n2 picks the pipeline: -1
  (Lorentzian ambient space, LS/LT) takes a complex potential with k on a
  gauge circle, +1 one real pipeline for R, NS and NT.  In each, kappa =
  g1 g2 signs the differences of its cases.  In the real one it picks the
  trigonometric (+1: R/NS) or hyperbolic (-1: NT) rotation of grad f_-
  into grad f_+ and gives B = f+_u^2 + kappa f+_v^2, C = f+_u f-_u -
  kappa f+_v f-_v, k+ = (C k- - kappa A)/(A k- + C) on the branch
  (A k- + C) B < 0, s+- = sqrt|k+-^2 + kappa|, beta1 = (k+ y+ - k- y-)/2,
  alpha3 = kappa (k- x- - k+ x+)/2 and the gamma gradient -kappa grad a +
  kappa d J grad f_- - (lambda terms), d = delta on NT and 1 on R/NS.

Certification is deliberate: the assembly involves dozens of signed
terms, so every constructor re-checks its output against the scalar
equations instead of trusting the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .frames import CoefficientSet, gauss_equation
from .gcr import (
    NonIntegrableError,
    closed_potential,
    curvature_minus_l0,
    dependence_minors,
    gcr_residuals,
    lambda_lap,
)
from .grid import (DEGENERACY_FLOOR, EXCLUSION_MARGIN, ROUND_OFF_TOL, FieldGrid, GridSpec,
                   angle_link_tolerance, family_tolerance, grad, hessian, require_nonzero,
                   residual_tolerance, wedge)
from .spaceform import CaseSpec

__all__ = [
    "PhiFamilyInput",
    "NotldPotentials",
    "FamilyResult",
    "build_product_family",
    "build_phi_family",
    "build_nt_light_family",
    "build_notld_family",
    "angle_link",
    "rotation_angle",
]


class FamilyInputError(ValueError):
    """Inputs violate a nondegeneracy or admissibility requirement."""


@dataclass
class FamilyResult:
    coeffs: CoefficientSet
    certificate: dict
    extras: dict = field(default_factory=dict)


def certify(coeffs: CoefficientSet, case: CaseSpec, identities: dict | None = None,
            witness: float | None = None) -> dict:
    """Numerical certificate for a constructed coefficient set."""
    tol = residual_tolerance(coeffs.spec, coeffs.max_abs())
    res = gcr_residuals(coeffs, case)
    kml = float(np.max(np.abs(curvature_minus_l0(coeffs, case).values)))
    minors = dependence_minors(coeffs)
    cert = {
        "tol": tol,
        "residuals": res.metrics(),
        "residual_max": res.max_abs(),
        "flatness_defect": res.flatness.max_abs(),
        "k_minus_l0_defect": kml,
        "dependence_minors_max": float(np.max(minors.values)),
        "dependence_minors_min": float(np.min(minors.values)),
        "passed": res.passed(tol),
    }
    if identities:
        cert["identities"] = {k: float(v) for k, v in identities.items()}
        # algebraic identities are machine-exact on closed-form inputs but
        # inherit the h^2 floor when gradients come from finite differences
        gate = max(ROUND_OFF_TOL, tol)
        cert["passed"] = cert["passed"] and all(v <= gate for v in identities.values())
    if witness is not None:
        cert["nondependence_witness_min"] = float(witness)
    return cert


# ---------------------------------------------------------------------------
# product of two plane circles
# ---------------------------------------------------------------------------

def build_product_family(radius1: float, radius2: float, case: CaseSpec,
                         spec: GridSpec) -> FamilyResult:
    """Coefficients of the product of two circles of equal radius in E^4.

    The standard parametrization r(cos u, sin u, cos v, sin v) is
    isothermal only for equal radii; unequal radii are rejected.  The
    output has k_pm identically zero (beta1, beta2, alpha2, alpha3 all
    vanish), flat normal connection and K = 0.
    """
    if case.case_id != "R" or case.l0 != 0:
        raise FamilyInputError("product family lives in flat Riemannian 4-space (case R, L0=0)")
    if radius1 <= 0 or radius2 <= 0:
        raise FamilyInputError("radii must be positive")
    if radius1 != radius2:
        raise FamilyInputError(
            "unequal radii: (u, v) would not be isothermal without reparametrization")
    lam = float(np.log(radius1))
    coeffs = CoefficientSet.from_arrays(spec, lam=lam, alpha1=-1.0, beta3=-1.0)
    cert = certify(coeffs, case)
    cert["k_pm_identically_zero"] = True
    return FamilyResult(coeffs, cert, {"radius": radius1})


# ---------------------------------------------------------------------------
# linearly dependent family from an angle potential
# ---------------------------------------------------------------------------

@dataclass
class PhiFamilyInput:
    lam: FieldGrid
    phi: FieldGrid
    theta: FieldGrid
    xi: object = None  # one-variable callable, or None for xi = 0


def phi_equation_residual(phi: FieldGrid, lam: FieldGrid) -> FieldGrid:
    """Residual of the compatibility equation the potential must satisfy:

        phi_v^2 phi_uu - 2 phi_u phi_v phi_uv + phi_u^2 phi_vv
        + (phi_u^2 + phi_v^2)(phi_u lam_u + phi_v lam_v) = 0.
    """
    spec = phi.spec
    pu, pv = grad(phi.values, spec)
    puu, puv, pvv = hessian(phi.values, spec, pu)
    lu, lv = grad(lam.values, spec)
    res = pv * pv * puu - 2 * pu * pv * puv + pu * pu * pvv \
        + (pu * pu + pv * pv) * (pu * lu + pv * lv)
    return FieldGrid(spec, res)


def build_phi_family(inp: PhiFamilyInput, case: CaseSpec) -> FamilyResult:
    """Linearly dependent coefficient set with K = L0 from a potential phi.

    alpha = (sin theta / |grad phi|) (phi_u^2, phi_u phi_v, phi_v^2),
    beta = -(cos theta / sin theta) alpha, gamma = -theta + xi(phi),
    mu = grad gamma.  Requires sin theta cos theta != 0 everywhere, a
    conformal factor solving its flat-curvature equation, and phi solving
    its compatibility equation.  Whether a parallel normal field exists
    is controlled by xi: gamma + theta = xi(phi) is constant exactly when
    xi o phi is.
    """
    n1, n2 = case.n_signs
    if n1 != n2:  # theta is a trigonometric angle: definite normal bundle only
        raise FamilyInputError("phi family implemented for cases R, NS, LT")
    if case.delta != 1:  # the set is the same for either sign
        raise FamilyInputError(f"family 'phi' reads no delta: it must be 1, got {case.delta}")
    spec = inp.phi.spec
    theta = inp.theta.values
    st, ct = np.sin(theta), np.cos(theta)
    require_nonzero(FamilyInputError, "sin(theta) cos(theta) must be bounded away from zero",
                    st * ct, floor=EXCLUSION_MARGIN)

    scale = 1.0 + inp.lam.max_abs() + inp.phi.max_abs()
    tol = family_tolerance(spec, scale)
    # a second form with K = L0 leaves the Gauss equation with its conformal side only
    lam = inp.lam.values
    lap = lambda_lap(lam, inp.lam.spec, case)
    bg = float(np.max(np.abs(gauss_equation(lam, lap, 0.0, case))))
    if not (bg <= tol):
        raise FamilyInputError(f"conformal factor violates its curvature equation ({bg:.3e})")
    phi_res = phi_equation_residual(inp.phi, inp.lam).max_abs()
    if not (phi_res <= tol):
        raise FamilyInputError(f"phi violates its compatibility equation ({phi_res:.3e})")

    pu, pv = grad(inp.phi.values, spec)
    g2 = pu * pu + pv * pv
    if not (np.min(g2) > 0):
        raise FamilyInputError("grad phi must be nonvanishing")
    amp = st / np.sqrt(g2)
    a1, a2, a3 = amp * pu * pu, amp * pu * pv, amp * pv * pv
    ratio = -ct / st
    gamma = -theta + (inp.xi(inp.phi.values) if callable(inp.xi) else 0.0)
    m1, m2 = grad(gamma, spec)

    coeffs = CoefficientSet.from_arrays(
        spec, lam=inp.lam.values,
        alpha1=a1, alpha2=a2, alpha3=a3,
        beta1=ratio * a1, beta2=ratio * a2, beta3=ratio * a3,
        mu1=m1, mu2=m2)
    cert = certify(coeffs, case)
    cert["phi_equation_residual"] = float(phi_res)
    combo = gamma + theta
    cert["gamma_plus_theta_spread"] = float(np.max(combo) - np.min(combo))
    return FamilyResult(coeffs, cert, {"gamma": FieldGrid(spec, gamma)})


def build_nt_light_family(spec: GridSpec, gamma: FieldGrid, profile,
                          case: CaseSpec) -> FamilyResult:
    """Neutral time-like set satisfying alpha + eps*beta = 0 identically.

    alpha = (C(u) e^{eps gamma}, 0, 0), beta = -eps alpha, mu = grad
    gamma, lambda = 0.  K = L0 = 0 holds automatically and the light-like
    normal field e^{-lambda + eps gamma)(N1 - eps N2) is parallel.
    profile is C as a callable of u or a FieldGrid constant in v.
    """
    if case.case_id != "NT" or case.l0 != 0:
        raise FamilyInputError("light-dependent family implemented for case NT, L0=0")
    if case.delta != 1:  # the set is the same for either sign
        raise FamilyInputError(f"family 'light' reads no delta: it must be 1, got {case.delta}")
    eps = case.eps
    U, _ = spec.mesh()
    prof = profile(U) if callable(profile) else np.asarray(profile.values)
    require_nonzero(FamilyInputError, "amplitude profile must be nonvanishing", prof,
                    floor=DEGENERACY_FLOOR)
    amp = prof * np.exp(eps * gamma.values)
    m1, m2 = grad(gamma.values, spec)
    coeffs = CoefficientSet.from_arrays(
        spec, alpha1=amp, beta1=-eps * amp, mu1=m1, mu2=m2)
    cert = certify(coeffs, case)
    dev = max(float(np.max(np.abs(coeffs.alpha1.values + eps * coeffs.beta1.values))),
              float(np.max(np.abs(coeffs.alpha2.values + eps * coeffs.beta2.values))),
              float(np.max(np.abs(coeffs.alpha3.values + eps * coeffs.beta3.values))))
    cert["light_dependence_defect"] = dev
    return FamilyResult(coeffs, cert, {"eps": eps, "gamma": gamma})


# ---------------------------------------------------------------------------
# not linearly dependent pipelines
# ---------------------------------------------------------------------------

def _rotation(case: CaseSpec, angle: np.ndarray):
    """(r00, r01, r10, r11) with grad(partner) = R grad(f): trigonometric on
    R/NS, hyperbolic on NT (delta signs cosh, eps picks the branch)."""
    if case.kappa > 0:
        s, c = np.sin(angle), np.cos(angle)
        return -s, c, c, s
    ch, sh = case.delta * np.cosh(angle), np.sinh(angle)
    if case.eps == 1:
        return ch, -sh, sh, -ch
    return sh, -ch, ch, -sh


def angle_link(f: FieldGrid, angle: FieldGrid | None, case: CaseSpec):
    """Partner potential of f under the case's rotation by the angle field.

    Rotate the gradient of f by the matrix of :func:`_rotation`, check
    that the candidate gradient is curl-free at 100 h^2 (1 + s), and
    path-integrate it.  Returns (partner FieldGrid, curl defect).  A curl
    defect above tolerance means the angle field is not admissible (it
    should come from the Riccati system); that raises
    :class:`NonIntegrableError`.  The real cases (R/NS/NT) only: in the
    complex ones the partner is the conjugate, see :func:`rotation_angle`.
    """
    spec = f.spec
    if case.parity < 0:
        raise ValueError(f"angle_link serves the real cases only; case {case.case_id} "
                         "links through rotation_angle")
    if angle is None:
        raise ValueError("real cases need the angle field")
    fu, fv = grad(f.values, spec)
    ang = angle.values
    r00, r01, r10, r11 = _rotation(case, ang)
    gu = r00 * fu + r01 * fv
    gv = r10 * fu + r11 * fv
    tol = angle_link_tolerance(spec, f.max_abs() + float(np.max(np.abs(ang))))
    partner, defect = closed_potential(spec, gu, gv, tol, "partner gradient")
    return FieldGrid(spec, partner), defect


def rotation_angle(f: FieldGrid, case: CaseSpec):
    """Angle field linking grad(conj f) to the gradient of f.

    With kappa = g1 g2, A = 2 Re(f_u conj f_v), B = Re(f_u^2 + kappa f_v^2)
    and C = |f_u|^2 - kappa |f_v|^2.  LS (kappa = 1): (conj f)_u + i
    (conj f)_v = e^{i psi} (f_v + i f_u), recovered from cos psi = A/B,
    sin psi = -C/B.  LT (kappa = -1): (conj f)_u = c f_u + s f_v and
    (conj f)_v = -s f_u - c f_v with c = delta cosh(psi), s = sinh(psi),
    recovered from sinh psi = -A/B and c = C/B, so delta must carry the
    sign of B (C > 0); both hold, with C^2 = A^2 + B^2, exactly when
    f_u^2 - f_v^2 is real.  Returns (psi, max relation residual).
    """
    if case.parity > 0:
        raise ValueError("rotation_angle serves the complex cases only")
    kappa = case.kappa
    spec = f.spec
    fu, fv = grad(f.values, spec)
    A = 2 * np.real(fu * np.conj(fv))
    B = np.real(fu * fu) + kappa * np.real(fv * fv)
    C = np.abs(fu) ** 2 - kappa * np.abs(fv) ** 2
    require_nonzero(FamilyInputError, "B vanishes: rotation angle undefined", B,
                    floor=DEGENERACY_FLOOR)
    if kappa > 0:
        c, s = A / B, -C / B
        psi = np.arctan2(s, c)
        r1 = np.conj(fu) - (c * fv - s * fu)
        r2 = np.conj(fv) - (s * fv + c * fu)
    else:
        if not np.all(case.delta * B > 0):
            raise FamilyInputError("delta inconsistent with the input potential")
        psi = np.arcsinh(-A / B)
        c, s = case.delta * np.cosh(psi), np.sinh(psi)
        r1 = np.conj(fu) - (c * fu + s * fv)
        r2 = np.conj(fv) + (s * fu + c * fv)
    resid = float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))
    return FieldGrid(spec, psi), resid


@dataclass
class NotldPotentials:
    """Free inputs of the not-linearly-dependent constructors.

    Real cases (R/NS/NT): f_minus and the rotation angle psi (R/NS) or
    rho (NT), plus the free angle theta_minus (R/NS: k- = tan theta_-)
    or t_minus (NT: k- through the eps'-branch exponential formula).
    Complex cases (LS/LT): the complex potential f and the gauge angle
    sigma placing k on its admissible circle; xi_tilde feeds their gamma
    gradient.  extras["gamma"], whose gradient is mu, is 0 at the base corner.
    """

    f_minus: FieldGrid | None = None
    angle: FieldGrid | None = None          # psi (R/NS) or rho (NT)
    theta_minus: FieldGrid | None = None    # R/NS
    t_minus: FieldGrid | None = None        # NT
    f: FieldGrid | None = None              # LS/LT, complex
    sigma: FieldGrid | None = None          # LS/LT gauge angle
    xi_tilde: object = None                 # LS/LT: one-variable callable or None
    eps_prime: int = 1
    lam: FieldGrid | None = None            # default: identically zero


def _lambda_terms(lam: FieldGrid, case: CaseSpec, A, Ap, P, Q):
    """(1/A') M grad lambda, M = [[P, kappa A], [A, kappa Q]]: the lambda
    correction of every not-linearly-dependent gamma gradient."""
    kappa = case.kappa
    lu, lv = grad(lam.values, lam.spec)
    return (P * lu + kappa * A * lv) / Ap, (A * lu + kappa * Q * lv) / Ap


def _signed(kappa: int, z: np.ndarray) -> np.ndarray:
    """kappa z with an exact negation: (-1) * z on a complex array can flip
    the sign of zero parts, -z never does."""
    return z if kappa > 0 else -z


def _gamma_tail(case, lam, tol, gu, gv, form, identities, witness, checks, extras):
    """Integrate gamma from its gradient, assemble with mu = grad gamma and
    the second form ``form``, certify; ``checks`` join the certificate."""
    spec = lam.spec
    gamma, gcurl = closed_potential(spec, gu, gv, tol, "gamma gradient")
    coeffs = CoefficientSet.from_arrays(spec, lam=lam.values, **form, mu1=gu, mu2=gv)
    cert = certify(coeffs, case, identities, witness)
    cert.update(checks, gamma_curl=gcurl)
    return FamilyResult(coeffs, cert, {**extras, "gamma": FieldGrid(spec, gamma)})


def _sqrt_tracked(w2: np.ndarray) -> np.ndarray:
    """Square root of a complex field with a branch continuous along the
    base row and then down each column, seeded by the principal branch."""
    w = np.sqrt(w2.astype(np.complex128))
    for i in range(1, w.shape[0]):
        flip = np.abs(w[i, 0] - w[i - 1, 0]) > np.abs(w[i, 0] + w[i - 1, 0])
        if flip:
            w[i, 0] = -w[i, 0]
    prev = w[:, 0].copy()
    for j in range(1, w.shape[1]):
        flip = np.abs(w[:, j] - prev) > np.abs(w[:, j] + prev)
        w[flip, j] = -w[flip, j]
        prev = w[:, j]
    return w


def build_notld_family(pot: NotldPotentials, case: CaseSpec) -> FamilyResult:
    """Not-linearly-dependent set: complex pipeline for parity -1, else real.

    The pipeline returns only what ``_gamma_tail`` reads, so its dozens of
    whole-grid intermediates are freed before the set is certified."""
    return _gamma_tail(case, *(_notld_lorentzian if case.parity < 0 else _notld_real)(pot, case))


def _lambda_or_zero(pot, spec):
    return pot.lam if pot.lam is not None else FieldGrid.constant(spec, 0.0)


def _k_minus(pot: NotldPotentials, case: CaseSpec):
    """(a, k-, identities): a = theta_- and k- = tan a on R/NS; a = t_- and
    k- = (1 + eps' e^{2a}) / (1 - eps' e^{2a}), off 0 and +-1, on NT."""
    if case.kappa > 0:
        th = pot.theta_minus.values
        require_nonzero(FamilyInputError, "theta_minus too close to 0 or pi/2: k- leaves (0, inf)",
                        np.sin(th), np.cos(th), floor=EXCLUSION_MARGIN)
        return th, np.tan(th), {}
    tm = pot.t_minus.values
    require_nonzero(FamilyInputError, "t_minus must be nonvanishing", tm, floor=EXCLUSION_MARGIN)
    e2t = pot.eps_prime * np.exp(2 * tm)
    km = (1 + e2t) / (1 - e2t)
    t_minus_id = float(np.max(np.abs(tm - 0.5 * np.log(np.abs((km - 1) / (km + 1))))))
    require_nonzero(FamilyInputError, "k- hits an excluded value (0 or +-1)",
                    np.abs(km) - 1, km, floor=EXCLUSION_MARGIN)
    return tm, km, {"t_minus_log_form": t_minus_id}


def _notld_real(pot: NotldPotentials, case: CaseSpec) -> tuple:
    """``_gamma_tail``'s arguments after case, for cases R, NS (kappa = 1)
    and NT (kappa = -1): f_+ is f_- rotated by psi or rho.

    kappa = g1 g2 signs B = f+_u^2 + kappa f+_v^2, C = f+_u f-_u - kappa
    f+_v f-_v, k+ = (C k- - kappa A) / (A k- + C) on the branch (A k- + C)
    B < 0, s+- = sqrt|k+-^2 + kappa|, beta1 = (k+ y+ - k- y-) / 2, alpha3 =
    kappa (k- x- - k+ x+) / 2, where (x, y)+ = (f+_v, f+_u) / s+ and (x, y)-
    = (-f-_v, f-_u) / s-, and the gamma gradient -kappa grad a + kappa d J
    grad f_- minus the lambda terms (a from _k_minus), d = delta and e = eps
    (in the identities), both 1 off NT.
    """
    kappa = case.kappa
    free, angle_name = ("theta_minus", "psi") if kappa > 0 else ("t_minus", "rho")
    if pot.f_minus is None or pot.angle is None or getattr(pot, free) is None:
        raise FamilyInputError(f"need f_minus, angle ({angle_name}) and {free}")
    spec = pot.f_minus.spec
    lam = _lambda_or_zero(pot, spec)
    e, d = case.eps, case.delta
    tol = family_tolerance(spec, 1.0 + pot.f_minus.max_abs())

    f_plus, curl = angle_link(pot.f_minus, pot.angle, case)
    fmu, fmv = grad(pot.f_minus.values, spec)
    fpu, fpv = grad(f_plus.values, spec)
    ang = pot.angle.values
    if kappa < 0 and e == 1:
        require_nonzero(FamilyInputError, "rho must be nonvanishing on the eps=+1 branch", ang,
                        floor=EXCLUSION_MARGIN)

    # kappa multiplies single terms: negating a difference could flip a zero's sign
    A = fpv * fmu + fmv * fpu
    B = fpu * fpu + kappa * fpv * fpv
    C = fpu * fmu - kappa * fpv * fmv
    Ap = fpv * fmu - fmv * fpu
    require_nonzero(FamilyInputError, "degenerate potentials: A or A' vanishes", A, Ap,
                    floor=DEGENERACY_FLOOR)
    checks = {}
    if kappa < 0:
        require_nonzero(FamilyInputError, "B vanishes: input gradient is light-like somewhere", B,
                        floor=DEGENERACY_FLOOR)
        checks["gradient_link"] = float(np.max(np.abs(B - e * (fmu * fmu + kappa * fmv * fmv))))
    r00, _, r10, _ = _rotation(case, ang)
    rot_id = max(float(np.max(np.abs(A - e * B * r10))), float(np.max(np.abs(C - e * B * r00))))

    driver, km, km_ids = _k_minus(pot, case)
    den = A * km + C
    if not (np.max(den * B) < 0):  # B > 0 on R/NS: there the gate reads A k- + C < 0
        raise FamilyInputError("branch condition A k- + C < 0 violated" if kappa > 0
                               else "branch condition (A k- + C) B < 0 violated")
    kp = (C * km - kappa * A) / den
    if kappa < 0:
        require_nonzero(FamilyInputError, "k+ hits an excluded value (0 or +-1)",
                        np.abs(kp) - 1, kp, floor=EXCLUSION_MARGIN)

    sp, sm = np.sqrt(np.abs(kp * kp + kappa)), np.sqrt(np.abs(km * km + kappa))
    xp, yp = fpv / sp, fpu / sp
    xm, ym = -fmv / sm, fmu / sm
    # W = -kappa k Y, Z = k X; the plus pair takes k- on R/NS (W+ = -k- Y-) and
    # k+ on NT (W+ = k+ Y+), so kappa = -1 reverses the pairs
    pairs = ((km, xm, ym), (kp, xp, yp))[::kappa]
    (wp, zp), (wm, zm) = [(-kappa * k * y, k * x) for k, x, y in pairs]

    J = wedge((fpu, fpv), grad(ang, spec)) / wedge((fpu, fpv), (fmu, fmv))
    tu, tv = grad(driver, spec)
    lgu, lgv = _lambda_terms(lam, case, A, Ap, 2 * fpu * fmu, 2 * fpv * fmv)
    gu = -kappa * tu + kappa * d * J * fmu - lgu
    gv = -kappa * tv + kappa * d * J * fmv - lgv

    mobius = float(np.max(np.abs(kp**2 + kappa - e * B * B * (km**2 + kappa) / den**2)))
    pyth = float(np.max(np.abs(A * A + kappa * C * C - kappa * e * B * B)))
    names = (("mobius_1_plus_k2", "pythagoras_A2_C2_B2", "rotation_A_B_cos_psi") if kappa > 0
             else ("mobius_k2_minus_1", "pythagoras_A2_C2_epsB2", "rotation_hyperbolic"))
    identities = dict(zip(names, (mobius, pyth, rot_id)), **checks, **km_ids,
                      sum_W=float(np.max(np.abs(wp + wm - xp - xm))),
                      sum_Y=float(np.max(np.abs(yp + ym - zp - zm))))
    witness = float(np.min(np.abs(xp**2 * ym**2 - xm**2 * yp**2)))
    form = dict(alpha1=0.5 * (yp - ym), alpha2=0.5 * (xp + xm), alpha3=0.5 * (zp - zm),
                beta1=0.5 * (wp - wm), beta2=0.5 * (yp + ym), beta3=0.5 * (xp - xm))
    extras = {"f_plus": f_plus, "k_minus": FieldGrid(spec, km), "k_plus": FieldGrid(spec, kp)}
    return lam, tol, gu, gv, form, identities, witness, {"angle_link_curl": curl}, extras


def _notld_lorentzian(pot: NotldPotentials, case: CaseSpec) -> tuple:
    """``_gamma_tail``'s arguments after case, for cases LS and LT: complex
    potential f, k on its gauge circle.

    kappa = g1 g2 (+1 for LS, -1 for LT) signs every difference of the two
    cases: B = f_u^2 + kappa f_v^2, C = |f_u|^2 - kappa |f_v|^2,
    w^2 = k^2 - kappa (k^2 = kappa excluded), W = kappa k Y,
    alpha3 = kappa Im Z, beta1 = -kappa Im W; delta is 1 on LS.
    """
    if pot.f is None or pot.sigma is None:
        raise FamilyInputError("need the complex potential f and the gauge angle sigma")
    spec = pot.f.spec
    if pot.f.kind != "complex":
        raise FamilyInputError("f must be complex-valued")
    lam = _lambda_or_zero(pot, spec)
    kappa = case.kappa
    scale = 1.0 + pot.f.max_abs()
    tol = family_tolerance(spec, scale)

    fv_ = pot.f.values
    fu, fv = grad(fv_, spec)
    cross = fu * np.conj(fv)
    A = 2 * np.real(cross)
    Ap = 2 * np.imag(cross)
    require_nonzero(FamilyInputError, "degenerate potential: Re/Im of f_u conj(f_v) vanish",
                    A, Ap, floor=DEGENERACY_FLOOR)
    B2c = fu * fu + _signed(kappa, fv * fv)
    C = np.abs(fu) ** 2 - kappa * np.abs(fv) ** 2
    reality = float(np.max(np.abs(np.imag(B2c))))
    if not (reality <= tol):
        raise FamilyInputError(f"f_u^2 {'+' if kappa > 0 else '-'} f_v^2 is not "
                               f"real-valued (defect {reality:.3e})")
    B = np.real(B2c)
    require_nonzero(FamilyInputError, "B vanishes somewhere", B, floor=DEGENERACY_FLOOR)

    k = (-1j * C + B * np.exp(1j * pot.sigma.values)) / A
    root, name = (1, "1") if kappa > 0 else (1j, "i")
    require_nonzero(FamilyInputError, f"k hits an excluded value (+-{name})", k - root, k + root,
                    floor=EXCLUSION_MARGIN)
    w2 = k * k - kappa
    mobius = float(np.max(np.abs(np.conj(k) * (A * k + 1j * C) - (1j * C * k + kappa * A))))
    pyth = float(np.max(np.abs(kappa * A * A + C * C - B * B)))

    w = _sqrt_tracked(w2)
    X = 1j * fv / w
    Y = fu / w
    W, Z = _signed(kappa, k) * Y, k * X

    xi = np.zeros(spec.shape) if pot.xi_tilde is None else pot.xi_tilde(fv_)
    ku, kv = grad(k, spec)
    lgu, lgv = _lambda_terms(lam, case, A, Ap, 2 * np.abs(fu) ** 2, 2 * np.abs(fv) ** 2)
    gcu = _signed(kappa, ku) / w2 - 1j * case.delta * xi * fu - lgu
    gcv = _signed(kappa, kv) / w2 - 1j * case.delta * xi * fv - lgv
    realness = float(max(np.max(np.abs(np.imag(gcu))), np.max(np.abs(np.imag(gcv)))))
    if not (realness <= tol):
        raise NonIntegrableError(
            f"gamma gradient is not real (defect {realness:.3e}): "
            "f, xi_tilde and sigma are jointly inadmissible")

    form = dict(alpha1=-np.imag(Y), alpha2=np.real(X), alpha3=kappa * np.imag(Z),
                beta1=-kappa * np.imag(W), beta2=np.real(Y), beta3=np.imag(X))
    identities = {
        "mobius_conj_k": mobius,
        "pythagoras": pyth,
        "sum_W": float(np.max(np.abs(np.real(W) - np.real(X)))),
        "sum_Y": float(np.max(np.abs(np.real(Y) - np.real(Z)))),
        "B_reality": reality,
    }
    witness = float(np.min(np.abs(X**2 * np.conj(Y) ** 2 - np.conj(X) ** 2 * Y**2)))
    return (lam, tol, np.real(gcu), np.real(gcv), form, identities, witness,
            {"gamma_realness": realness}, {"k": FieldGrid(spec, k)})

