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
  rotation angle (trigonometric for the definite normal bundle,
  hyperbolic for the neutral time-like case, a complex gauge circle for
  the Lorentzian-ambient cases).

Certification is deliberate: the assembly involves dozens of signed
terms, so every constructor re-checks its output against the scalar
equations instead of trusting the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .frames import CoefficientSet
from .gcr import (
    NonIntegrableError,
    curvature_minus_l0,
    dependence_minors,
    gauss_lhs,
    gcr_residuals,
    integrate_gradient,
    normal_flatness_defect,
)
from .grid import (ROUND_OFF_TOL, FieldGrid, GridSpec, _diff2_along, _diff_along,
                   angle_link_tolerance, family_tolerance, residual_tolerance)
from .spaceform import CaseSpec, metric_conventions

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


def _grad(values: np.ndarray, spec: GridSpec):
    return _diff_along(values, spec.du, 0), _diff_along(values, spec.dv, 1)


def _jacobian(fu, fv, gu, gv):
    """du^dv coefficient of df ^ dg."""
    return fu * gv - fv * gu


def certify(coeffs: CoefficientSet, case: CaseSpec, identities: dict | None = None,
            witness: float | None = None) -> dict:
    """Numerical certificate for a constructed coefficient set."""
    tol = residual_tolerance(coeffs.spec, coeffs.max_abs())
    res = gcr_residuals(coeffs, case)
    flat = normal_flatness_defect(coeffs).max_abs()
    kml = float(np.max(np.abs(curvature_minus_l0(coeffs, case).values)))
    minors = dependence_minors(coeffs)
    cert = {
        "tol": tol,
        "residuals": res.metrics(),
        "residual_max": res.max_abs(),
        "flatness_defect": flat,
        "k_minus_l0_defect": kml,
        "dependence_minors_max": float(np.max(minors.values)),
        "dependence_minors_min": float(np.min(minors.values)),
        "passed": bool(res.max_abs() <= tol and flat <= tol),
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
    pu, pv = _grad(phi.values, spec)
    puu = _diff2_along(phi.values, spec.du, 0)
    pvv = _diff2_along(phi.values, spec.dv, 1)
    puv = _diff_along(pu, spec.dv, 1)
    lu, lv = _grad(lam.values, spec)
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
    n1, n2 = metric_conventions(case).n_signs
    if n1 != n2:  # theta is a trigonometric angle: definite normal bundle only
        raise FamilyInputError("phi family implemented for cases R, NS, LT")
    spec = inp.phi.spec
    theta = inp.theta.values
    st, ct = np.sin(theta), np.cos(theta)
    if np.min(np.abs(st * ct)) < 1e-9:
        raise FamilyInputError("sin(theta) cos(theta) must be bounded away from zero")

    scale = 1.0 + inp.lam.max_abs() + inp.phi.max_abs()
    tol = family_tolerance(spec, scale)
    # a second form with K = L0 leaves the Gauss equation with its conformal side only
    bg = float(np.max(np.abs(gauss_lhs(inp.lam, case))))
    if not (bg <= tol):
        raise FamilyInputError(f"conformal factor violates its curvature equation ({bg:.3e})")
    phi_res = phi_equation_residual(inp.phi, inp.lam).max_abs()
    if not (phi_res <= tol):
        raise FamilyInputError(f"phi violates its compatibility equation ({phi_res:.3e})")

    pu, pv = _grad(inp.phi.values, spec)
    g2 = pu * pu + pv * pv
    if np.min(g2) <= 0:
        raise FamilyInputError("grad phi must be nonvanishing")
    amp = st / np.sqrt(g2)
    a1, a2, a3 = amp * pu * pu, amp * pu * pv, amp * pv * pv
    ratio = -ct / st
    gamma = -theta + (inp.xi(inp.phi.values) if callable(inp.xi) else 0.0)
    m1, m2 = _grad(gamma, spec)

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
    eps = case.eps
    U, _ = spec.mesh()
    prof = profile(U) if callable(profile) else np.asarray(profile.values)
    if np.min(np.abs(prof)) < 1e-12:
        raise FamilyInputError("amplitude profile must be nonvanishing")
    amp = prof * np.exp(eps * gamma.values)
    m1, m2 = _grad(gamma.values, spec)
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

def angle_link(f: FieldGrid, angle: FieldGrid | None, case: CaseSpec,
               tol: float | None = None):
    """Partner potential of f under the case's rotation by the angle field.

    Real cases: rotate/negate the gradient of f by the trigonometric
    (R/NS) or hyperbolic (NT, both eps branches) matrix, check that the
    candidate gradient is curl-free, and path-integrate it.  Returns
    (partner FieldGrid, curl defect).  A curl defect above tolerance
    means the angle field is not admissible (it should come from the
    Riccati system); that raises :class:`NonIntegrableError`.

    Complex cases (LS/LT): the partner is the conjugate, so the angle is
    not free; returns (recovered angle field, max residual of the
    rotation relation).
    """
    spec = f.spec
    if case.case_id in ("LS", "LT"):
        return rotation_angle(f, case)
    if angle is None:
        raise ValueError("real cases need the angle field")
    fu, fv = _grad(f.values, spec)
    ang = angle.values
    if case.case_id in ("R", "NS"):
        gu = -np.sin(ang) * fu + np.cos(ang) * fv
        gv = np.cos(ang) * fu + np.sin(ang) * fv
    elif case.case_id == "NT":
        ch, sh = np.cosh(ang), np.sinh(ang)
        d = case.delta
        if case.eps == 1:
            gu = d * ch * fu - sh * fv
            gv = sh * fu - d * ch * fv
        else:
            gu = sh * fu - d * ch * fv
            gv = d * ch * fu - sh * fv
    else:
        raise ValueError(f"no angle link for case {case.case_id}")
    curl = _diff_along(gu, spec.dv, 1) - _diff_along(gv, spec.du, 0)
    defect = float(np.max(np.abs(curl)))
    if tol is None:
        tol = angle_link_tolerance(spec, f.max_abs() + float(np.max(np.abs(ang))))
    if not (defect <= tol):
        raise NonIntegrableError(
            f"partner gradient is not closed (curl {defect:.3e} > {tol:.3e}); "
            "the angle field is not admissible")
    partner = integrate_gradient(spec, gu, gv)
    return FieldGrid(spec, partner), defect


def rotation_angle(f: FieldGrid, case: CaseSpec):
    """Angle field linking grad(conj f) to the swapped gradient of f.

    LS: (conj f)_u + i (conj f)_v = e^{i psi} (f_v + i f_u); recovered
    from cos psi = A/B, sin psi = -C/B.  Returns (psi, max relation
    residual).  For LT the hyperbolic analog with delta is used.
    """
    spec = f.spec
    fu, fv = _grad(f.values, spec)
    cross = fu * np.conj(fv)
    A = 2 * np.real(cross)
    if case.case_id == "LS":
        B = np.real(fu * fu + fv * fv)
        C = np.abs(fu) ** 2 - np.abs(fv) ** 2
        cpsi, spsi = A / B, -C / B
        psi = np.arctan2(spsi, cpsi)
        r1 = np.conj(fu) - (cpsi * fv - spsi * fu)
        r2 = np.conj(fv) - (spsi * fv + cpsi * fu)
    elif case.case_id == "LT":
        B = np.real(fu * fu - fv * fv)
        C = np.abs(fu) ** 2 + np.abs(fv) ** 2
        if np.min(np.abs(B)) < 1e-12:
            raise FamilyInputError("B vanishes: rotation angle undefined")
        # A = -delta B cosh(rho), C = -B sinh(rho)
        d = case.delta
        rho = np.arcsinh(-C / B)
        ch, sh = np.cosh(rho), np.sinh(rho)
        if np.max(np.abs(A + d * B * ch)) > 1e-6 * np.max(np.abs(A)):
            raise FamilyInputError("delta inconsistent with the input potential")
        psi = rho
        r1 = np.conj(fu) - (d * ch * fv - sh * fu)
        r2 = np.conj(fv) - (sh * fv - d * ch * fu)
    else:
        raise ValueError("rotation_angle serves the complex cases only")
    resid = float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))
    return FieldGrid(spec, psi), resid


@dataclass
class NotldPotentials:
    """Free inputs of the not-linearly-dependent constructors.

    Real cases (R/NS/NT): f_minus and the rotation angle psi (R/NS) or
    rho (NT), plus the free angle theta_minus (R/NS: k- = tan theta_-)
    or t_minus (NT: k- through the eps'-branch exponential formula).
    Complex cases (LS/LT): the complex potential f and the gauge angle
    sigma placing k on its admissible circle.  xi_tilde feeds the gamma
    gradient; gamma0 seeds the base value.
    """

    f_minus: FieldGrid | None = None
    angle: FieldGrid | None = None          # psi (R/NS) or rho (NT)
    theta_minus: FieldGrid | None = None    # R/NS
    t_minus: FieldGrid | None = None        # NT
    f: FieldGrid | None = None              # LS/LT, complex
    sigma: FieldGrid | None = None          # LS/LT gauge angle
    xi_tilde: object = None                 # one-variable callable or None
    gamma0: float = 0.0
    eps_prime: int = 1
    lam: FieldGrid | None = None            # default: identically zero


def _xi_eval(xi_tilde, values):
    if xi_tilde is None:
        return np.zeros_like(np.real(values))
    if callable(xi_tilde):
        return xi_tilde(values)
    return float(xi_tilde) * np.ones_like(np.real(values))


def _gamma_from_gradient(spec, gu, gv, gamma0, tol):
    curl = _diff_along(gu, spec.dv, 1) - _diff_along(gv, spec.du, 0)
    defect = float(np.max(np.abs(curl)))
    if not (defect <= tol):
        raise NonIntegrableError(
            f"gamma gradient is not closed (curl {defect:.3e} > {tol:.3e})")
    return integrate_gradient(spec, gu, gv, gamma0), defect


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
    if case.case_id in ("R", "NS"):
        return _notld_real_definite(pot, case)
    if case.case_id == "NT":
        return _notld_neutral_timelike(pot, case)
    if case.case_id in ("LS", "LT"):
        return _notld_lorentzian(pot, case)
    raise FamilyInputError(f"unknown case {case.case_id}")


def _lambda_or_zero(pot, spec):
    return pot.lam if pot.lam is not None else FieldGrid.constant(spec, 0.0)


def _notld_real_definite(pot: NotldPotentials, case: CaseSpec) -> FamilyResult:
    """Cases R and NS: trigonometric rotation, k- = tan(theta_-)."""
    if pot.f_minus is None or pot.angle is None or pot.theta_minus is None:
        raise FamilyInputError("need f_minus, angle (psi) and theta_minus")
    spec = pot.f_minus.spec
    lam = _lambda_or_zero(pot, spec)
    scale = 1.0 + pot.f_minus.max_abs()
    tol = family_tolerance(spec, scale)

    f_plus, curl = angle_link(pot.f_minus, pot.angle, case)
    fmu, fmv = _grad(pot.f_minus.values, spec)
    fpu, fpv = _grad(f_plus.values, spec)
    psi = pot.angle.values

    A = fpv * fmu + fmv * fpu
    B = fpu * fpu + fpv * fpv
    C = fpu * fmu - fpv * fmv
    Ap = fpv * fmu - fmv * fpu
    if np.min(np.abs(A)) < 1e-12 or np.min(np.abs(Ap)) < 1e-12:
        raise FamilyInputError("degenerate potentials: A or A' vanishes")
    if np.min(B) <= 0:
        raise FamilyInputError("gradient of f_plus vanishes")

    rot_id = max(float(np.max(np.abs(A - B * np.cos(psi)))),
                 float(np.max(np.abs(C + B * np.sin(psi)))))

    th = pot.theta_minus.values
    if np.min(np.abs(np.sin(th))) < 1e-9 or np.min(np.abs(np.cos(th))) < 1e-9:
        raise FamilyInputError("theta_minus too close to 0 or pi/2: k- leaves (0, inf)")
    km = np.tan(th)
    den = A * km + C
    if np.max(den) >= 0:
        raise FamilyInputError("branch condition A k- + C < 0 violated")
    kp = (C * km - A) / den

    sp = np.sqrt(1 + kp * kp)
    sm = np.sqrt(1 + km * km)
    xp, yp = fpv / sp, fpu / sp
    xm, ym = -fmv / sm, fmu / sm
    wp, zp = -km * ym, km * xm
    wm, zm = -kp * yp, kp * xp

    # gamma gradient: -grad theta_- + J grad f_- - (1/A') M grad lambda
    J_num = _jacobian(fpu, fpv, *_grad(psi, spec))
    J_den = _jacobian(fpu, fpv, fmu, fmv)
    J = J_num / J_den
    thu, thv = _grad(th, spec)
    lu, lv = _grad(lam.values, spec)
    gu = -thu + J * fmu - (2 * fpu * fmu * lu + A * lv) / Ap
    gv = -thv + J * fmv - (A * lu + 2 * fpv * fmv * lv) / Ap
    gamma, gcurl = _gamma_from_gradient(spec, gu, gv, pot.gamma0, tol)

    coeffs = _assemble_real(spec, lam, wp, wm, xp, xm, yp, ym, zp, zm, gu, gv)
    identities = {
        "mobius_1_plus_k2": float(np.max(np.abs(1 + kp**2 - B * B * (1 + km**2) / den**2))),
        "pythagoras_A2_C2_B2": float(np.max(np.abs(A * A + C * C - B * B))),
        "rotation_A_B_cos_psi": rot_id,
        "sum_W": float(np.max(np.abs(wp + wm - xp - xm))),
        "sum_Y": float(np.max(np.abs(yp + ym - zp - zm))),
    }
    witness = float(np.min(np.abs(xp**2 * ym**2 - xm**2 * yp**2)))
    cert = certify(coeffs, case, identities, witness)
    cert["angle_link_curl"] = curl
    cert["gamma_curl"] = gcurl
    extras = {"f_plus": f_plus, "k_minus": FieldGrid(spec, km),
              "k_plus": FieldGrid(spec, kp), "gamma": FieldGrid(spec, gamma)}
    return FamilyResult(coeffs, cert, extras)


def _notld_neutral_timelike(pot: NotldPotentials, case: CaseSpec) -> FamilyResult:
    """Case NT: hyperbolic rotation, k- from t_minus via the eps' branch."""
    if pot.f_minus is None or pot.angle is None or pot.t_minus is None:
        raise FamilyInputError("need f_minus, angle (rho) and t_minus")
    spec = pot.f_minus.spec
    lam = _lambda_or_zero(pot, spec)
    eps, delta = case.eps, case.delta
    scale = 1.0 + pot.f_minus.max_abs()
    tol = family_tolerance(spec, scale)

    f_plus, curl = angle_link(pot.f_minus, pot.angle, case)
    fmu, fmv = _grad(pot.f_minus.values, spec)
    fpu, fpv = _grad(f_plus.values, spec)
    rho = pot.angle.values
    if eps == 1 and np.min(np.abs(rho)) < 1e-9:
        raise FamilyInputError("rho must be nonvanishing on the eps=+1 branch")

    A = fpv * fmu + fmv * fpu
    B = fpu * fpu - fpv * fpv
    C = fpu * fmu + fpv * fmv
    Ap = fpv * fmu - fmv * fpu
    if np.min(np.abs(A)) < 1e-12 or np.min(np.abs(Ap)) < 1e-12:
        raise FamilyInputError("degenerate potentials: A or A' vanishes")
    if np.min(np.abs(B)) < 1e-12:
        raise FamilyInputError("B vanishes: input gradient is light-like somewhere")
    grad_id = float(np.max(np.abs(B - eps * (fmu * fmu - fmv * fmv))))

    ch, sh = np.cosh(rho), np.sinh(rho)
    if eps == 1:
        rot_id = max(float(np.max(np.abs(A - B * sh))),
                     float(np.max(np.abs(C - delta * B * ch))))
    else:
        rot_id = max(float(np.max(np.abs(A + delta * B * ch))),
                     float(np.max(np.abs(C + B * sh))))

    tm = pot.t_minus.values
    if np.min(np.abs(tm)) < 1e-9:
        raise FamilyInputError("t_minus must be nonvanishing")
    ep = pot.eps_prime
    e2t = np.exp(2 * tm)
    km = (1 + ep * e2t) / (1 - ep * e2t)
    t_minus_id = float(np.max(np.abs(tm - 0.5 * np.log(np.abs((km - 1) / (km + 1))))))
    if np.min(np.abs(np.abs(km) - 1)) < 1e-9 or np.min(np.abs(km)) < 1e-9:
        raise FamilyInputError("k- hits an excluded value (0 or +-1)")
    den = A * km + C
    if np.max(den * B) >= 0:
        raise FamilyInputError("branch condition (A k- + C) B < 0 violated")
    kp = (C * km + A) / den
    if np.min(np.abs(np.abs(kp) - 1)) < 1e-9 or np.min(np.abs(kp)) < 1e-9:
        raise FamilyInputError("k+ hits an excluded value (0 or +-1)")

    sp = np.sqrt(np.abs(kp * kp - 1))
    sm = np.sqrt(np.abs(km * km - 1))
    xp, yp = fpv / sp, fpu / sp
    xm, ym = -fmv / sm, fmu / sm
    wp, zp = kp * yp, kp * xp
    wm, zm = km * ym, km * xm

    J_num = _jacobian(fpu, fpv, *_grad(rho, spec))
    J_den = _jacobian(fpu, fpv, fmu, fmv)
    J = J_num / J_den
    tmu, tmv = _grad(tm, spec)
    lu, lv = _grad(lam.values, spec)
    gu = tmu - delta * J * fmu - (2 * fpu * fmu * lu - A * lv) / Ap
    gv = tmv - delta * J * fmv - (A * lu - 2 * fpv * fmv * lv) / Ap
    gamma, gcurl = _gamma_from_gradient(spec, gu, gv, pot.gamma0, tol)

    coeffs = _assemble_real(spec, lam, wp, wm, xp, xm, yp, ym, zp, zm, gu, gv)
    identities = {
        "mobius_k2_minus_1": float(np.max(np.abs(
            kp**2 - 1 - eps * B * B * (km**2 - 1) / den**2))),
        "pythagoras_A2_C2_epsB2": float(np.max(np.abs(A * A - C * C + eps * B * B))),
        "rotation_hyperbolic": rot_id,
        "gradient_link": grad_id,
        "t_minus_log_form": t_minus_id,
        "sum_W": float(np.max(np.abs(wp + wm - xp - xm))),
        "sum_Y": float(np.max(np.abs(yp + ym - zp - zm))),
    }
    witness = float(np.min(np.abs(xp**2 * ym**2 - xm**2 * yp**2)))
    cert = certify(coeffs, case, identities, witness)
    cert["angle_link_curl"] = curl
    cert["gamma_curl"] = gcurl
    extras = {"f_plus": f_plus, "k_minus": FieldGrid(spec, km),
              "k_plus": FieldGrid(spec, kp), "gamma": FieldGrid(spec, gamma)}
    return FamilyResult(coeffs, cert, extras)


def _assemble_real(spec, lam, wp, wm, xp, xm, yp, ym, zp, zm, gu, gv) -> CoefficientSet:
    """Second-form components from the half-sum/half-difference relations."""
    return CoefficientSet.from_arrays(
        spec, lam=lam.values,
        alpha1=0.5 * (yp - ym), alpha2=0.5 * (xp + xm), alpha3=0.5 * (zp - zm),
        beta1=0.5 * (wp - wm), beta2=0.5 * (yp + ym), beta3=0.5 * (xp - xm),
        mu1=gu, mu2=gv)


def _notld_lorentzian(pot: NotldPotentials, case: CaseSpec) -> FamilyResult:
    """Cases LS and LT: complex potential f, k on its gauge circle."""
    if pot.f is None or pot.sigma is None:
        raise FamilyInputError("need the complex potential f and the gauge angle sigma")
    spec = pot.f.spec
    if pot.f.kind != "complex":
        raise FamilyInputError("f must be complex-valued")
    lam = _lambda_or_zero(pot, spec)
    ls = case.case_id == "LS"
    scale = 1.0 + pot.f.max_abs()
    tol = family_tolerance(spec, scale)

    fv_ = pot.f.values
    fu, fv = _grad(fv_, spec)
    cross = fu * np.conj(fv)
    A = 2 * np.real(cross)
    Ap = 2 * np.imag(cross)
    if np.min(np.abs(A)) < 1e-12 or np.min(np.abs(Ap)) < 1e-12:
        raise FamilyInputError("degenerate potential: Re/Im of f_u conj(f_v) vanish")
    if ls:
        B2c = fu * fu + fv * fv
        C = np.abs(fu) ** 2 - np.abs(fv) ** 2
    else:
        B2c = fu * fu - fv * fv
        C = np.abs(fu) ** 2 + np.abs(fv) ** 2
    reality = float(np.max(np.abs(np.imag(B2c))))
    if not (reality <= tol):
        raise FamilyInputError(
            f"f_u^2 {'+' if ls else '-'} f_v^2 is not real-valued (defect {reality:.3e})")
    B = np.real(B2c)
    if np.min(np.abs(B)) < 1e-12:
        raise FamilyInputError("B vanishes somewhere")

    k = (-1j * C + B * np.exp(1j * pot.sigma.values)) / A
    if ls:
        excl = min(float(np.min(np.abs(k - 1))), float(np.min(np.abs(k + 1))))
        if excl < 1e-9:
            raise FamilyInputError("k hits an excluded value (+-1)")
        w2 = k * k - 1
        mobius = float(np.max(np.abs(np.conj(k) * (A * k + 1j * C) - (1j * C * k + A))))
        pyth = float(np.max(np.abs(A * A + C * C - B * B)))
    else:
        excl = min(float(np.min(np.abs(k - 1j))), float(np.min(np.abs(k + 1j))))
        if excl < 1e-9:
            raise FamilyInputError("k hits an excluded value (+-i)")
        w2 = k * k + 1
        mobius = float(np.max(np.abs(np.conj(k) * (A * k + 1j * C) - (1j * C * k - A))))
        pyth = float(np.max(np.abs(C * C - A * A - B * B)))

    w = _sqrt_tracked(w2)
    X = 1j * fv / w
    Y = fu / w
    if ls:
        W, Z = k * Y, k * X
    else:
        W, Z = -k * Y, k * X

    xi = _xi_eval(pot.xi_tilde, fv_)
    ku = _diff_along(k, spec.du, 0)
    kv = _diff_along(k, spec.dv, 1)
    if ls:
        gcu = ku / w2 - 1j * xi * fu
        gcv = kv / w2 - 1j * xi * fv
    else:
        gcu = -ku / w2 - 1j * case.delta * xi * fu
        gcv = -kv / w2 - 1j * case.delta * xi * fv
    lu, lv = _grad(lam.values, spec)
    au2 = 2 * np.abs(fu) ** 2
    av2 = 2 * np.abs(fv) ** 2
    if ls:
        gcu = gcu - (au2 * lu + A * lv) / Ap
        gcv = gcv - (A * lu + av2 * lv) / Ap
    else:
        gcu = gcu - (au2 * lu - A * lv) / Ap
        gcv = gcv - (A * lu - av2 * lv) / Ap
    realness = float(max(np.max(np.abs(np.imag(gcu))), np.max(np.abs(np.imag(gcv)))))
    if not (realness <= tol):
        raise NonIntegrableError(
            f"gamma gradient is not real (defect {realness:.3e}): "
            "f, xi_tilde and sigma are jointly inadmissible")
    gu, gv = np.real(gcu), np.real(gcv)
    gamma, gcurl = _gamma_from_gradient(spec, gu, gv, pot.gamma0, tol)

    if ls:
        a1, a2, a3 = -np.imag(Y), np.real(X), np.imag(Z)
        b1, b2, b3 = -np.imag(W), np.real(Y), np.imag(X)
    else:
        a1, a2, a3 = -np.imag(Y), np.real(X), -np.imag(Z)
        b1, b2, b3 = np.imag(W), np.real(Y), np.imag(X)
    coeffs = CoefficientSet.from_arrays(
        spec, lam=lam.values, alpha1=a1, alpha2=a2, alpha3=a3,
        beta1=b1, beta2=b2, beta3=b3, mu1=gu, mu2=gv)

    identities = {
        "mobius_conj_k": mobius,
        "pythagoras": pyth,
        "sum_W": float(np.max(np.abs(np.real(W) - np.real(X)))),
        "sum_Y": float(np.max(np.abs(np.real(Y) - np.real(Z)))),
        "B_reality": reality,
    }
    witness = float(np.min(np.abs(X**2 * np.conj(Y) ** 2 - np.conj(X) ** 2 * Y**2)))
    cert = certify(coeffs, case, identities, witness)
    cert["gamma_curl"] = gcurl
    cert["gamma_realness"] = realness
    extras = {"k": FieldGrid(spec, k), "gamma": FieldGrid(spec, gamma)}
    return FamilyResult(coeffs, cert, extras)
