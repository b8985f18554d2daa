import warnings

import numpy as np
import pytest

from normalflat import CaseSpec, CoefficientSet, FieldGrid, GridSpec
from normalflat.gcr import (
    NonIntegrableError,
    codazzi_residual,
    curvature_minus_l0,
    dependence_minors,
    dependence_report,
    detect_parallel_normal,
    gamma_potential,
    gauss_residual,
    normal_flatness_defect,
    ricci_residual,
)

from conftest import random_coefficients


# --------------------------------------------------------------------------
# scalar residuals
# --------------------------------------------------------------------------

def test_gauss_flat_torus_zero(flat_torus, case_r):
    assert gauss_residual(flat_torus, case_r).max_abs() == 0.0


def test_gauss_zero_coefficients(unit_spec, case_r):
    coeffs = CoefficientSet.from_arrays(unit_spec)
    assert gauss_residual(coeffs, case_r).max_abs() == 0.0


def test_gauss_alpha2_one(unit_spec, case_r):
    coeffs = CoefficientSet.from_arrays(unit_spec, alpha2=1.0)
    res = gauss_residual(coeffs, case_r)
    assert np.allclose(res.values, -1.0)


def test_codazzi_flat_torus(flat_torus, case_r):
    assert all(r.max_abs() == 0.0 for r in codazzi_residual(flat_torus, case_r))


def test_codazzi_alpha1_v(unit_spec, case_r):
    _, V = unit_spec.mesh()
    coeffs = CoefficientSet.from_arrays(unit_spec, alpha1=V)
    res = codazzi_residual(coeffs, case_r)
    assert np.max(np.abs(res[0].values - 1.0)) < 1e-12
    assert all(r.max_abs() < 1e-12 for r in res[1:])


def test_ricci_flat_torus(flat_torus, case_r):
    assert ricci_residual(flat_torus, case_r).max_abs() == 0.0


def test_ricci_mu1_v(unit_spec, case_r):
    _, V = unit_spec.mesh()
    coeffs = CoefficientSet.from_arrays(unit_spec, mu1=V)
    assert np.max(np.abs(ricci_residual(coeffs, case_r).values - 1.0)) < 1e-12


# --------------------------------------------------------------------------
# flatness and the potential
# --------------------------------------------------------------------------

def test_flatness_zero(unit_spec):
    coeffs = CoefficientSet.from_arrays(unit_spec)
    assert normal_flatness_defect(coeffs).max_abs() == 0.0


def test_flatness_gradient_input(unit_spec):
    U, V = unit_spec.mesh()
    coeffs = CoefficientSet.from_arrays(
        unit_spec, mu1=np.cos(U) * np.cos(V), mu2=-np.sin(U) * np.sin(V))
    assert normal_flatness_defect(coeffs).max_abs() <= 5 * unit_spec.hmax**2


def test_flatness_nonflat(unit_spec):
    _, V = unit_spec.mesh()
    coeffs = CoefficientSet.from_arrays(unit_spec, mu1=V)
    assert np.allclose(normal_flatness_defect(coeffs).values, 1.0)


def test_gamma_potential_zero(unit_spec):
    coeffs = CoefficientSet.from_arrays(unit_spec)
    assert gamma_potential(coeffs).max_abs() == 0.0


def test_gamma_potential_linear(unit_spec):
    coeffs = CoefficientSet.from_arrays(unit_spec, mu1=1.0)
    gamma = gamma_potential(coeffs)
    U, _ = unit_spec.mesh()
    assert np.max(np.abs(gamma.values - U)) < 1e-12


def test_gamma_potential_closed_form():
    spec = GridSpec.over_box((0.0, 1.0), (0.0, 1.0), 65, 65)
    U, V = spec.mesh()
    coeffs = CoefficientSet.from_arrays(
        spec, mu1=np.cos(U) * np.cos(V), mu2=-np.sin(U) * np.sin(V))
    gamma = gamma_potential(coeffs)
    exact = np.sin(U) * np.cos(V) - np.sin(0.0) * np.cos(0.0)
    assert np.max(np.abs(gamma.values - exact)) <= 5 * spec.hmax**2


def test_gamma_potential_gradient_property(unit_spec):
    from normalflat.grid import _diff_along
    rng = np.random.default_rng(0)
    U, V = unit_spec.mesh()
    g = 0.3 * np.sin(U + 0.2) * np.cos(V)
    coeffs = CoefficientSet.from_arrays(
        unit_spec,
        mu1=0.3 * np.cos(U + 0.2) * np.cos(V),
        mu2=-0.3 * np.sin(U + 0.2) * np.sin(V))
    gamma = gamma_potential(coeffs)
    du_err = _diff_along(gamma.values, unit_spec.du, 0) - coeffs.mu1.values
    dv_err = _diff_along(gamma.values, unit_spec.dv, 1) - coeffs.mu2.values
    assert np.max(np.abs(du_err)) <= 10 * unit_spec.hmax**2
    assert np.max(np.abs(dv_err)) <= 10 * unit_spec.hmax**2


def test_gamma_potential_rejects_nonflat(unit_spec):
    _, V = unit_spec.mesh()
    coeffs = CoefficientSet.from_arrays(unit_spec, mu1=V)
    with pytest.raises(NonIntegrableError):
        gamma_potential(coeffs)


# --------------------------------------------------------------------------
# dependence condition
# --------------------------------------------------------------------------

def test_dependence_flat_torus(flat_torus, case_r):
    rep = dependence_report(flat_torus, case_r)
    assert not rep.satisfied
    assert np.allclose(rep.defect.values, 1.0)  # alpha1*beta3 - alpha3*beta1 = 1


def test_dependence_hyperplane(sphere_hyperplane, case_r):
    rep = dependence_report(sphere_hyperplane, case_r)
    assert rep.satisfied and rep.variant == "generic"
    assert np.max(rep.defect.values) == 0.0
    assert np.allclose(rep.angle.values, np.pi / 2)


def test_dependence_light_proportional(unit_spec):
    U, _ = unit_spec.mesh()
    s = 1.0 + U**2
    coeffs = CoefficientSet.from_arrays(unit_spec, alpha1=s, beta1=-s)
    rep = dependence_report(coeffs, CaseSpec("NT", 0.0), "light")
    assert rep.satisfied and rep.eps == 1
    assert np.max(rep.defect.values) == 0.0


def test_dependence_auto_classification(unit_spec):
    U, _ = unit_spec.mesh()
    s = 1.0 + 0.3 * U
    case_nt = CaseSpec("NT", 0.0)
    # |beta| > |alpha|: space-likely; |beta| < |alpha|: time-likely
    rep = dependence_report(CoefficientSet.from_arrays(
        unit_spec, alpha1=s, beta1=-2 * s), case_nt)
    assert rep.variant == "space" and rep.satisfied
    rep = dependence_report(CoefficientSet.from_arrays(
        unit_spec, alpha1=s, beta1=-0.5 * s), case_nt)
    assert rep.variant == "time" and rep.satisfied
    rep = dependence_report(CoefficientSet.from_arrays(
        unit_spec, alpha1=s, beta1=-s), case_nt)
    assert rep.variant == "light" and rep.satisfied


def test_dependence_gauge_covariance(unit_spec, case_r):
    rng = np.random.default_rng(11)
    coeffs = random_coefficients(rng, unit_spec)
    base = dependence_minors(coeffs).values
    c = 0.7
    cs, sn = np.cos(c), np.sin(c)
    d = coeffs.arrays()
    rotated = CoefficientSet.from_arrays(
        unit_spec, lam=d["lambda"],
        alpha1=cs * d["alpha1"] + sn * d["beta1"],
        alpha2=cs * d["alpha2"] + sn * d["beta2"],
        alpha3=cs * d["alpha3"] + sn * d["beta3"],
        beta1=-sn * d["alpha1"] + cs * d["beta1"],
        beta2=-sn * d["alpha2"] + cs * d["beta2"],
        beta3=-sn * d["alpha3"] + cs * d["beta3"],
        mu1=d["mu1"], mu2=d["mu2"])
    assert np.max(np.abs(dependence_minors(rotated).values - base)) < 1e-12


def test_degenerate_report(unit_spec, case_r):
    coeffs = CoefficientSet.from_arrays(unit_spec)
    rep = dependence_report(coeffs, case_r)
    assert rep.degenerate


# --------------------------------------------------------------------------
# parallel normal detection
# --------------------------------------------------------------------------

def test_detect_hyperplane(sphere_hyperplane, case_r):
    rep = detect_parallel_normal(sphere_hyperplane, case_r)
    assert rep.verdict == "parallel-exists"
    assert rep.curvature_regime == "nowhere-equal"
    assert rep.gamma_angle_defect <= 1e-10


def test_detect_flat_torus(flat_torus, case_r):
    rep = detect_parallel_normal(flat_torus, case_r)
    assert rep.verdict == "none"
    assert rep.curvature_regime == "equal"


def test_detect_degenerate(unit_spec, case_r):
    zero = CoefficientSet.from_arrays(unit_spec)
    # NT and LS classify the dependence variant from the data, which has none
    for case in (case_r, CaseSpec("NT", 0.0), CaseSpec("LS", 0.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = detect_parallel_normal(zero, case)
        assert rep.verdict == "degenerate"


def test_detect_mixed_curvature_indeterminate(unit_spec, case_r):
    U, _ = unit_spec.mesh()
    coeffs = CoefficientSet.from_arrays(unit_spec, alpha1=U - 0.5, alpha3=1.0)
    rep = detect_parallel_normal(coeffs, case_r)
    assert rep.verdict == "indeterminate"
    assert rep.curvature_regime == "mixed"


def test_detect_nt_space_and_time_variants():
    """Handmade neutral time-like sets with hyperbolic dependence:
    t(v) fields with gamma = t keep the angle combination constant."""
    spec = GridSpec.over_box((0.0, 1.0), (0.0, 1.0), 49, 49)
    U, V = spec.mesh()
    case = CaseSpec("NT", 0.0)

    # space-likely: beta = -coth(t+) alpha, m = sinh(t+) * C(u)
    t_plus = 1.0 + 0.3 * V
    m = np.sinh(t_plus) * (1 + 0.1 * U**2)
    coeffs = CoefficientSet.from_arrays(
        spec, alpha1=m, beta1=-np.cosh(t_plus) / np.sinh(t_plus) * m,
        mu1=np.zeros_like(U), mu2=0.3 * np.ones_like(U))
    from normalflat.gcr import gcr_residuals
    assert gcr_residuals(coeffs, case).max_abs() <= 20 * spec.hmax**2 * 10
    rep = detect_parallel_normal(coeffs, case)
    assert rep.ld.variant == "space"
    assert rep.verdict == "parallel-exists"

    # time-likely: beta = -tanh(t-) alpha, m = cosh(t-) * C(u)
    t_minus = 0.5 + 0.3 * V
    m = np.cosh(t_minus) * (1 + 0.1 * U**2)
    coeffs = CoefficientSet.from_arrays(
        spec, alpha1=m, beta1=-np.tanh(t_minus) * m,
        mu1=np.zeros_like(U), mu2=0.3 * np.ones_like(U))
    assert gcr_residuals(coeffs, case).max_abs() <= 20 * spec.hmax**2 * 10
    rep = detect_parallel_normal(coeffs, case)
    assert rep.ld.variant == "time"
    assert rep.verdict == "parallel-exists"

    # breaking the constancy (gamma != t_pm) flips the verdict
    coeffs = CoefficientSet.from_arrays(
        spec, alpha1=m, beta1=-np.tanh(t_minus) * m,
        mu1=np.zeros_like(U), mu2=np.zeros_like(U))
    rep = detect_parallel_normal(coeffs, case)
    assert rep.verdict == "none"
    assert rep.gamma_angle_defect > 0.25


def test_detected_field_is_ambient_parallel(sphere_hyperplane, case_r):
    """End to end: the reported field, carried by the integrated frame,
    has vanishing flat derivative (the defining property)."""
    from normalflat.gcr import parallel_field_coefficients
    from normalflat.grid import _diff_along
    from normalflat.integrator import integrate_frame

    rep = detect_parallel_normal(sphere_hyperplane, case_r)
    c1, c2 = parallel_field_coefficients(rep, sphere_hyperplane)
    field, _ = integrate_frame(sphere_hyperplane, case_r)
    xi = c1.values[..., None] * field.column(2) + c2.values[..., None] * field.column(3)
    spec = sphere_hyperplane.spec
    d_max = max(np.max(np.abs(_diff_along(xi, spec.du, 0))),
                np.max(np.abs(_diff_along(xi, spec.dv, 1))))
    assert d_max <= 20 * spec.hmax**2


def test_parallel_field_requires_verdict(flat_torus, case_r):
    from normalflat.gcr import parallel_field_coefficients
    rep = detect_parallel_normal(flat_torus, case_r)
    with pytest.raises(ValueError):
        parallel_field_coefficients(rep, flat_torus)


def test_curvature_field_matches_liouville():
    # lambda solving the flat-curvature equation with zero second form
    # keeps both the Gauss residual and the K - L0 field at the h^2 floor
    spec = GridSpec.over_box((-0.5, 0.5), (-0.5, 0.5), 65, 65)
    U, V = spec.mesh()
    lam = np.log(2.0 / (1.0 + U**2 + V**2))
    coeffs = CoefficientSet.from_arrays(spec, lam=lam)
    case = CaseSpec("R", 1.0)
    assert gauss_residual(coeffs, case).max_abs() <= 50 * spec.hmax**2
    assert np.max(np.abs(curvature_minus_l0(coeffs, case).values)) == 0.0
