import warnings

import numpy as np
import pytest

from normalflat import CaseSpec, CoefficientSet, FieldGrid, GridSpec, gcr
from normalflat.families import build_nt_light_family
from normalflat.gcr import (
    NonIntegrableError,
    codazzi_residual,
    curvature_minus_l0,
    dependence_minors,
    dependence_report,
    detect_parallel_normal,
    gamma_potential,
    gauss_residual,
    gcr_residuals,
    normal_flatness_defect,
    ricci_residual,
)
from normalflat.grid import residual_tolerance

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


def test_gcr_residuals_keep_the_flatness(unit_spec, case_r):
    # the Ricci left side is the flatness defect; it joins the pass rule
    _, V = unit_spec.mesh()
    coeffs = CoefficientSet.from_arrays(unit_spec, mu1=V, alpha1=-1.0, beta3=-1.0)
    res = gcr_residuals(coeffs, case_r)
    assert res.flatness.values.tobytes() == normal_flatness_defect(coeffs).values.tobytes()
    assert res.ricci.values.tobytes() == ricci_residual(coeffs, case_r).values.tobytes()
    assert res.max_abs() == pytest.approx(1.0) and res.flatness.max_abs() == pytest.approx(1.0)
    assert not res.passed(0.5) and res.passed(1.5)


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
    rep = dependence_report(coeffs, CaseSpec("NT", 0.0))
    assert rep.variant == "light" and rep.satisfied and rep.eps == 1
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


def test_dependence_angle_is_recovered_only_where_the_condition_holds(
        flat_torus, unit_spec, case_r, monkeypatch):
    def recover(*args, **kwargs):
        raise AssertionError("an angle was recovered on a failing set")

    # the generic angle is unwrapped, the hyperbolic ones are an arctanh
    monkeypatch.setattr(gcr.np, "unwrap", recover)
    monkeypatch.setattr(gcr.np, "arctanh", recover)
    random = random_coefficients(np.random.default_rng(5), unit_spec)
    d = random.arrays()

    def scaled(k):  # beta times k: the median |beta| / |alpha| above 1 (k = 4) or below
        return CoefficientSet.from_arrays(unit_spec, **{
            name.replace("lambda", "lam"): k * x if name.startswith("beta") else x
            for name, x in d.items()})

    for coeffs, case, variant in ((flat_torus, case_r, "generic"),
                                  (random, case_r, "generic"),
                                  (scaled(4.0), CaseSpec("NT", 0.0), "space"),
                                  (scaled(0.25), CaseSpec("LS", 0.0), "time")):
        rep = dependence_report(coeffs, case)
        assert rep.variant == variant and not rep.satisfied and rep.angle is None


def _dependent_rows(unit_spec, variant):
    """alpha = p x, beta = q x with (p, q) = (-sin, cos) of theta = 3u + 2v
    (generic), (-sinh, cosh) of t+ (space) or (cosh, -sinh) of t- (time);
    x has no zero, and theta spans more than pi, so that it unwraps.
    Returns (the angle, the coefficients)."""
    U, V = unit_spec.mesh()
    t = 3 * U + 2 * V if variant == "generic" else 0.3 + 0.5 * U - 0.4 * V
    p, q = {"generic": (-np.sin(t), np.cos(t)), "space": (-np.sinh(t), np.cosh(t)),
            "time": (np.cosh(t), -np.sinh(t))}[variant]
    x = (1 + 0.2 * U, 0.5 + 0 * U, 0.3 + V)
    return t, CoefficientSet.from_arrays(unit_spec,
                                         **{f"alpha{k + 1}": p * x[k] for k in range(3)},
                                         **{f"beta{k + 1}": q * x[k] for k in range(3)})


def _angle_error(angle, want, generic):
    """max |angle - want| in units of the spacing of max |want|, after the
    constant multiple of pi a generic angle may differ by."""
    diff = angle - want
    if generic:
        diff = diff - np.pi * np.round(diff[0, 0] / np.pi)
    return np.max(np.abs(diff)) / np.spacing(np.max(np.abs(want)))


@pytest.mark.parametrize("variant, case", [("generic", CaseSpec("R", 0.0)),
                                           ("space", CaseSpec("NT", 0.0)),
                                           ("time", CaseSpec("LS", 0.0))])
def test_dependence_angle_where_the_condition_holds(unit_spec, variant, case):
    # the recovered angle is the one the rows were built from: theta mod pi
    # (a constant multiple of pi once unwrapped), t+ or t-
    t, coeffs = _dependent_rows(unit_spec, variant)
    rep = dependence_report(coeffs, case)
    assert rep.variant == variant and rep.satisfied
    if variant == "generic":
        assert np.ptp(t) > np.pi  # theta mod pi wrapped
    assert _angle_error(rep.angle.values, t, variant == "generic") <= 4


def _dependent_patch(kind):
    """beta = -alpha / 2 (time) or alpha = -beta / 2 (space), except on a 4x4
    patch where the larger row is 0 and the other is (0.4, 0, -0.4): the
    rows are dependent everywhere, but no t- (t+) solves the condition there."""
    spec = GridSpec.over_box((0.0, 1.0), (0.0, 1.0), 33, 33)
    U, _ = spec.mesh()
    s = 1 + 0.3 * U
    big = np.stack([s, 0 * s, 0.5 * s])
    small = -big / 2
    patch = (slice(None), slice(10, 14), slice(20, 24))
    big[patch] = 0.0
    small[patch] = np.array([0.4, 0.0, -0.4])[:, None, None]
    a, b = (big, small) if kind == "time" else (small, big)
    return CoefficientSet.from_arrays(spec, **{f"alpha{k + 1}": a[k] for k in range(3)},
                                      **{f"beta{k + 1}": b[k] for k in range(3)})


@pytest.mark.parametrize("kind", ["time", "space"])
@pytest.mark.parametrize("case_id", ["NT", "LS"])
def test_dependence_fails_where_the_dividing_row_vanishes_alone(kind, case_id):
    # on the patch tanh(t) would be 0/0: the condition fails instead of
    # reading t = 0 there
    coeffs, case = _dependent_patch(kind), CaseSpec(case_id, 0.0)
    assert np.max(dependence_minors(coeffs).values) == 0.0
    rep = dependence_report(coeffs, case)
    assert rep.variant == kind and not rep.satisfied and rep.angle is None
    with np.errstate(all="raise"):  # the CLI's floating-point state
        det = detect_parallel_normal(coeffs, case)
    assert det.verdict == "none" and det.field_kind == ""


def _transform(coeffs, case, phi):
    """(alpha, beta) -> (c alpha + s beta, -s alpha + c beta) with (c, s) =
    (cos, sin) of phi on a definite normal bundle, or (alpha, beta) ->
    (c alpha + s beta, s alpha + c beta) with (cosh, sinh) on NT and LS."""
    d = coeffs.arrays()
    n1, n2 = case.n_signs
    c, s, k = (np.cos(phi), np.sin(phi), -1) if n1 == n2 else (np.cosh(phi), np.sinh(phi), 1)
    rows = {}
    for i in (1, 2, 3):
        a, b = d[f"alpha{i}"], d[f"beta{i}"]
        rows[f"alpha{i}"], rows[f"beta{i}"] = c * a + s * b, k * s * a + c * b
    return CoefficientSet.from_arrays(coeffs.spec, lam=d["lambda"], mu1=d["mu1"], mu2=d["mu2"],
                                      **rows)


@pytest.mark.parametrize("variant, case_id", [("generic", "R"), ("generic", "NS"),
                                              ("generic", "LT"), ("space", "NT"),
                                              ("time", "NT"), ("space", "LS"), ("time", "LS")])
def test_dependence_angle_is_gauge_covariant(unit_spec, variant, case_id):
    # a constant rotation (boost) of the normal frame by phi keeps the
    # variant and the verdict, and shifts the angle by -phi
    _, coeffs = _dependent_rows(unit_spec, variant)
    case, phi = CaseSpec(case_id, 0.0), 0.3
    rep = dependence_report(coeffs, case)
    moved = dependence_report(_transform(coeffs, case, phi), case)
    assert rep.variant == moved.variant == variant and rep.satisfied and moved.satisfied
    assert _angle_error(moved.angle.values, rep.angle.values - phi, variant == "generic") <= 4


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


def _nt_hyperbolic_set(kind):
    """The space- and time-likely NT sets of test_detect_nt_space_and_time_variants."""
    spec = GridSpec.over_box((0.0, 1.0), (0.0, 1.0), 49, 49)
    U, V = spec.mesh()
    t = (1.0 if kind == "space" else 0.5) + 0.3 * V
    m = (np.sinh(t) if kind == "space" else np.cosh(t)) * (1 + 0.1 * U**2)
    ratio = np.cosh(t) / np.sinh(t) if kind == "space" else np.tanh(t)
    return CoefficientSet.from_arrays(spec, alpha1=m, beta1=-ratio * m,
                                      mu1=np.zeros_like(U), mu2=0.3 * np.ones_like(U))


@pytest.mark.parametrize("kind", ["space", "time"])
def test_hyperbolic_field_is_ambient_parallel(kind):
    """The space and time branches of parallel_field_coefficients: xi =
    c1 N1 + c2 N2 on the integrated frame is constant; with the sign of c2
    flipped it is not."""
    from normalflat.gcr import parallel_field_coefficients
    from normalflat.grid import _diff_along
    from normalflat.integrator import integrate_frame

    coeffs, case = _nt_hyperbolic_set(kind), CaseSpec("NT", 0.0)
    rep = detect_parallel_normal(coeffs, case)
    assert rep.verdict == "parallel-exists" and rep.field_kind == kind
    c1, c2 = parallel_field_coefficients(rep, coeffs)
    field, _ = integrate_frame(coeffs, case)
    spec = coeffs.spec

    def d_max(sign):
        xi = (c1.values[..., None] * field.column(2)
              + sign * c2.values[..., None] * field.column(3))
        return max(np.max(np.abs(_diff_along(xi, spec.du, 0))),
                   np.max(np.abs(_diff_along(xi, spec.dv, 1))))

    assert d_max(1) <= 20 * spec.hmax**2
    assert d_max(-1) > 1.0


def test_near_light_rows_have_no_light_field():
    # beta = -1.03 alpha misses alpha + eps beta = 0 by 0.03 |alpha| > 10 h^2
    # (1 + 1.34)^2 = 0.0057: not light, but a space-like dependence with a
    # constant t+, so a space-like parallel field exists
    spec = GridSpec.over_box((0.0, 1.0), (0.0, 1.0), 65, 65)
    U, _ = spec.mesh()
    s = 1.0 + 0.3 * U
    case = CaseSpec("NT", 0.0)
    for factor, kind in ((1.0, "light"), (1.03, "space")):
        rep = detect_parallel_normal(
            CoefficientSet.from_arrays(spec, alpha1=s, beta1=-factor * s), case)
        assert rep.ld.variant == kind and rep.curvature_regime == "equal"
        assert rep.ld.satisfied and rep.verdict == "parallel-exists"
        assert rep.field_kind == kind


def _proportional_rows(c, mu):
    """alpha = (1 + 0.3u, 0, 0), beta = c alpha, lambda = 0 and mu = 0 (mu
    False) or (0.5 + 0.2u, 0) at 65^2: every GCR residual is 0."""
    spec = GridSpec.over_box((0.0, 1.0), (0.0, 1.0), 65, 65)
    U, _ = spec.mesh()
    s = 1.0 + 0.3 * U
    return CoefficientSet.from_arrays(spec, alpha1=s, beta1=c * s,
                                      mu1=0.5 + 0.2 * U if mu else 0.0)


def _ambient_field(rep, coeffs, case):
    """The detected field c1 N1 + c2 N2 on the integrated frame, (nu, nv, 4)."""
    from normalflat.gcr import parallel_field_coefficients
    from normalflat.integrator import integrate_frame

    c1, c2 = parallel_field_coefficients(rep, coeffs)
    field, _ = integrate_frame(coeffs, case)
    return c1.values[..., None] * field.column(2) + c2.values[..., None] * field.column(3)


@pytest.mark.parametrize("mu", [False, True])
@pytest.mark.parametrize("c, kind", [(-2.0, "space"), (-1.03, "space"), (-1.0, "light"),
                                     (-0.97, "time"), (-0.5, "time"), (1.04, "space")])
@pytest.mark.parametrize("case_id", ["NT", "LS"])
def test_decided_variant_names_a_constant_ambient_field(case_id, c, kind, mu):
    # the variant is read off the data, with no band around |c| = 1; the
    # independent oracle is the integrated frame: a parallel normal field is
    # one constant ambient vector.  With mu != 0 gamma is not constant, so
    # only the light field, which absorbs e^{eps gamma}, survives
    coeffs, case = _proportional_rows(c, mu), CaseSpec(case_id, 0.0)
    assert gcr_residuals(coeffs, case).passed(residual_tolerance(coeffs.spec, coeffs.max_abs()))
    rep = detect_parallel_normal(coeffs, case)
    assert rep.ld.variant == kind and rep.ld.satisfied
    exists = not mu or kind == "light"
    assert rep.verdict == ("parallel-exists" if exists else "none")
    if exists:
        assert rep.field_kind == kind
        xi = _ambient_field(rep, coeffs, case).reshape(-1, 4)
        assert np.max(np.ptp(xi, axis=0)) <= 1e-9


def test_no_caller_gives_a_definite_bundle_a_light_field():
    # beta = -alpha on case R: a light field e^{-lambda + eps gamma} (N1 - eps N2)
    # is not null there and not constant; the variant is generic, the verdict
    # none, and a variant can no longer be passed, by position or by name
    coeffs, case = _proportional_rows(-1.0, True), CaseSpec("R", 0.0)
    assert gcr_residuals(coeffs, case).max_abs() == 0.0
    rep = detect_parallel_normal(coeffs, case)
    assert rep.ld.variant == "generic" and rep.verdict == "none" and rep.field_kind == ""
    for call in (lambda: dependence_report(coeffs, case, "light"),
                 lambda: detect_parallel_normal(coeffs, case, "light"),
                 lambda: detect_parallel_normal(coeffs, case, variant="light")):
        with pytest.raises(TypeError):
            call()


def test_dependence_report_and_detect_judge_at_one_level(unit_spec, case_r):
    # constant rows with minor 0.2: above 10 h^2 (1 + 2)^2 = 0.088 of the
    # alpha/beta scale alone, within 10 h^2 (1 + 10)^2 = 1.18 of all coefficients
    coeffs = CoefficientSet.from_arrays(unit_spec, alpha1=2.0, beta1=1.0, beta2=0.1, mu1=10.0)
    ld = dependence_report(coeffs, case_r)
    rep = detect_parallel_normal(coeffs, case_r)
    assert ld.tol == rep.ld.tol == 10 * unit_spec.hmax**2 * 11**2
    assert ld.satisfied and rep.ld.satisfied
    for tol in (1e-3, 0.5):
        assert dependence_report(coeffs, case_r, tol=tol).tol == tol
        assert detect_parallel_normal(coeffs, case_r, tol=tol).ld.tol == tol


def test_detect_notes_a_failed_gauss_equation():
    # the NT light set has lambda = 0 and K = 0: K - L0 is read off the second
    # form, so the regime and the verdict cannot see L0 = 1; the Gauss note can
    spec = GridSpec.over_box((0, 1), (0, 1), 33, 33)
    U, _ = spec.mesh()
    coeffs = build_nt_light_family(spec, FieldGrid(spec, 0.3 * U), lambda u: 1 + 0.1 * u,
                                   CaseSpec("NT", 0.0)).coeffs
    for l0 in (0.0, 1.0):
        case = CaseSpec("NT", l0)
        rep = detect_parallel_normal(coeffs, case)
        gauss = gauss_residual(coeffs, case).max_abs()
        assert rep.verdict == "parallel-exists" and rep.curvature_regime == "equal"
        if l0:
            assert gauss == pytest.approx(1.0, abs=1e-12)
            assert rep.notes == [f"Gauss equation fails at L0 = 1 (residual {gauss:.3e})"]
        else:
            assert gauss <= rep.ld.tol and rep.notes == []
