import numpy as np
import pytest
import sympy as sp

from normalflat import CaseSpec, FieldGrid, GridSpec
from normalflat.families import (
    FamilyInputError,
    NotldPotentials,
    PhiFamilyInput,
    angle_link,
    build_notld_family,
    build_nt_light_family,
    build_phi_family,
    build_product_family,
    phi_equation_residual,
    rotation_angle,
)
from normalflat.gcr import NonIntegrableError, detect_parallel_normal
from normalflat.integrator import SignatureError, SurfaceMesh, reconstruct_coefficients
from normalflat.riccati import DegenerateFormsError, build_forms


@pytest.fixture
def spec():
    return GridSpec.over_box((0.0, 1.0), (0.0, 1.0), 49, 49)


# --------------------------------------------------------------------------
# product family
# --------------------------------------------------------------------------

def test_product_unit_circles(spec):
    res = build_product_family(1.0, 1.0, CaseSpec("R", 0.0), spec)
    co = res.coeffs
    assert np.all(co.lam.values == 0.0)
    assert np.all(co.alpha1.values == -1.0)
    assert np.all(co.beta3.values == -1.0)
    assert co.alpha2.max_abs() == 0.0 and co.beta1.max_abs() == 0.0
    assert res.certificate["residual_max"] <= 1e-12
    assert res.certificate["k_pm_identically_zero"]
    assert res.certificate["passed"]


def test_product_radius_two(spec):
    res = build_product_family(2.0, 2.0, CaseSpec("R", 0.0), spec)
    assert np.allclose(res.coeffs.lam.values, np.log(2.0))
    assert res.certificate["residual_max"] <= 1e-12


def test_product_rejects_unequal_radii(spec):
    with pytest.raises(FamilyInputError):
        build_product_family(1.0, 2.0, CaseSpec("R", 0.0), spec)


def test_product_rejects_wrong_case(spec):
    with pytest.raises(FamilyInputError):
        build_product_family(1.0, 1.0, CaseSpec("NT", 0.0), spec)


# --------------------------------------------------------------------------
# phi family
# --------------------------------------------------------------------------

def _phi_input(spec, xi):
    U, _ = spec.mesh()
    return PhiFamilyInput(
        lam=FieldGrid.constant(spec, 0.0),
        phi=FieldGrid(spec, U),
        theta=FieldGrid.constant(spec, np.pi / 4),
        xi=xi)


def test_phi_flat_instance_values(spec):
    res = build_phi_family(_phi_input(spec, lambda s: s), CaseSpec("R", 0.0))
    co = res.coeffs
    r = np.sqrt(2) / 2
    assert np.allclose(co.alpha1.values, r)
    assert np.allclose(co.beta1.values, -r)
    assert co.alpha2.max_abs() == 0.0 and co.alpha3.max_abs() == 0.0
    U, _ = spec.mesh()
    assert np.allclose(res.extras["gamma"].values, U - np.pi / 4)
    assert res.certificate["residual_max"] <= 10 * spec.hmax**2 * 2
    assert res.certificate["k_minus_l0_defect"] <= 1e-12


def test_phi_xi_controls_parallel_field(spec):
    case = CaseSpec("R", 0.0)
    rep0 = detect_parallel_normal(
        build_phi_family(_phi_input(spec, None), case).coeffs, case)
    assert rep0.verdict == "parallel-exists"
    rep1 = detect_parallel_normal(
        build_phi_family(_phi_input(spec, lambda s: s), case).coeffs, case)
    assert rep1.verdict == "none"
    assert rep1.gamma_angle_defect >= 0.5
    assert rep1.ld.satisfied


@pytest.mark.parametrize("case_id", ["R", "NS"])
def test_phi_general_potential(spec, case_id):
    # any reparametrized plane-wave potential solves the compatibility
    # equation when the conformal factor is constant
    U, V = spec.mesh()
    inp = PhiFamilyInput(
        lam=FieldGrid.constant(spec, 0.0),
        phi=FieldGrid(spec, np.exp(0.3 * (U + 2 * V))),
        theta=FieldGrid(spec, np.pi / 4 + 0.3 * U),
        xi=lambda s: s * s)
    res = build_phi_family(inp, CaseSpec(case_id, 0.0))
    assert res.certificate["passed"], res.certificate
    assert res.certificate["dependence_minors_max"] <= 1e-10


def test_phi_lt_case(spec):
    U, _ = spec.mesh()
    inp = PhiFamilyInput(
        lam=FieldGrid.constant(spec, 0.0),
        phi=FieldGrid(spec, U),
        theta=FieldGrid(spec, np.pi / 4 + 0.2 * U),
        xi=lambda s: np.sin(s))
    res = build_phi_family(inp, CaseSpec("LT", 0.0))
    assert res.certificate["passed"], res.certificate


def test_phi_liouville_background():
    # curved ambient: lambda solves its equation with L0 = 1, phi = angle
    # potential is not admissible there, so only check the lambda gate
    spec = GridSpec.over_box((-0.5, 0.5), (-0.5, 0.5), 49, 49)
    U, V = spec.mesh()
    lam = FieldGrid(spec, np.log(2.0 / (1.0 + U**2 + V**2)))
    inp = PhiFamilyInput(lam=lam, phi=FieldGrid(spec, U),
                         theta=FieldGrid.constant(spec, np.pi / 4), xi=None)
    with pytest.raises(FamilyInputError):  # phi = u violates (grad-phi, lam) link
        build_phi_family(inp, CaseSpec("R", 1.0))


def test_phi_rejects_bad_theta(spec):
    inp = _phi_input(spec, None)
    inp = PhiFamilyInput(inp.lam, inp.phi, FieldGrid.constant(spec, np.pi / 2), None)
    with pytest.raises(FamilyInputError):
        build_phi_family(inp, CaseSpec("R", 0.0))


def test_phi_rejects_bad_potential(spec):
    U, V = spec.mesh()
    bad = PhiFamilyInput(
        lam=FieldGrid.constant(spec, 0.0),
        phi=FieldGrid(spec, (U + 0.5) ** 2 + (V + 0.5) ** 2),
        theta=FieldGrid.constant(spec, np.pi / 4), xi=None)
    assert phi_equation_residual(bad.phi, bad.lam).max_abs() > 1.0
    with pytest.raises(FamilyInputError):
        build_phi_family(bad, CaseSpec("R", 0.0))


def test_phi_rejects_wrong_lambda(spec):
    U, _ = spec.mesh()
    inp = PhiFamilyInput(
        lam=FieldGrid(spec, U),  # not a flat-curvature solution for L0 = 1
        phi=FieldGrid(spec, U),
        theta=FieldGrid.constant(spec, np.pi / 4), xi=None)
    with pytest.raises(FamilyInputError):
        build_phi_family(inp, CaseSpec("R", 1.0))


# --------------------------------------------------------------------------
# light-dependent family (neutral time-like)
# --------------------------------------------------------------------------

def test_nt_light_family(spec):
    case = CaseSpec("NT", 0.0, eps=1)
    U, V = spec.mesh()
    gamma = FieldGrid(spec, 0.3 * U + 0.1 * np.sin(V))
    res = build_nt_light_family(spec, gamma, lambda u: 1 + 0.2 * u**2, case)
    assert res.certificate["passed"], res.certificate
    assert res.certificate["light_dependence_defect"] == 0.0
    rep = detect_parallel_normal(res.coeffs, case)
    assert rep.verdict == "parallel-exists"
    assert rep.field_kind == "light" and rep.ld.eps == 1


def test_nt_light_eps_minus(spec):
    case = CaseSpec("NT", 0.0, eps=-1)
    gamma = FieldGrid.constant(spec, 0.2)
    res = build_nt_light_family(spec, gamma, lambda u: np.ones_like(u), case)
    rep = detect_parallel_normal(res.coeffs, case)
    assert rep.verdict == "parallel-exists" and rep.ld.eps == -1


# --------------------------------------------------------------------------
# angle link
# --------------------------------------------------------------------------

def test_angle_link_constant_rotation(spec):
    U, V = spec.mesh()
    c = 0.9
    f_plus, curl = angle_link(FieldGrid(spec, U), FieldGrid.constant(spec, c),
                              CaseSpec("R", 0.0))
    assert curl <= 1e-12
    assert np.max(np.abs(f_plus.values - (-np.sin(c) * U + np.cos(c) * V))) < 1e-10


def test_angle_link_serves_the_real_cases_only(spec):
    U, V = spec.mesh()
    f = FieldGrid(spec, (1 + 1j) * U + (np.sqrt(2) - 1j / np.sqrt(2)) * V)
    for case in (CaseSpec("LS", 0.0), CaseSpec("LT", 0.0)):
        with pytest.raises(ValueError, match="rotation_angle"):
            angle_link(f, None, case)


def test_angle_link_rejects_inadmissible_angle(spec):
    U, V = spec.mesh()
    with pytest.raises(NonIntegrableError):
        angle_link(FieldGrid(spec, U), FieldGrid(spec, U * V), CaseSpec("R", 0.0))


def test_angle_link_nt_branches(spec):
    U, V = spec.mesh()
    rho0 = 0.7
    f = FieldGrid(spec, U)
    fp, _ = angle_link(f, FieldGrid.constant(spec, rho0), CaseSpec("NT", 0.0, eps=1))
    assert np.max(np.abs(fp.values - (np.cosh(rho0) * U + np.sinh(rho0) * V))) < 1e-10
    fm, _ = angle_link(f, FieldGrid.constant(spec, rho0), CaseSpec("NT", 0.0, eps=-1))
    assert np.max(np.abs(fm.values - (np.sinh(rho0) * U + np.cosh(rho0) * V))) < 1e-10


def test_rotation_angle_complex(spec):
    U, V = spec.mesh()
    f = FieldGrid(spec, (1 + 1j) * U + (np.sqrt(2) - 1j / np.sqrt(2)) * V)
    psi, resid = rotation_angle(f, CaseSpec("LS", 0.0))
    assert resid < 1e-10
    # A = B cos(psi), C = -B sin(psi) with A = sqrt(2), B = 1.5, C = -0.5
    assert np.allclose(np.cos(psi.values), np.sqrt(2) / 1.5)
    assert np.allclose(np.sin(psi.values), 0.5 / 1.5)


def test_rotation_angle_ls_rejects_vanishing_b(spec):
    # f = (1 + i)(u + v): B = Re(f_u^2 + f_v^2) = Re(4i) = 0 everywhere
    U, V = spec.mesh()
    with pytest.raises(FamilyInputError, match="B vanishes"):
        rotation_angle(FieldGrid(spec, (1 + 1j) * (U + V)), CaseSpec("LS", 0.0))


def test_rotation_angle_lt_matches_derived_relation(spec):
    # Derive the LT rotation from the conjugate relation alone:
    # (conj f)_u = c f_u + s f_v and (conj f)_v = -s f_u - c f_v, with
    # f_u = a + i b and f_v = p + i q.  The u relation fixes (c, s).
    a, b, p, q, c, s = sp.symbols("a b p q c s", real=True)
    fu, fv = a + sp.I * b, p + sp.I * q
    rel_u = sp.conjugate(fu) - (c * fu + s * fv)
    rel_v = sp.conjugate(fv) + (s * fu + c * fv)
    sol = sp.solve([sp.re(rel_u), sp.im(rel_u)], [c, s], dict=True)[0]
    # f_u^2 - f_v^2 real means a b = p q; then the v relation follows and
    # (c, s) is a hyperbolic pair, c^2 - s^2 = 1
    real = {q: a * b / p}
    for expr in (sp.re(rel_v), sp.im(rel_v), c**2 - s**2 - 1):
        assert sp.simplify(expr.subs(sol).subs(real)) == 0

    # the LT potential of the frame round trip: f_u = 1 + i, f_v = sqrt 2 + i/sqrt 2
    U, V = spec.mesh()
    f = FieldGrid(spec, (1 + 1j) * U + (np.sqrt(2) + 1j / np.sqrt(2)) * V)
    at = {a: 1, b: 1, p: sp.sqrt(2), q: 1 / sp.sqrt(2)}
    c0, s0 = (float(sol[x].subs(at)) for x in (c, s))
    delta = int(np.sign(c0))
    psi, resid = rotation_angle(f, CaseSpec("LT", 0.0, delta=delta))
    assert resid <= 1e-12
    assert np.max(np.abs(np.sinh(psi.values) - s0)) <= 1e-12
    assert np.max(np.abs(delta * np.cosh(psi.values) - c0)) <= 1e-12
    with pytest.raises(FamilyInputError, match="delta inconsistent"):
        rotation_angle(f, CaseSpec("LT", 0.0, delta=-delta))


# --------------------------------------------------------------------------
# not-linearly-dependent pipelines
# --------------------------------------------------------------------------

def _pot_r(spec, theta_minus):
    U, _ = spec.mesh()
    return NotldPotentials(
        f_minus=FieldGrid(spec, U),
        angle=FieldGrid.constant(spec, 1.2),
        theta_minus=theta_minus)


def test_notld_r_constant_desk(spec):
    res = build_notld_family(_pot_r(spec, FieldGrid.constant(spec, 0.5)),
                             CaseSpec("R", 0.0))
    cert = res.certificate
    assert cert["residual_max"] <= 1e-10
    assert cert["flatness_defect"] <= 1e-10
    assert cert["k_minus_l0_defect"] <= 1e-10
    assert cert["nondependence_witness_min"] > 1e-3
    assert all(v <= 1e-10 for v in cert["identities"].values()), cert["identities"]
    # gamma is constant here, all coefficient fields constant
    assert res.extras["gamma"].max_abs() <= 1e-12


def test_notld_r_varying_theta(spec):
    U, _ = spec.mesh()
    res = build_notld_family(_pot_r(spec, FieldGrid(spec, 0.5 + 0.2 * np.sin(U))),
                             CaseSpec("R", 0.0))
    assert res.certificate["passed"], res.certificate
    assert res.certificate["nondependence_witness_min"] > 1e-3
    assert res.coeffs.mu1.max_abs() > 0.01  # genuinely nonconstant data


def test_notld_ns_shares_pipeline(spec):
    U, _ = spec.mesh()
    res = build_notld_family(_pot_r(spec, FieldGrid(spec, 0.5 + 0.2 * np.sin(U))),
                             CaseSpec("NS", 0.0))
    assert res.certificate["passed"], res.certificate


def test_notld_r_branch_violation(spec):
    # theta_minus above the rotation angle flips the sign of A k- + C
    with pytest.raises(FamilyInputError):
        build_notld_family(_pot_r(spec, FieldGrid.constant(spec, 1.3)),
                           CaseSpec("R", 0.0))


def _pot_nt(spec, eps_prime, t_minus=None):
    U, V = spec.mesh()
    if t_minus is None:
        t_minus = FieldGrid(spec, 0.4 + 0.1 * np.cos(V))
    return NotldPotentials(
        f_minus=FieldGrid(spec, U),
        angle=FieldGrid.constant(spec, 0.7),
        t_minus=t_minus,
        eps_prime=eps_prime)


def test_notld_nt_both_eps_branches(spec):
    res1 = build_notld_family(_pot_nt(spec, 1), CaseSpec("NT", 0.0, eps=1))
    assert res1.certificate["passed"], res1.certificate
    assert all(v <= 1e-10 for v in res1.certificate["identities"].values())
    res2 = build_notld_family(_pot_nt(spec, -1), CaseSpec("NT", 0.0, eps=-1))
    assert res2.certificate["passed"], res2.certificate


def test_notld_nt_branch_condition(spec):
    with pytest.raises(FamilyInputError):
        build_notld_family(_pot_nt(spec, -1), CaseSpec("NT", 0.0, eps=1))


def test_notld_nt_constant_desk(spec):
    res = build_notld_family(_pot_nt(spec, 1, FieldGrid.constant(spec, 0.4)),
                             CaseSpec("NT", 0.0, eps=1))
    assert res.certificate["residual_max"] <= 1e-10
    assert res.certificate["k_minus_l0_defect"] <= 1e-10


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("eps_prime", [1, -1])
@pytest.mark.parametrize("eps", [1, -1])
def test_notld_nt_sign_branches(unit_spec, eps, eps_prime, delta):
    case = CaseSpec("NT", 0.0, eps=eps, delta=delta)
    pot = _pot_nt(unit_spec, eps_prime)
    if (eps, eps_prime, delta) in ((1, -1, 1), (-1, 1, 1)):
        with pytest.raises(FamilyInputError, match=r"branch condition \(A k- \+ C\) B < 0"):
            build_notld_family(pot, case)
        return
    cert = build_notld_family(pot, case).certificate
    assert cert["passed"], cert
    assert all(v <= 1e-10 for v in cert["identities"].values()), cert["identities"]


@pytest.mark.parametrize("case", [CaseSpec("R", 0.0), CaseSpec("NS", 0.0), CaseSpec("NT", 0.0)],
                         ids=["R", "NS", "NT"])
def test_notld_lambda_correction(unit_spec, case):
    # with f_- = u, A = A' and Q = 0, so lambda = 0.1 v adds -kappa 0.1 to mu1
    # and leaves mu2 as it is
    U, V = unit_spec.mesh()
    pot = (_pot_r(unit_spec, FieldGrid(unit_spec, 0.5 + 0.2 * np.sin(U))) if case.kappa > 0
           else _pot_nt(unit_spec, 1))
    base = build_notld_family(pot, case).coeffs
    pot.lam = FieldGrid(unit_spec, 0.1 * V)
    res = build_notld_family(pot, case)
    assert res.certificate["passed"], res.certificate
    assert res.certificate["residual_max"] <= 1e-5
    assert np.max(np.abs(res.coeffs.mu1.values - base.mu1.values + 0.1 * case.kappa)) <= 1e-12
    assert np.array_equal(res.coeffs.mu2.values, base.mu2.values)


def _ls_instance(spec):
    U, V = spec.mesh()
    f = FieldGrid(spec, (1 + 1j) * U + (np.sqrt(2) - 1j / np.sqrt(2)) * V)
    return NotldPotentials(f=f, sigma=FieldGrid.constant(spec, np.pi / 2))


def _lt_instance(spec):
    U, V = spec.mesh()
    f = FieldGrid(spec, (1 + 1j) * U + (np.sqrt(2) + 1j / np.sqrt(2)) * V)
    return NotldPotentials(f=f, sigma=FieldGrid.constant(spec, np.pi / 2))


def test_notld_ls_desk(spec):
    res = build_notld_family(_ls_instance(spec), CaseSpec("LS", 0.0))
    cert = res.certificate
    assert cert["residual_max"] <= 1e-10
    assert cert["nondependence_witness_min"] > 0.1
    assert all(v <= 1e-10 for v in cert["identities"].values()), cert["identities"]


def test_notld_lt_desk(spec):
    res = build_notld_family(_lt_instance(spec), CaseSpec("LT", 0.0))
    cert = res.certificate
    assert cert["residual_max"] <= 1e-10
    assert all(v <= 1e-10 for v in cert["identities"].values()), cert["identities"]
    # hand-computed second form at the gauge k = -i sqrt(2)
    co = res.coeffs
    assert np.allclose(np.abs(co.alpha1.values), 1.0)
    assert np.allclose(np.abs(co.alpha2.values), np.sqrt(2))
    assert np.allclose(np.abs(co.alpha3.values), 2.0)


def test_notld_ls_rejects_bad_reality(spec):
    U, V = spec.mesh()
    pot = NotldPotentials(f=FieldGrid(spec, (1 + 1j) * (U + V)),
                          sigma=FieldGrid.constant(spec, np.pi / 2))
    with pytest.raises(FamilyInputError):
        build_notld_family(pot, CaseSpec("LS", 0.0))


def test_notld_ls_rejects_incompatible_xi(spec):
    # a nonzero xi_tilde breaks the reality of the gamma gradient for
    # this constant-gradient potential
    pot = _ls_instance(spec)
    pot.xi_tilde = lambda s: np.ones_like(s)
    with pytest.raises(NonIntegrableError):
        build_notld_family(pot, CaseSpec("LS", 0.0))


def test_notld_dependence_fails_on_outputs(spec):
    """The constructed sets genuinely violate the dependence condition."""
    case = CaseSpec("R", 0.0)
    res = build_notld_family(_pot_r(spec, FieldGrid.constant(spec, 0.5)), case)
    rep = detect_parallel_normal(res.coeffs, case)
    assert rep.verdict == "none"
    assert not rep.ld.satisfied


# --------------------------------------------------------------------------
# NaN-strict gates
# --------------------------------------------------------------------------

def _with_nan(field):
    """The field with one NaN sample.  FieldGrid refuses NaN at construction,
    so this stands for a NaN made later, by an overflow for instance."""
    field.values[field.spec.nu // 2, field.spec.nv // 2] = np.nan
    return field


def test_gates_reject_nan(spec):
    U, V = spec.mesh()
    for case in (CaseSpec("R", 0.0), CaseSpec("NT", 0.0, eps=1)):
        with pytest.raises(DegenerateFormsError):
            build_forms(_with_nan(FieldGrid(spec, U + 0.3 * V)), 0.0, case)
    notld = [
        (CaseSpec("R", 0.0), _pot_r(spec, _with_nan(FieldGrid(spec, 0.5 + 0.2 * np.sin(U)))),
         "theta_minus"),
        (CaseSpec("NT", 0.0, eps=1),
         _pot_nt(spec, 1, _with_nan(FieldGrid(spec, 0.4 + 0.1 * np.cos(V)))), "t_minus"),
    ]
    for case, make in ((CaseSpec("LS", 0.0), _ls_instance), (CaseSpec("LT", 0.0), _lt_instance)):
        pot = make(spec)
        _with_nan(pot.f)
        notld.append((case, pot, "degenerate potential"))
    for case, pot, match in notld:
        with pytest.raises(FamilyInputError, match=match):
            build_notld_family(pot, case)
    with pytest.raises(NonIntegrableError, match="partner gradient is not closed"):
        angle_link(FieldGrid(spec, U), _with_nan(FieldGrid.constant(spec, 0.7)),
                   CaseSpec("R", 0.0))
    positions = np.stack([np.cos(U), np.sin(U), np.cos(V), np.sin(V)], axis=-1)
    positions[spec.nu // 2, spec.nv // 2, 0] = np.nan
    with pytest.raises(SignatureError):
        reconstruct_coefficients(SurfaceMesh(spec, positions), CaseSpec("R", 0.0))
