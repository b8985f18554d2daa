import numpy as np
import pytest
import sympy as sp

from normalflat import CaseSpec, FieldGrid, GridSpec
from normalflat.grid import _diff_along
from normalflat.riccati import (
    RangeConstraintError,
    RiccatiBlowUpError,
    build_forms,
    forms_from_vectors,
    obstruction_verdict,
    riccati_residual,
    solve_riccati,
)


# --------------------------------------------------------------------------
# form assembly
# --------------------------------------------------------------------------

def test_forms_trivial_instance():
    spec = GridSpec.over_box((0, 1), (0, 1), 33, 33)
    U, _ = spec.mesh()
    forms = build_forms(FieldGrid(spec, U), 0.0, CaseSpec("R", 0.0))
    assert forms.omega_scale() <= 1e-12
    assert forms.obstruction_max() <= 1e-12
    assert obstruction_verdict(forms)[0] == "identically-zero"


def test_wedge_antisymmetry():
    spec = GridSpec.over_box((0, 1), (0, 1), 17, 17)
    U, V = spec.mesh()
    forms = build_forms(FieldGrid(spec, U + V**2 / 2),
                        lambda s: s, CaseSpec("R", 0.0))
    for w in (forms.omega0, forms.omega1, forms.omega2):
        assert np.max(np.abs(w.wedge(w))) == 0.0


def _sym_case_r_forms():
    """Independent symbolic expansion for f = u + v^2/2, xi(s) = s."""
    u, v = sp.symbols("u v")
    f = u + v**2 / 2
    fu, fv = sp.diff(f, u), sp.diff(f, v)
    fuu, fuv, fvv = sp.diff(f, u, 2), sp.diff(f, u, v), sp.diff(f, v, 2)
    xi = f
    B = fu**2 + fv**2
    p1, p2 = xi * (fu**2 - fv**2), -fuu + fvv
    q1, q2 = xi * fu * fv, -fuv
    a = [(fu * p1 + fv * p2) / B, (-fv * p1 + fu * p2) / B]
    b = [(2 * (fu * q1 + fv * q2) + fv * p1 - fu * p2) / B,
         (2 * (-fv * q1 + fu * q2) + fu * p1 + fv * p2) / B]
    c = [2 * (fv * q1 - fu * q2) / B, 2 * (fu * q1 + fv * q2) / B]

    # obstruction forms read off d(dt) = 0: with dt = P du + Q dv,
    # P = a0 + t b0 + t^2 c0 and Q likewise, the du^dv coefficient of d(dt)
    # is Q_u + Q_t t_u - P_v - P_t t_v, and t_u = P, t_v = Q
    t = sp.Symbol("t")
    P = a[0] + t * b[0] + t**2 * c[0]
    Q = a[1] + t * b[1] + t**2 * c[1]
    ddt = sp.Poly(sp.expand(sp.diff(Q, u) + sp.diff(Q, t) * P
                            - sp.diff(P, v) - sp.diff(P, t) * Q), t)
    assert ddt.coeff_monomial(t**3) == 0
    O0, O1, O2 = (sp.simplify(ddt.coeff_monomial(t**k)) for k in range(3))
    lam = sp.lambdify((u, v), [a[0], a[1], b[0], b[1], c[0], c[1], O0, O1, O2], "numpy")
    return lam


def test_forms_match_symbolic_oracle():
    spec = GridSpec.over_box((0.1, 1.1), (0.1, 1.1), 65, 65)
    U, V = spec.mesh()
    forms = build_forms(FieldGrid(spec, U + V**2 / 2), lambda s: s, CaseSpec("R", 0.0))
    oracle = _sym_case_r_forms()
    rng = np.random.default_rng(1)
    idx = rng.integers(2, 62, size=(5, 2))
    h2 = spec.hmax**2
    for i, j in idx:
        a0, a1, b0, b1, c0, c1, O0, O1, O2 = oracle(U[i, j], V[i, j])
        assert abs(forms.omega0.cu[i, j] - a0) <= 20 * h2
        assert abs(forms.omega0.cv[i, j] - a1) <= 20 * h2
        assert abs(forms.omega1.cu[i, j] - b0) <= 20 * h2
        assert abs(forms.omega1.cv[i, j] - b1) <= 20 * h2
        assert abs(forms.omega2.cu[i, j] - c0) <= 20 * h2
        assert abs(forms.omega2.cv[i, j] - c1) <= 20 * h2
        assert abs(forms.Omega0.values[i, j] - O0) <= 50 * h2
        assert abs(forms.Omega1.values[i, j] - O1) <= 50 * h2
        assert abs(forms.Omega2.values[i, j] - O2) <= 50 * h2


def test_integrable_forms_obstruction_converges():
    """w0 = e^u dv, w1 = du, w2 = e^{-u} dv is integrable for every t0
    (t = e^u tan(v + arctan t0)), so all three obstruction forms vanish
    up to the O(h^2) truncation of the stencils."""
    omega2 = []
    for n in (33, 65, 129):
        spec = GridSpec.over_box((0, 1), (0, 1), n, n)
        U, V = spec.mesh()
        z = np.zeros(spec.shape)
        forms = forms_from_vectors(spec, (z, np.exp(U)), (np.ones(spec.shape), z),
                                   (z, np.exp(-U)))
        verdict, norms = obstruction_verdict(forms)
        assert verdict == "identically-zero", norms
        omega2.append(norms["Omega2"])
    assert omega2[0] <= 1e-3
    assert omega2[0] / omega2[1] >= 3.5 and omega2[1] / omega2[2] >= 3.5
    sol = solve_riccati(forms, 0.2)
    exact = np.exp(U) * np.tan(V + np.arctan(0.2))
    assert np.max(np.abs(sol.t.values - exact)) <= 1e-6


def test_linear_potential_constant_xi_obstruction():
    """Direct substitution: a linear potential with constant nonzero xi
    leaves constant 1-forms whose wedge products do NOT cancel; the
    obstruction is genuinely nontrivial (Omega0 = du^dv here)."""
    spec = GridSpec.over_box((0, 1), (0, 1), 33, 33)
    U, _ = spec.mesh()
    forms = build_forms(FieldGrid(spec, U), lambda s: np.ones_like(s), CaseSpec("R", 0.0))
    verdict, norms = obstruction_verdict(forms)
    assert verdict == "nontrivial"
    assert abs(norms["Omega0"] - 1.0) <= 1e-10
    assert norms["Omega1"] <= 1e-10 and norms["Omega2"] <= 1e-10


def test_obstruction_report_only_instance():
    spec = GridSpec.over_box((0.2, 1.2), (0.2, 1.2), 33, 33)
    U, V = spec.mesh()
    forms = build_forms(FieldGrid(spec, U * V), lambda s: s, CaseSpec("R", 0.0))
    verdict, norms = obstruction_verdict(forms)
    assert all(np.isfinite(v) for v in norms.values())
    assert verdict in ("identically-zero", "nontrivial")


def test_forms_reject_degenerate_gradient():
    spec = GridSpec.over_box((-1, 1), (-1, 1), 33, 33)
    U, V = spec.mesh()
    from normalflat.riccati import DegenerateFormsError
    with pytest.raises(DegenerateFormsError):
        build_forms(FieldGrid(spec, (U**2 + V**2) / 2), 0.0, CaseSpec("R", 0.0))
    with pytest.raises(DegenerateFormsError):
        # u + v has a light-like gradient everywhere for the NT rules
        build_forms(FieldGrid(spec, U + V), 0.0, CaseSpec("NT", 0.0))


# --------------------------------------------------------------------------
# solver
# --------------------------------------------------------------------------

def test_zero_forms_constant_solution():
    spec = GridSpec.over_box((0, 1), (0, 1), 33, 33)
    z = np.zeros(spec.shape)
    forms = forms_from_vectors(spec, (z, z), (z, z), (z, z))
    sol = solve_riccati(forms, 0.3)
    assert np.max(np.abs(sol.t.values - 0.3)) == 0.0
    assert sol.path_defect == 0.0


def test_constant_omega0_exact():
    spec = GridSpec.over_box((0, 1), (0, 1), 33, 33)
    one = np.ones(spec.shape)
    z = np.zeros(spec.shape)
    forms = forms_from_vectors(spec, (one, z), (z, z), (z, z))
    sol = solve_riccati(forms, 0.0)
    U, _ = spec.mesh()
    assert np.max(np.abs(sol.t.values - U)) <= 1e-13
    assert sol.path_defect <= 1e-13


def _integrable_forms(spec):
    """dt = (1 + t^2) dpsi with bilinear psi: obstruction-free by hand."""
    U, V = spec.mesh()
    psi = 0.3 * U * V + 0.2 * U - 0.1 * V
    psiu = 0.3 * V + 0.2
    psiv = 0.3 * U - 0.1
    z = np.zeros(spec.shape)
    return forms_from_vectors(spec, (psiu, psiv), (z, z), (psiu, psiv)), psi


def test_integrable_system_path_defect():
    spec = GridSpec.over_box((0, 1), (0, 1), 129, 129)
    forms, psi = _integrable_forms(spec)
    assert obstruction_verdict(forms)[0] == "identically-zero"
    t0 = 0.2
    sol = solve_riccati(forms, t0)
    assert sol.path_defect <= 1e-8
    exact = np.tan(psi - psi[0, 0] + np.arctan(t0))
    assert np.max(np.abs(sol.t.values - exact)) <= 1e-8


def test_varying_coefficients_fourth_order():
    """dt = (1 + t^2) dpsi with psi = sin u + cos v: the coefficients vary
    along every line, so the stepping is 4th order only if their
    interpolation is; t = tan(psi - psi0 + arctan t0)."""
    t0 = 0.2
    errors = []
    for n in (33, 65, 129):
        spec = GridSpec.over_box((0, 1), (0, 1), n, n)
        U, V = spec.mesh()
        psi = np.sin(U) + np.cos(V)
        dpsi = (np.cos(U), -np.sin(V))
        z = np.zeros(spec.shape)
        sol = solve_riccati(forms_from_vectors(spec, dpsi, (z, z), dpsi), t0)
        assert sol.path_defect <= 1e-12
        exact = np.tan(psi - psi[0, 0] + np.arctan(t0))
        errors.append(np.max(np.abs(sol.t.values - exact)))
    assert errors[0] / errors[1] >= 12 and errors[1] / errors[2] >= 12, errors
    assert errors[2] <= 1e-8


def test_integrable_system_residuals():
    spec = GridSpec.over_box((0, 1), (0, 1), 65, 65)
    forms, _ = _integrable_forms(spec)
    sol = solve_riccati(forms, 0.2)
    ru, rv = riccati_residual(forms, sol.t)
    scale = 1 + np.max(np.abs(sol.t.values)) ** 2
    assert max(ru.max_abs(), rv.max_abs()) <= 20 * spec.hmax**2 * scale
    # mixed partials of the solved field commute at the same order
    tv = sol.t.values
    comm = _diff_along(_diff_along(tv, spec.du, 0), spec.dv, 1) \
        - _diff_along(_diff_along(tv, spec.dv, 1), spec.du, 0)
    assert np.max(np.abs(comm)) <= 50 * spec.hmax**2 * scale


def test_blow_up_detection():
    # dt = (1 + t^2) du: tangent solution escapes at u = pi/2 - arctan(t0);
    # with bound = 1e12 only the sign change of q can fire
    for n in (9, 17, 65):
        for bound in (1e6, 1e12):
            spec = GridSpec.over_box((0, 2), (0, 1), n, 17)
            one = np.ones(spec.shape)
            z = np.zeros(spec.shape)
            forms = forms_from_vectors(spec, (one, z), (z, z), (one, z))
            with pytest.raises(RiccatiBlowUpError) as err:
                solve_riccati(forms, 0.2, bound=bound)
            u_loc = err.value.location[0]
            assert abs(u_loc - (np.pi / 2 - np.arctan(0.2))) <= spec.du, (n, bound)


def test_nt_range_constraint():
    spec = GridSpec.over_box((0, 1), (0, 1), 33, 33)
    case = CaseSpec("NT", 0.0)
    z = np.zeros(spec.shape)
    one = np.ones(spec.shape)
    with pytest.raises(RangeConstraintError):
        solve_riccati(forms_from_vectors(spec, (z, z), (z, z), (z, z)), 0.0, case)
    with pytest.raises(RangeConstraintError):
        # dt = 2 du pushes t through +1 inside the box
        solve_riccati(forms_from_vectors(spec, (2 * one, z), (z, z), (z, z)), 0.5, case)


def test_nt_variant_orderings_cross_check():
    """Both eps branches: substituting rho = atanh(t) back into the
    hyperbolic system must hold along the integration paths."""
    spec = GridSpec.over_box((0, 1), (0, 1), 65, 65)
    U, _ = spec.mesh()
    f = FieldGrid(spec, U)
    xi = lambda s: 0.3 * s
    for eps in (1, -1):
        case = CaseSpec("NT", 0.0, eps=eps, delta=1)
        forms = build_forms(f, xi, case)
        sol = solve_riccati(forms, 0.5, case)
        t = sol.t.values
        rho = np.arctanh(t)
        ch2 = np.cosh(rho) ** 2
        chsh = np.cosh(rho) * np.sinh(rho)
        sh2 = np.sinh(rho) ** 2
        # dt = w0 + t w1 + t^2 w2 with t = tanh(rho) is exactly
        # drho = ch^2 w0 + ch sh w1 + sh^2 w2, in solver-form order;
        # the eps branches permute which assembled vector fills which slot
        w0, w1, w2 = forms.omega0, forms.omega1, forms.omega2
        rho_u = _diff_along(rho, spec.du, 0)
        rho_v = _diff_along(rho, spec.dv, 1)
        res_u = rho_u - (ch2 * w0.cu + chsh * w1.cu + sh2 * w2.cu)
        res_v = rho_v - (ch2 * w0.cv + chsh * w1.cv + sh2 * w2.cv)
        # base row carries the u-equation, columns the v-equation
        assert np.max(np.abs(res_u[:, 0])) <= 50 * spec.hmax**2
        assert np.max(np.abs(res_v)) <= 50 * spec.hmax**2

        # first-principles closed loop on the base row: the partner
        # potential's mixed partials commute and the angle/potential
        # Jacobian identity holds for the solved rho
        ch, sh = np.cosh(rho), np.sinh(rho)
        fu, fv = np.ones(spec.shape), np.zeros(spec.shape)
        fuu = fuv = fvv = np.zeros(spec.shape)
        xif = xi(U)
        d = case.delta
        if eps == 1:
            mixed = rho_u * (-ch * fu + d * sh * fv) + rho_v * (d * sh * fu - ch * fv) \
                - (sh * (fuu + fvv) - 2 * d * ch * fuv)
            fpu, fpv = d * ch * fu - sh * fv, sh * fu - d * ch * fv
            jac = fpu * rho_v - fpv * rho_u \
                - xif * (2 * d * ch * fu * fv - sh * (fu**2 + fv**2))
        else:
            mixed = rho_u * (-d * sh * fu + ch * fv) + rho_v * (ch * fu - d * sh * fv) \
                - (d * ch * (fuu + fvv) - 2 * sh * fuv)
            fpu, fpv = sh * fu - d * ch * fv, d * ch * fu - sh * fv
            jac = fpu * rho_v - fpv * rho_u \
                - xif * (2 * sh * fu * fv - d * ch * (fu**2 + fv**2))
        assert np.max(np.abs(mixed[:, 0])) <= 50 * spec.hmax**2
        assert np.max(np.abs(jac[:, 0])) <= 50 * spec.hmax**2
