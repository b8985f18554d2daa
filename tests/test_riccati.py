import numpy as np
import pytest
import sympy as sp

from normalflat import CaseSpec, FieldGrid, GridSpec
from normalflat.families import _rotation
from normalflat.grid import _diff_along, curl, grad, wedge
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
    verdict, norms = obstruction_verdict(forms)
    assert verdict == "identically-zero" and max(norms.values()) <= 1e-12


def test_wedge_antisymmetry():
    spec = GridSpec.over_box((0, 1), (0, 1), 17, 17)
    U, V = spec.mesh()
    forms = build_forms(FieldGrid(spec, U + V**2 / 2),
                        lambda s: s, CaseSpec("R", 0.0))
    for w in (forms.omega0, forms.omega1, forms.omega2):
        assert np.max(np.abs(w.wedge(w))) == 0.0


_FU, _FV, _FUU, _FUV, _FVV, _XI, _T, _PU, _PV = sp.symbols("fu fv fuu fuv fvv xi t p_u p_v")


def _derived_forms(kappa, rotation):
    """(w0, w1, w2) of dt = w0 + t w1 + t^2 w2 as (du, dv) coefficient pairs
    in fu, fv, fuu, fuv, fvv, xi, derived without the assembled formulas.

    The angle a has c = cos a, s = sin a (kappa = 1) or c = cosh a,
    s = sinh a (kappa = -1), so dc = -kappa s da, ds = c da and
    t = s/c obeys dt = (1 + kappa t^2) da.  ``rotation(c, s)`` is the
    gradient (g_u, g_v) of the partner potential.  The angle gradient
    (p_u, p_v) solves (a) g is closed and (b) J(g, a) = xi J(g, f), J the
    du^dv coefficient; both are homogeneous of degree one in (c, s), so
    c = 1, s = t.
    """
    c, s = sp.Symbol("c"), sp.Symbol("s")
    g_u, g_v = rotation(c, s)
    moves = {"u": (_PU, _FUU, _FUV), "v": (_PV, _FUV, _FVV)}

    def d(expr, which):
        p, dfu, dfv = moves[which]
        return (sp.diff(expr, c) * (-kappa * s * p) + sp.diff(expr, s) * (c * p)
                + sp.diff(expr, _FU) * dfu + sp.diff(expr, _FV) * dfv)

    closed = d(g_u, "v") - d(g_v, "u")
    jacobian = (g_u * _PV - g_v * _PU) - _XI * (g_u * _FV - g_v * _FU)
    sol = sp.solve([e.subs({c: 1, s: _T}) for e in (closed, jacobian)], [_PU, _PV], dict=True)[0]
    coeffs = []
    for p in (_PU, _PV):
        poly = sp.Poly(sp.cancel((1 + kappa * _T**2) * sol[p]), _T)
        assert poly.degree() <= 2
        coeffs.append([poly.coeff_monomial(_T**k) for k in range(3)])
    return [(coeffs[0][k], coeffs[1][k]) for k in range(3)]


def test_forms_match_symbolic_oracle():
    """build_forms against forms derived from angle_link's rotations, for
    R, NS and NT in both eps and delta branches.  f is quadratic, so the
    grid stencils are exact and the comparison is at round-off."""
    spec = GridSpec.over_box((0.1, 1.1), (0.1, 1.1), 33, 33)
    U, V = spec.mesh()
    f = 1.5 * U + 0.4 * V + 0.3 * U**2 + 0.2 * U * V - 0.25 * V**2
    xi = lambda s: 0.5 * s - 0.2 * s**2  # noqa: E731
    env = (1.5 + 0.6 * U + 0.2 * V, 0.4 + 0.2 * U - 0.5 * V, 0.6, 0.2, -0.5, xi(f))
    trig = lambda c, s: (-s * _FU + c * _FV, c * _FU + s * _FV)  # noqa: E731
    runs = [(CaseSpec("R", 0.0), 1, trig), (CaseSpec("NS", 0.0), 1, trig)]
    for eps, delta in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        if eps == 1:
            rot = lambda c, s, d=delta: (d * c * _FU - s * _FV, s * _FU - d * c * _FV)  # noqa: E731
        else:
            rot = lambda c, s, d=delta: (s * _FU - d * c * _FV, d * c * _FU - s * _FV)  # noqa: E731
        runs.append((CaseSpec("NT", 0.0, eps=eps, delta=delta), -1, rot))
    for case, kappa, rotation in runs:
        forms = build_forms(FieldGrid(spec, f), xi, case)
        derived = _derived_forms(kappa, rotation)
        for w, pair in zip((forms.omega0, forms.omega1, forms.omega2), derived):
            for got, expr in zip((w.cu, w.cv), pair):
                want = sp.lambdify((_FU, _FV, _FUU, _FUV, _FVV, _XI), expr, "numpy")(*env)
                assert np.allclose(got, want, rtol=0, atol=1e-11), (case, expr)

    # obstruction forms of case R: the t-coefficients of d(dt) = dQ/du - dP/dv
    # with t_u = P, t_v = Q; d(dt) has no t^3 term, so t = 0, +-1 read them off
    forms = build_forms(FieldGrid(spec, f), xi, runs[0][0])
    u, v = sp.symbols("u v")
    f_uv = {_FU: 1.5 + 0.6 * u + 0.2 * v, _FV: 0.4 + 0.2 * u - 0.5 * v,
            _FUU: 0.6, _FUV: 0.2, _FVV: -0.5,
            _XI: xi(1.5 * u + 0.4 * v + 0.3 * u**2 + 0.2 * u * v - 0.25 * v**2)}
    derived = _derived_forms(1, trig)
    P, Q = (sum(_T**k * pair[i].subs(f_uv) for k, pair in enumerate(derived)) for i in range(2))
    ddt = sp.lambdify((u, v, _T), sp.diff(Q, u) + sp.diff(Q, _T) * P
                      - sp.diff(P, v) - sp.diff(P, _T) * Q, "numpy")
    d0, dp, dm = (ddt(U, V, t) for t in (0.0, 1.0, -1.0))
    for got, want in ((forms.Omega0, d0), (forms.Omega1, (dp - dm) / 2),
                      (forms.Omega2, (dp + dm) / 2 - d0)):
        assert np.max(np.abs(got.values - want)) <= 10 * spec.hmax**2


def _rotation_derivative(case, psi):
    """(r00, r01, r10, r11) of dR/dpsi for the rotation R(psi) that carries
    grad f- to grad f+: trigonometric on R/NS, hyperbolic on NT."""
    if case.kappa > 0:
        s, c = np.sin(psi), np.cos(psi)
        return -c, -s, -s, c
    ch, sh = np.cosh(psi), case.delta * np.sinh(psi)
    if case.eps == 1:
        return sh, -ch, ch, -sh
    return ch, -sh, sh, -ch


def _identity_defects(case, n):
    """max |(I1)| and max |(I2)| on an n^2 grid for an angle field psi that
    solves no angle system: with t = tan psi (R/NS) or tanh psi (NT),
    r = riccati_residual, g = R(psi) grad f- and h = R'(psi) grad f-,

    (I1)  curl g = (dpsi/dt) (h_u r_v - h_v r_u),
    (I2)  (g ^ dpsi) / (g ^ df-) = xi(f-) + (dpsi/dt) (g ^ r) / (g ^ df-).

    f- = u + 0.3 v^2 + 0.2 u v has f-_uv != 0, so no term of build_forms
    that carries it drops out; on the NT branch eps = delta = 1,
    g ^ df- vanishes inside the box for it, so that branch takes -0.3 v^2."""
    spec = GridSpec.over_box((0.2, 0.8), (0.1, 0.7), n, n)
    U, V = spec.mesh()
    c2 = -0.3 if (case.kappa, case.eps, case.delta) == (-1, 1, 1) else 0.3
    f = U + c2 * V**2 + 0.2 * U * V
    xi = lambda s: 0.3 * s + 0.2 * np.sin(s)  # noqa: E731
    wave = np.sin(2 * U) * np.cos(V)
    if case.kappa > 0:
        psi = 1.2 + 0.2 * wave
        t, dpsi_dt = np.tan(psi), np.cos(psi) ** 2
    else:
        psi = 0.4 + 0.1 * wave
        t, dpsi_dt = np.tanh(psi), np.cosh(psi) ** 2
    ru, rv = (r.values for r in riccati_residual(build_forms(FieldGrid(spec, f), xi, case),
                                                 FieldGrid(spec, t)))
    fu, fv = grad(f, spec)
    r00, r01, r10, r11 = _rotation(case, psi)
    g = (r00 * fu + r01 * fv, r10 * fu + r11 * fv)
    h00, h01, h10, h11 = _rotation_derivative(case, psi)
    h = (h00 * fu + h01 * fv, h10 * fu + h11 * fv)
    i1 = curl(*g, spec) - dpsi_dt * (h[0] * rv - h[1] * ru)
    gf = wedge(g, (fu, fv))
    i2 = wedge(g, grad(psi, spec)) / gf - xi(f) - dpsi_dt * wedge(g, (ru, rv)) / gf
    assert np.max(np.abs(curl(*g, spec))) > 0.1 and np.min(np.abs(gf)) > 0.1
    return np.max(np.abs(i1)), np.max(np.abs(i2))


@pytest.mark.parametrize("case", [CaseSpec("R", 0.0), CaseSpec("NS", 0.0)]
                         + [CaseSpec("NT", 0.0, eps=e, delta=d) for e in (1, -1) for d in (1, -1)],
                         ids=["R", "NS", "NT++", "NT+-", "NT-+", "NT--"])
def test_family_rotation_ties_to_the_riccati_residual(case):
    """The partner gradient's curl, which angle_link gates, and the family's
    J are linear in the Riccati residual of any angle field, through
    families._rotation, build_forms and riccati_residual; both identities
    hold at O(h^2)."""
    defects = np.array([_identity_defects(case, n) for n in (65, 129, 257)])
    assert np.all(defects[0] <= 1e-4)
    assert np.all(defects[:-1] / defects[1:] >= 3.5), defects


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


def test_scaled_up_forms_fail_as_floating_point_errors():
    # cells that reach far above 0.3 take four substeps; the overflow is a
    # FloatingPointError (exit 2) under the CLI's errstate, and the
    # finiteness check's OverflowError with floating-point warnings off
    spec = GridSpec.over_box((0, 1), (0, 1), 17, 17)
    U, V = spec.mesh()
    z = np.zeros(spec.shape)
    for scale in (1e4, 1e100):
        dpsi = (scale * np.cos(U), -scale * np.sin(V))
        forms = forms_from_vectors(spec, dpsi, (z, z), dpsi)
        with np.errstate(over="raise", invalid="raise", divide="raise"), \
                pytest.raises(FloatingPointError):
            solve_riccati(forms, 0.2)
        with np.errstate(all="ignore"), pytest.raises(OverflowError):
            solve_riccati(forms, 0.2)
