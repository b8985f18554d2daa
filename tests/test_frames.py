import numpy as np
import pytest
import sympy as sp

from normalflat import (CaseSpec, CoefficientSet, GridSpec, assemble_connection,
                        compatibility_defect, frames, gcr, gcr_residuals, integrate_frame)
from normalflat.frames import COEFF_NAMES, FrameConnection, _substeps, _walk
from normalflat.grid import _diff_along4, grad, second_derivatives, slabs

from conftest import random_coefficients

CASES = ["R", "NS", "NT", "LS", "LT"]


# --------------------------------------------------------------------------
# symbolic transcription guard
# --------------------------------------------------------------------------

_l, _a1, _a2, _a3, _b1, _b2, _b3, _m1, _m2 = sp.symbols("l a1 a2 a3 b1 b2 b3 m1 m2")
_L0, _E = sp.symbols("L0 E", positive=True)
_lu, _lv = sp.symbols("l_u l_v")


def _sym_matrices(case_id):
    l, a1, a2, a3, b1, b2, b3, m1, m2 = _l, _a1, _a2, _a3, _b1, _b2, _b3, _m1, _m2
    lu, lv, q = _lu, _lv, _L0 * _E
    tables = {
        "R": ([[lu, lv, -a1, -b1, 1], [-lv, lu, -a2, -b2, 0],
               [a1, a2, lu, -m1, 0], [b1, b2, m1, lu, 0], [-q, 0, 0, 0, 0]],
              [[lv, -lu, -a2, -b2, 0], [lu, lv, -a3, -b3, 1],
               [a2, a3, lv, -m2, 0], [b2, b3, m2, lv, 0], [0, -q, 0, 0, 0]]),
        "NS": ([[lu, lv, a1, b1, 1], [-lv, lu, a2, b2, 0],
                [a1, a2, lu, -m1, 0], [b1, b2, m1, lu, 0], [-q, 0, 0, 0, 0]],
               [[lv, -lu, a2, b2, 0], [lu, lv, a3, b3, 1],
                [a2, a3, lv, -m2, 0], [b2, b3, m2, lv, 0], [0, -q, 0, 0, 0]]),
        "NT": ([[lu, lv, -a1, b1, 1], [lv, lu, a2, -b2, 0],
                [a1, a2, lu, m1, 0], [b1, b2, m1, lu, 0], [-q, 0, 0, 0, 0]],
               [[lv, lu, -a2, b2, 0], [lu, lv, a3, -b3, 1],
                [a2, a3, lv, m2, 0], [b2, b3, m2, lv, 0], [0, q, 0, 0, 0]]),
        "LS": ([[lu, lv, -a1, b1, 1], [-lv, lu, -a2, b2, 0],
                [a1, a2, lu, m1, 0], [b1, b2, m1, lu, 0], [-q, 0, 0, 0, 0]],
               [[lv, -lu, -a2, b2, 0], [lu, lv, -a3, b3, 1],
                [a2, a3, lv, m2, 0], [b2, b3, m2, lv, 0], [0, -q, 0, 0, 0]]),
        "LT": ([[lu, lv, -a1, -b1, 1], [lv, lu, a2, b2, 0],
                [a1, a2, lu, -m1, 0], [b1, b2, m1, lu, 0], [-q, 0, 0, 0, 0]],
               [[lv, lu, -a2, -b2, 0], [lu, lv, a3, b3, 1],
                [a2, a3, lv, -m2, 0], [b2, b3, m2, lv, 0], [0, q, 0, 0, 0]]),
    }
    S, T = tables[case_id]
    return sp.Matrix(S), sp.Matrix(T)


def _sym_scalar_equations(case_id):
    """Gauss/Codazzi/Ricci solved for one derivative each, per case."""
    a1, a2, a3, b1, b2, b3, m1, m2 = _a1, _a2, _a3, _b1, _b2, _b3, _m1, _m2
    lu, lv = _lu, _lv
    quad = {
        "R": -a1 * a3 - b1 * b3 + a2**2 + b2**2,
        "NS": a1 * a3 + b1 * b3 - a2**2 - b2**2,
        "NT": a1 * a3 - b1 * b3 - a2**2 + b2**2,
        "LS": -a1 * a3 + b1 * b3 + a2**2 - b2**2,
        "LT": a1 * a3 + b1 * b3 - a2**2 - b2**2,
    }[case_id]
    wave = case_id in ("NT", "LT")
    if case_id in ("R", "NS"):
        cod = [a2 * lu + a3 * lv - b2 * m1 + b1 * m2,
               -a1 * lu - a2 * lv - b3 * m1 + b2 * m2,
               b2 * lu + b3 * lv + a2 * m1 - a1 * m2,
               -b1 * lu - b2 * lv + a3 * m1 - a2 * m2]
    elif case_id == "NT":
        cod = [a2 * lu - a3 * lv + b2 * m1 - b1 * m2,
               a1 * lu - a2 * lv + b3 * m1 - b2 * m2,
               b2 * lu - b3 * lv + a2 * m1 - a1 * m2,
               b1 * lu - b2 * lv + a3 * m1 - a2 * m2]
    elif case_id == "LS":
        cod = [a2 * lu + a3 * lv + b2 * m1 - b1 * m2,
               -a1 * lu - a2 * lv + b3 * m1 - b2 * m2,
               b2 * lu + b3 * lv + a2 * m1 - a1 * m2,
               -b1 * lu - b2 * lv + a3 * m1 - a2 * m2]
    else:  # LT
        cod = [a2 * lu - a3 * lv - b2 * m1 + b1 * m2,
               a1 * lu - a2 * lv - b3 * m1 + b2 * m2,
               b2 * lu - b3 * lv + a2 * m1 - a1 * m2,
               b1 * lu - b2 * lv + a3 * m1 - a2 * m2]
    m13 = a1 * b2 - a2 * b1
    m23 = a2 * b3 - a3 * b2
    ricci = {"R": m13 + m23, "NS": -m13 - m23, "NT": m13 - m23,
             "LS": m13 + m23, "LT": m13 - m23}[case_id]
    l_vv = sp.Symbol("l_vv")
    gauss_lead = (l_vv if wave else -l_vv) - _L0 * _E + quad
    return {
        sp.Symbol("l_uu"): gauss_lead,
        sp.Symbol("a1_v"): sp.Symbol("a2_u") + cod[0],
        sp.Symbol("a2_v"): sp.Symbol("a3_u") + cod[1],
        sp.Symbol("b1_v"): sp.Symbol("b2_u") + cod[2],
        sp.Symbol("b2_v"): sp.Symbol("b3_u") + cod[3],
        sp.Symbol("m1_v"): sp.Symbol("m2_u") + ricci,
    }


def _formal_derivative(expr, which, stencil=False):
    """d/du or d/dv of expr by the chain rule, in the continuum: the lambda
    gradients differentiate to the symmetric hessian (l_uu, l_uv, l_vv) and
    E to 2 E l_u or 2 E l_v.  With stencil=True, l_u, l_v and E each take
    derivative symbols of their own (lu_v, lv_u, E_v, ...), since the grid's
    stencils keep neither identity."""
    base = [_l, _a1, _a2, _a3, _b1, _b2, _b3, _m1, _m2]
    d = {}
    for s in base:
        d[s] = sp.Symbol(f"{s}_{which}")
    if stencil:
        for s, name in ((_lu, "lu"), (_lv, "lv"), (_E, "E")):
            d[s] = sp.Symbol(f"{name}_{which}")
    else:
        d[_lu] = sp.Symbol("l_uu") if which == "u" else sp.Symbol("l_uv")
        d[_lv] = sp.Symbol("l_uv") if which == "u" else sp.Symbol("l_vv")
        d[_E] = 2 * (d[_l]) * _E
    out = sp.Integer(0)
    for s in expr.free_symbols:
        if s in d:
            out += sp.diff(expr, s) * d[s]
    return out


@pytest.mark.parametrize("case_id", CASES)
def test_bracket_reduces_to_scalar_equations(case_id):
    """S_v - T_u - (ST - TS) vanishes identically once the six scalar
    equations are substituted: the matrices and the residual formulas
    are transcriptions of the same structure."""
    S, T = _sym_matrices(case_id)
    Sv = S.applyfunc(lambda e: _formal_derivative(e, "v"))
    Tu = T.applyfunc(lambda e: _formal_derivative(e, "u"))
    err = sp.expand(Sv - Tu - (S * T - T * S))
    err = sp.expand(err.subs(_sym_scalar_equations(case_id)))
    for i in range(5):
        for j in range(5):
            assert sp.simplify(err[i, j]) == 0, (case_id, i, j, err[i, j])


@pytest.mark.parametrize("case_id", CASES)
def test_assemble_matches_symbolic_tables(case_id):
    """The numeric assembly agrees with an independent symbolic copy."""
    rng = np.random.default_rng(3)
    spec = GridSpec.over_box((0, 1), (0, 1), 7, 6)
    coeffs = random_coefficients(rng, spec)
    case = CaseSpec(case_id, 0.7)
    S_num, T_num = assemble_connection(coeffs, case)

    S_sym, T_sym = _sym_matrices(case_id)
    lam = coeffs.lam.values
    env = dict(zip([_a1, _a2, _a3, _b1, _b2, _b3, _m1, _m2],
                   [coeffs.alpha1.values, coeffs.alpha2.values, coeffs.alpha3.values,
                    coeffs.beta1.values, coeffs.beta2.values, coeffs.beta3.values,
                    coeffs.mu1.values, coeffs.mu2.values]))
    env[_lu] = _diff_along4(lam, spec.du, 0)
    env[_lv] = _diff_along4(lam, spec.dv, 1)
    env[_E] = np.exp(2 * lam)
    env[_L0] = 0.7
    for i in range(5):
        for j in range(5):
            sym = S_sym[i, j]
            val = sp.lambdify(list(env), sym, "numpy")(*env.values()) \
                if sym.free_symbols else float(sym)
            assert np.allclose(S_num[..., i, j], val, atol=1e-13), ("S", i, j)
            sym = T_sym[i, j]
            val = sp.lambdify(list(env), sym, "numpy")(*env.values()) \
                if sym.free_symbols else float(sym)
            assert np.allclose(T_num[..., i, j], val, atol=1e-13), ("T", i, j)


@pytest.mark.parametrize("case_id", CASES)
def test_defect_is_the_symbolic_curvature_norm(case_id):
    """compatibility_defect^2 is sum K_ij^2 of K = S_v - T_u - (ST - TS),
    formed in sympy from the symbolic tables, with every derivative symbol
    bound to the grid's stencil value of its field; L0 != 0, so the
    e^{2 lambda} rows count."""
    S, T = _sym_matrices(case_id)
    K = (S.applyfunc(lambda e: _formal_derivative(e, "v", stencil=True))
         - T.applyfunc(lambda e: _formal_derivative(e, "u", stencil=True)) - (S * T - T * S))
    sq = sum(k**2 for k in K)

    spec = GridSpec.over_box((0, 1), (0, 1), 9, 8)
    coeffs = random_coefficients(np.random.default_rng(11), spec)
    lam = coeffs.lam.values
    lu, lv, E = _diff_along4(lam, spec.du, 0), _diff_along4(lam, spec.dv, 1), np.exp(2 * lam)
    env = {_L0: 0.7, _lu: lu, _lv: lv, _E: E,
           **dict(zip([_a1, _a2, _a3, _b1, _b2, _b3, _m1, _m2], coeffs.alravel()[1:]))}
    for name, f in [*((str(s), env[s]) for s in (_a1, _a2, _a3, _b1, _b2, _b3, _m1, _m2)),
                    ("lu", lu), ("lv", lv), ("E", E)]:
        env[sp.Symbol(f"{name}_u")], env[sp.Symbol(f"{name}_v")] = grad(f, spec)
    assert sq.free_symbols <= set(env)
    want = sp.lambdify(list(env), sq, "numpy")(*env.values())
    got = compatibility_defect(coeffs, CaseSpec(case_id, 0.7)).values ** 2
    assert np.max(want) > 1.0
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("case_id", CASES)
def test_gcr_residuals_are_the_symbolic_equations(case_id):
    """Each of gcr's six residuals, sign included, is its derivative symbol
    minus what the hand-written table of that case solves it for, with
    every symbol bound to the grid's second-order stencil value; L0 != 0."""
    spec = GridSpec.over_box((0, 1), (0, 1), 9, 8)
    coeffs = random_coefficients(np.random.default_rng(5), spec)
    lam, *rest = coeffs.alravel()
    l_uu, l_vv = second_derivatives(lam, spec)
    env = {_L0: 0.7, _E: np.exp(2 * lam), sp.Symbol("l_uu"): l_uu, sp.Symbol("l_vv"): l_vv}
    env[_lu], env[_lv] = grad(lam, spec)
    for s, f in zip([_a1, _a2, _a3, _b1, _b2, _b3, _m1, _m2], rest):
        env[s] = f
        env[sp.Symbol(f"{s}_u")], env[sp.Symbol(f"{s}_v")] = grad(f, spec)
    res = gcr_residuals(coeffs, CaseSpec(case_id, 0.7))
    got = [res.gauss, *res.codazzi, res.ricci]
    for (lead, rhs), field in zip(_sym_scalar_equations(case_id).items(), got):
        expr = lead - rhs
        assert expr.free_symbols <= set(env)
        want = sp.lambdify(list(env), expr, "numpy")(*env.values())
        assert np.max(np.abs(want)) > 0.1, lead
        assert np.allclose(field.values, want, rtol=1e-13, atol=1e-13), (case_id, lead)


@pytest.mark.parametrize("case_id", CASES)
def test_defect_is_the_residuals(case_id):
    """With L0 = 0 and a quadratic lambda, both lambda stencils are exact, the
    lambda-gradient curl and the e^{2 lambda} rows vanish, and the squared
    defect is twice the sum of squares of gcr's six residuals."""
    spec = GridSpec.over_box((-0.3, 0.6), (-0.2, 0.5), 19, 23)
    U, V = spec.mesh()
    coeffs = random_coefficients(np.random.default_rng(6), spec)
    fields = dict(zip(("lam", *COEFF_NAMES[1:]), coeffs.alravel()))
    fields["lam"] = 0.3 + 0.2 * U - 0.4 * V + 0.5 * U * U - 0.3 * U * V + 0.7 * V * V
    coeffs = CoefficientSet.from_arrays(spec, **fields)
    case = CaseSpec(case_id, 0.0)
    res = gcr_residuals(coeffs, case)
    want = 2 * sum(f.values ** 2 for f in (res.gauss, *res.codazzi, res.ricci))
    got = compatibility_defect(coeffs, case).values ** 2
    assert np.min(want) > 1e-3
    assert np.allclose(got, want, rtol=1e-12, atol=0)


def test_one_statement_of_the_equations(monkeypatch):
    """The residuals, the defect and the detector all read the Gauss line
    of frames; the detector alone computes no Codazzi or Ricci term."""
    spec = GridSpec.over_box((0, 1), (0, 1), 9, 8)
    coeffs = random_coefficients(np.random.default_rng(7), spec)
    case = CaseSpec("LT", 0.7)

    def boom(*args, **kwargs):
        raise AssertionError("the GCR statement was called")

    with monkeypatch.context() as m:
        for module in (frames, gcr):
            m.setattr(module, "gauss_equation", boom)
        for call in (gcr_residuals, compatibility_defect, gcr.detect_parallel_normal):
            with pytest.raises(AssertionError, match="GCR statement"):
                call(coeffs, case)
    with monkeypatch.context() as m:
        for module in (frames, gcr):
            m.setattr(module, "gcr_equations", boom)
        for call in (gcr_residuals, compatibility_defect):
            with pytest.raises(AssertionError, match="GCR statement"):
                call(coeffs, case)
        gcr.detect_parallel_normal(coeffs, case)


@pytest.mark.parametrize("at", [(0, 0), (3, 2)], ids=["corner", "interior"])
@pytest.mark.parametrize("name", COEFF_NAMES)
def test_defect_is_nan_on_a_nan_field(name, at):
    """A NaN in any one field is a NaN in the squared curvature norm at its
    point; the defect's FieldGrid, which holds only finite values, refuses it."""
    spec = GridSpec.over_box((0, 1), (0, 1), 7, 6)
    for case in (CaseSpec("R", 0.0), CaseSpec("LT", 0.7)):
        coeffs = random_coefficients(np.random.default_rng(2), spec)
        coeffs.fields()[name].values[at] = np.nan
        whole = next(slabs(spec, 0, spec.nu))
        sq = sum(w * (t * t) for w, t in FrameConnection(coeffs, case)._curvature_terms(whole))
        assert np.isnan(sq[at]), case
        with pytest.raises(ValueError, match="field values must be finite"):
            compatibility_defect(coeffs, case)


# --------------------------------------------------------------------------
# pointwise examples
# --------------------------------------------------------------------------

def test_totally_geodesic_plane(unit_spec, case_r):
    coeffs = CoefficientSet.from_arrays(unit_spec)
    S, T = assemble_connection(coeffs, case_r)
    expected_S = np.zeros((5, 5))
    expected_S[0, 4] = 1.0
    expected_T = np.zeros((5, 5))
    expected_T[1, 4] = 1.0
    assert np.array_equal(S[3, 3], expected_S)
    assert np.array_equal(T[3, 3], expected_T)
    assert compatibility_defect(coeffs, case_r).max_abs() == 0.0


def test_flat_torus_matrix_entries(flat_torus, case_r):
    S, T = assemble_connection(flat_torus, case_r)
    # hand-computed frame derivatives of (cos u, sin u, cos v, sin v)
    assert np.array_equal(S[5, 5, :, 0], [0, 0, -1, 0, 0])
    assert np.array_equal(S[5, 5, 0, :], [0, 0, 1, 0, 1])
    assert np.array_equal(T[5, 5, :, 1], [0, 0, 0, -1, 0])
    assert np.array_equal(T[5, 5, 1, :], [0, 0, 0, 1, 1])


def test_flat_torus_compatibility(flat_torus, case_r):
    assert compatibility_defect(flat_torus, case_r).max_abs() <= 1e-12


def test_curved_ambient_position_row(unit_spec):
    case = CaseSpec("R", 1.0)
    coeffs = CoefficientSet.from_arrays(unit_spec)
    S, _ = assemble_connection(coeffs, case)
    assert np.allclose(S[..., 4, 0], -1.0)


def test_sphere_defect_second_order_to_the_edges():
    """The conformal sphere in the quadric model is exactly compatible, so
    its defect is pure truncation and must shrink like h^2 everywhere,
    corners included; integrating it raises no compatibility warning."""
    case = CaseSpec("R", 1.0)
    defects = []
    for n in (33, 65, 129):
        spec = GridSpec.over_box((-0.5, 0.5), (-0.5, 0.5), n, n)
        U, V = spec.mesh()
        coeffs = CoefficientSet.from_arrays(spec, lam=np.log(2.0 / (1.0 + U**2 + V**2)))
        defects.append(compatibility_defect(coeffs, case).max_abs())
        if n == 65:
            _, report = integrate_frame(coeffs, case)
            assert "compatibility_warning" not in report, report["compatibility_warning"]
    assert defects[0] / defects[1] >= 3.5 and defects[1] / defects[2] >= 3.5, defects


def test_violation_bounded_away_from_zero():
    # alpha2 = u fails Codazzi; the defect must persist under refinement
    case = CaseSpec("R", 0.0)
    defects = []
    for n in (17, 33, 65):
        spec = GridSpec.over_box((0, 1), (0, 1), n, n)
        U, _ = spec.mesh()
        coeffs = CoefficientSet.from_arrays(spec, alpha2=U)
        defects.append(compatibility_defect(coeffs, case).max_abs())
    assert all(d > 0.5 for d in defects)
    assert abs(defects[-1] - defects[-2]) < 0.2 * defects[-1]


def test_connection_linear_in_second_form(unit_spec, case_r):
    rng = np.random.default_rng(5)
    base = {n: rng.standard_normal(unit_spec.shape) * 0.3
            for n in ("alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3", "mu1", "mu2")}
    lam = rng.standard_normal(unit_spec.shape) * 0.2
    c1 = CoefficientSet.from_arrays(unit_spec, lam=lam, **base)
    c2 = CoefficientSet.from_arrays(unit_spec, lam=lam,
                                    **{k: 2 * v for k, v in base.items()})
    c0 = CoefficientSet.from_arrays(unit_spec, lam=lam)
    S0, T0 = assemble_connection(c0, case_r)
    S1, T1 = assemble_connection(c1, case_r)
    S2, T2 = assemble_connection(c2, case_r)
    assert np.allclose(S2 - S0, 2 * (S1 - S0), atol=1e-12)
    assert np.allclose(T2 - T0, 2 * (T1 - T0), atol=1e-12)


def test_coefficient_file_roundtrip(tmp_path, flat_torus):
    path = tmp_path / "coeffs.json"
    flat_torus.save(path)
    back = CoefficientSet.load(path)
    for name in COEFF_NAMES:
        assert np.array_equal(back.fields()[name].values,
                              flat_torus.fields()[name].values)


# --------------------------------------------------------------------------
# the substep rule: clamp(ceil(h max ||M||_F / 0.1), 1, 4) over a stencil
# --------------------------------------------------------------------------

def _stencil_with(entry, value, d=5, lines=3):
    mats = np.zeros((4, lines, d, d))
    mats[entry] = value
    return mats


@pytest.mark.parametrize("reach, m", [(0.0, 1), (0.05, 1), (0.15, 2), (0.25, 3), (0.35, 4),
                                      (40.0, 4)])
def test_substeps_follow_the_frobenius_reach(reach, m):
    h = 0.01
    # one nonzero entry: its magnitude is the Frobenius norm; anywhere in
    # the stencil, on any line
    assert _substeps(h, _stencil_with((2, 1, 3, 0), -reach / h)) == m
    assert _substeps(h, _stencil_with((0, 0, 4, 4), reach / h)) == m
    # a 5x5 diagonal has Frobenius norm sqrt(5) times its largest entry
    diag = np.broadcast_to(np.eye(5) * reach / np.sqrt(5) / h, (4, 2, 5, 5))
    assert _substeps(h, diag) == m
    assert _substeps(h, diag[:, 0]) == m  # a stencil with no line axis


def _step(state, h, mats):
    """The three cells of the line whose nodes' matrices are mats (4, ...,
    d, d), stepped from state by ``_walk``: the last state."""
    states = []
    _walk(lambda lo, hi: mats[lo:hi], h, state, 4, lambda j, s: states.append(s[-1].copy()))
    return states[-1]


def test_substeps_nan_and_overflow_safe():
    h = 0.01
    for bad in (np.nan, np.inf, -np.inf):
        mats = _stencil_with((1, 2, 3, 4), bad) + 0.5
        assert _substeps(h, mats) == 4
        state = np.ones((3, 4, 5))
        if np.isnan(bad):
            with pytest.raises(OverflowError):
                _step(state, h, mats)
        else:
            # inf - inf in the maps warns; past that the finiteness check fails
            with np.errstate(all="ignore"), pytest.raises(OverflowError):
                _step(state, h, mats)
    # entries near 1e200: no square is formed, so nothing overflows or warns
    # (pyproject turns a RuntimeWarning into an error)
    huge = _stencil_with((1, 2, 3, 4), 1e200)
    assert _substeps(h, huge) == 4
    assert _substeps(2e-201, huge) == 2  # reach 0.2: the Frobenius norm decides
    assert _substeps(1e-203, huge) == 1
    full = np.full((4, 3, 5, 5), 1e200)
    assert _substeps(1e-202, full) == 1  # d max|M_ij| h = 0.05
    assert _substeps(1e-201, full) == 4  # reach 0.5
    # the maps take h M before any product, so its entries stay small
    state = _step(np.ones((3, 4, 5)), 1e-203, full)
    assert np.all(np.isfinite(state))
