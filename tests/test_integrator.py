import csv
import io

import numpy as np
import pytest

from normalflat import CaseSpec, CoefficientSet, FieldGrid, GridSpec, frames, grid, integrator
from normalflat.families import NotldPotentials, build_notld_family
from normalflat.frames import compatibility_defect
from normalflat.gcr import (
    curvature_minus_l0,
    dependence_minors,
    normal_flatness_defect,
    second_form_pseudo_norm,
)
from normalflat.grid import ROUND_OFF_TOL, _diff2_along, _diff_along, residual_tolerance
from normalflat.integrator import (
    FrameField,
    NotConformalError,
    OffQuadricError,
    SignatureError,
    SurfaceMesh,
    _gram_defects,
    canonical_frame0,
    export_mesh,
    integrate_frame,
    load_mesh,
    load_mesh_csv,
    reconstruct_coefficients,
    save_mesh,
)
from normalflat.spaceform import CASES, ambient_inner, ambient_signature

from conftest import random_coefficients


def _torus_frame0():
    # exact frame of (cos u, sin u, cos v, sin v) at (0, 0)
    return np.array([
        [0.0, 0, 1, 0, 1],
        [1.0, 0, 0, 0, 0],
        [0.0, 0, 0, 1, 1],
        [0.0, 1, 0, 0, 0]])


def test_plane_is_exact():
    case = CaseSpec("R", 0.0)
    spec = GridSpec.over_box((0, 1), (0, 1), 17, 17)
    coeffs = CoefficientSet.from_arrays(spec)
    field, drift = integrate_frame(coeffs, case, np.eye(4, 5))
    U, V = spec.mesh()
    F = field.column(4)
    assert np.max(np.abs(F[..., 0] - U)) <= 1e-13
    assert np.max(np.abs(F[..., 1] - V)) <= 1e-13
    assert np.max(np.abs(F[..., 2:])) <= 1e-13
    for k in range(4):
        col = field.column(k)
        assert np.max(np.abs(col - col[0, 0])) <= 1e-13
    assert drift["gram_max"] <= 1e-13


def test_flat_torus_reproduces_immersion():
    case = CaseSpec("R", 0.0)
    spec = GridSpec.over_box((0, np.pi / 2), (0, np.pi / 2), 64, 64)
    coeffs = CoefficientSet.from_arrays(spec, alpha1=-1.0, beta3=-1.0)
    field, _ = integrate_frame(coeffs, case, _torus_frame0())
    U, V = spec.mesh()
    exact = np.stack([np.cos(U), np.sin(U), np.cos(V), np.sin(V)], axis=-1)
    assert np.max(np.abs(field.column(4) - exact)) <= 1e-6


def test_flat_torus_fourth_order_convergence():
    case = CaseSpec("R", 0.0)
    errs = []
    for n in (33, 65):
        spec = GridSpec.over_box((0, np.pi / 2), (0, np.pi / 2), n, n)
        coeffs = CoefficientSet.from_arrays(spec, alpha1=-1.0, beta3=-1.0)
        field, _ = integrate_frame(coeffs, case, _torus_frame0())
        U, V = spec.mesh()
        exact = np.stack([np.cos(U), np.sin(U), np.cos(V), np.sin(V)], axis=-1)
        errs.append(np.max(np.abs(field.column(4) - exact)))
    assert errs[0] / errs[1] >= 8.0


def test_geodesic_sphere_quadric_and_span():
    case = CaseSpec("R", 1.0)
    spec = GridSpec.over_box((-0.5, 0.5), (-0.5, 0.5), 65, 65)
    U, V = spec.mesh()
    lam = np.log(2.0 / (1.0 + U**2 + V**2))
    coeffs = CoefficientSet.from_arrays(spec, lam=lam)
    field, drift = integrate_frame(coeffs, case)
    assert drift["quadric_max"] <= 1e-6
    assert drift["gram_max"] <= 1e-6
    P = field.column(4).reshape(-1, 5)
    sv = np.linalg.svd(P - P.mean(axis=0), compute_uv=False)
    assert sv[3] / sv[0] <= 1e-6 and sv[4] / sv[0] <= 1e-6


def test_gram_drift_grows_with_violation():
    case = CaseSpec("R", 0.0)
    spec = GridSpec.over_box((0, 1), (0, 1), 33, 33)
    drifts = []
    for s in (0.0, 0.5, 1.0):
        coeffs = CoefficientSet.from_arrays(spec, alpha2=s)
        _, drift = integrate_frame(coeffs, case)
        drifts.append(drift["gram_max"])
    assert drifts[1] > 1e3 * drifts[0]
    assert drifts[2] >= 2.0 * drifts[1]  # residual scales like s^2


def test_report_defect_is_compatibility_defect():
    # the report reuses the swept connection; it must be the public defect
    rng = np.random.default_rng(11)
    spec = GridSpec.over_box((0, 1), (0, 1), 21, 19)
    for case_id in CASES:
        for l0 in (0.0, 0.8, -1.1):
            case = CaseSpec(case_id, l0)
            coeffs = random_coefficients(rng, spec)
            _, report = integrate_frame(coeffs, case)
            want = compatibility_defect(coeffs, case).max_abs()
            assert report["compatibility_defect"].hex() == want.hex(), (case_id, l0)


def test_gram_drift_matches_pointwise_oracle():
    # Gram entries from ambient_inner one grid point and one column pair at a time
    rng = np.random.default_rng(12)
    spec = GridSpec.over_box((0, 1), (0, 1), 17, 17)
    for case_id in CASES:
        for l0 in (0.0, 0.8, -1.1):
            case = CaseSpec(case_id, l0)
            sig = ambient_signature(case)
            values = rng.standard_normal((17, 17, sig.dim, 5))
            lam = 0.3 * rng.standard_normal((17, 17))
            got = FrameField(case, spec, values).gram_drift(FieldGrid(spec, lam))
            target = case.frame_signs
            want = {"gram_max": 0.0, "quadric_max": 0.0, "position_cross_max": 0.0}
            for i in range(17):
                for j in range(17):
                    e2l = np.exp(2 * lam[i, j])
                    cols = values[i, j].T
                    for k in range(4):
                        for m in range(4):
                            dev = ambient_inner(cols[k], cols[m], sig) - (
                                target[k] * e2l if k == m else 0.0)
                            want["gram_max"] = max(want["gram_max"], abs(dev) / e2l)
                    if l0 != 0:
                        want["quadric_max"] = max(
                            want["quadric_max"],
                            abs(ambient_inner(cols[4], cols[4], sig) - 1.0 / l0))
                        for k in range(4):
                            want["position_cross_max"] = max(
                                want["position_cross_max"],
                                abs(ambient_inner(cols[4], cols[k], sig)))
            assert got.keys() == ({"gram_max"} if l0 == 0 else want.keys())
            for key in got:
                assert got[key] == pytest.approx(want[key], rel=1e-14, abs=0), (case_id, l0, key)


@pytest.mark.parametrize("column", [2, 4], ids=["frame-block", "F"])
@pytest.mark.parametrize("case", [CaseSpec(c, l0) for c in ("R", "LT") for l0 in (0.0, 0.8)],
                         ids=lambda c: f"{c.case_id}{c.l0:g}")
def test_gram_defects_are_nan_strict(case, column):
    # a NaN in one frame entry (component 1 of N1, or of F) is a NaN in
    # every defect that reads it, through every fold: the whole grid, the
    # drift's row slabs and the mesh path's column blocks, with the NaN in
    # a later slab and block than the first, where Python's max would drop
    # it.  The frame0 gate refuses such a frame and names the first NaN key
    nu, nv = grid.SLAB_ROWS + 5, 11
    spec = GridSpec.over_box((0, 1), (0, 1), nu, nv)
    frame0 = canonical_frame0(case)
    values = np.broadcast_to(frame0, (nu, nv, *frame0.shape)).copy()
    values[nu - 2, nv - 3, 1, column] = np.nan
    touched = {"gram_max"} if column < 4 else set()
    if case.l0 != 0:
        touched |= {"position_cross_max"} | ({"quadric_max"} if column == 4 else set())
    e2l = np.ones((nu, nv))
    blocks = [_gram_defects(values[:, j:j + 4].swapaxes(0, 1), e2l[:, j:j + 4].T, case)
              for j in range(0, nv, 4)]
    for defects in (_gram_defects(values, e2l, case),
                    FrameField(case, spec, values).gram_drift(FieldGrid(spec, np.zeros((nu, nv)))),
                    integrator._gram_max(blocks)):
        assert defects.keys() == ({"gram_max"} if case.l0 == 0 else
                                  {"gram_max", "quadric_max", "position_cross_max"})
        assert {key for key, d in defects.items() if np.isnan(d)} == touched, defects
    if touched:
        name = "gram_max" if column < 4 else "quadric_max"
        with pytest.raises(ValueError, match=f"^frame0 violates the Gram conditions at the "
                                             f"base point: {name} nan > "):
            integrate_frame(CoefficientSet.from_arrays(spec), case, values[nu - 2, nv - 3])


@pytest.mark.parametrize("case", [CaseSpec(c, l0) for c in CASES for l0 in (0.0, 1.0)],
                         ids=lambda c: f"{c.case_id}{c.l0:g}")
def test_window_inner_products_are_ambient_inner_bit_for_bit(case):
    # reconstruction's inner products over a window's (columns, dim, nu)
    # memory against ambient_inner's einsum, zero signs included: entries
    # from a set with signed zeros and exactly cancelling products
    sig = ambient_signature(case)
    rng = np.random.default_rng(3)
    x, y = rng.choice([-2.0, -0.5, -0.0, 0.0, 0.5, 1.0], size=(2, 6, sig.dim, 7))
    got = integrator._inner(x, y, sig)
    want = ambient_inner(np.moveaxis(x, 1, -1), np.moveaxis(y, 1, -1), sig)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.any(want == 0)


def _reference_reconstruction(mesh, case):
    """Normal frame and coefficients by the per-point sequential projection.

    Each candidate loses its component along T1, T2 (and F for L0 != 0),
    then along the earlier normals, one vector after another; it is then
    scaled to length e^lambda and its sign follows its neighbor.
    """
    sig = ambient_signature(case)
    signs = sig.array()
    spec, F = mesh.spec, mesh.positions

    def inner(x, y):
        return np.sum(signs * x * y, axis=-1)

    T1 = _diff_along(F, spec.du, 0)
    T2 = _diff_along(F, spec.dv, 1)
    g1, _, n1s, n2s = case.frame_signs
    e2l = g1 * inner(T1, T1)
    lam = 0.5 * np.log(e2l)

    def project_point(cand, idx, others):
        for b in (T1[idx], T2[idx], *([F[idx]] if case.l0 != 0 else []), *others):
            cand = cand - (inner(cand, b) / inner(b, b))[..., None] * b
        return cand

    def normalize(cand, idx, prev):
        cand = cand * (np.exp(lam[idx]) / np.sqrt(np.abs(inner(cand, cand))))[..., None]
        if prev is not None:
            cand = np.where((np.sum(cand * prev, axis=-1) < 0)[..., None], -cand, cand)
        return cand

    def propagate(want_sign, seed, others_of):
        N = np.empty_like(F)
        for cand in [seed] + list(np.eye(sig.dim)):
            base = project_point(cand, (0, 0), others_of((0, 0)))
            if want_sign * inner(base, base) > 1e-6:
                break
        N[0, 0] = normalize(base, (0, 0), None)
        for i in range(1, spec.nu):
            N[i, 0] = normalize(project_point(N[i - 1, 0], (i, 0), others_of((i, 0))),
                                (i, 0), N[i - 1, 0])
        for j in range(1, spec.nv):
            idx = (slice(None), j)
            N[:, j] = normalize(project_point(N[:, j - 1], idx, others_of(idx)),
                                idx, N[:, j - 1])
        return N

    seed = canonical_frame0(case, 0.0)
    N1 = propagate(n1s, seed[:, 2], lambda idx: [])
    N2 = propagate(n2s, seed[:, 3], lambda idx: [N1[idx]])
    Fuu = _diff2_along(F, spec.du, 0)
    Fuv = _diff_along(T1, spec.dv, 1)
    Fvv = _diff2_along(F, spec.dv, 1)
    fields = {"lambda": lam}
    for name, N, s in (("alpha", N1, n1s), ("beta", N2, n2s)):
        for k, D in enumerate((Fuu, Fuv, Fvv)):
            fields[f"{name}{k + 1}"] = s / e2l * inner(D, N)
    fields["mu1"] = n2s / e2l * inner(_diff_along(N1, spec.du, 0), N2)
    fields["mu2"] = n2s / e2l * inner(_diff_along(N1, spec.dv, 1), N2)
    return N1, N2, fields


def test_reconstruct_matches_pointwise_reference():
    spec = GridSpec.over_box((0, 1), (0, 1), 33, 33)
    U, V = spec.mesh()
    s2 = np.sqrt(2.0)
    pots = [
        (CaseSpec("R", 0.0), NotldPotentials(
            f_minus=FieldGrid(spec, U), angle=FieldGrid.constant(spec, 1.2),
            theta_minus=FieldGrid(spec, 0.5 + 0.2 * np.sin(U)))),
        (CaseSpec("NT", 0.0, eps=1), NotldPotentials(
            f_minus=FieldGrid(spec, U), angle=FieldGrid.constant(spec, 0.7),
            t_minus=FieldGrid(spec, 0.4 + 0.1 * np.cos(V)), eps_prime=1)),
        (CaseSpec("LS", 0.0), NotldPotentials(
            f=FieldGrid(spec, (1 + 1j) * U + (s2 - 1j / s2) * V),
            sigma=FieldGrid.constant(spec, np.pi / 2))),
        (CaseSpec("LT", 0.0), NotldPotentials(
            f=FieldGrid(spec, (1 + 1j) * U + (s2 + 1j / s2) * V),
            sigma=FieldGrid.constant(spec, np.pi / 2))),
    ]
    inputs = [(case, build_notld_family(pot, case).coeffs) for case, pot in pots]
    sphere = GridSpec.over_box((-0.5, 0.5), (-0.5, 0.5), 33, 33)
    Us, Vs = sphere.mesh()
    inputs.append((CaseSpec("R", 1.0), CoefficientSet.from_arrays(
        sphere, lam=np.log(2.0 / (1.0 + Us**2 + Vs**2)))))
    for case, coeffs in inputs:
        mesh = integrate_frame(coeffs, case)[0].mesh()
        rec, report = reconstruct_coefficients(mesh, case)
        N1, N2, want = _reference_reconstruction(mesh, case)
        assert np.max(np.abs(np.subtract(report["base_normal1"], N1[0, 0]))) <= 1e-13
        assert np.max(np.abs(np.subtract(report["base_normal2"], N2[0, 0]))) <= 1e-13
        for name, got in rec.arrays().items():
            dev = np.max(np.abs(got - want[name]))
            assert dev <= 1e-13 * (1 + np.max(np.abs(want[name]))), (case.case_id, name, dev)


@pytest.mark.parametrize("case_id,l0", [
    ("R", 0.0), ("R", 1.0), ("R", -1.0),
    ("NS", 0.0), ("NS", 2.0), ("NT", 0.0), ("NT", -0.5),
    ("LS", 0.0), ("LS", 1.0), ("LT", 0.0), ("LT", -1.0),
])
def test_canonical_frame_gram_exact(case_id, l0):
    case = CaseSpec(case_id, l0)
    frame = canonical_frame0(case, 0.3)
    sig = ambient_signature(case)
    e2l = np.exp(0.6)
    gram = np.einsum("ak,a,al->kl", frame, sig.array(), frame)
    diag = (*case.g_signs, *case.n_signs)
    for k in range(4):
        for m in range(4):
            want = diag[k] * e2l if k == m else 0.0
            assert gram[k, m] == pytest.approx(want, abs=1e-12)
    if l0 != 0:
        assert gram[4, 4] == pytest.approx(1.0 / l0, abs=1e-12)
        assert np.max(np.abs(gram[4, :4])) <= 1e-12


def test_frame0_gate_refuses_a_frame_off_the_quadric():
    # <F, F> = 1 + 5e-9 on the unit quadric at e^{2 lambda0} = 100: the
    # quadric entry does not scale with lambda, so no e^{2 lambda0} divides
    # its deviation down to round-off
    case = CaseSpec("R", 1.0)
    lam0 = np.log(10.0)
    coeffs = CoefficientSet.from_arrays(GridSpec.over_box((0, 1), (0, 1), 5, 5), lam=lam0)
    frame0 = canonical_frame0(case, lam0)
    frame0[:, 4] *= np.sqrt(1 + 5e-9)
    with pytest.raises(ValueError, match=r"^frame0 violates the Gram conditions at the base "
                                         r"point: quadric_max 5\.000e-09 > 1\.000e-10$"):
        integrate_frame(coeffs, case, frame0)


@pytest.mark.parametrize("case_id", CASES)
def test_canonical_frames_meet_the_frame0_gate(case_id):
    # the gate reads _gram_defects on frame0: a canonical frame is at
    # round-off for any lambda0, one with N1 scaled by 1 + 1e-8 is refused
    spec = GridSpec.over_box((0, 1), (0, 1), 5, 5)
    for l0 in (0.0, 1.5, -0.7):
        case = CaseSpec(case_id, l0)
        for lam0 in (-5.0, 0.0, 8.0):
            frame0 = canonical_frame0(case, lam0)
            defects = _gram_defects(frame0, np.exp(2 * lam0), case)
            assert len(defects) == (3 if l0 else 1)
            assert max(defects.values()) <= 4 * np.finfo(float).eps, (l0, lam0, defects)
            frame0[:, 2] *= 1 + 1e-8
            with pytest.raises(ValueError, match="frame0 violates the Gram conditions at the "
                                                 "base point: gram_max 2.000e-08 > "):
                integrate_frame(CoefficientSet.from_arrays(spec, lam=lam0), case, frame0)


@pytest.mark.parametrize("case_id", ["R", "LT"])
def test_frame0_gate_keeps_the_cross_entries_absolute(case_id):
    # a rotated (and, on LT, boosted) canonical frame is exact up to
    # round-off, but its <F, T_i> and <F, N_i> are off 0 by about
    # 1e-16 e^{lambda0} / sqrt|L0|: the absolute gate holds it at
    # lambda0 = 8 and refuses it at lambda0 = 16, where only frames with
    # exactly zero cross entries, such as the canonical one, pass
    case = CaseSpec(case_id, 1.0)
    signs = ambient_signature(case).array()
    space = np.flatnonzero(signs > 0)
    Q = np.eye(len(signs))
    rotation = np.linalg.qr(np.random.default_rng(0).standard_normal((space.size,) * 2))[0]
    Q[np.ix_(space, space)] = rotation
    if case_id == "LT":
        boost = np.eye(5)
        boost[[0, 4], [0, 4]] = np.cosh(0.8)
        boost[[0, 4], [4, 0]] = np.sinh(0.8)
        Q = boost @ Q
    for lam0, passes in ((8.0, True), (16.0, False)):
        frame0 = Q @ canonical_frame0(case, lam0)
        defects = _gram_defects(frame0, np.exp(2 * lam0), case)
        assert (max(defects.values()) <= ROUND_OFF_TOL) == passes, (lam0, defects)
        assert max(defects.values()) == defects["position_cross_max"]
    coeffs = CoefficientSet.from_arrays(GridSpec.over_box((0, 1), (0, 1), 5, 5), lam=lam0)
    with pytest.raises(ValueError, match="frame0 violates the Gram conditions at the base "
                                         "point: position_cross_max "):
        integrate_frame(coeffs, case, frame0)


def test_reconstruct_plane():
    case = CaseSpec("R", 0.0)
    spec = GridSpec.over_box((0, 1), (0, 1), 17, 17)
    U, V = spec.mesh()
    mesh = SurfaceMesh(spec, np.stack([U, V, 0 * U, 0 * U], axis=-1))
    coeffs, report = reconstruct_coefficients(mesh, case)
    assert coeffs.max_abs() <= 1e-10
    assert report["isothermality_defect"] <= 1e-12


def test_reconstruct_flat_torus_invariants():
    case = CaseSpec("R", 0.0)
    spec = GridSpec.over_box((0, np.pi / 2), (0, np.pi / 2), 64, 64)
    coeffs = CoefficientSet.from_arrays(spec, alpha1=-1.0, beta3=-1.0)
    field, _ = integrate_frame(coeffs, case, _torus_frame0())
    rec, _ = reconstruct_coefficients(field.mesh(), case)
    h2 = spec.hmax**2
    assert np.max(np.abs(dependence_minors(rec).values - 1.0)) <= 40 * h2
    assert np.max(np.abs(curvature_minus_l0(rec, case).values)) <= 40 * h2
    assert normal_flatness_defect(rec).max_abs() <= 40 * h2
    assert np.max(np.abs(rec.lam.values)) <= 40 * h2


def test_reconstruct_geodesic_sphere():
    case = CaseSpec("R", 1.0)
    spec = GridSpec.over_box((-0.4, 0.4), (-0.4, 0.4), 65, 65)
    U, V = spec.mesh()
    lam = np.log(2.0 / (1.0 + U**2 + V**2))
    coeffs = CoefficientSet.from_arrays(spec, lam=lam)
    field, _ = integrate_frame(coeffs, case)
    rec, _ = reconstruct_coefficients(field.mesh(), case)
    h2 = spec.hmax**2
    assert np.max(np.abs(rec.lam.values - lam)) <= 50 * h2
    assert float(np.max(np.abs(second_form_pseudo_norm(rec, case).values))) <= 50 * h2


def test_reconstruct_signature_mismatch():
    # time-like u-tangent cannot be read as a space-like immersion of E^4_1
    spec = GridSpec.over_box((0, 1), (0, 1), 17, 17)
    U, V = spec.mesh()
    mesh = SurfaceMesh(spec, np.stack([V, 0 * U, 0 * U, U], axis=-1))
    with pytest.raises(SignatureError):
        reconstruct_coefficients(mesh, CaseSpec("LS", 0.0))


def test_reconstruct_torus_as_neutral_timelike():
    """The product-of-circles coordinates read in E^4_2 are a genuine
    time-like immersion; reconstruction in case NT must succeed and
    reproduce the same coefficient pattern."""
    case = CaseSpec("R", 0.0)
    spec = GridSpec.over_box((0, np.pi / 2), (0, np.pi / 2), 33, 33)
    coeffs = CoefficientSet.from_arrays(spec, alpha1=-1.0, beta3=-1.0)
    field, _ = integrate_frame(coeffs, case, _torus_frame0())
    rec, _ = reconstruct_coefficients(field.mesh(), CaseSpec("NT", 0.0))
    assert np.max(np.abs(rec.lam.values)) <= 40 * spec.hmax**2


def test_reconstruct_nonconformal_rejected():
    spec = GridSpec.over_box((0, 1), (0, 1), 17, 17)
    U, V = spec.mesh()
    mesh = SurfaceMesh(spec, np.stack([U, 2 * V, 0 * U, 0 * U], axis=-1))
    with pytest.raises(NotConformalError):
        reconstruct_coefficients(mesh, CaseSpec("R", 0.0))


def test_reconstruct_checks_the_quadric():
    # the sphere integrated in the L0 = 1 model lies on <x, x> = 1, so it is
    # off the quadrics of L0 = 2 and L0 = 0.25; a NaN position fails too
    case = CaseSpec("R", 1.0)
    spec = GridSpec.over_box((-0.5, 0.5), (-0.5, 0.5), 33, 33)
    U, V = spec.mesh()
    sphere = CoefficientSet.from_arrays(spec, lam=np.log(2.0 / (1.0 + U**2 + V**2)))
    mesh = integrate_frame(sphere, case)[0].mesh()
    reconstruct_coefficients(mesh, case)
    for l0, deviation in ((2.0, 0.5), (0.25, 3.0)):
        with pytest.raises(OffQuadricError) as err:
            reconstruct_coefficients(mesh, CaseSpec("R", l0))
        tol = residual_tolerance(spec, 1 / l0)
        assert str(err.value).startswith(
            f"mesh is off the quadric <x, x> = 1/L0 = {1 / l0:g}: max deviation "
            f"{deviation:.3e} > tolerance {tol:.3e}")
    mesh.positions[7, 3, 1] = np.nan
    with pytest.raises(OffQuadricError, match="max deviation nan"):
        reconstruct_coefficients(mesh, case)


# --------------------------------------------------------------------------
# mesh files and export
# --------------------------------------------------------------------------

def test_mesh_file_roundtrip(tmp_path):
    spec = GridSpec.over_box((0, 1), (0, 1), 9, 9)
    rng = np.random.default_rng(1)
    mesh = SurfaceMesh(spec, rng.standard_normal((9, 9, 4)))
    path = tmp_path / "mesh.json"
    save_mesh(path, mesh)
    back = load_mesh(path)
    assert np.array_equal(back.positions, mesh.positions)


def test_csv_export_bit_exact(tmp_path):
    spec = GridSpec.over_box((0, 1), (0, 1), 5, 5)
    rng = np.random.default_rng(2)
    mesh = SurfaceMesh(spec, rng.standard_normal((5, 5, 4)))
    path = tmp_path / "mesh.csv"
    export_mesh(mesh, path, "csv")
    _, _, coords = load_mesh_csv(path)
    assert np.array_equal(coords, mesh.positions.reshape(-1, 4))


def _reference_csv(mesh) -> bytes:
    U, V = mesh.spec.mesh()
    nu, nv, dim = mesh.positions.shape
    out = io.StringIO(newline="")
    w = csv.writer(out)
    w.writerow(["u", "v"] + [f"x{k}" for k in range(dim)])
    for i in range(nu):
        for j in range(nv):
            w.writerow([repr(float(U[i, j])), repr(float(V[i, j]))]
                       + [repr(float(c)) for c in mesh.positions[i, j]])
    return out.getvalue().encode()


def _reference_obj(positions, axes) -> bytes:
    nu, nv, _ = positions.shape
    out = []
    for i in range(nu):
        for j in range(nv):
            p = positions[i, j]
            out.append(f"v {float(p[axes[0]])!r} {float(p[axes[1]])!r} {float(p[axes[2]])!r}\n")
    for i in range(nu - 1):
        for j in range(nv - 1):
            a = i * nv + j + 1
            b = (i + 1) * nv + j + 1
            out.append(f"f {a} {b} {b + 1} {a + 1}\n")
    return "".join(out).encode()


def test_exports_match_per_vertex_reference(tmp_path):
    spec = GridSpec(-0.0, 0.25, 0.1, 1e-3, 7, 11)
    rng = np.random.default_rng(5)
    pos = 10.0 ** rng.uniform(-300, 300, (7, 11, 5)) * rng.choice([-1, 1], (7, 11, 5))
    pos.flat[:6] = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, -5e-324, 0.0]
    mesh = SurfaceMesh(spec, pos)
    path = tmp_path / "mesh.csv"
    export_mesh(mesh, path, "csv")
    assert path.read_bytes() == _reference_csv(mesh)
    for axes in ((0, 1, 2), (4, 0, 2), (3, -1, 3)):
        path = tmp_path / "mesh.obj"
        export_mesh(mesh, path, "obj3d", axes)
        assert path.read_bytes() == _reference_obj(pos, axes), axes
    bare = np.arange(5 * 6 * 3).reshape(5, 6, 3)  # integer positions print as floats
    export_mesh(bare, path, "obj3d")
    assert path.read_bytes() == _reference_obj(bare, (0, 1, 2))


@pytest.mark.parametrize("rows", [1, 7, "all"])
def test_export_writes_the_same_bytes_in_any_chunks(rows, tmp_path, monkeypatch):
    # 70 x 64 points take two chunks of the default 4096 rows; chunks of 1,
    # of 7 (which divides neither 70 * 64 nor 69 * 63) and of every row at
    # once write the same bytes, through every format and a bare array
    spec = GridSpec(-0.0, 0.25, 0.1, 1e-3, 70, 64)
    rng = np.random.default_rng(8)
    pos = 10.0 ** rng.uniform(-300, 300, (70, 64, 5)) * rng.choice([-1, 1], (70, 64, 5))
    pos.flat[:6] = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, -5e-324, 0.0]
    mesh = SurfaceMesh(spec, pos)

    def written():
        out = []
        for name, args in (("m.csv", (mesh, "csv")), ("m.obj", (mesh, "obj3d", (4, -1, 2))),
                           ("bare.obj", (pos[..., ::2], "obj3d"))):
            export_mesh(args[0], tmp_path / name, *args[1:])
            out.append((tmp_path / name).read_bytes())
        return out

    default = written()
    assert integrator._ROWS_PER_WRITE < 70 * 64
    monkeypatch.setattr(integrator, "_ROWS_PER_WRITE", 70 * 64 if rows == "all" else rows)
    assert written() == default
    assert default[0] == _reference_csv(mesh)
    assert default[1] == _reference_obj(pos, (4, -1, 2))


def test_export_rejects_complex_positions(tmp_path):
    # a SurfaceMesh refuses them where it is made; a bare array where it is exported
    spec = GridSpec(0.0, 0.0, 0.1, 0.1, 5, 5)
    path = tmp_path / "mesh.obj"
    with pytest.raises(ValueError, match="must be real"):
        SurfaceMesh(spec, np.ones((5, 5, 4)) + 0j)
    for fmt in ("obj3d", "csv"):
        with pytest.raises(ValueError, match="must be real"):
            export_mesh(np.ones((3, 3, 3)) * 1j, path, fmt)
    assert not path.exists()


def test_obj_two_by_two(tmp_path):
    positions = np.array([[[0.0, 0, 0], [0, 1, 0]],
                          [[1.0, 0, 0], [1, 1, 0]]])
    path = tmp_path / "plane.obj"
    export_mesh(positions, path, "obj3d")
    lines = path.read_text().strip().splitlines()
    verts = [l for l in lines if l.startswith("v ")]
    faces = [l for l in lines if l.startswith("f ")]
    assert len(verts) == 4 and len(faces) == 1
    assert faces[0] == "f 1 3 4 2"


def test_obj_flat_torus_projection(tmp_path):
    case = CaseSpec("R", 0.0)
    spec = GridSpec.over_box((0, np.pi / 2), (0, np.pi / 2), 9, 9)
    coeffs = CoefficientSet.from_arrays(spec, alpha1=-1.0, beta3=-1.0)
    field, _ = integrate_frame(coeffs, case, _torus_frame0())
    path = tmp_path / "torus.obj"
    export_mesh(field.mesh(), path, "obj3d", axes=(0, 1, 2))
    verts = [l for l in path.read_text().splitlines() if l.startswith("v ")]
    assert len(verts) == 81
    xy = np.array([[float(x) for x in l.split()[1:]] for l in verts])
    # projection to the first circle's plane plus the second circle's cosine
    assert np.max(np.abs(xy[:, 0] ** 2 + xy[:, 1] ** 2 - 1.0)) <= 1e-6


def test_substeps_follow_the_torus_reach(tmp_path, monkeypatch):
    # the 9x9 torus of test_obj_flat_torus_projection reaches
    # h ||S||_F = sqrt(3) pi / 16 = 0.34 per cell, so it takes four substeps,
    # and its OBJ is the one of the fixed four-substep kernel, byte for byte;
    # at 129^2 the reach is 0.021: one substep per cell
    case = CaseSpec("R", 0.0)
    for n, substeps in ((129, 1), (9, 4)):
        spec = GridSpec.over_box((0, np.pi / 2), (0, np.pi / 2), n, n)
        coeffs = CoefficientSet.from_arrays(spec, alpha1=-1.0, beta3=-1.0)
        field, report = integrate_frame(coeffs, case, _torus_frame0())
        assert report["substeps"] == {"u": substeps, "v": substeps}
    export_mesh(field.mesh(), tmp_path / "torus.obj", "obj3d")
    monkeypatch.setattr(frames, "_substeps", lambda h, mats: 4)
    field4, _ = integrate_frame(coeffs, case, _torus_frame0())
    export_mesh(field4.mesh(), tmp_path / "torus4.obj", "obj3d")
    assert (tmp_path / "torus.obj").read_bytes() == (tmp_path / "torus4.obj").read_bytes()
