"""The streamed passes against whole-grid references, bit for bit.

The Gram drift, the frame sweep, the command line's mesh path and
reconstruction work one row slab (``grid.SLAB_ROWS`` rows plus a halo)
or one column window at a time, and the closed-form defect one slab of
``frames._DEFECT_ROWS`` rows.  On
grids whose rows end before, at and just past a slab boundary, and whose
columns cross sweep and reconstruction windows, every output must equal
what the whole-grid formula gives (the defect's: the closed form over the
whole grid, itself the matrix form to round-off; reconstruction's
normals: what Gram-Schmidt one point at a time gives), and the round
trip's peak memory must stay near its output.  The matrix curvature of
whole-grid S and T is the oracle of both closed forms: the frame's defect
and the angle system's obstruction 2-forms.
"""

import tracemalloc

import numpy as np
import pytest

from normalflat import CaseSpec, CoefficientSet, FieldGrid, GridSpec, frames, grid, integrator
from normalflat.families import NotldPotentials, build_notld_family, build_product_family
from normalflat.frames import assemble_connection, compatibility_defect
from normalflat.grid import curl
from normalflat.integrator import canonical_frame0, integrate_frame, reconstruct_coefficients
from normalflat.riccati import _block, build_forms, forms_from_vectors, solve_riccati
from normalflat.spaceform import ambient_inner, ambient_signature

from conftest import plain_sweep, random_coefficients

SLAB = grid.SLAB_ROWS
DEFECT = frames._DEFECT_ROWS
# (nu, nv): rows ending inside, at and past a slab; columns within one sweep
# window of 32 cells (``_sweep_windows``), ending at one, and crossing two
SHAPES = [(5, 7), (6, 37), (SLAB - 1, 9), (SLAB, 34), (SLAB + 1, 69), (2 * SLAB + 3, 6)]
CASES = [CaseSpec("R", 0.0), CaseSpec("R", 0.7), CaseSpec("NS", -0.6), CaseSpec("NT", 0.7),
         CaseSpec("LS", -0.6), CaseSpec("LT", 0.7)]


def _spec(shape):
    return GridSpec.over_box((-0.3, 0.4), (-0.2, 0.5), *shape)


def _sweep_windows(monkeypatch, spec, d):
    """Column windows of 32 cells on spec, d x d matrices, maps formed 5
    cells at a time."""
    monkeypatch.setattr(frames, "_WINDOW_POINTS", 32 * spec.nu)
    monkeypatch.setattr(frames, "_MAP_ENTRIES", 5 * spec.nu * d * d)


def _curvature(S, T, spec):
    """S_v - T_u - (ST - TS) per grid point, for (nu, nv, d, d) matrices."""
    return curl(S, T, spec) - (S @ T - T @ S)


def _angle_connection(forms):
    """The angle system's whole-grid S and T."""
    block = _block(forms.omega0, forms.omega1, forms.omega2)
    return block(0, lambda x: x), block(1, lambda x: x)


def _whole_grid_sweep(S, T, state0, spec):
    """The plain sweep over whole-grid S and T: the base row, then every
    column of the line-first T, one cell map at a time."""
    return plain_sweep(S[:, 0], np.ascontiguousarray(np.moveaxis(T, 1, 0)), state0, spec)[0]


def _per_point_reconstruction(mesh, case):
    """Reconstruction with whole-grid calculus and the normals propagated
    one point at a time: sign-aligned Gram-Schmidt against T1, T2 (and F
    for L0 != 0), N1 over the whole grid first, then N2 also against N1;
    the base row along u, then each column along v."""
    sig = ambient_signature(case)
    spec, F = mesh.spec, mesh.positions
    sg = sig.array()
    g1, g2, n1s, n2s = case.frame_signs
    T1, T2 = grid.grad(F, spec)
    e2l = g1 * ambient_inner(T1, T1, sig)
    q22 = g2 * ambient_inner(T2, T2, sig)
    lam = 0.5 * np.log(e2l)
    el = np.exp(lam)

    def dot(x, y):
        return np.sum(x * y)

    N = np.empty((2, *F.shape))
    for k, want in enumerate((n1s, n2s)):
        def project(c, i, j):
            for b in (T1[i, j], T2[i, j], *([F[i, j]] if case.l0 != 0 else []),
                      *([N[0, i, j]] if k else [])):
                c = c - dot(sg * c, b) / dot(sg * b, b) * b
            return c

        def normalize(c, i, j, prev=None):
            sq = dot(sg * c, c)
            assert want * sq > 0
            c = c * (el[i, j] / np.sqrt(np.abs(sq)))
            return -c if prev is not None and dot(c, prev) < 0 else c

        # the canonical seed, or the first ambient axis of the right type
        seeds = (project(a, 0, 0) for a in (canonical_frame0(case)[:, 2 + k], *np.eye(sig.dim)))
        N[k, 0, 0] = normalize(next(c for c in seeds if want * dot(sg * c, c) > 1e-6), 0, 0)
        for i in range(1, spec.nu):
            N[k, i, 0] = normalize(project(N[k, i - 1, 0], i, 0), i, 0, N[k, i - 1, 0])
        for j in range(1, spec.nv):
            for i in range(spec.nu):
                N[k, i, j] = normalize(project(N[k, i, j - 1], i, j), i, j, N[k, i, j - 1])

    Fuu, Fuv, Fvv = grid.hessian(F, spec)
    N1u, N1v = grid.grad(N[0], spec)
    inv1, inv2 = n1s / e2l, n2s / e2l
    fields = {name: inv * ambient_inner(d2F, n, sig) for name, inv, d2F, n in (
        ("alpha1", inv1, Fuu, N[0]), ("alpha2", inv1, Fuv, N[0]), ("alpha3", inv1, Fvv, N[0]),
        ("beta1", inv2, Fuu, N[1]), ("beta2", inv2, Fuv, N[1]), ("beta3", inv2, Fvv, N[1]),
        ("mu1", inv2, N1u, N[1]), ("mu2", inv2, N1v, N[1]))}
    iso = max(float(np.max(np.abs(e2l - q22) / e2l)),
              float(np.max(np.abs(ambient_inner(T1, T2, sig)) / e2l)))
    gauge = {"isothermality_defect": iso, "base_normal1": N[0, 0, 0].tolist(),
             "base_normal2": N[1, 0, 0].tolist()}
    return CoefficientSet.from_arrays(spec, lam=lam, **fields), gauge


def _whole_grid_gram_drift(values, lam, case):
    """The drift from the whole grid's Gram matrices, every entry summed
    over the ambient components left to right from +0.0 (einsum's order,
    as ``ambient_inner`` sums)."""
    signs = ambient_signature(case).array()
    e2l = np.exp(2 * lam)
    gram = np.einsum("...ak,a,...am->...km", values, signs, values)
    target = np.diag(case.frame_signs) * e2l[..., None, None]
    out = {"gram_max": float(np.max(np.abs(gram[..., :4, :4] - target)
                                    / e2l[..., None, None]))}
    if case.l0 != 0:
        out["quadric_max"] = float(np.max(np.abs(gram[..., 4, 4] - 1.0 / case.l0)))
        out["position_cross_max"] = float(np.max(np.abs(gram[..., 4, :4])))
    return out


def _geodesic(case, spec):
    """A totally geodesic surface of the case's quadric (a plane for L0 = 0):
    lambda = log(2 / (1 + L0 (g1 u^2 + g2 v^2))), every other field zero."""
    U, V = spec.mesh()
    g1, g2 = case.g_signs
    return CoefficientSet.from_arrays(
        spec, lam=np.log(2.0 / (1.0 + case.l0 * (g1 * U**2 + g2 * V**2))))


def _surface_mesh(case, spec):
    """The integrated flat torus (L0 = 0) or totally geodesic surface."""
    coeffs = (CoefficientSet.from_arrays(spec, alpha1=-1.0, beta3=-1.0) if case.l0 == 0
              else _geodesic(case, spec))
    return integrate_frame(coeffs, case)[0].mesh()


def _whole_grid_defect(coeffs, case, monkeypatch):
    """The closed-form defect with the whole grid as its one slab."""
    with monkeypatch.context() as m:
        m.setattr(frames, "_DEFECT_ROWS", coeffs.spec.nu)
        return compatibility_defect(coeffs, case).values


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c.case_id}{c.l0:g}")
def test_defect_frame_and_drift_match_the_whole_grid(case, shape, monkeypatch):
    spec = _spec(shape)
    coeffs = random_coefficients(np.random.default_rng(shape[0] * 100 + shape[1]), spec)
    defect = _whole_grid_defect(coeffs, case, monkeypatch)
    # slabs of SLAB rows, so that these shapes end inside, at and past one
    with monkeypatch.context() as m:
        m.setattr(frames, "_DEFECT_ROWS", SLAB)
        assert np.array_equal(compatibility_defect(coeffs, case).values, defect)

    S, T = assemble_connection(coeffs, case)
    _sweep_windows(monkeypatch, spec, 5)
    field, report = integrate_frame(coeffs, case)
    frame0 = np.array(report["frame0"])
    assert np.array_equal(field.values, _whole_grid_sweep(S, T, frame0, spec))
    gram = _whole_grid_gram_drift(field.values, coeffs.lam.values, case)
    assert {k: report[k] for k in gram} == gram
    assert report["compatibility_defect"] == float(np.max(defect))

    # a second lambda: the drift's own slabs, against the whole-grid formula
    lam = coeffs.alpha1.values
    assert field.gram_drift(FieldGrid(spec, lam)) == _whole_grid_gram_drift(field.values,
                                                                             lam, case)


@pytest.mark.parametrize("shape", [(37, 41), (5, 5)])
@pytest.mark.parametrize("case", [CaseSpec(c, l0) for c in ("R", "NS", "NT", "LS", "LT")
                                  for l0 in (0.0, 1.0)], ids=lambda c: f"{c.case_id}{c.l0:g}")
def test_mesh_path_matches_the_frame_path(case, shape, monkeypatch):
    # the command line's mesh path keeps each column block's positions and
    # Gram defects: its mesh and report are integrate_frame's mesh and report
    # (gram_drift's row slabs among it), bit for bit, on columns that are not
    # a multiple of the sweep window and on the smallest grid
    spec = _spec(shape)
    coeffs = random_coefficients(np.random.default_rng(shape[0] * 100 + shape[1]), spec)
    _sweep_windows(monkeypatch, spec, 5)
    field, report = integrate_frame(coeffs, case)
    assert {k: report[k] for k in ("gram_max", "quadric_max", "position_cross_max")
            if k in report} == field.gram_drift(coeffs.lam)
    assert ("quadric_max" in report) == (case.l0 != 0)
    monkeypatch.setattr(integrator, "fill", None)  # the mesh path fills no frame
    mesh, mesh_report = integrator._integrate_mesh(coeffs, case)
    positions = field.mesh().positions
    assert np.array_equal(mesh.positions, positions)
    assert np.array_equal(np.signbit(mesh.positions), np.signbit(positions))
    assert mesh_report == report


@pytest.mark.parametrize("nu", [DEFECT - 1, DEFECT, DEFECT + 1, 2 * DEFECT + 3])
def test_defect_slabs_of_the_default_height(nu, monkeypatch):
    spec = _spec((nu, 6))
    coeffs = random_coefficients(np.random.default_rng(nu), spec)
    for case in (CaseSpec("R", 0.7), CaseSpec("LT", -0.6)):
        assert np.array_equal(compatibility_defect(coeffs, case).values,
                              _whole_grid_defect(coeffs, case, monkeypatch))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c.case_id}{c.l0:g}")
def test_defect_is_the_matrix_form_to_round_off(case, shape):
    # the closed form sums the products of S and T in another order than
    # the matmuls: at most 16 eps (1 + m)^2 apart, m the largest |entry|
    # (measured: 1.0 eps (1 + m)^2)
    spec = _spec(shape)
    coeffs = random_coefficients(np.random.default_rng(shape[0] * 100 + shape[1]), spec)
    S, T = assemble_connection(coeffs, case)
    K = _curvature(S, T, spec)
    matrix = np.sqrt(np.sum(K * K, axis=(-2, -1)))
    m = max(np.max(np.abs(S)), np.max(np.abs(T)))
    diff = np.max(np.abs(compatibility_defect(coeffs, case).values - matrix))
    assert diff <= 16 * np.finfo(float).eps * (1 + m) ** 2, diff


# random 1-forms (None), then the angle system of R, NS and the four NT (eps, delta)
FORMS_CASES = [None, CaseSpec("R", 0.0), CaseSpec("NS", 0.0)] + [
    CaseSpec("NT", 0.0, eps=e, delta=d) for e in (1, -1) for d in (1, -1)]


@pytest.mark.parametrize("case", FORMS_CASES, ids=lambda c: "random" if c is None
                         else f"{c.case_id}{c.eps:+d}{c.delta:+d}")
def test_obstruction_forms_are_the_matrix_curvature_to_round_off(case):
    # Omega0, Omega1, Omega2 from their three equations against the entries
    # [[-O1/2, O2], [-O0, O1/2]] of the curvature of A^T du, A^T dv: the
    # products are summed in another order, at most 4 ulps of max |Omega|
    # apart (measured: 2)
    spec = GridSpec.over_box((0.1, 1.1), (0.1, 1.1), 65, 65)
    if case is None:
        rng = np.random.default_rng(65)
        forms = forms_from_vectors(spec, *(rng.uniform(-1, 1, (2, *spec.shape)) for _ in range(3)))
    else:
        U, V = spec.mesh()
        forms = build_forms(FieldGrid(spec, U + 0.3 * V**2), lambda s: 0.2 * s, case)
    K = _curvature(*_angle_connection(forms), spec)
    for got, want in ((forms.Omega0, -K[..., 1, 0]), (forms.Omega1, -2 * K[..., 0, 0]),
                      (forms.Omega2, K[..., 0, 1])):
        ulp = np.spacing(np.max(np.abs(want)))
        assert np.max(np.abs(got.values - want)) <= 4 * ulp


def test_defect_assembles_no_matrices(monkeypatch):
    def block(self, k, view):
        raise AssertionError("the defect assembled a block of S or T")

    monkeypatch.setattr(frames.FrameConnection, "block", block)
    spec = _spec(SHAPES[4])
    coeffs = random_coefficients(np.random.default_rng(4), spec)
    for case in CASES:
        compatibility_defect(coeffs, case)


# reconstruction windows of the default length, of one column and of the
# whole grid; the default keeps the ids of case and shape alone
@pytest.mark.parametrize("case, shape, window", [
    pytest.param(case, shape, window, id=f"{case.case_id}{case.l0:g}-shape{n}"
                 + ("" if window is None else f"-window-{window}"))
    for case in CASES for n, shape in enumerate(SHAPES) for window in (None, 1, "nv")])
def test_reconstruction_matches_one_slab(case, shape, window, monkeypatch):
    # with the whole grid one slab and one column window, every stencil
    # reads the whole grid: the whole-grid formula.  Windows of one column
    # put a window edge next to every column
    spec = _spec(shape)
    mesh = _surface_mesh(case, spec)
    if window is not None:
        monkeypatch.setattr(integrator, "_WINDOW", spec.nv if window == "nv" else window)
    rec, gauge = reconstruct_coefficients(mesh, case)
    monkeypatch.setattr(grid, "SLAB_ROWS", spec.nu)
    monkeypatch.setattr(integrator, "_WINDOW", spec.nv)
    whole, whole_gauge = reconstruct_coefficients(mesh, case)
    assert gauge == whole_gauge
    for name, f in rec.fields().items():
        assert np.array_equal(f.values, whole.fields()[name].values), name


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c.case_id}{c.l0:g}")
def test_reconstruction_matches_the_per_point_reference(case, shape):
    mesh = _surface_mesh(case, _spec(shape))
    rec, gauge = reconstruct_coefficients(mesh, case)
    ref, ref_gauge = _per_point_reconstruction(mesh, case)
    assert gauge == ref_gauge
    for name, f in rec.fields().items():
        want = ref.fields()[name].values
        assert np.array_equal(f.values, want), name
        assert np.array_equal(np.signbit(f.values), np.signbit(want)), name


@pytest.mark.parametrize("shape", SHAPES)
def test_riccati_solve_matches_the_whole_grid(shape, monkeypatch):
    spec = GridSpec.over_box((0.1, 0.6), (0.1, 0.5), *shape)
    _sweep_windows(monkeypatch, spec, 2)
    U, V = spec.mesh()
    case = CaseSpec("NT", 0.0)
    forms = build_forms(FieldGrid(spec, U + 0.3 * V**2), 0.4, case)
    sol = solve_riccati(forms, 0.2, case)
    S, T = _angle_connection(forms)
    Y = _whole_grid_sweep(S, T, np.array([[0.2, 1.0]]), spec)
    assert np.array_equal(sol.t.values, Y[..., 0, 0] / Y[..., 0, 1])


def test_round_trip_peak_memory():
    # 256^2 product torus: the frame sweep holds its output plus slabs and
    # windows (measured 1.63 frames), and reconstruction its output (2.25
    # meshes), lambda's exponentials and the arrays of a few column windows
    # (measured 5.41 meshes)
    case = CaseSpec("R", 0.0)
    spec = GridSpec.over_box((0, np.pi / 2), (0, np.pi / 2), 256, 256)
    coeffs = build_product_family(1.0, 1.0, case, spec).coeffs
    tracemalloc.start()
    try:
        field, _ = integrate_frame(coeffs, case)
        _, integrate_peak = tracemalloc.get_traced_memory()
        mesh = field.mesh()
        del field
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()
        reconstruct_coefficients(mesh, case)
        _, reconstruct_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    frame_bytes = 256 * 256 * 4 * 5 * 8
    assert integrate_peak <= 2.5 * frame_bytes, integrate_peak / frame_bytes
    assert reconstruct_peak - held <= 5.85 * mesh.positions.nbytes, \
        (reconstruct_peak - held) / mesh.positions.nbytes


def _traced_peak(fn):
    """(peak above what was held before fn ran, fn's result), in bytes."""
    tracemalloc.start()
    try:
        held, _ = tracemalloc.get_traced_memory()
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - held, result


def test_mesh_path_peak_memory():
    # 256^2 product torus, above the coefficients: the frame path holds the
    # (nu, nv, 4, 5) frame, five meshes, and its working set (measured 8.15
    # meshes).  The mesh path holds the mesh, the connection's two lambda
    # gradients (half a mesh), one window's states, matrices and Gram terms
    # and one chunk's maps (measured 4.15 meshes at 256^2; the window's
    # share falls with 1/nv).  The frame path's check is its frame alone, so
    # that a smaller working set passes
    case = CaseSpec("R", 0.0)
    spec = GridSpec.over_box((0, np.pi / 2), (0, np.pi / 2), 256, 256)
    coeffs = build_product_family(1.0, 1.0, case, spec).coeffs
    mesh_bytes = 256 * 256 * 4 * 8
    frame_peak, _ = _traced_peak(lambda: integrate_frame(coeffs, case))
    mesh_peak, _ = _traced_peak(lambda: integrator._integrate_mesh(coeffs, case))
    assert frame_peak >= 5 * mesh_bytes, frame_peak / mesh_bytes
    assert mesh_peak <= 4.5 * mesh_bytes, mesh_peak / mesh_bytes


def test_export_peak_memory(tmp_path):
    # a chunk of 4096 rows at a time: measured 0.94 MiB for the OBJ and
    # 1.58 MiB for the CSV of a 256^2 mesh in 4-space (5.4 and 7.3 MiB of
    # text), against 15.2 and 25.0 MiB with chunks of 65536 rows
    spec = GridSpec.over_box((0, 1), (0, 1), 256, 256)
    mesh = integrator.SurfaceMesh(spec, np.random.default_rng(0).standard_normal((256, 256, 4)))
    obj, _ = _traced_peak(lambda: integrator.export_mesh(mesh, tmp_path / "m.obj", "obj3d"))
    csv, _ = _traced_peak(lambda: integrator.export_mesh(mesh, tmp_path / "m.csv", "csv"))
    assert obj <= 1.25 * 2**20, obj / 2**20
    assert csv <= 2.0 * 2**20, csv / 2**20


def test_notld_family_peak_memory():
    # the R pipeline of the cli-pipeline benchmark at 256^2: its
    # intermediates are freed before certify runs (measured 39.2 grid
    # arrays, against 52.0 while they were alive)
    spec = GridSpec(0.0, 0.0, 1 / 255, 1 / 255, 256, 256)
    U, _ = spec.mesh()
    pot = NotldPotentials(f_minus=FieldGrid(spec, U), angle=FieldGrid.constant(spec, 1.2),
                          theta_minus=FieldGrid(spec, 0.5 + 0.2 * np.sin(U + 0.05)))
    del U
    peak, result = _traced_peak(lambda: build_notld_family(pot, CaseSpec("R", 0.0)))
    assert result.certificate["passed"]
    grid_bytes = 256 * 256 * 8
    assert peak <= 43 * grid_bytes, peak / grid_bytes


def test_defect_peak_memory():
    # the closed form holds its output and one slab's terms: measured 3.86
    # grid arrays at 256^2 above the connection's inputs, 11.0 with the
    # whole grid as one slab
    spec = GridSpec.over_box((0, 1), (0, 1), 256, 256)
    conn = frames.FrameConnection(random_coefficients(np.random.default_rng(1), spec),
                                  CaseSpec("LT", 0.7))
    tracemalloc.start()
    try:
        held, _ = tracemalloc.get_traced_memory()
        conn.curvature_norm()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    grid_bytes = 256 * 256 * 8
    assert peak - held <= 6 * grid_bytes, (peak - held) / grid_bytes


def test_riccati_peak_memory():
    # a solve holds both orders' states (2 grid arrays each), their
    # solutions and the matrices of one window: measured 5.38 grid arrays
    # at 256^2 above the forms, 13.4 while whole-grid S and T (8 grid
    # arrays) were assembled
    spec = GridSpec.over_box((0.1, 0.6), (0.1, 0.5), 256, 256)
    U, V = spec.mesh()
    case = CaseSpec("NT", 0.0)
    forms = build_forms(FieldGrid(spec, U + 0.3 * V**2), 0.4, case)
    tracemalloc.start()
    try:
        held, _ = tracemalloc.get_traced_memory()
        solve_riccati(forms, 0.2, case)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    grid_bytes = 256 * 256 * 8
    assert peak - held <= 6 * grid_bytes, (peak - held) / grid_bytes
