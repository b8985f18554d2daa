"""The streamed passes against whole-grid references, bit for bit.

The defect, the Gram drift, the frame sweep and reconstruction work one
row slab (``grid.SLAB_ROWS`` rows plus a halo) or one column window at a
time.  On grids whose rows end before, at and just past a slab boundary,
and whose columns cross sweep windows, every output must equal what the
whole-grid formula gives, and the round trip's peak memory must stay near
its output.
"""

import tracemalloc

import numpy as np
import pytest

from normalflat import CaseSpec, CoefficientSet, FieldGrid, GridSpec, grid
from normalflat.families import build_product_family
from normalflat.frames import _advance, assemble_connection, compatibility_defect, curvature
from normalflat.integrator import integrate_frame, reconstruct_coefficients
from normalflat.riccati import _connection, build_forms, solve_riccati
from normalflat.spaceform import ambient_signature

from conftest import random_coefficients

SLAB = grid.SLAB_ROWS
# (nu, nv): rows ending inside, at and past a slab; columns within one sweep
# window, ending at one, and crossing two
SHAPES = [(5, 7), (6, 37), (SLAB - 1, 9), (SLAB, 34), (SLAB + 1, 69), (2 * SLAB + 3, 6)]
CASES = [CaseSpec("R", 0.0), CaseSpec("R", 0.7), CaseSpec("NS", -0.6), CaseSpec("NT", 0.7),
         CaseSpec("LS", -0.6), CaseSpec("LT", 0.7)]


def _spec(shape):
    return GridSpec.over_box((-0.3, 0.4), (-0.2, 0.5), *shape)


def _whole_grid_sweep(S, T, state0, spec):
    """The sweep over whole-grid S and T: the base row, then every column of
    the line-first T at once."""
    nu, nv = spec.shape
    out = np.empty((nu, nv, *state0.shape))
    out[0, 0] = state0
    for i in range(nu - 1):
        k0 = min(max(i - 1, 0), nu - 4)
        out[i + 1, 0] = _advance(out[i, 0], spec.du, S[k0:k0 + 4, 0], i - k0, i)
    cols = np.ascontiguousarray(np.moveaxis(T, 1, 0))
    state = out[:, 0]
    for j in range(nv - 1):
        k0 = min(max(j - 1, 0), nv - 4)
        state = _advance(state, spec.dv, cols[k0:k0 + 4], j - k0, j)
        out[:, j + 1] = state
    return out


def _whole_grid_gram_drift(values, lam, case):
    signs = ambient_signature(case).array()
    e2l = np.exp(2 * lam)
    gram = np.swapaxes(values * signs[:, None], -1, -2) @ values
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


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c.case_id}{c.l0:g}")
def test_defect_frame_and_drift_match_the_whole_grid(case, shape):
    spec = _spec(shape)
    coeffs = random_coefficients(np.random.default_rng(shape[0] * 100 + shape[1]), spec)
    S, T = assemble_connection(coeffs, case)
    K = curvature(S, T, spec)
    defect = np.sqrt(np.sum(K * K, axis=(-2, -1)))
    assert np.array_equal(compatibility_defect(coeffs, case).values, defect)

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


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c.case_id}{c.l0:g}")
def test_reconstruction_matches_one_slab(case, shape, monkeypatch):
    # with the whole grid one slab, every stencil reads the whole grid: the
    # whole-grid formula
    spec = _spec(shape)
    coeffs = (CoefficientSet.from_arrays(spec, alpha1=-1.0, beta3=-1.0) if case.l0 == 0
              else _geodesic(case, spec))
    field, _ = integrate_frame(coeffs, case)
    rec, gauge = reconstruct_coefficients(field.mesh(), case)
    monkeypatch.setattr(grid, "SLAB_ROWS", spec.nu)
    whole, whole_gauge = reconstruct_coefficients(field.mesh(), case)
    assert gauge == whole_gauge
    for name, f in rec.fields().items():
        assert np.array_equal(f.values, whole.fields()[name].values), name


@pytest.mark.parametrize("shape", SHAPES)
def test_riccati_solve_matches_the_whole_grid(shape):
    spec = GridSpec.over_box((0.1, 0.6), (0.1, 0.5), *shape)
    U, V = spec.mesh()
    case = CaseSpec("NT", 0.0)
    forms = build_forms(FieldGrid(spec, U + 0.3 * V**2), 0.4, case)
    sol = solve_riccati(forms, 0.2, case)
    S, T = _connection(forms.omega0, forms.omega1, forms.omega2)
    Y = _whole_grid_sweep(S, T, np.array([[0.2, 1.0]]), spec)
    assert np.array_equal(sol.t.values, Y[..., 0, 0] / Y[..., 0, 1])


def test_round_trip_peak_memory():
    # 256^2 product torus: the frame sweep holds its output plus slabs and
    # windows, and reconstruction a handful of mesh-sized arrays
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
    assert reconstruct_peak - held <= 11 * mesh.positions.nbytes, \
        (reconstruct_peak - held) / mesh.positions.nbytes
