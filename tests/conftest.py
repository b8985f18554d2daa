import json
from unittest import mock

import numpy as np
import pytest

from normalflat import CaseSpec, CoefficientSet, FieldGrid, GridSpec, grid, load_fields
from normalflat.frames import _SUBNODE_WEIGHTS, _matmul, _substeps


@pytest.fixture
def unit_spec():
    return GridSpec.over_box((0.0, 1.0), (0.0, 1.0), 33, 33)


@pytest.fixture
def case_r():
    return CaseSpec("R", 0.0)


@pytest.fixture
def flat_torus(unit_spec):
    """Product of two unit circles: lambda = 0, alpha1 = beta3 = -1."""
    return CoefficientSet.from_arrays(unit_spec, alpha1=-1.0, beta3=-1.0)


@pytest.fixture
def sphere_hyperplane():
    """Round sphere in a hyperplane E^3 of E^4: beta = mu = 0, K = 1."""
    spec = GridSpec.over_box((0.0, 1.0), (0.0, 1.0), 33, 33)
    U, V = spec.mesh()
    lam = np.log(2.0 / (1.0 + U**2 + V**2))
    el = np.exp(lam)
    return CoefficientSet.from_arrays(spec, lam=lam, alpha1=el, alpha3=el)


def random_smooth_field(rng, spec, amplitude=0.4):
    """Low-frequency trigonometric field with bounded amplitude."""
    U, V = spec.mesh()
    a = rng.uniform(-amplitude, amplitude, size=4)
    p = rng.uniform(0, 2 * np.pi, size=3)
    vals = (a[0] + a[1] * np.sin(U + p[0]) + a[2] * np.cos(V + p[1])
            + a[3] * np.sin(U + V + p[2]))
    return FieldGrid(spec, vals)


def random_coefficients(rng, spec, amplitude=0.4):
    names = ["lam", "alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3", "mu1", "mu2"]
    return CoefficientSet.from_arrays(
        spec, **{n: random_smooth_field(rng, spec, amplitude).values for n in names})


def text_document(path) -> dict:
    """The field file at path as a text-encoded document (no "encoding" key,
    each field a flat list of doubles, complex ones interleaved [re, im, ...]),
    for tests that edit a field file as lists."""
    with open(path) as fh:
        doc = json.load(fh)
    del doc["encoding"]
    dtype = complex if doc["kind"] == "complex" else float
    doc["fields"] = {name: f.values.astype(dtype).view(float).ravel().tolist()
                     for name, f in load_fields(path).items()}
    return doc


def _read_outcome(path):
    """load_fields' fields on path, each as (name, grid, dtype, bytes) in
    order, or the (type, message) of the exception it raises."""
    try:
        fields = load_fields(path)
    except Exception as exc:
        return type(exc), str(exc)
    return [(name, f.spec, f.values.dtype, f.values.tobytes()) for name, f in fields.items()]


def assert_read_as_json(path, streamed: bool) -> None:
    """load_fields reads path as json.load does: the same fields bit for bit,
    or the same exception and message; streamed says whether it streams the
    file rather than reading it with json."""
    got = _read_outcome(path)
    with mock.patch.object(grid, "_stream_fields", lambda path: None):
        assert got == _read_outcome(path)
    assert (grid._stream_fields(path) is not None) == streamed


# --------------------------------------------------------------------------
# the plain RK4 line sweep: one cell map at a time
# --------------------------------------------------------------------------

def _times(a, b):
    """a @ b as the kernel forms it (``frames._matmul``)."""
    stack = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    return _matmul(a, b, np.empty((*stack, a.shape[-2], b.shape[-1])))


def cell_map(h, mats, at, m):
    """The map D, Y <- Y + Y D, of one cell of m substeps of dY = Y M ds,
    from its stencil mats (4, ..., b, d, d) on a line b wide, the cell
    being the stencil's interval at.  I + D is the product of the substeps'
    I + (A0 + 2 (X1 + X2) + X3) / 6, first to last, with X1 = Am + A0 B, X2
    = Am + X1 B and X3 = A1 + X2 A1, from A = hs M (hs = h / m) at the
    substep's start, middle and end and B = Am / 2.  The cell's ends are
    read off the stencil, the inner sub-nodes summed over it in node order,
    every sum in the kernel's order."""
    hs = h / m
    w = _SUBNODE_WEIGHTS[m][at] * hs

    def subnode(t, scale):
        x = mats[0] * (scale * w[t, 0])
        for s in range(1, 4):
            x = x + mats[s] * (scale * w[t, s])
        return x

    D, start = None, mats[at] * hs
    for i in range(m):
        end = mats[at + 1] * hs if i == m - 1 else subnode(2 * i + 2, 1.0)
        B = subnode(2 * i + 1, 0.5)
        Am = B + B
        X1 = Am + _times(start, B)
        X2 = Am + _times(X1, B)
        S = (X1 + X2) + (X1 + X2)
        step = (((S + start) + _times(X2, end)) + end) * (1 / 6)
        D = step if D is None else (D + step) + _times(D, step)
        start = end
    return D


def map_step(state, h, mats, at, m):
    """One cell: state + state @ its ``cell_map``; state and mats have a
    line axis."""
    return state + _times(state, cell_map(h, mats, at, m))


def plain_sweep(row, cols, state0, spec, step=map_step):
    """The base row's matrices row (nu, d, d), then every column of the
    line-first cols (nv, nu, d, d), one cell and one write at a time, each
    cell stepped by step(state, h, stencil, at, m) with its own count m:
    the states (nu, nv, r, d) and the most substeps a cell took along u and
    along v.  A state that is not finite raises OverflowError naming its
    cell."""
    out = np.empty((*spec.shape, *state0.shape))
    out[0, 0] = state0
    most = [1, 1]
    # each line's states, line first: the base row one state wide
    lines = ((spec.du, row[:, None], out[:, :1]), (spec.dv, cols, out.swapaxes(0, 1)))
    for axis, (h, mats, Y) in enumerate(lines):
        n = len(mats)
        for j in range(n - 1):
            k0 = min(max(j - 1, 0), n - 4)
            m = _substeps(h, mats[k0:k0 + 4])
            most[axis] = max(most[axis], m)
            Y[j + 1] = step(Y[j].copy(), h, mats[k0:k0 + 4], j - k0, m)
            if not np.all(np.isfinite(Y[j + 1])):
                raise OverflowError(f"linear propagation left the finite range near cell {j}")
    return out, tuple(most)
