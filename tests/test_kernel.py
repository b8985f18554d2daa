"""The RK4 kernel and its callers against staged references, bit for bit.

``frames._advance`` runs its stages in caller-owned buffers, reads a
cell's end matrices straight off the stencil and takes the substep count
from its caller; ``frames.sweep`` walks the base row and the columns as
lines of one walker, which asks a connection's block function for one
contiguous window at a time, counts substeps per window and hands a
window's states to its sink at once (``fill`` keeps them all); ``FrameConnection.block`` fills the
(a, b, 5, 5) layout directly.  Each must give what the plain formulation
below gives, down to the sign of every zero: a kernel that allocates
every stage and interpolates every sub-node, a sweep over whole-grid
matrices that counts every cell and writes every column, and an
entry-major assembly copied to the sweep's layout.
"""

import numpy as np
import pytest

from normalflat import CaseSpec, FieldGrid, GridSpec, frames
from normalflat.frames import (_SUBNODE_WEIGHTS, FrameConnection, _advance, _subnode_weights,
                               _substeps, fill, sweep)
from normalflat.integrator import integrate_frame
from normalflat.riccati import _block, build_forms, solve_riccati

from conftest import random_coefficients


def _same(a, b):
    """Equal values and equal signs, so a -0.0 for a +0.0 fails."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _staged_advance(state, h, mats, at, k):
    """One cell with fresh temporaries and all 2m + 1 sub-nodes interpolated."""
    m = _substeps(h, mats)
    sub = np.einsum("ns,s...->n...", _SUBNODE_WEIGHTS[m][at], mats)
    hs = h / m
    for i in range(m):
        M0, Mm, M1 = sub[2 * i:2 * i + 3]
        k1 = state @ M0
        k2 = (state + 0.5 * hs * k1) @ Mm
        k3 = (state + 0.5 * hs * k2) @ Mm
        k4 = (state + hs * k3) @ M1
        state = state + hs / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    if not np.all(np.isfinite(state)):
        raise OverflowError(f"linear propagation left the finite range near cell {k}")
    return state


def _staged_sweep(row, cols, state0, spec):
    """The base row, then every column of the line-first cols (nv, nu, d, d),
    one cell and one column write at a time; the most substeps a cell took
    along u and along v."""
    nu, nv = spec.shape
    out = np.empty((nu, nv, *state0.shape))
    out[0, 0] = state0
    most = [1, 1]
    for i in range(nu - 1):
        k0 = min(max(i - 1, 0), nu - 4)
        most[0] = max(most[0], _substeps(spec.du, row[k0:k0 + 4]))
        out[i + 1, 0] = _staged_advance(out[i, 0], spec.du, row[k0:k0 + 4], i - k0, i)
    state = out[:, 0]
    for j in range(nv - 1):
        k0 = min(max(j - 1, 0), nv - 4)
        most[1] = max(most[1], _substeps(spec.dv, cols[k0:k0 + 4]))
        state = _staged_advance(state, spec.dv, cols[k0:k0 + 4], j - k0, j)
        out[:, j + 1] = state
    return out, tuple(most)


def _whole_grid_block(S, T):
    """The block function of whole-grid (nu, nv, d, d) matrices S and T: a
    view picks grid points off the array of their flat indices."""
    nu, nv, d, _ = S.shape
    flat = np.arange(nu * nv).reshape(nu, nv)
    return lambda k, view: (S, T)[k].reshape(nu * nv, d, d)[view(flat)]


def _filled_sweep(block, state0, spec):
    """``sweep`` into a whole Y through the fill sink: (Y, substeps)."""
    Y = np.empty((*spec.shape, *state0.shape))
    return Y, sweep(block, state0, spec, fill(Y))


def _buffers(state):
    """The stage and output buffers ``_advance`` steps state in."""
    return np.empty((6, *state.shape)), np.empty(state.shape)


def _zero_column(x):
    """x with its first column zero, +0.0 and -0.0 by turns: every product
    the kernel forms has zero entries of both signs, and some are zero sums."""
    x[..., 0] = 0.0
    x[..., 1::2, 0] = -0.0
    return x


def _with_zeros(rng, shape):
    """Normal entries with a zero first column; a state of width 2 keeps
    none, as a zero there leaves its products no sum to round."""
    x = rng.standard_normal(shape)
    return x if shape[-2:] == (1, 2) else _zero_column(x)


# --------------------------------------------------------------------------
# the kernel
# --------------------------------------------------------------------------

def test_cell_ends_are_the_stencil_nodes():
    # the end rows of every weight table are exactly 1 at the cell's nodes
    # and +-0 elsewhere: reading the ends off the stencil loses nothing
    for m in range(1, frames._MAX_SUBSTEPS + 1):
        w = _subnode_weights(m)
        for at in range(3):
            for row, node in ((w[at, 0], at), (w[at, -1], at + 1)):
                assert np.array_equal(row, np.eye(4)[node])


RD = [(1, 2), (4, 5), (5, 5)]


@pytest.mark.parametrize("r, d", RD)
@pytest.mark.parametrize("at", [0, 1, 2])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_advance_matches_the_staged_kernel(m, at, r, d):
    rng = np.random.default_rng(100 * m + 10 * at + d)
    # enough lines that a matmul on a sub-node matrix that is not
    # contiguous, which skips BLAS and rounds otherwise, shows in a state
    lines = 400
    mats = _with_zeros(rng, (4, lines, d, d))
    state = _with_zeros(rng, (lines, r, d))
    # a step whose reach puts the cell at m substeps
    reach = np.sqrt(np.max(np.sum(mats**2, axis=(-2, -1))))
    h = (m - 0.5) * frames._REACH / reach
    assert _substeps(h, mats) == m
    ref = _staged_advance(state, h, mats, at, 3)

    work, out = _buffers(state)
    assert _advance(state, h, mats, at, 3, None, work, out) is out
    assert _same(out, ref)
    assert _same(_advance(state, h, mats, at, 3, m, *_buffers(state)), ref)
    # in place, and from stencils and states in other layouts
    inplace = state.copy()
    _advance(inplace, h, mats, at, 3, m, work, inplace)
    assert _same(inplace, ref)
    # entry-major, as the angle system's whole-grid matrices are
    strided = np.moveaxis(np.ascontiguousarray(np.moveaxis(mats, (-2, -1), (0, 1))),
                          (0, 1), (-2, -1))
    assert not strided[at].flags.c_contiguous
    batch_strided = np.empty((lines, 3, r, d))[:, 1]  # as a sweep's first column state
    batch_strided[...] = state
    assert _same(_advance(batch_strided, h, strided, at, 3, None, *_buffers(state)), ref)
    # one line, with and without its line axis
    ref = _staged_advance(state[2], h, mats[:, 2], at, 3)
    assert _same(_advance(state[2], h, mats[:, 2], at, 3, None, *_buffers(state[2])), ref)
    assert _same(_advance(state[2], h, strided[:, 2], at, 3, _substeps(h, mats[:, 2]),
                          *_buffers(state[2])), ref)
    assert _same(_advance(state[2:3], h, mats[:, 2:3], at, 3, None, *_buffers(state[2:3]))[0],
                 ref)


def _smooth_mats(rng, nu, nv, d, reach):
    """(nu, nv, d, d) matrices from smooth random entries, with a zero first
    column, scaled to the Frobenius norm reach (nu, nv): a cell's count is
    ceil(the most reach on its stencil times h / 0.1)."""
    U, V = np.meshgrid(np.linspace(0, 1, nu), np.linspace(0, 1, nv), indexing="ij")
    a, p = rng.uniform(-1, 1, (2, d, d)), rng.uniform(0, 6, (d, d))
    x = _zero_column(a[0] + a[1] * np.sin(2 * U[..., None, None] + p)
                     + np.cos(3 * V[..., None, None] - p))
    return x * (reach / np.sqrt(np.sum(x**2, axis=(-2, -1))))[..., None, None]


W = frames._WINDOW


@pytest.mark.parametrize("r, d", RD)
@pytest.mark.parametrize("steps", [W - 5, W, W + 3, 2 * W + 1])
def test_sweep_matches_the_staged_sweep(steps, r, d):
    rng = np.random.default_rng(steps * 10 + d)
    spec = GridSpec.over_box((0, 1), (0, 1), 9, steps + 1)
    nu, nv = spec.shape
    S = _smooth_mats(rng, nu, nv, d, np.full(spec.shape, 0.05 / spec.du))
    # T takes 1 substep per cell but near column W + 8, where a bump takes
    # cells to 3: on the longest grid the second window counts 3 while its
    # cells count 1, 2 and 3, and the other windows count 1 throughout
    bump = 0.05 + 0.22 * np.exp(-((np.arange(nv) - (W + 8)) / 3.0) ** 2)
    T = _smooth_mats(rng, nu, nv, d, np.broadcast_to(bump / spec.dv, spec.shape))
    state0 = _with_zeros(rng, (r, d))
    cols = np.ascontiguousarray(np.moveaxis(T, 1, 0))
    ref, most = _staged_sweep(S[:, 0], cols, state0, spec)
    assert most == (1, 3 if steps > W + 8 else 1)
    if steps > W + 8:
        counts = [_substeps(spec.dv, cols[k0:k0 + 4])
                  for k0 in (min(max(j - 1, 0), nv - 4) for j in range(W, 2 * W))]
        assert set(counts) == {1, 2, 3}

    Y, substeps = _filled_sweep(_whole_grid_block(S, T), state0, spec)
    assert _same(Y, ref) and substeps == most
    # a base row that counts 4, with cells of every count
    rise = np.array([0.05, 0.05, 0.05, 0.05, 0.15, 0.25, 0.35, 0.38, 0.38])
    S4 = _smooth_mats(rng, nu, nv, d, np.broadcast_to(rise[:, None] / spec.du, spec.shape))
    assert [_substeps(spec.du, S4[k0:k0 + 4, 0]) for k0 in range(nu - 3)] == [1, 2, 3, 4, 4, 4]
    ref, most = _staged_sweep(S4[:, 0], cols, state0, spec)
    Y, substeps = _filled_sweep(_whole_grid_block(S4, T), state0, spec)
    assert _same(Y, ref) and substeps == most == (4, most[1])


def test_sweep_with_one_column_windows(monkeypatch):
    # windows of one cell: each state is written where the next reads it,
    # along the base row and down the columns
    monkeypatch.setattr(frames, "_WINDOW", 1)
    rng = np.random.default_rng(5)
    spec = GridSpec.over_box((0, 1), (0, 1), 7, 11)
    S = _smooth_mats(rng, 7, 11, 5, np.full(spec.shape, 0.05 / spec.du))
    T = _smooth_mats(rng, 7, 11, 5, np.full(spec.shape, 0.25 / spec.dv))
    cols = np.ascontiguousarray(np.moveaxis(T, 1, 0))
    state0 = _with_zeros(rng, (4, 5))
    Y, substeps = _filled_sweep(_whole_grid_block(S, T), state0, spec)
    ref, most = _staged_sweep(S[:, 0], cols, state0, spec)
    assert _same(Y, ref) and substeps == most == (1, 3)


# --------------------------------------------------------------------------
# the frame connection's assembly
# --------------------------------------------------------------------------

def _entry_major_block(conn, k, view):
    """S or T on a block, filled entry-major (5, 5, a, b), then copied to
    (a, b, 5, 5)."""
    lam, a1, a2, a3, b1, b2, b3, m1, m2, lu, lv = map(view, conn.inputs)
    *g, n1, n2 = conn.case.frame_signs
    l_own, l_other = (lu, lv) if k == 0 else (lv, lu)
    alpha = (a1, a2, a3)[k:k + 2]
    beta = (b1, b2, b3)[k:k + 2]
    mu = (m1, m2)[k]
    M = np.zeros((5, 5, *lam.shape))
    for i in range(4):
        M[i, i] = l_own
    M[k, 1 - k] = l_other
    M[1 - k, k] = -g[0] * g[1] * l_other
    for i in range(2):
        M[i, 2] = -g[i] * n1 * alpha[i]
        M[i, 3] = -g[i] * n2 * beta[i]
        M[2, i] = alpha[i]
        M[3, i] = beta[i]
    M[2, 3] = -n1 * n2 * mu
    M[3, 2] = mu
    M[k, 4] = 1.0
    M[4, k] = -g[k] * (conn.case.l0 * np.exp(2 * lam))
    return np.ascontiguousarray(np.moveaxis(M, (0, 1), (-2, -1)))


@pytest.mark.parametrize("case", [CaseSpec("R", 0.7), CaseSpec("NS", -0.6), CaseSpec("NT", 0.7),
                                  CaseSpec("LS", -0.6), CaseSpec("LT", 0.7)],
                         ids=lambda c: c.case_id)
def test_block_matches_the_entry_major_assembly(case):
    spec = GridSpec.over_box((-0.3, 0.4), (-0.2, 0.5), 11, 45)
    coeffs = random_coefficients(np.random.default_rng(7), spec)
    # zero entries of both signs, among them the mu1 and mu2 of S's and T's (2, 3)
    coeffs.beta2 = coeffs.mu1 = coeffs.mu2 = FieldGrid.constant(spec, 0.0)
    conn = FrameConnection(coeffs, case)
    for view in (lambda x: x, lambda x: x[:, 0], lambda x: x[:, 30:44].T):
        for k in (0, 1):
            M = conn.block(k, view)
            assert M.flags.c_contiguous
            assert _same(M, _entry_major_block(conn, k, view))


# --------------------------------------------------------------------------
# the angle system: both path orders through the staged sweep
# --------------------------------------------------------------------------

# (case, box, shape, k, xi, t0) of dt = w0 + t w1 + t^2 w2 for f_- = u + k v^2:
# R, NS and the four NT (eps, delta) branches.  The staged sweep reads the
# whole-grid S and T of the angle system's block function, contiguous as
# every window the solver's sweeps read
_SHORT, _UNIT = ((0.1, 0.6), (0.1, 0.5)), ((0.1, 1.1), (0.1, 1.1))
RICCATI = [(CaseSpec("R"), _UNIT, (65, 33), 0.3, 0.4, 0.2),
           (CaseSpec("NS"), _UNIT, (33, 33), 0.5, 0.5, 0.1),
           (CaseSpec("NT", eps=1, delta=1), _UNIT, (65, 33), 0.3, 0.4, 0.2),
           (CaseSpec("NT", eps=1, delta=-1), _SHORT, (65, 33), 0.3, 0.4, 0.5),
           (CaseSpec("NT", eps=-1, delta=1), _UNIT, (65, 33), 0.3, 0.4, -0.3),
           (CaseSpec("NT", eps=-1, delta=-1), _SHORT, (65, 33), 0.3, 0.4, 0.2)]


@pytest.mark.parametrize("case, box, shape, k, xi, t0", RICCATI,
                         ids=[f"{c.case_id}{c.eps:+d}{c.delta:+d}" for c, *_ in RICCATI])
def test_riccati_matches_the_staged_sweep(case, box, shape, k, xi, t0):
    spec = GridSpec.over_box(*box, *shape)
    U, V = spec.mesh()
    forms = build_forms(FieldGrid(spec, U + k * V**2), xi, case)
    sol = solve_riccati(forms, t0, case)
    block = _block(forms.omega0, forms.omega1, forms.omega2)
    S, T = block(0, lambda x: x), block(1, lambda x: x)
    state0 = np.array([[t0, 1.0]])
    Y, _ = _staged_sweep(S[:, 0], np.ascontiguousarray(np.moveaxis(T, 1, 0)), state0, spec)
    swapped = GridSpec(spec.v0, spec.u0, spec.dv, spec.du, spec.nv, spec.nu)
    Yt, _ = _staged_sweep(T[0], np.ascontiguousarray(S), state0, swapped)
    t_rc, t_cr = Y[..., 0, 0] / Y[..., 0, 1], (Yt[..., 0, 0] / Yt[..., 0, 1]).T
    assert _same(sol.t.values, t_rc)
    assert sol.path_defect == float(np.max(np.abs(t_rc - t_cr)))


# --------------------------------------------------------------------------
# what the sweep hands the kernel
# --------------------------------------------------------------------------

def test_every_stencil_the_kernel_steps_is_contiguous(monkeypatch):
    # the frame's block and the angle system's, in both path orders: every
    # stencil is a slice of a contiguous window, the base row's of one line
    # and the columns' of nu (nv in the column-first order)
    seen = []
    advance = frames._advance

    def checked(state, h, mats, *rest):
        assert mats.flags.c_contiguous
        seen.append(mats.shape[1])
        return advance(state, h, mats, *rest)

    monkeypatch.setattr(frames, "_advance", checked)
    spec = GridSpec.over_box((-0.3, 0.4), (-0.2, 0.5), 9, W + 6)
    integrate_frame(random_coefficients(np.random.default_rng(9), spec), CaseSpec("R", 0.7))
    assert set(seen) == {1, 9}
    seen.clear()
    spec = GridSpec.over_box((0.1, 0.6), (0.1, 0.5), W + 6, 9)
    U, V = spec.mesh()
    case = CaseSpec("NT", 0.0)
    solve_riccati(build_forms(FieldGrid(spec, U + 0.3 * V**2), 0.4, case), 0.2, case)
    nu, nv = spec.shape
    assert seen.count(1) == (nu - 1) + (nv - 1)  # both orders' base rows
    assert set(seen) == {1, nu, nv}
