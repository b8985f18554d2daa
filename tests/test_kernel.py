"""The RK4 kernel and its callers against a plain reference, bit for bit,
and against staged RK4 to round-off.

``frames._walk`` forms the maps of a chunk of cells at once and steps
each cell by one product, state + state @ map; ``frames.sweep`` walks the
base row and the columns as lines of that walker, which asks a
connection's block function for one contiguous window at a time, counts
substeps per window and hands a window's states to its sink at once
(``fill`` keeps them all); ``FrameConnection.block`` fills the (a, b, 5,
5) layout directly.  Each must give what the plain formulation gives,
down to the sign of every zero: ``conftest.cell_map`` forms one cell's
map with fresh temporaries, ``conftest.plain_sweep`` steps by it one cell
and one column write at a time over whole-grid matrices, and an
entry-major assembly is copied to the sweep's layout.  The staged RK4
below, four stages per substep acting on the state, is the independent
oracle of the maps: in exact arithmetic they are the same scheme, so the
two agree to round-off.
"""

import numpy as np
import pytest

from normalflat import CaseSpec, FieldGrid, GridSpec, frames
from normalflat.frames import (_SUBNODE_WEIGHTS, FrameConnection, _cell_maps, _matmul,
                               _subnode_weights, _substeps, fill, sweep)
from normalflat.integrator import integrate_frame
from normalflat.riccati import _block, build_forms, solve_riccati

from conftest import cell_map, map_step, plain_sweep, random_coefficients

# the staged RK4 agrees with the maps to this share of the largest state
# entry: the largest deviation on these tests is a few parts in 1e15
ROUND_OFF = 1e-13


def _same(a, b):
    """Equal values and equal signs, so a -0.0 for a +0.0 fails."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _close(a, b):
    """a within ``ROUND_OFF`` of b's largest entry."""
    return np.max(np.abs(a - b)) <= ROUND_OFF * np.max(np.abs(b))


def _staged_step(state, h, mats, at, m):
    """One cell of m RK4 substeps in stages that act on the state, all 2m + 1
    sub-nodes interpolated."""
    sub = np.einsum("ns,s...->n...", _SUBNODE_WEIGHTS[m][at], mats)
    hs = h / m
    for i in range(m):
        M0, Mm, M1 = sub[2 * i:2 * i + 3]
        k1 = state @ M0
        k2 = (state + 0.5 * hs * k1) @ Mm
        k3 = (state + 0.5 * hs * k2) @ Mm
        k4 = (state + hs * k3) @ M1
        state = state + hs / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return state


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


def _maps(h, mats, at, m):
    """``_cell_maps`` of the one cell whose stencil is mats (4, ..., d, d)."""
    out = np.empty((1, *mats.shape[1:]))
    return _cell_maps(h, mats, 0, at, m, out, np.empty((5, 2, *mats.shape[1:])))[0]


def _windows(monkeypatch, cells, b, d, chunk=None):
    """Windows of the given cells on lines b wide of d x d matrices, and
    maps formed chunk cells at a time (all of a window's by default)."""
    monkeypatch.setattr(frames, "_WINDOW_POINTS", cells * b)
    monkeypatch.setattr(frames, "_MAP_ENTRIES", (chunk or cells) * b * d * d)


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
    lines = 400
    mats = _with_zeros(rng, (4, lines, d, d))
    state = _with_zeros(rng, (lines, r, d))
    # a step whose reach puts the cell at m substeps
    reach = np.sqrt(np.max(np.sum(mats**2, axis=(-2, -1))))
    h = (m - 0.5) * frames._REACH / reach
    assert _substeps(h, mats) == m
    ref = cell_map(h, mats, at, m)
    assert _same(_maps(h, mats, at, m), ref)
    stepped = state + _matmul(state, _maps(h, mats, at, m), np.empty(state.shape))
    assert _same(stepped, map_step(state, h, mats, at, m))
    assert _close(map_step(state, h, mats, at, m), _staged_step(state, h, mats, at, m))
    # from an entry-major stencil, as the angle system's whole-grid
    # matrices are: the maps read it elementwise, so the layout is lost
    strided = np.moveaxis(np.ascontiguousarray(np.moveaxis(mats, (-2, -1), (0, 1))),
                          (0, 1), (-2, -1))
    assert not strided[at].flags.c_contiguous
    assert _same(_maps(h, strided, at, m), ref)
    # a line one wide, whose products go through numpy's matmul
    narrow = cell_map(h, mats[:, 2:3], at, m)
    assert _same(_maps(h, mats[:, 2:3], at, m), narrow)
    assert _close(narrow[0], ref[2])


@pytest.mark.parametrize("width", [1, 63, 64, 300])
def test_matmul_sums_wide_two_by_two_products_in_order(width):
    # on lines 64 or more wide a 2 x 2 product is a_i0 b_0j + a_i1 b_1j,
    # elementwise; every other product is numpy's matmul
    rng = np.random.default_rng(width)
    for r, d in RD:
        a, b = _with_zeros(rng, (3, width, r, d)), _with_zeros(rng, (3, width, d, d))
        out = _matmul(a, b, np.empty(a.shape))
        if d == 2 and width >= 64:
            plain = [[a[..., i, 0] * b[..., 0, j] + a[..., i, 1] * b[..., 1, j]
                      for j in range(2)] for i in range(r)]
            assert _same(out, np.moveaxis(np.array(plain), (0, 1), (-2, -1)))
        else:
            assert _same(out, np.matmul(a, b))
        assert _close(out, np.einsum("...ik,...kj->...ij", a, b))


def _smooth_mats(rng, nu, nv, d, reach):
    """(nu, nv, d, d) matrices from smooth random entries, with a zero first
    column, scaled to the Frobenius norm reach (nu, nv): a cell's count is
    ceil(the most reach on its stencil times h / 0.1)."""
    U, V = np.meshgrid(np.linspace(0, 1, nu), np.linspace(0, 1, nv), indexing="ij")
    a, p = rng.uniform(-1, 1, (2, d, d)), rng.uniform(0, 6, (d, d))
    x = _zero_column(a[0] + a[1] * np.sin(2 * U[..., None, None] + p)
                     + np.cos(3 * V[..., None, None] - p))
    return x * (reach / np.sqrt(np.sum(x**2, axis=(-2, -1))))[..., None, None]


# cells per window in the sweep tests, set through the window's entries,
# and per chunk of maps
W, CHUNK = 32, 5


@pytest.mark.parametrize("r, d", RD)
@pytest.mark.parametrize("steps", [W - 5, W, W + 3, 2 * W + 1])
def test_sweep_matches_the_staged_sweep(steps, r, d, monkeypatch):
    rng = np.random.default_rng(steps * 10 + d)
    spec = GridSpec.over_box((0, 1), (0, 1), 9, steps + 1)
    nu, nv = spec.shape
    _windows(monkeypatch, W, nu, d, CHUNK)
    S = _smooth_mats(rng, nu, nv, d, np.full(spec.shape, 0.05 / spec.du))
    # T takes 1 substep per cell but near column W + 8, where a bump takes
    # cells to 3: on the longest grid the second window counts 3 while its
    # cells count 1, 2 and 3, and the other windows count 1 throughout
    bump = 0.05 + 0.22 * np.exp(-((np.arange(nv) - (W + 8)) / 3.0) ** 2)
    T = _smooth_mats(rng, nu, nv, d, np.broadcast_to(bump / spec.dv, spec.shape))
    state0 = _with_zeros(rng, (r, d))
    cols = np.ascontiguousarray(np.moveaxis(T, 1, 0))
    ref, most = plain_sweep(S[:, 0], cols, state0, spec)
    assert most == (1, 3 if steps > W + 8 else 1)
    if steps > W + 8:
        counts = [_substeps(spec.dv, cols[k0:k0 + 4])
                  for k0 in (min(max(j - 1, 0), nv - 4) for j in range(W, 2 * W))]
        assert set(counts) == {1, 2, 3}

    Y, substeps = _filled_sweep(_whole_grid_block(S, T), state0, spec)
    assert _same(Y, ref) and substeps == most
    assert _close(Y, plain_sweep(S[:, 0], cols, state0, spec, _staged_step)[0])
    # a base row that counts 4, with cells of every count
    rise = np.array([0.05, 0.05, 0.05, 0.05, 0.15, 0.25, 0.35, 0.38, 0.38])
    S4 = _smooth_mats(rng, nu, nv, d, np.broadcast_to(rise[:, None] / spec.du, spec.shape))
    assert [_substeps(spec.du, S4[k0:k0 + 4, 0]) for k0 in range(nu - 3)] == [1, 2, 3, 4, 4, 4]
    ref, most = plain_sweep(S4[:, 0], cols, state0, spec)
    Y, substeps = _filled_sweep(_whole_grid_block(S4, T), state0, spec)
    assert _same(Y, ref) and substeps == most == (4, most[1])
    assert _close(Y, plain_sweep(S4[:, 0], cols, state0, spec, _staged_step)[0])


def test_sweep_with_one_column_windows(monkeypatch):
    # windows of one cell, of an odd size and of the whole line, with maps
    # formed a cell at a time, a few at a time and all at once: each state is
    # written where the next reads it, along the base row and down the
    # columns, and every blocking gives the same bits
    rng = np.random.default_rng(5)
    spec = GridSpec.over_box((0, 1), (0, 1), 7, 11)
    S = _smooth_mats(rng, 7, 11, 5, np.full(spec.shape, 0.05 / spec.du))
    T = _smooth_mats(rng, 7, 11, 5, np.full(spec.shape, 0.25 / spec.dv))
    cols = np.ascontiguousarray(np.moveaxis(T, 1, 0))
    state0 = _with_zeros(rng, (4, 5))
    ref, most = plain_sweep(S[:, 0], cols, state0, spec)
    assert most == (1, 3)
    for cells, chunk in ((1, 1), (3, 1), (3, 2), (7, 3), (10, 10), (10, 4)):
        _windows(monkeypatch, cells, spec.nu, 5, chunk)
        Y, substeps = _filled_sweep(_whole_grid_block(S, T), state0, spec)
        assert _same(Y, ref) and substeps == most, (cells, chunk)


@pytest.mark.parametrize("line", ["row", "column"])
def test_overflow_names_the_first_non_finite_cell(line, monkeypatch):
    # a NaN at node 40 reaches the states first through cell 38, whose
    # stencil is nodes 37..40: the 7th cell of the second 32-cell window
    rng = np.random.default_rng(11)
    shape = (61, 9) if line == "row" else (9, 61)
    spec = GridSpec.over_box((0, 1), (0, 1), *shape)
    S = _smooth_mats(rng, *shape, 5, np.full(shape, 0.05 / spec.du))
    T = _smooth_mats(rng, *shape, 5, np.full(shape, 0.05 / spec.dv))
    (S[40, 0] if line == "row" else T[:, 40])[..., 2, 1] = np.nan
    _windows(monkeypatch, W, 1 if line == "row" else spec.nu, 5, CHUNK)
    state0 = _with_zeros(rng, (4, 5))
    message = "linear propagation left the finite range near cell 38"
    with pytest.raises(OverflowError, match=message):
        plain_sweep(S[:, 0], np.ascontiguousarray(np.moveaxis(T, 1, 0)), state0, spec)
    seen = []
    with pytest.raises(OverflowError, match=message):
        sweep(_whole_grid_block(S, T), state0, spec, lambda j, states: seen.append(j))
    # no window that holds the cell reaches the sink
    assert seen == ([] if line == "row" else [0, 1])


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
# the angle system: both path orders through the plain sweep
# --------------------------------------------------------------------------

# (case, box, shape, k, xi, t0) of dt = w0 + t w1 + t^2 w2 for f_- = u + k v^2:
# R, NS and the four NT (eps, delta) branches.  The plain sweep reads the
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
    swapped = GridSpec(spec.v0, spec.u0, spec.dv, spec.du, spec.nv, spec.nu)
    orders = ((S[:, 0], np.ascontiguousarray(np.moveaxis(T, 1, 0)), spec),
              (T[0], np.ascontiguousarray(S), swapped))
    (Y, _), (Yt, _) = (plain_sweep(row, cols, state0, s) for row, cols, s in orders)
    t_rc, t_cr = Y[..., 0, 0] / Y[..., 0, 1], (Yt[..., 0, 0] / Yt[..., 0, 1]).T
    assert _same(sol.t.values, t_rc)
    assert sol.path_defect == float(np.max(np.abs(t_rc - t_cr)))
    Y = plain_sweep(*orders[0][:2], state0, spec, _staged_step)[0]
    assert _close(sol.t.values, Y[..., 0, 0] / Y[..., 0, 1])


# --------------------------------------------------------------------------
# what the sweep hands the kernel
# --------------------------------------------------------------------------

def test_every_stencil_the_kernel_steps_is_contiguous(monkeypatch):
    # the frame's block and the angle system's, in both path orders: every
    # run of cells takes its stencils from a contiguous window, the base
    # row's of one line and the columns' of nu (nv in the column-first order)
    seen = []
    cell_maps = frames._cell_maps

    def checked(h, window, k0, at, m, out, work):
        assert window.flags.c_contiguous
        seen.extend([window.shape[1]] * len(out))
        return cell_maps(h, window, k0, at, m, out, work)

    monkeypatch.setattr(frames, "_cell_maps", checked)
    spec = GridSpec.over_box((-0.3, 0.4), (-0.2, 0.5), 9, W + 6)
    _windows(monkeypatch, W, 9, 5, CHUNK)
    integrate_frame(random_coefficients(np.random.default_rng(9), spec), CaseSpec("R", 0.7))
    assert seen.count(1) == 8 and seen.count(9) == W + 5  # every cell once
    seen.clear()
    spec = GridSpec.over_box((0.1, 0.6), (0.1, 0.5), W + 6, 9)
    U, V = spec.mesh()
    case = CaseSpec("NT", 0.0)
    solve_riccati(build_forms(FieldGrid(spec, U + 0.3 * V**2), 0.4, case), 0.2, case)
    nu, nv = spec.shape
    assert seen.count(1) == (nu - 1) + (nv - 1)  # both orders' base rows
    assert seen.count(nu) == nv - 1 and seen.count(nv) == nu - 1
