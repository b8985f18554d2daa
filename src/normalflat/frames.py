"""Linear connections: the moving frame's S, T and the shared RK4 kernel.

The frame (T1 T2 N1 N2 F) satisfies a linear system

    d/du (frame) = (frame) S,      d/dv (frame) = (frame) T,

with 5x5 coefficient matrices S, T built pointwise from the conformal
factor log lambda, the second-fundamental-form components alpha_k, beta_k
and the normal-connection components mu_1, mu_2.  Entry signs come from
the case's sign table (see :mod:`normalflat.spaceform`).

The kernel serves any connection dY = Y (S du + T dv).  States are rows:
Y is (r, d) and the d x d matrices act from the right, so each row (an
ambient coordinate of the frame, or the single row [p q] of the angle
system) moves on its own.  The curvature S_v - T_u - (ST - TS) vanishes
exactly when every path from the base corner carries Y to the same
value; its Frobenius norm is the compatibility defect.
``sweep`` steps the base row along u, then every column along v, with
classic RK4, matrices interpolated by cubics on the nearest 4-point
stencil.  For a linear system an RK4 substep is Y <- Y + Y D, where the
map D is a polynomial in the substep's matrices alone (``_substep_map``),
so one walker (``_walk``) forms the maps of many cells at once and steps
each cell's state by one product, state + state @ map.  It steps both
lines, the base row one state wide and the columns nu, one window of
8192 line points at a time: a connection hands it each window's matrices,
contiguous, from its block function, so no sweep holds a whole-grid
(nu, nv, d, d) array.  A cell takes as many substeps as its matrices
need, one to four: ceil(h max ||M||_F / 0.1) over its stencil
(``_substeps``), counted once per window where that is 1; its map
composes its substeps' maps.  Only a cell's inner sub-nodes are
interpolated, and the maps of a chunk of cells are formed in
preallocated buffers.  Each window's states go to the caller's sink, not
to a whole-grid output: ``fill`` keeps them all, the integrator's mesh
path only the positions and their Gram defects.

The frame's S and T are streamed: ``FrameConnection`` holds the eleven
(nu, nv) fields they are pointwise functions of, and its ``block``
assembles any window bit for bit as the whole-grid matrices hold it,
entry-major first and then in one copy.  The defect assembles no
matrix: it takes the curvature's norm in closed form from the eleven
fields, one slab of 64 rows with a one-row halo at a time
(``grid.slabs``); at L0 = 0 it skips the terms of L0 e^{2 lambda}, which
are exact zeros there.

The Gauss, Codazzi and Ricci equations are stated once, in
``gcr_equations``: ``gcr``'s residuals and the defect's six middle terms
are that function fed different lambda derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .grid import (FieldGrid, GridShapeError, GridSpec, _diff_along4, curl, grad, load_fields,
                   save_fields, slabs)
from .spaceform import CaseSpec

__all__ = ["CoefficientSet", "assemble_connection", "compatibility_defect"]

COEFF_NAMES = ("lambda", "alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3", "mu1", "mu2")


@dataclass
class CoefficientSet:
    """The nine frame-coefficient fields on one grid (all real)."""

    lam: FieldGrid
    alpha1: FieldGrid
    alpha2: FieldGrid
    alpha3: FieldGrid
    beta1: FieldGrid
    beta2: FieldGrid
    beta3: FieldGrid
    mu1: FieldGrid
    mu2: FieldGrid

    def __post_init__(self):
        spec = self.lam.spec
        for f in self.fields().values():
            if f.spec != spec:
                raise GridShapeError("coefficient fields live on different grids")
            if f.kind != "real":
                raise ValueError("coefficient fields must be real")

    @property
    def spec(self) -> GridSpec:
        return self.lam.spec

    def fields(self) -> dict[str, FieldGrid]:
        return {
            "lambda": self.lam,
            "alpha1": self.alpha1, "alpha2": self.alpha2, "alpha3": self.alpha3,
            "beta1": self.beta1, "beta2": self.beta2, "beta3": self.beta3,
            "mu1": self.mu1, "mu2": self.mu2,
        }

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: f.values for name, f in self.fields().items()}

    def alravel(self):
        """(lam, a1, a2, a3, b1, b2, b3, m1, m2) as plain arrays."""
        d = self.arrays()
        return tuple(d[n] for n in COEFF_NAMES)

    def max_abs(self) -> float:
        return max(f.max_abs() for f in self.fields().values())

    @classmethod
    def from_arrays(cls, spec: GridSpec, **named) -> "CoefficientSet":
        """Build from arrays/scalars; unspecified fields default to zero."""
        def fg(name):
            val = named.get(name, 0.0)
            if np.isscalar(val):
                return FieldGrid.constant(spec, float(val))
            return FieldGrid(spec, val)

        return cls(fg("lam"), fg("alpha1"), fg("alpha2"), fg("alpha3"),
                   fg("beta1"), fg("beta2"), fg("beta3"), fg("mu1"), fg("mu2"))

    def save(self, path) -> None:
        save_fields(path, self.fields())

    @classmethod
    def load(cls, path) -> "CoefficientSet":
        fields = load_fields(path)
        if set(fields) != set(COEFF_NAMES):
            raise ValueError(f"{path} is not a coefficient file: expected the fields "
                             f"{', '.join(COEFF_NAMES)} and no other, got {sorted(fields)}")
        return cls(*(fields[n] for n in COEFF_NAMES))


# ---------------------------------------------------------------------------
# the Gauss-Codazzi-Ricci equations of the nine coefficient arrays (fields,
# in COEFF_NAMES order); a residual is the left side minus the right side
# ---------------------------------------------------------------------------

def gauss_quadratic(fields, case: CaseSpec) -> np.ndarray:
    """The Gauss equation's quadratic side; where the equation holds, it
    vanishes exactly where K = L0."""
    _, a1, a2, a3, b1, b2, b3, _, _ = fields
    g1, g2, n1, n2 = case.frame_signs
    s = -g1 * g2
    return s * n1 * (a1 * a3) + s * n2 * (b1 * b3) - s * n1 * a2**2 - s * n2 * b2**2


def gauss_equation(lam, lap, quad, case: CaseSpec, q=None) -> np.ndarray:
    """The Gauss residual lap + L0 e^{2 lambda} - quad, lap = lambda_uu + k
    lambda_vv; q is L0 e^{2 lambda} if the caller holds it."""
    return lap + (case.l0 * np.exp(2 * lam) if q is None else q) - quad


def gcr_equations(fields, lu, lv, lap, case: CaseSpec, spec: GridSpec, q=None):
    """Yields the Gauss residual, the four Codazzi residuals, the Ricci residual
    and the flatness (mu1)_v - (mu2)_u, Ricci's left side, one at a time, from
    the caller's lambda gradient lu, lv and lap (and q) as for
    ``gauss_equation``."""
    lam, a1, a2, a3, b1, b2, b3, m1, m2 = fields
    g1, g2, n1, n2 = case.frame_signs
    k, p = g1 * g2, n1 * n2
    yield gauss_equation(lam, lap, gauss_quadratic(fields, case), case, q)
    yield curl(a1, a2, spec) - (a2 * lu + k * a3 * lv - p * b2 * m1 + p * b1 * m2)
    yield curl(a2, a3, spec) - (-k * a1 * lu - a2 * lv - p * b3 * m1 + p * b2 * m2)
    yield curl(b1, b2, spec) - (b2 * lu + k * b3 * lv + a2 * m1 - a1 * m2)
    yield curl(b2, b3, spec) - (-k * b1 * lu - b2 * lv + a3 * m1 - a2 * m2)
    flat = curl(m1, m2, spec)
    yield flat - n1 * ((a1 * b2 - a2 * b1) + k * (a2 * b3 - a3 * b2))
    yield flat


# grid rows per slab of the closed-form curvature norm: a slab's dozen
# temporaries on a 1024-column grid are about 7 MB
_DEFECT_ROWS = 64


class FrameConnection:
    """The frame connection of a coefficient set, assembled block by block.

    Every entry of S and T is a pointwise function of eleven (nu, nv)
    arrays: the nine coefficients and the two lambda gradients.  Those are
    held; any block of S or T is assembled from them on demand, so the
    sweep holds a few blocks, never a whole-grid (nu, nv, 5, 5) array, and
    every block is bit for bit the same part of the whole-grid matrices.
    The curvature norm reads the eleven arrays directly.

    The lambda gradients are fourth order: the RK4 sweep would otherwise be
    throttled by their truncation, and the curvature, which differentiates
    them once more, keeps its O(h^2) up to the grid edges.
    """

    def __init__(self, coeffs: CoefficientSet, case: CaseSpec):
        lam = coeffs.lam.values
        spec = self.spec = coeffs.spec
        self.case = case
        self.inputs = (*coeffs.alravel(), _diff_along4(lam, spec.du, 0),
                       _diff_along4(lam, spec.dv, 1))

    def block(self, k: int, view) -> np.ndarray:
        """S (k = 0, the u-matrix) or T (k = 1) on a block of the grid.

        view maps a (nu, nv) array to the block, of shape (a, b) say, and
        the result is (a, b, 5, 5), contiguous: ``lambda x: x`` gives the
        whole grid, ``lambda x: x[:, lo:hi].T`` columns lo..hi-1, line first.
        The entries are written entry-major, into a (5, 5, a, b) buffer,
        one contiguous write each, and the buffer is copied once into the
        result; the values are the same either way.
        """
        lam, a1, a2, a3, b1, b2, b3, m1, m2, lu, lv = map(view, self.inputs)
        *g, n1, n2 = self.case.frame_signs
        # T repeats S with every alpha/beta/mu index raised by one and the
        # lambda roles swapped
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
        M[4, k] = -g[k] * (self.case.l0 * np.exp(2 * lam))  # -g_k L0 e^{2 lambda}
        return np.ascontiguousarray(np.moveaxis(M, (0, 1), (-2, -1)))

    def curvature_norm(self) -> FieldGrid:
        """Frobenius norm per grid point of the curvature S_v - T_u - (ST - TS),
        in closed form, one slab of ``_DEFECT_ROWS`` rows at a time; every
        slab is bit for bit the whole grid's."""
        out = np.empty(self.spec.shape)
        for slab in slabs(self.spec, 0, _DEFECT_ROWS):
            sq = sum(w * (t * t) for w, t in self._curvature_terms(slab))
            out[slab.lines] = np.sqrt(sq[slab.keep])
        return FieldGrid(self.spec, out)

    def _curvature_terms(self, slab):
        """(multiplicity, value) on the slab's padded rows of the nine scalars
        whose signed copies are the curvature's 18 nonzero entries: the
        lambda-gradient curl on the diagonal of the (T1 T2 N1 N2) block, the
        Gauss residual on K01/K10, the Codazzi residuals on K20/K02, K21/K12,
        K30/K03 and K31/K13, the Ricci residual on K32/K23, and on K40 and
        K41 the gradient of E = L0 e^{2 lambda} against 2 E grad lambda.
        The residuals are ``gcr_equations`` fed the matrices' lambda
        gradients and their ``grad``.  At L0 = 0, E is exactly zero: no
        exponential is taken, and the two E terms, exact zeros that add
        nothing to the sum of squares, are not yielded.
        """
        spec = slab.spec
        *fields, lu, lv = (x[slab.pad] for x in self.inputs)
        (lu_u, lu_v), (lv_u, lv_v) = grad(lu, spec), grad(lv, spec)
        yield 4, lu_v - lv_u
        lap = lu_u + self.case.kappa * lv_v
        del lu_u, lu_v, lv_u, lv_v  # read no further: freed, they lower the slab's peak
        E = self.case.l0 * np.exp(2 * fields[0]) if self.case.l0 else 0.0
        residuals = gcr_equations(fields, lu, lv, lap, self.case, spec, q=E)
        for t in islice(residuals, 6):  # not the flatness
            yield 2, t
        if not self.case.l0:
            return
        E_u, E_v = grad(E, spec)
        yield 1, E_v - 2 * E * lv
        yield 1, E_u - 2 * E * lu


def assemble_connection(coeffs: CoefficientSet, case: CaseSpec):
    """Pointwise connection matrices S, T as arrays of shape (nu, nv, 5, 5)."""
    conn = FrameConnection(coeffs, case)
    return conn.block(0, lambda x: x), conn.block(1, lambda x: x)


def compatibility_defect(coeffs: CoefficientSet, case: CaseSpec) -> FieldGrid:
    """Frobenius norm per grid point of the frame connection's curvature, in
    closed form (``FrameConnection.curvature_norm``)."""
    return FrameConnection(coeffs, case).curvature_norm()


# ---------------------------------------------------------------------------
# the linear-connection kernel
# ---------------------------------------------------------------------------

# the reach one RK4 substep may take, and the most substeps a cell takes
_REACH = 0.1
_MAX_SUBSTEPS = 4


def _subnode_weights(m: int) -> np.ndarray:
    """Cubic Lagrange weights on stencil nodes 0..3 at the 2m + 1 sub-nodes
    of a cell of m substeps (substep ends and midpoints), for a cell that is
    the first, middle or last interval of its stencil: shape (3, 2m + 1, 4)."""
    nodes = np.arange(3.0)[:, None] + np.arange(2 * m + 1) / (2 * m)
    return np.stack(
        [np.prod([(nodes - b) / (a - b) for b in range(4) if b != a], axis=0) for a in range(4)],
        axis=-1)


_SUBNODE_WEIGHTS = {m: _subnode_weights(m) for m in range(1, _MAX_SUBSTEPS + 1)}


def _substeps(h: float, mats: np.ndarray) -> int:
    """RK4 substeps for a cell of length h over the matrices mats (..., d, d):
    clamp(ceil(reach / _REACH), 1, 4), where reach = h max ||M||_F.

    Why _REACH = 0.1: for a constant M, a substep of reach x multiplies Y
    by I + D (see ``_substep_map``), the degree-4 Taylor polynomial of exp(x
    M / ||M||_F), so its error is at most x^5 e^x / 120 of ||Y|| (the Frobenius
    norm is submultiplicative).  A line of total reach R takes R / x
    substeps, so it gathers at most R x^4 e^x / 120 of ||Y|| (times the
    growth of the solution): under 1e-6 per unit of reach at x = 0.1.
    Varying matrices add terms of the same order in h.  A cell of reach
    above 0.4 takes four substeps of reach above 0.1, outside that budget.

    The largest entry alone decides most cells, since max|M_ij| <= ||M||_F
    <= d max|M_ij|; the Frobenius norm is formed only when it cannot.  So
    a NaN or an inf selects four substeps, and no square can overflow.
    """
    d = mats.shape[-1]
    # h max|M_ij|; both extremes are NaN when any entry is
    top = h * float(max(mats.max(), -mats.min()))
    if d * top <= _REACH:
        return 1
    if not top <= (_MAX_SUBSTEPS - 1) * _REACH:
        return _MAX_SUBSTEPS
    x = h * mats.reshape(-1, d * d)  # entries at most 0.3: the squares stay finite
    reach = math.sqrt(np.max(np.einsum("ij,ij->i", x, x)))
    return min(max(math.ceil(reach / _REACH), 1), _MAX_SUBSTEPS)


# a window's line points (cells x line width), which bound the matrices and
# states a walk holds, and a chunk's matrix entries (cells x line width x
# d^2), which keep a chunk's map buffers in cache: windows of 16 cells on
# the 512-wide frame columns and 31 on the 257-wide angle columns, chunks of
# one cell on the 512-wide frame, 2 on the 160-wide and 7 on the angle
_WINDOW_POINTS = 2**13
_MAP_ENTRIES = 2**13


def _stencil(k: int, n: int) -> int:
    """First node of the 4-point stencil of cell k on a line of n nodes."""
    return min(max(k - 1, 0), n - 4)


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = a @ b for stacks of (r, d) and (d, d) matrices whose last stack
    axis is a line.  numpy's matmul calls BLAS once per matrix, which for 2
    x 2 factors costs about twice the sums written out: 72 against 38 us
    for a stack of 2048 (timeit, one thread).  So on lines 64 or more wide
    a 2 x 2 product is summed entry by entry, a_i0 b_0j + a_i1 b_1j,
    elementwise over the stack.  The choice depends on the line alone, so
    a cell's products have the same bits in any chunk.
    """
    if b.shape[-1] != 2 or b.shape[-3] < 64:
        return np.matmul(a, b, out=out)
    for i in range(a.shape[-2]):
        x, y = a[..., i, 0], a[..., i, 1]
        out[..., i, 0], out[..., i, 1] = [x * b[..., 0, j] + y * b[..., 1, j] for j in range(2)]
    return out


def _substep_map(A0, B, A1, out, work) -> np.ndarray:
    """The map D, Y <- Y + Y D, of one RK4 substep of dY = Y M ds, from A0,
    Am = 2 B and A1, the matrices hs M at the substep's start, middle and
    end.

    RK4's stages are Y A0, Y X1, Y X2 and Y X3, with X1 = Am + A0 B, X2 =
    Am + X1 B and X3 = A1 + X2 A1, so D = (A0 + 2 (X1 + X2) + X3) / 6.  The
    step adds Y D to Y, as RK4 adds its stages: Y (I + D) would round every
    entry of Y d times a step.  Into out, with three buffers of its shape
    in work.
    """
    Am, X, P = work
    np.add(B, B, out=Am)
    np.add(Am, _matmul(A0, B, P), out=out)  # X1
    np.add(Am, _matmul(out, B, P), out=X)  # X2
    np.add(out, X, out=out)
    np.add(out, out, out=out)
    np.add(out, A0, out=out)
    np.add(out, _matmul(X, A1, P), out=out)
    np.add(out, A1, out=out)
    return np.multiply(out, 1 / 6, out=out)


def _cell_maps(h: float, window: np.ndarray, k0: int, at: int, m: int, out: np.ndarray,
               work: np.ndarray) -> np.ndarray:
    """The maps of a run of cells of m substeps into out, (cells, b, d, d):
    cell c of the run has the stencil window[k0 + c:k0 + c + 4] and is its
    interval at.  A cell's map D, Y <- Y + Y D, composes its m substep
    maps, first to last, I + D = (I + D_1) ... (I + D_m), over the
    sub-nodes' matrices times hs = h / m.  The cell's ends are stencil
    nodes, where the weights are exactly 1 and +-0, so their matrices are
    read off the window; the 2m - 1 inner sub-nodes are summed over the
    stencil in node order.  Every operation is elementwise or a product
    whose form depends on the line alone (``_matmul``), so a cell's map
    has the same bits in any run, whatever the window's layout.  work:
    (5, cells + 1, b, d, d) or more.
    """
    cells = len(out)
    hs = h / m
    weights = _SUBNODE_WEIGHTS[m][at] * hs
    nodes = [window[k0 + s:k0 + s + cells] for s in range(4)]
    ends, mid, stage = work[0, :cells + 1], work[1, :cells], work[2:5, :cells]

    def subnode(t, scale, into):
        np.multiply(nodes[0], scale * weights[t, 0], out=into)
        for s in range(1, 4):
            np.add(into, np.multiply(nodes[s], scale * weights[t, s], out=stage[0]), out=into)
        return into

    # the cells' ends, the run's cells + 1 nodes: cell c's end is c + 1's start
    np.multiply(window[k0 + at:k0 + at + cells + 1], hs, out=ends)
    start = ends[:-1]
    if m > 1:
        inner = np.empty((4, *out.shape))  # two inner ends by turns, a map, a product
    for i in range(m):
        end = ends[1:] if i == m - 1 else subnode(2 * i + 2, 1.0, inner[i % 2])
        D = _substep_map(start, subnode(2 * i + 1, 0.5, mid), end,
                         out if i == 0 else inner[2], stage)
        if i:  # I + out <- (I + out) (I + D)
            _matmul(out, D, inner[3])
            np.add(out, D, out=out)
            np.add(out, inner[3], out=out)
        start = end
    return out


def _walk(window_of, h: float, state0: np.ndarray, n: int, sink) -> int:
    """Steps state0, (b, r, d), along a line of n nodes of spacing h; returns
    the most substeps a cell took.

    window_of(lo, hi) gives the matrices of nodes lo..hi-1, (hi - lo, b, d,
    d) and contiguous, for a window of ``_WINDOW_POINTS`` line points plus
    their stencil overlap at a time.  The count is monotone in the reach,
    so a window's count is its cells' most; where it is 1, no cell of it
    is counted again.  The window's cells fall into runs of one interval
    and one count, and each run into chunks of at most ``_MAP_ENTRIES``
    matrix entries, whose maps are formed at once (``_cell_maps``) in
    buffers that stay in cache.  Each cell then steps its state by one
    product, state + state @ map.  A window's states go to a buffer, which
    sink(j, states) reads once: the states of nodes j..j + len(states) - 1,
    valid only during the call, as the next window overwrites them.  Finiteness
    is checked once a window is stepped, before the sink reads it: a state
    that is not finite raises OverflowError naming the first such cell.
    """
    b, r, d = state0.shape
    size = max(1, min(n - 1, _WINDOW_POINTS // b))
    chunk = max(1, min(size, _MAP_ENTRIES // (b * d * d)))
    maps = np.empty((chunk, b, d, d))
    work = np.empty((5, chunk + 1, b, d, d))
    states = np.empty((size, b, r, d))
    step = np.empty((b, r, d))
    state = state0
    most = 1
    for j0 in range(0, n - 1, size):
        j1 = min(j0 + size, n - 1)
        lo = _stencil(j0, n)
        window = window_of(lo, _stencil(j1 - 1, n) + 4)
        m = _substeps(h, window)
        most = max(most, m)
        chunks = []  # [first cell, end, interval, count]
        for j in range(j0, j1):
            k0 = _stencil(j, n) - lo
            key = [j - lo - k0, m if m == 1 else _substeps(h, window[k0:k0 + 4])]
            if chunks and chunks[-1][2:] == key and j - chunks[-1][0] < chunk:
                chunks[-1][1] = j + 1
            else:
                chunks.append([j, j + 1, *key])
        for first, end, at, count in chunks:
            D = _cell_maps(h, window, _stencil(first, n) - lo, at, count, maps[:end - first],
                           work)
            for c in range(end - first):
                state = np.add(state, _matmul(state, D[c], step), out=states[first - j0 + c])
        del window  # before the sink's work and the next window's assembly
        done = states[:j1 - j0]
        finite = np.isfinite(done.reshape(j1 - j0, -1)).all(axis=1)
        if not finite.all():
            raise OverflowError("linear propagation left the finite range near cell "
                                f"{j0 + int(finite.argmin())}")
        sink(j0 + 1, done)
    return most


def sweep(block, state0: np.ndarray, spec: GridSpec, sink):
    """Y over the grid from Y(u0, v0) = state0, base row first, then every
    column, handed to sink column block by column block.

    block(k, view): the u-matrices (k = 0) or the v-matrices (k = 1) on the
    block view picks from a (nu, nv) array, (a, b, d, d) and contiguous, as
    ``FrameConnection.block`` gives them.  The base row is a line one state
    wide (windows ``x[lo:hi, :1]``), the columns one nu wide (windows
    ``x[:, lo:hi].T``).  state0: (r, d).  sink(j, states) reads columns
    j..j + w - 1 of Y as states (w, nu, r, d), line first: the base row
    (j = 0, w = 1) once it is done, then each window of columns, valid only
    during the call (``fill`` keeps them all).  The sweep itself holds the
    base row, one window of states and one of matrices, and one chunk of
    maps.  Returns the most substeps a cell took along u and along v.
    """
    base = np.empty((1, spec.nu, *state0.shape))  # column 0, line first: a one-row Y
    base[0, 0] = state0
    most_u = _walk(lambda lo, hi: block(0, lambda x: x[lo:hi, :1]), spec.du, base[:, 0], spec.nu,
                   fill(base))
    sink(0, base)
    most_v = _walk(lambda lo, hi: block(1, lambda x: x[:, lo:hi].T), spec.dv, base[0], spec.nv,
                   sink)
    return most_u, most_v


def fill(Y: np.ndarray):
    """The ``sweep`` sink that writes every column block into Y, (nu, nv, r, d)."""
    def sink(j, states):
        Y[:, j:j + len(states)] = states.swapaxes(0, 1)
    return sink
