"""Frame integration and its inverse.

``integrate_frame`` propagates the 5-column moving frame (T1 T2 N1 N2 F)
through the linear system of :mod:`normalflat.frames` with that module's
4th-order ``sweep``, base row first and then every column.  No
re-orthonormalization is applied; Gram and quadric drift are the
accuracy diagnostics, and ``_gram_defects`` states their conditions
once, for the drift and the initial frame.  ``reconstruct_coefficients``
inverts the frame definitions on a sampled conformal immersion.

Both stream their whole-grid work, so the largest arrays either holds
are its input and its output.  Integration assembles the connection one
sweep window at a time (:class:`normalflat.frames.FrameConnection`) and
takes the compatibility defect in closed form one row slab at a time.
``integrate_frame`` has the sweep fill the whole (nu, nv, dim, 5) frame
it returns, then computes the Gram drift one row slab at a time
(``grid.row_slabs``).  The command line's ``integrate`` writes only the
mesh, so it goes through ``_integrate_mesh``, which shares the frame0
gate, the connection and the report: its sink keeps each column block's
positions and folds the block into the Gram drift, so it holds the mesh
and the sweep's base row, never the frame.  The drift copies each part
of the frame entry-major once and sums only the Gram entries its
defects read, component by component (``_gram_defects``), so the frame
path, the mesh path and the frame0 gate get the same bits from any
blocking.  ``export_mesh`` formats ``_ROWS_PER_WRITE`` rows at a time,
from per-chunk slices of the mesh.
Reconstruction checks the tangents one row slab at a time, then
propagates the normals and computes the coefficients one window of
``_WINDOW`` columns at a time (``grid.slabs``): tangent projectors,
normals and second differences exist only for the current window and
its stencil halo.  Each window transposes F once into the normals'
(column, component, u) order, and its tangents, its F_u (taken once,
for the projectors and the Hessian), its second differences, N1's
gradient and the inner products of the second forms all read that
contiguous memory.

For L0 = 0 the ambient model is 4-dimensional and the fifth frame column
is the position itself (affine frame); for L0 != 0 everything lives in
the flat 5-space containing the quadric model.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .frames import COEFF_NAMES, CoefficientSet, FrameConnection, fill, sweep
from .grid import (ROUND_OFF_TOL, FieldGrid, GridSpec, grad, hessian, isothermality_tolerance,
                   load_fields, residual_tolerance, row_slabs, save_fields, slabs)
from .spaceform import CaseSpec, ambient_inner, ambient_signature

__all__ = [
    "FrameField",
    "SurfaceMesh",
    "canonical_frame0",
    "integrate_frame",
    "reconstruct_coefficients",
    "export_mesh",
    "load_mesh",
    "save_mesh",
]


class SignatureError(ValueError):
    """Sampled mesh does not have the causal type of the requested case."""


class NotConformalError(ValueError):
    pass


class OffQuadricError(ValueError):
    """Sampled mesh does not lie on the quadric <x, x> = 1/L0 of the case."""


@dataclass
class SurfaceMesh:
    spec: GridSpec
    positions: np.ndarray  # (nu, nv, dim)

    def __post_init__(self):
        if np.iscomplexobj(self.positions):
            raise ValueError("mesh positions must be real")

    @property
    def dim(self) -> int:
        return self.positions.shape[-1]


@dataclass
class FrameField:
    case: CaseSpec
    spec: GridSpec
    values: np.ndarray  # (nu, nv, dim, 5) columns T1 T2 N1 N2 F

    def column(self, k: int) -> np.ndarray:
        return self.values[..., k]

    def mesh(self) -> SurfaceMesh:
        return SurfaceMesh(self.spec, self.values[..., 4].copy())

    def gram_drift(self, lam: FieldGrid) -> dict:
        """The maxima of ``_gram_defects`` over the grid, one row slab at a time."""
        return _gram_max([_gram_defects(self.values[s.lines], np.exp(2 * lam.values[s.lines]),
                                        self.case) for s in row_slabs(self.spec)])


def _gram_max(parts: list) -> dict:
    """The maxima of ``_gram_defects`` of the grid's parts, a NaN the largest."""
    return {name: float(np.max([d[name] for d in parts])) for name in parts[0]}


def _gram_defects(Y: np.ndarray, e2l, case: CaseSpec) -> dict:
    """The largest deviations of frames Y (..., dim, 5) from the Gram conditions,
    a NaN the largest: ``gram_max`` of the frame block from diag(g1, g2, n1, n2)
    e2l, over e2l = e^{2 lambda}; for L0 != 0 also ``quadric_max`` (<F, F> from
    1/L0) and ``position_cross_max`` (<F, T_i>, <F, N_i> from 0), both absolute.

    Y is copied once entry-major, (dim, 5, ...), and only the Gram entries a
    defect reads are formed: the 10 of the symmetric frame block, and for L0
    != 0 the F row.  Each is summed over the ambient components left to
    right from +0.0, one contiguous product at a time, as ``ambient_inner``
    sums, so the defects do not depend on how the grid is blocked.
    """
    E = np.moveaxis(Y, (-2, -1), (0, 1)).copy()
    signs = ambient_signature(case).array().reshape(-1, *[1] * (E.ndim - 2))
    e2l = np.asarray(e2l)

    def gram(k, cols):  # <column k, columns cols>, (columns, ...)
        return np.add.reduce((signs * E[:, k])[:, None] * E[:, cols], axis=0)

    block = []
    for k in range(4):
        row = gram(k, slice(k, 4))
        row[0] -= case.frame_signs[k] * e2l
        block.append(np.max(np.abs(row) / e2l))
    defects = {"gram_max": np.max(block)}  # np.max, not max: a NaN stays the largest
    if case.l0 != 0:
        row = gram(4, slice(None))  # <F, T1 T2 N1 N2 F>
        defects["quadric_max"] = np.max(np.abs(row[4] - 1.0 / case.l0))
        defects["position_cross_max"] = np.max(np.abs(row[:4]))
    return defects


def canonical_frame0(case: CaseSpec, lam0: float = 0.0) -> np.ndarray:
    """Initial frame from the ambient axes, scaled by e^{lambda(base)}.

    Positive columns take the leading ambient axes, negative columns the
    axes after them; for L0 != 0 the last axis of sign L0 is left over and
    carries the base position on the quadric.
    """
    sig = ambient_signature(case)
    frame = np.zeros((sig.dim, 5))
    axes = list(range(sig.dim))
    if case.l0 != 0:
        point = max(ax for ax in axes if sig.signs[ax] * case.l0 > 0)
        frame[axes.pop(point), 4] = 1.0 / np.sqrt(abs(case.l0))
    columns = sorted(range(4), key=lambda col: -case.frame_signs[col])
    frame[axes, columns] = np.exp(lam0)
    return frame


def integrate_frame(coeffs: CoefficientSet, case: CaseSpec, frame0=None):
    """Propagate the moving frame over the grid; returns (FrameField, report).

    frame0: (dim, 5) initial frame at the base corner, or None for the
    canonical axis-aligned frame.  The frame is never projected onto the
    quadric, so the report's Gram and quadric drift are integration error;
    when the input coefficients violate compatibility, that defect is the
    expected error floor (warned, not blocked).  The report states the
    defect and the residual level it is warned at, as
    ``compatibility_defect`` and ``compatibility_tolerance``.
    """
    def frame(conn, frame0):
        spec = coeffs.spec
        values = np.empty((*spec.shape, *frame0.shape))
        substeps = sweep(conn.block, frame0, spec, fill(values))
        field = FrameField(case, spec, values)
        return field, field.gram_drift(coeffs.lam), substeps

    return _integrate(coeffs, case, frame0, frame)


def _integrate_mesh(coeffs: CoefficientSet, case: CaseSpec, frame0=None):
    """``integrate_frame``'s mesh and report, bit for bit, holding the mesh,
    not the frame: returns (SurfaceMesh, report).  Each column block the
    sweep hands over gives up its position column and its Gram defects."""
    def mesh(conn, frame0):
        spec = coeffs.spec
        lam = coeffs.lam.values
        positions = np.empty((*spec.shape, len(frame0)))
        defects = []

        def sink(j, states):
            cols = slice(j, j + len(states))
            positions[:, cols] = states[..., 4].swapaxes(0, 1)
            defects.append(_gram_defects(states, np.exp(2 * lam[:, cols]).T, case))

        substeps = sweep(conn.block, frame0, spec, sink)
        return SurfaceMesh(spec, positions), _gram_max(defects), substeps

    return _integrate(coeffs, case, frame0, mesh)


def _integrate(coeffs: CoefficientSet, case: CaseSpec, frame0, run):
    """The body of both paths: frame0 and its Gram gate, the connection,
    run(conn, frame0) -> (result, Gram drift, substeps), and the report."""
    sig = ambient_signature(case)
    lam0 = float(coeffs.lam.values[0, 0])
    if frame0 is None:
        frame0 = canonical_frame0(case, lam0)
    frame0 = np.asarray(frame0, dtype=float)
    if frame0.shape != (sig.dim, 5):
        raise ValueError(f"frame0 must have shape ({sig.dim}, 5)")
    defects = _gram_defects(frame0, np.exp(2 * lam0), case)
    name = max(defects, key=lambda n: np.nan_to_num(defects[n], nan=np.inf))  # NaN first
    if not (defects[name] <= ROUND_OFF_TOL):
        raise ValueError(f"frame0 violates the Gram conditions at the base point: "
                         f"{name} {defects[name]:.3e} > {ROUND_OFF_TOL:.3e}")

    spec = coeffs.spec
    conn = FrameConnection(coeffs, case)
    result, report, (substeps_u, substeps_v) = run(conn, frame0)
    report["frame0"] = frame0.tolist()
    report["substeps"] = {"u": substeps_u, "v": substeps_v}
    # the defect of the connection just swept: compatibility_defect(coeffs, case)
    compat = conn.curvature_norm().max_abs()
    report["compatibility_defect"] = compat
    tol = report["compatibility_tolerance"] = residual_tolerance(spec, coeffs.max_abs())
    if not (compat <= tol):
        # incompatible data is integrated anyway; the drift is the signal
        report["compatibility_warning"] = (
            f"input coefficients violate integrability ({compat:.3e} > {tol:.3e}); "
            "expect Gram/quadric drift of the same order")
    return result, report


def reconstruct_coefficients(mesh: SurfaceMesh, case: CaseSpec):
    """Recover a CoefficientSet from a sampled conformal immersion.

    Tangents come from first differences, lambda from their inner
    product, the normal frame from sign-aligned Gram-Schmidt seeded on
    the canonical ambient axes (``_normals``), and the coefficients from
    second differences, one column window at a time as the normals reach
    past it.  The normal gauge is only fixed up to the case's residual
    freedom, so compare gauge invariants, not raw fields.  Returns
    (CoefficientSet, gauge report).  Raises OffQuadricError when L0 != 0
    and the mesh leaves <x, x> = 1/L0 by more than
    ``residual_tolerance(spec, 1/|L0|)`` or has a point with L0 <x, x> <= 0
    (the origin, say), SignatureError when a tangent has the wrong causal
    type, NotConformalError when the isothermality defect exceeds its
    tolerance, and SignatureError when a normal has the wrong causal type,
    in that order of precedence (a NaN fails each check).  A causal-type
    error names the first tangent (T1, then T2, least u index first) or
    normal (``_normals``' order) of the wrong type and its point.
    """
    sig = ambient_signature(case)
    if mesh.dim != sig.dim:
        raise ValueError(f"mesh dimension {mesh.dim} does not match case ({sig.dim})")
    spec = mesh.spec
    F = mesh.positions
    if case.l0 != 0:
        xx = ambient_inner(F, F, sig)
        off = float(np.max(np.abs(xx - 1.0 / case.l0)))
        tol = residual_tolerance(spec, 1.0 / abs(case.l0))
        where = f"mesh is off the quadric <x, x> = 1/L0 = {1.0 / case.l0:g}"
        if not (off <= tol):
            raise OffQuadricError(f"{where}: max deviation {off:.3e} > tolerance {tol:.3e}")
        # a coarse grid's tolerance can admit the origin, where the
        # projection onto F would divide by <F, F> = 0
        least = float(np.min(case.l0 * xx))
        if not (least > 0):
            raise OffQuadricError(f"{where}: min L0 <x, x> = {least:.3e} <= 0")
        del xx

    g1, g2, n1s, n2s = case.frame_signs
    q11, q22, q12 = (np.empty(spec.shape) for _ in range(3))
    for slab in row_slabs(spec):
        T1, T2 = (x[slab.keep] for x in grad(F[slab.pad], slab.spec))
        q11[slab.lines] = g1 * ambient_inner(T1, T1, sig)
        q22[slab.lines] = g2 * ambient_inner(T2, T2, sig)
        q12[slab.lines] = ambient_inner(T1, T2, sig)
    for name, q in (("T1", q11), ("T2", q22)):
        if not np.all(q > 0):
            raise _wrong_type("tangent", name, *np.argwhere(~(q > 0))[0])
    e2l = q11
    lam = 0.5 * np.log(q11)
    iso = max(float(np.max(np.abs(q11 - q22) / e2l)), float(np.max(np.abs(q12) / e2l)))
    del q22, q12
    # first differences are O(h^2) accurate, so isothermality can only be
    # checked to that order
    iso_tol = max(1e-6, isothermality_tolerance(spec, float(np.max(np.abs(F)))))
    if not (iso <= iso_tol):
        raise NotConformalError(f"isothermality defect {iso:.3e} exceeds {iso_tol:.3e}")

    # the second forms of F along the normals, and the normal connection,
    # one column window at a time as the normals reach past it
    fields = {name: np.empty(spec.shape) for name in COEFF_NAMES[1:]}
    base = []

    def second_forms(win, N, Fw, F_u):
        # every array here is (columns, dim, nu) in memory; the stencils
        # read it through (u, v, component) views.  The F and N1
        # derivatives are formed one set after the other, so that only one
        # set is alive
        cols, keep = win.lines, win.keep
        if cols.start == 0:
            base.extend(N[0, :, :, 0].tolist())
        n1, n2 = N[keep, 0], N[keep, 1]
        inv1 = n1s / e2l[:, cols]
        inv2 = n2s / e2l[:, cols]

        def put(name, inv, x, n):
            fields[name][:, cols] = inv * _inner(_columns_first(x)[keep], n, sig).T

        d2F = hessian(_u_first(Fw), win.spec, f_u=F_u)
        for (a, b), x in zip((("alpha1", "beta1"), ("alpha2", "beta2"), ("alpha3", "beta3")), d2F):
            put(a, inv1, x, n1)
            put(b, inv2, x, n2)
        del d2F, x
        for name, x in zip(("mu1", "mu2"), grad(_u_first(N[:, 0]), win.spec)):
            put(name, inv2, x, n2)

    _normals(F, spec, case, np.exp(lam), second_forms)
    coeffs = CoefficientSet.from_arrays(spec, lam=lam, **fields)
    report = {
        "isothermality_defect": iso,
        "base_normal1": base[0],
        "base_normal2": base[1],
    }
    return coeffs, report


# columns per reconstruction window: the tangent and quadric projectors,
# the normals and the second differences exist for one window and its
# stencil halo at a time
_WINDOW = 32


def _columns_first(x: np.ndarray) -> np.ndarray:
    """A (u, v, component) array as (v, component, u): a window's memory order."""
    return x.transpose(1, 2, 0)


def _u_first(x: np.ndarray) -> np.ndarray:
    """A (v, component, u) array as the (u, v, component) view the stencils read."""
    return x.transpose(2, 0, 1)


def _inner(x: np.ndarray, y: np.ndarray, sig) -> np.ndarray:
    """<x, y> of (columns, dim, nu) arrays, (columns, nu): summed over the
    components left to right from +0.0, one signed product at a time, as
    ``ambient_inner``'s einsum sums them, so the bits are the same, zero
    signs included (adding -p is subtracting p)."""
    out = np.zeros((len(x), x.shape[-1]))
    for a, s in enumerate(sig.signs):
        (np.add if s > 0 else np.subtract)(out, x[:, a] * y[:, a], out=out)
    return out


def _wrong_type(what: str, name: str, i, j) -> SignatureError:
    return SignatureError(f"{what} has the wrong causal type: {name} at (u, v) = ({i}, {j})")


def _normals(F: np.ndarray, spec: GridSpec, case: CaseSpec, el: np.ndarray,
             window_done) -> None:
    """The gauge normals N1 and N2 of a mesh F, one column window at a time.

    Calls window_done(window, N, Fw, F_u) for each ``grid.slabs(spec, 1,
    _WINDOW)`` window in turn, as soon as the normals reach its last padded
    column: N is (padded columns, 2, dim, nu), Fw the window's F transposed
    once into that (padded columns, dim, nu) order, and F_u its u-derivative
    as ``grad`` gives it on ``_u_first(Fw)``, a (u, v, component) view of
    the same memory order.  The window's tangents are that F_u and F_v.

    Sign-aligned Gram-Schmidt, point by point: the base corner projects
    the canonical seed (or, failing that, the first ambient axis that
    projects to a normal of sign n_k above 1e-6), every other point its
    neighbor's normals, one step along u on the base row and along v
    elsewhere.  A step takes the normals' components along T1, T2 (and F
    for L0 != 0) off, then, normal by normal, the component along the new
    N1 (for N2), scales to length e^lambda = el and flips the sign where
    the normal turns against its neighbor's.  The first normal of the wrong
    causal type (a NaN too) raises SignatureError naming it and its point,
    in order: the base row, then column by column; N1 before N2; least u first.

    The base row steps in Python floats, each column all of u at once on
    preallocated buffers.  Every sum runs over the ambient components left
    to right from +0.0, as numpy's sum over a short axis does, and both
    paths form the same products in the same order, so the normals do not
    depend on the blocking.  The projector blocks are built from Fw,
    whose stencil halo they share, and a column's normals are dropped once
    no window's padding reads them, so no whole-grid tangent or normal is
    held.
    """
    sig = ambient_signature(case)
    sg = sig.array()[:, None]
    nu, nv = spec.shape
    wants = case.frame_signs[2:]
    shape = (2, sig.dim, nu)
    seeds = canonical_frame0(case, 0.0)[:, 2:].T.tolist()
    prod = np.empty(shape)
    dots = np.empty((2, 1, nu))
    t, q = np.empty(shape[1:]), np.empty((1, nu))
    flip = np.empty((1, nu), dtype=bool)

    def normalize(c, el, k, prev, col):
        # c (dim, nu) in place: scaled to el, sign-aligned with prev
        np.multiply(sg, c, out=t)
        np.multiply(t, c, out=t)
        np.add.reduce(t, axis=0, keepdims=True, out=q)
        if not (q.min() > 0 if wants[k] > 0 else q.max() < 0):
            first = np.argmin(wants[k] * q[0] > 0)  # a NaN is not > 0 either
            raise _wrong_type("normal candidate", f"N{k + 1}", first, col)
        np.abs(q, out=q)
        np.sqrt(q, out=q)
        np.divide(el, q, out=q)
        np.multiply(c, q, out=c)
        np.multiply(c, prev, out=t)
        np.add.reduce(t, axis=0, keepdims=True, out=q)
        np.less(q, 0, out=flip)
        np.negative(c, out=c, where=flip)

    def project(c, b, sgb, bb, out, prod, dots):
        # out = c - (c . sg * b) / bb * b, for c (..., dim, nu)
        np.multiply(c, sgb, out=prod)
        np.add.reduce(prod, axis=-2, keepdims=True, out=dots)
        np.divide(dots, bb, out=dots)
        np.multiply(dots, b, out=prod)
        np.subtract(c, prod, out=out)

    def column_step(prev, projectors, el, col):
        out = np.empty(shape)
        cand = prev
        for b, sgb, bb in projectors:
            project(cand, b, sgb, bb, out, prod, dots)
            cand = out
        normalize(out[0], el, 0, prev[0], col)
        # N2 against the new N1
        np.multiply(sg, out[0], out=t)
        np.multiply(t, out[0], out=prod[1])
        np.add.reduce(prod[1], axis=0, keepdims=True, out=q)
        project(out[1], out[0], t, q, out[1], prod[1], dots[1])
        normalize(out[1], el, 1, prev[1], col)
        return out

    windows = list(slabs(spec, 1, _WINDOW))
    normals = {}  # column -> (2, dim, nu), while a window to come reads it
    held = {}  # window -> (its F, F_u), until window_done reads them
    done = 0
    for w, win in enumerate(windows):
        cols = win.lines
        Fw = np.ascontiguousarray(_columns_first(F[:, win.pad]))  # (padded columns, dim, nu)
        F_u, F_v = grad(_u_first(Fw), win.spec)  # T1, T2, each in Fw's memory order
        held[w] = Fw, F_u
        blocks = []
        for b in (_columns_first(F_u), _columns_first(F_v), *([Fw] if case.l0 != 0 else [])):
            b = b[win.keep]  # (columns, dim, nu), contiguous
            sgb = sg * b  # sg is +-1, so c . sg * b is sg * c . b bit for bit
            blocks.append((b, sgb, np.add.reduce(sgb * b, axis=-2, keepdims=True)))
        elw = np.ascontiguousarray(el[:, cols].T)[:, None]
        for j, col in enumerate(range(cols.start, cols.stop)):
            projectors = [(b[j], sgb[j], bb[j]) for b, sgb, bb in blocks]
            if col == 0:
                normals[0] = _base_row(projectors, elw[0, 0].tolist(), wants, seeds, sig)
            else:
                normals[col] = column_step(normals[col - 1], projectors, elw[j], col)
        del F_v, blocks, projectors, elw
        # padding ends and starts never decrease from one window to the next
        while done < len(windows) and windows[done].pad.stop <= cols.stop:
            pad = windows[done].pad
            window_done(windows[done], np.stack([normals[c] for c in range(pad.start, pad.stop)]),
                        *held.pop(done))
            done += 1
            first = windows[done].pad.start if done < len(windows) else nv
            for c in [c for c in normals if c < first]:
                del normals[c]


def _dot(x, y) -> float:
    """sum_a x[a] * y[a], left to right from +0.0."""
    s = 0.0
    for a, b in zip(x, y):
        s += a * b
    return s


def _base_row(projectors, el, wants, seeds, sig) -> np.ndarray:
    """The normals along the base row, (2, dim, nu), in Python floats;
    projectors: (b, sg * b, <b, b>) per projector, at each point."""
    sg = sig.signs
    points = [list(zip(b.T.tolist(), sgb.T.tolist(), bb[0].tolist()))
              for b, sgb, bb in projectors]

    def project(c, projectors):
        for b, sgb, bb in projectors:
            # a zero <b, b> (F at the origin) divides as numpy does: inf or
            # NaN, or the floating-point error that errstate asks for
            k = _dot(c, sgb) / bb if bb else np.divide(_dot(c, sgb), bb)
            c = [x - k * y for x, y in zip(c, b)]
        return c

    def square(c):
        return _dot(c, [s * x for s, x in zip(sg, c)])

    def normalize(c, el, k, prev, i):
        sq = square(c)
        if not wants[k] * sq > 0:
            raise _wrong_type("normal candidate", f"N{k + 1}", i, 0)
        f = el / math.sqrt(abs(sq))
        c = [x * f for x in c]
        return [-x for x in c] if prev is not None and _dot(c, prev) < 0 else c

    row = []
    for i, el_i in enumerate(el):
        here = [p[i] for p in points]
        normals = []
        for k, want in enumerate(wants):
            if k:
                n1 = normals[0]
                sgn1 = [s * x for s, x in zip(sg, n1)]
                extra = [(n1, sgn1, _dot(sgn1, n1))]
            else:
                extra = []
            if i:
                cand = project(row[-1][k], here + extra)
            else:
                # fall back to any ambient axis whose projection has the
                # right type and is not numerically degenerate (axis nearly
                # tangent)
                for cand in (seeds[k], *np.eye(sig.dim).tolist()):
                    cand = project(cand, here + extra)
                    if want * square(cand) > 1e-6:
                        break
                else:
                    raise SignatureError("no ambient axis projects to the required normal type")
            normals.append(normalize(cand, el_i, k, row[-1][k] if i else None, i))
        row.append(normals)
    return np.array(row).transpose(1, 2, 0)


# ---------------------------------------------------------------------------
# mesh files
# ---------------------------------------------------------------------------

def save_mesh(path, mesh: SurfaceMesh) -> None:
    fields = {f"x{k}": FieldGrid(mesh.spec, mesh.positions[..., k])
              for k in range(mesh.dim)}
    save_fields(path, fields)


def load_mesh(path) -> SurfaceMesh:
    fields = load_fields(path)
    names = [f"x{k}" for k in range(len(fields))]
    if not fields or set(fields) != set(names):
        raise ValueError(f"{path} is not a mesh file: expected the fields x0, x1, ... "
                         f"and no other, got {sorted(fields)}")
    pos = np.stack([fields[n].values for n in names], axis=-1)
    return SurfaceMesh(fields["x0"].spec, pos)


def export_mesh(mesh, path, fmt: str = "csv", axes=(0, 1, 2)) -> None:
    """Write a mesh as CSV (all ambient coordinates) or OBJ (3-axis projection).

    OBJ export also accepts a bare (nu, nv, dim) position array, with quad
    faces over the grid; CSV needs a SurfaceMesh for its (u, v) columns.
    Complex positions are rejected, not truncated to their real parts.
    """
    positions = np.asarray(mesh.positions if isinstance(mesh, SurfaceMesh) else mesh)
    if np.iscomplexobj(positions):
        raise ValueError("mesh positions must be real")
    positions = positions.astype(float, copy=False)
    nu, nv, dim = positions.shape

    def points(k):  # grid points k, row-major
        return positions[k // nv, k % nv]

    if fmt == "csv":
        if not isinstance(mesh, SurfaceMesh):
            raise ValueError("csv export needs a SurfaceMesh (u, v columns)")
        u, v = mesh.spec.u_axis(), mesh.spec.v_axis()

        def csv_rows(k):  # the rows of grid points k, u and v from spec.mesh()
            return np.column_stack([u[k // nv], v[k % nv], points(k)])

        with open(path, "w", newline="") as fh:
            fh.write(",".join(["u", "v"] + [f"x{k}" for k in range(dim)]) + "\r\n")
            _write_lines(fh, ",".join(["%r"] * (2 + dim)) + "\r\n", nu * nv, csv_rows)
    elif fmt == "obj3d":
        if len(axes) != 3 or not all(-dim <= a < dim for a in axes):
            raise ValueError("obj export needs three valid projection axes")

        def faces(k):  # quad k, row-major over the (nu - 1, nv - 1) cells
            a = (k // (nv - 1) * nv + k % (nv - 1) + 1)[:, None]
            return np.hstack([a, a + nv, a + nv + 1, a + 1])

        with open(path, "w") as fh:
            _write_lines(fh, "v %r %r %r\n", nu * nv, lambda k: points(k)[:, list(axes)])
            _write_lines(fh, "f %d %d %d %d\n", (nu - 1) * (nv - 1), faces)
    else:
        raise ValueError(f"unknown mesh format {fmt!r}")


_ROWS_PER_WRITE = 1 << 12  # bounds the Python floats and text alive at once


def _write_lines(fh, line: str, n: int, rows) -> None:
    """Write ``line % row`` for the n rows of a table, a chunk at a time:
    rows(k) gives the rows of the indices k, a 2-d array.

    The values go through ``tolist()``, so ``%r`` prints a float as its
    shortest repr, exactly as ``repr(float(x))`` would.
    """
    for start in range(0, n, _ROWS_PER_WRITE):
        chunk = rows(np.arange(start, min(start + _ROWS_PER_WRITE, n)))
        fh.write((line * len(chunk)) % tuple(chunk.reshape(-1).tolist()))


def load_mesh_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read back a CSV mesh: (u, v, coords) flat arrays, bit-exact."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    data = np.array([[float(x) for x in row] for row in body])
    return data[:, 0], data[:, 1], data[:, 2:]
