"""The DPP solver's fixed-point operator, planned once per grid (DppPlan,
apply_dpp), and the one multilinear read of grid slices (locate, corner_offsets,
blend) that it shares with ValueGrid and the greedy strategies (SliceReader).
"""

from __future__ import annotations

import math

import numpy as np

from .operators import coin_weights


def locate(u: np.ndarray, last, last_cell, out: np.ndarray | None = None) -> np.ndarray:
    """Locate scaled coordinates u = (q - origin) / spacing in place: clamp u
    to [0, last], return each query's cell (its lower node index, at most
    last_cell; in ``out`` when given) and leave in u the fraction within it.
    last = n - 1 and last_cell = n - 2 on an axis of n nodes: numbers, or
    columns with one per row of u."""
    np.maximum(u, 0.0, out=u)
    np.minimum(u, last, out=u)
    if out is None:
        out = u.astype(np.int64)
    else:
        np.copyto(out, u, casting="unsafe")
    np.minimum(out, last_cell, out=out)
    u -= out
    return out


def corner_offsets(axes):
    """Flat strides of a C-order tensor over ``axes`` and the flat offset of
    each of its 2^k cell corners (bit a of the corner number steps axis a)."""
    strides = [math.prod(ax.n for ax in axes[a + 1:]) for a in range(len(axes))]
    offsets = [sum(s for a, s in enumerate(strides) if (c >> a) & 1) for c in range(1 << len(axes))]
    return strides, offsets


def blend(corners: np.ndarray, fracs) -> np.ndarray:
    """Multilinear values from the stacked corner values ``corners[c]``
    (numbered as in corner_offsets) and fractions ``fracs[a]``, in place: one
    axis at a time, last first, as lo + f (hi - lo), which reproduces
    constant fields bit-exactly.  Returns corners[0]."""
    for a in range(len(fracs) - 1, -1, -1):
        half = 1 << a
        lo, hi = corners[:half], corners[half:2 * half]
        hi -= lo
        hi *= fracs[a]
        lo += hi
    return corners[0]


class SliceReader:
    """Multilinear reads of small query blocks (one row per axis) from a grid
    slice, prepared once per grid.  No range check of its own: a query off an
    axis is clamped to it, so each caller checks the range it needs first."""

    def __init__(self, axes):
        self.origin = np.array([[ax.origin] for ax in axes])
        self.spacing = np.array([[ax.spacing] for ax in axes])
        self.last = np.array([[ax.n - 1.0] for ax in axes])
        self.last_cell = np.array([[ax.n - 2] for ax in axes])
        strides, offsets = corner_offsets(axes)
        self.strides, self.offsets = np.array(strides), np.array(offsets)[:, None]

    def scale(self, q: np.ndarray) -> np.ndarray:
        """The block in axis units, (q - origin) / spacing, as a new array."""
        u = q - self.origin
        u /= self.spacing
        return u

    def __call__(self, src: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Values of the flat slice ``src`` at the scaled block ``u`` (made the
        cell fractions): one fancy-index gather of all corners, one blend."""
        cell = locate(u, self.last, self.last_cell)
        return blend(src[self.offsets + self.strides @ cell], u)


def node_lattice(grid):
    """Every (x node, y node) pair of the grid in C order, as two (n_x * n_y, m)
    arrays Xb and Yb; a slice reshaped to (n_x, n_y) lines up with them."""
    Xn, Yn = grid.x_nodes(), grid.y_nodes()
    return np.repeat(Xn, len(Yn), axis=0), np.tile(Yn, (len(Xn), 1))


def plan_bytes(m: int, n_x: int, n_y: int, n_ball: int) -> int:
    """Upper bound on the bytes a DppPlan holds, counting every x node as
    interior: the (x, y) buffers, the datum mask and the per-ball-point
    arrays.  Keep in step with DppPlan."""
    buffers = (1 << 2 * m) + 2 * m + 3      # corners, per-y-axis fraction and index, max/min/sum
    return n_x * n_y * (8 * buffers + 1) + 8 * n_ball * n_x * (3 * m + 2)


class DppPlan:
    """The slice-independent part of apply_dpp for one grid geometry.

    Which source points a slice reads, (Xs, Y + eps^2 Xs / 2) at the previous
    slice time, depends only on the grid and the ball point, never on the
    slice: the velocities Xs, the position drift, the x cells and fractions,
    and which queries fall back to the datum.  The plan computes these once,
    per ball point along the first axis of its arrays, and owns the (interior
    x nodes, y nodes) buffers that every slice reuses, so one plan serves one
    apply_dpp call at a time.
    The y cells depend on the y node as well as the ball point; they are
    recomputed per slice into the buffers rather than stored for every ball
    point.  The arithmetic and its order are those of a fresh per-call
    computation, so the grids are bit-identical either way.
    """

    def __init__(self, grid):
        m, eps = grid.m, grid.epsilon
        self.interior = grid.interior_x_mask()
        Xi = grid.x_nodes()[self.interior]
        self.Yn = grid.y_nodes()
        ni, ny = len(Xi), len(self.Yn)
        self.y_cols = [np.ascontiguousarray(self.Yn[:, d]) for d in range(m)]
        strides, self.offsets = corner_offsets(grid.x_axes + grid.y_axes)
        shape = (ni, ny)
        self.corners = np.empty((len(self.offsets),) + shape)
        self.fy = [np.empty(shape) for _ in range(m)]
        self.iy = [np.empty(shape, np.int64) for _ in range(m)]
        self.mx, self.mn, self.acc = np.empty(shape), np.empty(shape), np.empty(shape)
        self.datum = np.empty(shape, bool)

        self.weights = grid.ball_weights
        self.Xs = Xi[None, :, :] + (eps * grid.ball_offsets)[:, None, :]
        self.drift = (eps**2 / 2) * self.Xs
        self.x_base = np.zeros(self.Xs.shape[:2] + (1,), np.int64)
        self.fx = []
        for d, ax in enumerate(grid.x_axes):
            u = (self.Xs[:, :, d:d + 1] - ax.origin) / ax.spacing
            self.x_base += locate(u, ax.n - 1, ax.n - 2) * strides[d]
            self.fx.append(u)
        # a lateral-collar velocity sends its whole row to the datum; the other
        # rows do so only where the position query leaves the box
        self.lateral = grid.domain.collar(self.Xs)
        y_lo = [ax.origin for ax in grid.y_axes]
        y_hi = [ax.top for ax in grid.y_axes]
        y_tol = [1e-12 * max(hi - lo, 1.0) for lo, hi in zip(y_lo, y_hi)]
        self.margin = []
        outside, Yq = self.datum, self.fy[0]
        for drift, lateral in zip(self.drift, self.lateral):
            outside.fill(False)
            for d in range(m):
                np.add(self.y_cols[d], drift[:, d:d + 1], out=Yq)
                outside |= (Yq < y_lo[d] - y_tol[d]) | (Yq > y_hi[d] + y_tol[d])
            outside[lateral] = False
            self.margin.append(np.flatnonzero(outside))

    def interpolate(self, grid, src: np.ndarray, k: int) -> np.ndarray:
        """Source slice values at (Xs, Yn + drift) of ball point k for every
        interior x and y node, gathered into the plan's buffers, not a fresh
        block as in SliceReader, so the march faults in no new memory."""
        for d, ax in enumerate(grid.y_axes):
            u = self.fy[d]
            np.add(self.y_cols[d], self.drift[k, :, d:d + 1], out=u)
            np.subtract(u, ax.origin, out=u)
            np.divide(u, ax.spacing, out=u)
            locate(u, ax.n - 1, ax.n - 2, out=self.iy[d])
        base = self.iy[0]
        for d in range(1, grid.m):
            np.multiply(base, grid.y_axes[d].n, out=base)
            np.add(base, self.iy[d], out=base)
        np.add(base, self.x_base[k], out=base)
        # every index is in range (cells come from locate): mode="wrap" never
        # wraps, it only lets np.take write into the buffer unbuffered
        for c, off in zip(self.corners, self.offsets):
            np.take(src[off:], base, out=c, mode="wrap")
        return blend(self.corners, [f[k] for f in self.fx] + self.fy)

    def datum_fallback(self, grid, vals: np.ndarray, k: int, t_src: float):
        """Overwrite the lateral-collar and off-box queries of ball point k in
        vals with the datum."""
        lateral, margin = self.lateral[k], self.margin[k]
        if not (lateral.any() or margin.size):
            return
        np.copyto(self.datum, lateral[:, None])
        self.datum.reshape(-1)[margin] = True
        lanes = np.flatnonzero(self.datum)
        rows, cols = np.divmod(lanes, self.datum.shape[1])
        vals.reshape(-1)[lanes] = grid.boundary(
            self.Xs[k][rows], self.Yn[cols] + self.drift[k][rows], np.full(len(lanes), t_src))


def apply_dpp(grid, i: int, plan: DppPlan | None = None) -> np.ndarray:
    """One application of the fixed-point operator: slice i from slice i - 1.

    Interior target nodes combine the max, min and weighted average of the
    source values at (Xs, Y + eps^2 Xs/2) over the shared ball point set;
    collar target rows are copied from slice i, which holds the datum there
    (build_grid wrote it; a march changes only interior rows).  Queries at
    source positions in the collar, or at source times <= 0, evaluate the
    datum in closed form; so do position queries that step past the edge of
    the position box, which can only happen in the outer margin strip (the
    drift margin keeps the cone of dependence of the seed region strictly
    inside the box).  Deferring to the datum there keeps the whole operator
    monotone in (source, datum) jointly, so the discrete comparison
    principle survives the truncation.

    ``plan`` is the grid's DppPlan; callers that apply the operator to many
    slices build it once, and a call without one builds its own.
    """
    if not 1 <= i < len(grid.t_slices):
        raise IndexError(f"slice {i} has no slice below it on a ladder of {len(grid.t_slices)}")
    if plan is None:
        plan = DppPlan(grid)
    eps = grid.epsilon
    alpha, beta = coin_weights(grid.p, grid.m)
    t_src = float(grid.t_slices[i]) - eps**2 / 2
    src = grid.values[i - 1].reshape(-1)
    mx, mn, acc = plan.mx, plan.mn, plan.acc
    mx.fill(-np.inf)
    mn.fill(np.inf)
    acc.fill(0.0)
    ni, ny = mx.shape
    for k, w in enumerate(plan.weights):
        if t_src <= 0:
            Yq = plan.Yn[None, :, :] + plan.drift[k][:, None, :]
            Xq = np.broadcast_to(plan.Xs[k][:, None, :], (ni, ny, grid.m))
            vals = grid.boundary(Xq, Yq, np.full((ni, ny), t_src))
        else:
            vals = plan.interpolate(grid, src, k)
            plan.datum_fallback(grid, vals, k, t_src)
        np.maximum(mx, vals, out=mx)
        np.minimum(mn, vals, out=mn)
        if w != 0.0:
            wv = plan.corners[-1]   # free once the corners are blended into vals
            np.multiply(w, vals, out=wv)
            np.add(acc, wv, out=acc)
    out = grid.values[i].reshape(len(plan.interior), ny).copy()
    out[plan.interior] = alpha / 2 * (mx + mn) + beta * acc
    return out.reshape(grid.values.shape[1:])
