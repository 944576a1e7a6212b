"""Backward-in-data dynamic programming solver on a velocity/position grid.

The unique bounded function satisfying the discrete fixed-point equation

    u(X, Y, t) = (alpha/2) [max + min over the sampled ball B_eps(X)] of
                 u(Xs, Y + eps^2 Xs / 2, t - eps^2 / 2)
               + beta * (ball average of the same),

with u = F on the parabolic collar, is computed by one sweep per time slice:
slice times are spaced exactly eps^2/2 apart and anchored so the earliest
slice lands in (-eps^2/2, 0], up to one rounding (at T=0.45, eps=0.3 it
sits at +5.55e-17).  Slice 0 holds the datum and is never marched; every
later slice is computed from the one below.  Values are multilinear in
(X, Y) between nodes, which keeps the scheme monotone and hence preserves
the comparison principle at the discrete level.

build_grid writes the boundary datum into every slice once, and the march
changes only interior rows, so collar rows hold the datum exactly.  Queries
at collar velocities and at source times <= 0 evaluate the datum in closed
form rather than interpolate it.  The ball extremum and average use one
fixed deterministic point set shared with the game engine's greedy
strategies.

The operator itself, planned once per grid, lives in kplab.dpp.  build_grid
refuses, with GridTooLarge, a grid whose values and plan would not fit in
physical memory, before allocating it.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .domains import BoundaryDatum, SpatialDomain, velocity_bound
from .dpp import DppPlan, SliceReader, apply_dpp, node_lattice, plan_bytes
from .operators import is_inf
from .quadrature import shared_ball_points


class InterpolationRangeError(ValueError):
    def __init__(self, axis, value, lo, hi):
        self.offending = (axis, value)
        super().__init__(
            f"interpolation query {value!r} outside grid range [{lo}, {hi}] on axis {axis}; "
            "enlarge the position box (configuration error)"
        )


def rounds(t: float, eps: float) -> int:
    """Number of rounds N from clock time t: the smallest integer with
    N >= t / (eps^2/2), so t - N eps^2/2 lies in (-eps^2/2, 0].  Exact
    divisions are snapped against float noise.
    """
    step = eps * eps / 2.0
    if not (-step < t):
        raise ValueError(f"t={t} out of range (-eps^2/2, inf)")
    x = t / step
    return max(int(math.ceil(x - 1e-9 * max(1.0, abs(x)))), 0)


def time_ladder(t: float, eps: float):
    """Number of rounds N and the clock times t_k = t - k eps^2/2, k = 0..N."""
    N = rounds(t, eps)
    return N, t - eps * eps / 2.0 * np.arange(N + 1)


@dataclass
class SolveConfig:
    domain: SpatialDomain
    T: float
    p: float
    epsilon: float
    h_x: float | None = None      # defaults to epsilon / 8
    h_y: float | None = None
    y_seed_lo: np.ndarray | None = None  # region the grid must resolve, pre-margin
    y_seed_hi: np.ndarray | None = None

    def __post_init__(self):
        if not (is_inf(self.p) or self.p >= 2):
            raise ValueError(f"solver requires p >= 2 (weights must be probabilities), got {self.p}")
        if not (self.epsilon > 0 and self.T > 0):
            raise ValueError("epsilon and T must be positive")
        if self.h_x is None:
            self.h_x = self.epsilon / 8
        if self.h_y is None:
            self.h_y = self.epsilon / 8
        if self.h_x > self.epsilon / 8 * (1 + 1e-9):
            raise ValueError(f"h_x={self.h_x} must satisfy h_x <= epsilon/8 = {self.epsilon / 8}")
        m = self.domain.m
        lo, hi = self.domain.bounding_box()
        if self.y_seed_lo is None:
            self.y_seed_lo = lo.copy()
        if self.y_seed_hi is None:
            self.y_seed_hi = hi.copy()
        self.y_seed_lo = np.atleast_1d(np.asarray(self.y_seed_lo, float))
        self.y_seed_hi = np.atleast_1d(np.asarray(self.y_seed_hi, float))
        if self.y_seed_lo.shape != (m,) or self.y_seed_hi.shape != (m,):
            raise ValueError("y seed region must have one (lo, hi) pair per dimension")

    @property
    def y_margin(self) -> float:
        """Total position drift bound: each round moves Y by eps^2 Xs / 2 with
        |Xs| <= R + eps over at most 2T/eps^2 + 1 rounds."""
        R = velocity_bound(self.domain)
        return (self.T + self.epsilon**2) * (R + self.epsilon)


@dataclass(frozen=True)
class Axis:
    origin: float
    spacing: float
    n: int

    @property
    def top(self) -> float:
        return self.origin + self.spacing * (self.n - 1)

    def nodes(self) -> np.ndarray:
        return self.origin + self.spacing * np.arange(self.n)


def _build_axis(lo: float, hi: float, h_req: float) -> Axis:
    span = hi - lo
    n_int = int(math.ceil(span / h_req - 1e-9))
    n_int = max(n_int, 1)
    return Axis(lo, span / n_int, n_int + 1)


@dataclass
class ValueGrid:
    """Discrete fixed-point function on x-grid x y-grid x time ladder.

    ``values`` has shape (n_slices,) + x_shape + y_shape with slices in
    ascending time order; slice 0 sits in (-eps^2/2, 0] up to one rounding
    (+5.55e-17 at T=0.45, eps=0.3) and the last slice at T.  Collar and
    exterior nodes hold the boundary datum exactly.
    """

    m: int
    p: float
    epsilon: float
    x_axes: tuple
    y_axes: tuple
    t_slices: np.ndarray
    values: np.ndarray
    domain: SpatialDomain | None
    boundary: BoundaryDatum | None
    ball_offsets: np.ndarray
    ball_weights: np.ndarray

    def __post_init__(self):
        # prepared once: the reader, axis ranges in axis units (1e-9-cell tolerance), the ladder
        axes = self.x_axes + self.y_axes
        self.reader = SliceReader(axes)
        tol = np.array([[1e-9 * max(ax.n - 1, 1)] for ax in axes])
        self.u_bounds = (-tol, self.reader.last + tol)
        self._ladder = (float(self.t_slices[0]), self.epsilon**2 / 2, self.t_slices.tolist())

    @property
    def h_x(self) -> float:
        return max(ax.spacing for ax in self.x_axes)

    @property
    def h_y(self) -> float:
        return max(ax.spacing for ax in self.y_axes)

    @property
    def x_shape(self):
        return tuple(ax.n for ax in self.x_axes)

    @property
    def y_shape(self):
        return tuple(ax.n for ax in self.y_axes)

    def x_nodes(self) -> np.ndarray:
        """All x nodes, shape (n_x_total, m), C order."""
        grids = np.meshgrid(*[ax.nodes() for ax in self.x_axes], indexing="ij")
        return np.stack([q.ravel() for q in grids], axis=-1)

    def y_nodes(self) -> np.ndarray:
        grids = np.meshgrid(*[ax.nodes() for ax in self.y_axes], indexing="ij")
        return np.stack([q.ravel() for q in grids], axis=-1)

    def interior_x_mask(self) -> np.ndarray:
        """Nodes strictly inside the velocity domain, shape (n_x_total,)."""
        return ~self.domain.collar(self.x_nodes())

    def slice_index(self, t: float) -> int:
        """Index of the slice at time t, within 1e-9 max(1, |t|) + 1e-12: the
        ladder test of every read of the grid."""
        t0, step, times = self._ladder
        i = int(round((t - t0) / step))
        if not 0 <= i < len(times) or abs(times[i] - t) > 1e-9 * max(1.0, abs(t)) + 1e-12:
            raise ValueError(f"time {t} is not on the grid ladder (step {step})")
        return i

    def interpolate_slice(self, i: int, Xq, Yq) -> np.ndarray:
        """Multilinear value of slice i at (Xq, Yq), shapes (..., m), broadcast
        together.  A query beyond an axis by more than 1e-9 cells raises
        InterpolationRangeError naming the first such axis and its first
        value; one within that tolerance reads the axis end."""
        Xq, Yq = np.asarray(Xq, float), np.asarray(Yq, float)
        shape = np.broadcast_shapes(Xq.shape[:-1], Yq.shape[:-1])
        q = np.empty((2 * self.m,) + shape)
        q[:self.m], q[self.m:] = np.moveaxis(Xq, -1, 0), np.moveaxis(Yq, -1, 0)
        q = q.reshape(2 * self.m, -1)
        u = self.reader.scale(q)
        bad = ~((u >= self.u_bounds[0]) & (u <= self.u_bounds[1]))   # NaN is out of range
        if bad.any():
            a = int(bad.any(axis=1).argmax())
            ax = (self.x_axes + self.y_axes)[a]
            raise InterpolationRangeError(a, float(q[a, bad[a].argmax()]), ax.origin, ax.top)
        return self.reader(self.values[i].reshape(-1), u).reshape(shape)

    def interpolate(self, X, Y, t) -> np.ndarray:
        """Value at (X, Y, t); t must lie on the time ladder."""
        return self.interpolate_slice(self.slice_index(float(t)), X, Y)


class GridTooLarge(ValueError):
    """The grid's values and the solver's working set exceed physical memory."""


def build_grid(config: SolveConfig, F: BoundaryDatum) -> ValueGrid:
    """Allocate the grid geometry; every slice starts as the boundary datum.

    Raises GridTooLarge, before allocating anything of the grid's size, when
    the values and the solver's working set would not fit in physical memory.
    """
    m = config.domain.m
    lo, hi = config.domain.bounding_box()
    eps = config.epsilon
    x_axes = tuple(_build_axis(lo[d] - eps, hi[d] + eps, config.h_x) for d in range(m))
    margin = config.y_margin
    y_axes = tuple(
        _build_axis(config.y_seed_lo[d] - margin, config.y_seed_hi[d] + margin, config.h_y)
        for d in range(m)
    )
    N, times_desc = time_ladder(config.T, eps)
    t_slices = times_desc[::-1].copy()
    offs, wts = shared_ball_points(m)
    x_shape = tuple(ax.n for ax in x_axes)
    y_shape = tuple(ax.n for ax in y_axes)
    n_x, n_y = math.prod(x_shape), math.prod(y_shape)
    need = 8 * (N + 1) * n_x * n_y + plan_bytes(m, n_x, n_y, len(offs))
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise GridTooLarge(
            f"grid of {n_x} x nodes {x_shape} by {n_y} y nodes {y_shape} by {N + 1} slices "
            f"needs {need} bytes ({need / 2**30:.1f} GiB) with the solver's working set, "
            f"more than the {have} bytes of physical memory; raise h_x, h_y or epsilon, "
            "or shrink T, the domain or the y seed region")
    values = np.empty((N + 1,) + x_shape + y_shape)
    grid = ValueGrid(
        m=m, p=config.p, epsilon=eps, x_axes=x_axes, y_axes=y_axes,
        t_slices=t_slices, values=values, domain=config.domain, boundary=F,
        ball_offsets=offs, ball_weights=wts,
    )
    Xb, Yb = node_lattice(grid)
    for i, t in enumerate(t_slices):
        values[i] = F(Xb, Yb, np.full(len(Xb), float(t))).reshape(x_shape + y_shape)
        _require_finite(grid, i)
    return grid


def _require_finite(grid: ValueGrid, i: int):
    """Raise ValueError naming slice i and one of its nodes if it holds NaN or inf."""
    finite = np.isfinite(grid.values[i])
    if finite.all():
        return
    node = np.unravel_index(int(np.argmin(finite)), finite.shape)
    at = [float(ax.origin + ax.spacing * k) for ax, k in zip(grid.x_axes + grid.y_axes, node)]
    raise ValueError(
        f"slice {i} (t={float(grid.t_slices[i])!r}) holds {float(grid.values[i][node])!r} at node "
        f"X={at[:grid.m]}, Y={at[grid.m:]}; the boundary datum must be finite")


def solve(config: SolveConfig, F: BoundaryDatum) -> ValueGrid:
    """March the fixed-point operator once per slice from slice 0 (the datum) up to T."""
    grid = build_grid(config, F)
    plan = DppPlan(grid)
    for i in range(1, len(grid.t_slices)):
        grid.values[i] = apply_dpp(grid, i, plan)
        _require_finite(grid, i)
    return grid


def solve_iterative(config: SolveConfig, F: BoundaryDatum, init, sweeps: int | None = None) -> ValueGrid:
    """Fixed point by repeated whole-grid sweeps from an arbitrary interior
    seed of slices 1..N, the slices each sweep recomputes.

    Demonstrates finite-step convergence: slices with t <= i eps^2/2 are
    exact after i sweeps, so ceil(T / (eps^2/2)) sweeps reach the fixed point
    regardless of the initialization.
    """
    grid = build_grid(config, F)
    plan = DppPlan(grid)
    interior = grid.interior_x_mask().reshape(grid.x_shape + (1,) * len(grid.y_shape))
    grid.values[1:] = np.where(interior, init, grid.values[1:])
    if sweeps is None:
        sweeps = rounds(config.T, config.epsilon)
    for _ in range(sweeps):
        new = grid.values.copy()
        for i in range(1, len(grid.t_slices)):
            new[i] = apply_dpp(grid, i, plan)
        grid.values = new
    return grid


def fixed_point_residual(grid: ValueGrid) -> float:
    """Max over nodes of |T(slice below) - stored slice|; apply_dpp copies
    the collar rows, so only interior nodes can differ."""
    plan = DppPlan(grid)
    worst = 0.0
    for i in range(1, len(grid.t_slices)):
        worst = max(worst, float(np.max(np.abs(apply_dpp(grid, i, plan) - grid.values[i]))))
    return worst


@dataclass(frozen=True)
class ComparisonResult:
    dominates: bool
    witness: tuple | None = None  # (slice_index, flat_node_index, gap)


def compare(grid_a: ValueGrid, grid_b: ValueGrid, tol: float = 1e-12) -> ComparisonResult:
    """Dominates iff a >= b - tol at every node; otherwise reports a witness node."""
    same = (
        grid_a.x_axes == grid_b.x_axes
        and grid_a.y_axes == grid_b.y_axes
        and len(grid_a.t_slices) == len(grid_b.t_slices)
        and np.allclose(grid_a.t_slices, grid_b.t_slices, atol=1e-12)
    )
    if not same:
        raise ValueError("grid geometries differ")
    diff = grid_a.values - grid_b.values
    bad = diff < -tol
    if not np.any(bad):
        return ComparisonResult(True)
    flat = int(np.argmin(diff))
    idx = np.unravel_index(flat, diff.shape)
    return ComparisonResult(False, witness=(int(idx[0]), idx[1:], float(diff[idx])))


# ---------------------------------------------------------------------------
# grid serialization

_MAGIC_INF = -1.0


def write_grid_binary(grid: ValueGrid, path):
    """Compact dump: header {m, p (inf encoded as -1), eps, h_x, h_y, extents},
    then slices in time order, values row-major, 64-bit little-endian floats.

    Extents are, per axis: node count (uint32), origin and spacing (f64); the
    time block stores the slice count and the first (earliest) slice time.
    """
    with open(path, "wb") as f:
        p_enc = _MAGIC_INF if is_inf(grid.p) else float(grid.p)
        f.write(struct.pack("<I", grid.m))
        f.write(struct.pack("<dddd", p_enc, grid.epsilon, grid.h_x, grid.h_y))
        f.write(struct.pack("<I", len(grid.t_slices)))
        f.write(struct.pack("<d", float(grid.t_slices[0])))
        for ax in grid.x_axes + grid.y_axes:
            f.write(struct.pack("<Idd", ax.n, ax.origin, ax.spacing))
        f.write(np.ascontiguousarray(grid.values, dtype="<f8").data)


def read_grid_binary(path) -> ValueGrid:
    """Read a dump written by write_grid_binary; domain and datum are not stored."""
    with open(path, "rb") as f:
        (m,) = struct.unpack("<I", f.read(4))
        p_enc, eps, h_x, h_y = struct.unpack("<dddd", f.read(32))
        (n_slices,) = struct.unpack("<I", f.read(4))
        (t0,) = struct.unpack("<d", f.read(8))
        axes = []
        for _ in range(2 * m):
            n, origin, spacing = struct.unpack("<Idd", f.read(20))
            axes.append(Axis(origin, spacing, n))
        x_axes, y_axes = tuple(axes[:m]), tuple(axes[m:])
        shape = (n_slices,) + tuple(ax.n for ax in axes)
        values = np.frombuffer(f.read(), dtype="<f8").reshape(shape).copy()
    t_slices = t0 + (eps**2 / 2) * np.arange(n_slices)
    p = math.inf if p_enc == _MAGIC_INF else p_enc
    offs, wts = shared_ball_points(m)
    return ValueGrid(m=m, p=p, epsilon=eps, x_axes=x_axes, y_axes=y_axes,
                     t_slices=t_slices, values=values, domain=None, boundary=None,
                     ball_offsets=offs, ball_weights=wts)


def write_grid_csv(grid: ValueGrid, path):
    """One row per node: x coordinates, y coordinates, slice time, value."""
    Xn, Yn = grid.x_nodes(), grid.y_nodes()
    m = grid.m
    with open(path, "w", newline="") as f:
        cols = [f"x{d+1}" for d in range(m)] + [f"y{d+1}" for d in range(m)] + ["t", "value"]
        f.write(",".join(cols) + "\n")
        for i, t in enumerate(grid.t_slices):
            flat = grid.values[i].reshape(len(Xn), len(Yn))
            for a in range(len(Xn)):
                for b in range(len(Yn)):
                    parts = [repr(v) for v in Xn[a]] + [repr(v) for v in Yn[b]]
                    parts += [repr(float(t)), repr(float(flat[a, b]))]
                    f.write(",".join(parts) + "\n")
