"""Spatial domains, parabolic collars, boundary classification and boundary data.

Domains are restricted to balls and boxes so that signed distances and outward
normals are exact.  The parabolic collar is the epsilon-thick shell around the
velocity domain, extended by the initial time slab; the solver and the game
both stop there and read off the boundary datum.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import GroupPoint, extension_metric, boundary_distance


class Ball:
    """Open Euclidean ball in R^m with exact signed distance and normal."""

    def __init__(self, center, radius: float):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.radius = float(radius)
        if not self.radius > 0:
            raise ValueError("radius must be positive")

    @property
    def m(self) -> int:
        return self.center.shape[0]

    def signed_distance(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return np.linalg.norm(X - self.center, axis=-1) - self.radius

    def collar(self, X) -> np.ndarray:
        """Vectorized signed_distance(X) >= 0: |X - center| >= radius."""
        X = np.asarray(X, dtype=float)
        return np.linalg.norm(X - self.center, axis=-1) >= self.radius

    def outward_normal(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        v = X - self.center
        n = np.linalg.norm(v, axis=-1, keepdims=True)
        # degenerate center query: fall back to the first coordinate axis
        safe = np.where(n > 0, n, 1.0)
        out = v / safe
        if np.any(n == 0):
            e = np.zeros_like(out)
            e[..., 0] = 1.0
            out = np.where(n > 0, out, e)
        return out

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"


class Box:
    """Open axis-aligned box (lo, hi) in R^m; an interval when m = 1.

    Normals at edges and corners come from the face of maximal penetration;
    ties are broken by lexicographic face order.
    """

    def __init__(self, lo, hi):
        self.lo = np.atleast_1d(np.asarray(lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if self.lo.shape != self.hi.shape or np.any(self.lo >= self.hi):
            raise ValueError("box requires lo < hi componentwise")

    @property
    def m(self) -> int:
        return self.lo.shape[0]

    def signed_distance(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        q = np.maximum(self.lo - X, X - self.hi)
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
        inside = np.minimum(np.max(q, axis=-1), 0.0)
        return outside + inside

    def collar(self, X) -> np.ndarray:
        """Vectorized signed_distance(X) >= 0: some coordinate at or past a face."""
        X = np.asarray(X, dtype=float)
        return ((X <= self.lo) | (X >= self.hi)).any(axis=-1)

    def outward_normal(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        q = np.maximum(self.lo - X, X - self.hi)
        i = np.argmax(q, axis=-1)
        out = np.zeros_like(X)
        idx = np.indices(i.shape)
        sign = np.where((X - self.hi)[(*idx, i)] >= (self.lo - X)[(*idx, i)], 1.0, -1.0)
        out[(*idx, i)] = sign
        return out

    def bounding_box(self):
        return self.lo.copy(), self.hi.copy()

    def __repr__(self):
        return f"Box(lo={self.lo.tolist()}, hi={self.hi.tolist()})"


SpatialDomain = Ball | Box


def interval(lo: float, hi: float) -> Box:
    return Box([lo], [hi])


def velocity_bound(domain: SpatialDomain) -> float:
    """R = max(1, max |X| over the closed domain)."""
    lo, hi = domain.bounding_box()
    corners = np.stack(np.meshgrid(*zip(lo, hi), indexing="ij"), axis=-1).reshape(-1, domain.m)
    if isinstance(domain, Ball):
        r = np.linalg.norm(domain.center) + domain.radius
    else:
        r = float(np.max(np.linalg.norm(corners, axis=-1)))
    return max(1.0, float(r))


class Region(enum.Enum):
    INTERIOR = "interior"
    LATERAL_COLLAR = "lateral-collar"
    INITIAL_COLLAR = "initial-collar"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class ParabolicCollar:
    """Epsilon collar of the velocity domain, with the initial slab (-eps^2/2, 0].

    The lateral part is {X outside the open domain, dist(X, boundary) <= eps}
    crossed with all of Y and times (-eps^2/2, T]; the initial part is the
    interior of the domain at times (-eps^2/2, 0].
    """

    domain: SpatialDomain
    epsilon: float
    T: float

    def __post_init__(self):
        if not (self.epsilon > 0 and self.T > 0):
            raise ValueError("epsilon and T must be positive")

    @property
    def t_min(self) -> float:
        return -self.epsilon**2 / 2


def classify_parabolic(g: GroupPoint, collar: ParabolicCollar) -> Region:
    """Assign a point to exactly one of interior / lateral collar / initial collar / outside."""
    sd = float(collar.domain.signed_distance(g.X))
    t = float(g.t)
    eps, T = collar.epsilon, collar.T
    in_time = -(eps**2) / 2 < t <= T
    if sd < 0:
        if 0 < t <= T:
            return Region.INTERIOR
        if in_time and t <= 0:
            return Region.INITIAL_COLLAR
        return Region.OUTSIDE
    if sd <= eps and in_time:
        return Region.LATERAL_COLLAR
    return Region.OUTSIDE


class KolmogorovRegion(enum.Enum):
    """Pieces of the boundary of a product domain U_X x U_Y x (0,T).

    Data is prescribed on LATERAL_X, OUTFLOW_Y and INITIAL; CHARACTERISTIC_Y
    (interior X, boundary Y with X . N_Y <= 0) carries no boundary data.
    """

    LATERAL_X = "lateral-x"        # X on the boundary of U_X, t in [0, T)
    OUTFLOW_Y = "outflow-y"        # Y on the boundary of U_Y with X . N_Y > 0
    INITIAL = "initial"            # t = 0, X and Y interior
    CHARACTERISTIC_Y = "characteristic-y"  # X . N_Y <= 0, no data imposed
    INTERIOR = "interior"
    OTHER = "other"                # remaining closure points, e.g. t = T


def classify_kolmogorov(
    g: GroupPoint,
    U_X: SpatialDomain,
    U_Y: SpatialDomain,
    T: float,
    tol: float = 1e-12,
) -> KolmogorovRegion:
    """Classify a closure point of U_X x U_Y x [0, T].

    Raises ValueError on points outside the closure.  Lateral-in-X membership
    takes precedence over the Y-boundary split.
    """
    sx = float(U_X.signed_distance(g.X))
    sy = float(U_Y.signed_distance(g.Y))
    t = float(g.t)
    if sx > tol or sy > tol or t < -tol or t > T + tol:
        raise ValueError(f"point outside the closure of the product domain: {g}")
    on_x = abs(sx) <= tol
    on_y = abs(sy) <= tol
    before_T = t < T - tol
    if on_x and before_T:
        return KolmogorovRegion.LATERAL_X
    if on_y and before_T and not on_x:
        s = float(np.dot(g.X, U_Y.outward_normal(g.Y)))
        return KolmogorovRegion.OUTFLOW_Y if s > tol else KolmogorovRegion.CHARACTERISTIC_Y
    if abs(t) <= tol and not on_x and not on_y:
        return KolmogorovRegion.INITIAL
    if before_T and t > tol and not on_x and not on_y:
        return KolmogorovRegion.INTERIOR
    return KolmogorovRegion.OTHER


@dataclass
class BoundaryDatum:
    """Payoff / boundary function on the parabolic collar.

    ``fn`` is a closed-form evaluator (X, Y, t) -> values accepting batched
    arrays: the ``fn`` of an exact-solution profile (kplab.operators) for the
    named data, a Lipschitz extension for sampled data.  Closed-form
    evaluators are Borel in X and uniformly continuous in Y by construction,
    so those conditions are documented rather than tested.
    """

    name: str
    fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

    def __call__(self, X, Y, t) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(X, float), np.asarray(Y, float), np.asarray(t, float)), dtype=float)

    def at(self, g: GroupPoint) -> np.ndarray:
        return self(g.X, g.Y, g.t)


class LipschitzViolation(ValueError):
    """Raised when a sample pair contradicts the declared Lipschitz constant."""

    def __init__(self, i, j, ratio, L):
        self.pair = (i, j)
        self.ratio = ratio
        super().__init__(
            f"samples {i} and {j} have difference ratio {ratio:.6g} exceeding declared constant {L:.6g}"
        )


def mcshane_extend(samples: Sequence[tuple[GroupPoint, float]], L: float) -> BoundaryDatum:
    """Lipschitz extension of sampled data to all of phase space, truncated.

    The evaluator is q -> clamp(min_s [F(s) + L * d(q, s)], -B, B) in the
    extension metric, with B = max |sample value|.  It reproduces the samples
    exactly and is itself L-Lipschitz; truncation keeps it bounded by B.
    """
    if not L > 0:
        raise ValueError("L must be positive")
    if len(samples) == 0:
        raise ValueError("need at least one sample")
    pts = [g for g, _ in samples]
    vals = np.array([float(v) for _, v in samples])
    SX = np.stack([g.X for g in pts])
    SY = np.stack([g.Y for g in pts])
    St = np.array([float(g.t) for g in pts])
    sp = GroupPoint(SX, SY, St)

    # pairwise validation of the declared constant
    a = GroupPoint(SX[:, None, :] + 0 * SX[None, :, :], SY[:, None, :] + 0 * SY[None, :, :], St[:, None] + 0 * St[None, :])
    b = GroupPoint(0 * SX[:, None, :] + SX[None, :, :], 0 * SY[:, None, :] + SY[None, :, :], 0 * St[:, None] + St[None, :])
    dmat = extension_metric(a, b)
    diff = np.abs(vals[:, None] - vals[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(dmat > 0, diff / np.where(dmat > 0, dmat, 1.0), 0.0)
    worst = np.unravel_index(np.argmax(ratio), ratio.shape)
    if ratio[worst] > L * (1 + 1e-12) + 1e-15:
        raise LipschitzViolation(worst[0], worst[1], float(ratio[worst]), L)

    B = float(np.max(np.abs(vals)))

    def fn(X, Y, t):
        X = np.atleast_1d(np.asarray(X, float))
        Y = np.atleast_1d(np.asarray(Y, float))
        t = np.asarray(t, float)
        q = GroupPoint(X[..., None, :], Y[..., None, :], t[..., None])
        d = extension_metric(q, sp)          # (..., n)
        out = np.min(vals + L * d, axis=-1)
        return np.clip(out, -B, B)

    return BoundaryDatum("mcshane", fn)


def verify_g_eps_lipschitz(
    F: BoundaryDatum,
    collar: ParabolicCollar,
    n: int,
    seed: int = 0,
    y_halfwidth: float = 1.0,
) -> float:
    """Sampled Lipschitz estimate of F on the collar in the boundary modulus.

    Draws n random collar point pairs and returns the maximum difference
    ratio |F(a) - F(b)| / d(a, b).  A fixture-grade estimate, not a proof.
    """
    if n < 2:
        raise ValueError("need n >= 2 samples")
    rng = np.random.default_rng(seed)
    m = collar.domain.m
    lo, hi = collar.domain.bounding_box()
    eps, T = collar.epsilon, collar.T

    def draw(count):
        X = np.empty((count, m))
        t = np.empty(count)
        lateral = rng.random(count) < 0.5
        for i in range(count):
            while True:
                cand = rng.uniform(lo - eps, hi + eps)
                sd = float(collar.domain.signed_distance(cand))
                if lateral[i] and 0 <= sd <= eps:
                    X[i] = cand
                    t[i] = rng.uniform(-(eps**2) / 2, T)
                    break
                if not lateral[i] and sd < 0:
                    X[i] = cand
                    t[i] = rng.uniform(-(eps**2) / 2, 0)
                    break
        Y = rng.uniform(-y_halfwidth, y_halfwidth, size=(count, m))
        return GroupPoint(X, Y, t)

    a = draw(n)
    b = draw(n)
    d = boundary_distance(a, b)
    fa = F(a.X, a.Y, a.t)
    fb = F(b.X, b.Y, b.t)
    mask = d > 1e-12
    if not np.any(mask):
        return 0.0
    return float(np.max(np.abs(fa - fb)[mask] / d[mask]))
