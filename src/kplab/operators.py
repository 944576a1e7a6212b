"""Pointwise degenerate drift-diffusion operators and the exact-solution catalog.

The family evaluated here combines the normalized infinity Laplacian in the
velocity block with the velocity Laplacian, a transport coupling of velocity
into position, and a time derivative:

    L_p u = ((p - 2) D_inf + Lap_X) u + (m + p) (X . grad_Y u - dt u),   p < inf
    L_inf u = D_inf u + X . grad_Y u - dt u,

where D_inf is the second derivative of u along its own X-gradient direction.
Exact solutions of L_p u = 0 collected in :func:`catalog` serve as oracles for
the mean-value, solver and game modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import GroupPoint, compose, dilate


class DegenerateGradient(ValueError):
    """X-gradient below the floor where the normalized operator is ambiguous."""


def is_inf(p) -> bool:
    return p == math.inf or p == float("inf")


def coin_weights(p, m: int) -> tuple[float, float]:
    """Tug-of-war vs noise weights (alpha, beta); alpha + beta = 1 for all p in (1, inf]."""
    if is_inf(p):
        return 1.0, 0.0
    p = float(p)
    if not p > 1:
        raise ValueError(f"p must lie in (1, inf], got {p}")
    return (p - 2.0) / (m + p), (m + 2.0) / (m + p)


def quadratic_time_coefficient(p, m: int) -> float:
    """Coefficient c with |X|^2 + c t annihilated by the p-operator; 2 at p = inf."""
    if is_inf(p):
        return 2.0
    return 2.0 * (m + p - 2.0) / (m + p)


class SmoothProfile:
    """Scalar field with first and second derivatives, the test surface for operators.

    ``fn`` maps batched arrays (X, Y, t) to values (...,); it is also the
    closed form of the named boundary data.  Derivative callables take a
    batched :class:`GroupPoint` and return arrays: grad_x (..., m),
    hess_x (..., m, m), grad_y (..., m), dt (...,).  Profiles are either
    analytic (closed-form derivatives) or finite-difference backed (central
    differences from the value map alone).
    """

    def __init__(self, name, fn, grad_x=None, hess_x=None, grad_y=None, dt=None,
                 mode="analytic", fd_scale=1e-4):
        self.name = name
        self.fn = fn
        self.mode = mode
        self.fd_scale = fd_scale
        if mode == "analytic":
            if None in (grad_x, hess_x, grad_y, dt):
                raise ValueError("analytic profile requires all derivative callables")
            self._grad_x, self._hess_x, self._grad_y, self._dt = grad_x, hess_x, grad_y, dt
        elif mode == "finite-difference":
            self._grad_x = self._grad_y = self._hess_x = self._dt = None
        else:
            raise ValueError(f"unknown derivative mode {mode!r}")

    @classmethod
    def from_value(cls, name, fn, fd_scale=1e-4):
        """Finite-difference profile from a value map (X, Y, t) alone."""
        return cls(name, fn, mode="finite-difference", fd_scale=fd_scale)

    def value(self, g: GroupPoint) -> np.ndarray:
        return np.asarray(self.fn(g.X, g.Y, g.t), dtype=float)

    def _h(self, g: GroupPoint) -> np.ndarray:
        # step scaled by the point magnitude to balance truncation vs round-off
        mag = np.sqrt(
            np.sum(g.X**2, axis=-1) + np.sum(g.Y**2, axis=-1) + np.asarray(g.t) ** 2
        )
        return self.fd_scale * (1.0 + mag)

    def _shift(self, g, dX=None, dY=None, dt=None):
        return GroupPoint(
            g.X if dX is None else g.X + dX,
            g.Y if dY is None else g.Y + dY,
            g.t if dt is None else g.t + dt,
        )

    def grad_x(self, g: GroupPoint) -> np.ndarray:
        if self._grad_x is not None:
            return np.asarray(self._grad_x(g), dtype=float)
        h = self._h(g)
        cols = []
        for i in range(g.m):
            e = np.zeros(g.m)
            e[i] = 1.0
            step = h[..., None] * e
            cols.append((self.value(self._shift(g, dX=step)) - self.value(self._shift(g, dX=-step))) / (2 * h))
        return np.stack(cols, axis=-1)

    def grad_y(self, g: GroupPoint) -> np.ndarray:
        if self._grad_y is not None:
            return np.asarray(self._grad_y(g), dtype=float)
        h = self._h(g)
        cols = []
        for i in range(g.m):
            e = np.zeros(g.m)
            e[i] = 1.0
            step = h[..., None] * e
            cols.append((self.value(self._shift(g, dY=step)) - self.value(self._shift(g, dY=-step))) / (2 * h))
        return np.stack(cols, axis=-1)

    def dt(self, g: GroupPoint) -> np.ndarray:
        if self._dt is not None:
            return np.asarray(self._dt(g), dtype=float)
        h = self._h(g)
        return (self.value(self._shift(g, dt=h)) - self.value(self._shift(g, dt=-h))) / (2 * h)

    def hess_x(self, g: GroupPoint) -> np.ndarray:
        if self._hess_x is not None:
            return np.asarray(self._hess_x(g), dtype=float)
        h = self._h(g)
        m = g.m
        f0 = self.value(g)
        H = np.zeros(g.batch_shape + (m, m))
        basis = np.eye(m)
        for i in range(m):
            si = h[..., None] * basis[i]
            fpp = self.value(self._shift(g, dX=si))
            fmm = self.value(self._shift(g, dX=-si))
            H[..., i, i] = (fpp + fmm - 2 * f0) / h**2
            for j in range(i + 1, m):
                sj = h[..., None] * basis[j]
                v = (
                    self.value(self._shift(g, dX=si + sj))
                    - self.value(self._shift(g, dX=si - sj))
                    - self.value(self._shift(g, dX=-si + sj))
                    + self.value(self._shift(g, dX=-si - sj))
                ) / (4 * h**2)
                H[..., i, j] = v
                H[..., j, i] = v
        return H


def gradient_floor(H: np.ndarray) -> np.ndarray:
    """Deterministic floor below which the X-gradient counts as degenerate."""
    return 1e-10 * (1.0 + np.linalg.norm(H, axis=(-2, -1)))


def inf_laplacian_normalized(phi: SmoothProfile, g: GroupPoint) -> np.ndarray:
    """Second derivative of phi along its unit X-gradient direction.

    Raises DegenerateGradient when |grad_X phi| is at or below the floor.
    """
    grad = phi.grad_x(g)
    H = phi.hess_x(g)
    n = np.linalg.norm(grad, axis=-1)
    floor = gradient_floor(H)
    if np.any(n <= floor):
        raise DegenerateGradient(f"|grad_X| <= floor at {np.count_nonzero(n <= floor)} point(s)")
    v = grad / n[..., None]
    return np.einsum("...ij,...i,...j->...", H, v, v)


def _inf_term(phi: SmoothProfile, g: GroupPoint) -> np.ndarray:
    """Normalized infinity Laplacian with the zero-Hessian convention.

    At points where both the gradient and the Hessian vanish the directional
    second derivative is 0 in every direction, so 0 is returned there instead
    of raising; a degenerate gradient with a nonzero Hessian still raises.
    """
    grad = phi.grad_x(g)
    H = phi.hess_x(g)
    n = np.linalg.norm(grad, axis=-1)
    hnorm = np.linalg.norm(H, axis=(-2, -1))
    floor = gradient_floor(H)
    deg = n <= floor
    bad = deg & (hnorm > 1e-12)
    if np.any(bad):
        raise DegenerateGradient(
            f"|grad_X| <= floor with nonzero Hessian at {np.count_nonzero(bad)} point(s)"
        )
    safe = np.where(deg, 1.0, n)
    v = grad / safe[..., None]
    val = np.einsum("...ij,...i,...j->...", H, v, v)
    return np.where(deg, 0.0, val)


def apply_K(phi: SmoothProfile, g: GroupPoint) -> np.ndarray:
    """Linear kinetic operator: Lap_X phi + X . grad_Y phi - dt phi."""
    H = phi.hess_x(g)
    lap = np.trace(H, axis1=-2, axis2=-1)
    drift = np.sum(g.X * phi.grad_y(g), axis=-1)
    return lap + drift - phi.dt(g)


def apply_Kp(phi: SmoothProfile, g: GroupPoint, p) -> np.ndarray:
    """Degenerate p-operator at g; p = inf uses the normalized form without (m + p)."""
    drift = np.sum(g.X * phi.grad_y(g), axis=-1) - phi.dt(g)
    if is_inf(p):
        return _inf_term(phi, g) + drift
    p = float(p)
    if not p > 1:
        raise ValueError(f"p must lie in (1, inf], got {p}")
    H = phi.hess_x(g)
    lap = np.trace(H, axis1=-2, axis2=-1)
    if p == 2.0:
        elliptic = lap
    else:
        elliptic = (p - 2.0) * _inf_term(phi, g) + lap
    return elliptic + (g.m + p) * drift


@dataclass(frozen=True)
class ViscosityResult:
    satisfied: bool
    margin: float
    branch: str  # "gradient" or "degenerate"


def viscosity_check(phi: SmoothProfile, g: GroupPoint, p, side: str) -> ViscosityResult:
    """Evaluate the super/subsolution inequality of the test function at g.

    With a nonzero X-gradient the full operator inequality is used; at a
    degenerate gradient the extreme eigenvalue surrogate replaces the
    normalized term (smallest for 'super', largest for 'sub').  The caller is
    responsible for the touching geometry; only the pointwise inequality is
    checked.  Returns the signed margin (>= 0 means satisfied).
    """
    if side not in ("super", "sub"):
        raise ValueError("side must be 'super' or 'sub'")
    grad = phi.grad_x(g)
    H = phi.hess_x(g)
    n = float(np.linalg.norm(grad, axis=-1))
    drift = float(np.sum(g.X * phi.grad_y(g), axis=-1))
    time_side = float(phi.dt(g)) - drift
    lap = float(np.trace(H, axis1=-2, axis2=-1))
    floor = float(gradient_floor(H))
    if is_inf(p):
        if n > floor:
            v = grad / n
            rhs = float(np.einsum("ij,i,j->", np.atleast_2d(H), np.atleast_1d(v), np.atleast_1d(v)))
            branch = "gradient"
        else:
            eig = np.linalg.eigvalsh(np.atleast_2d(H))
            rhs = float(eig[0] if side == "super" else eig[-1])
            branch = "degenerate"
        lhs = time_side
    else:
        p = float(p)
        if n > floor:
            v = grad / n
            dinf = float(np.einsum("ij,i,j->", np.atleast_2d(H), np.atleast_1d(v), np.atleast_1d(v)))
            rhs = (p - 2.0) * dinf + lap
            branch = "gradient"
        else:
            eig = np.linalg.eigvalsh((p - 2.0) * np.atleast_2d(H))
            rhs = float(eig[0] if side == "super" else eig[-1]) + lap
            branch = "degenerate"
        lhs = (g.m + p) * time_side
    margin = lhs - rhs if side == "super" else rhs - lhs
    return ViscosityResult(satisfied=margin >= 0, margin=margin, branch=branch)


# ---------------------------------------------------------------------------
# profile constructors


def constant_profile(c: float, m: int) -> SmoothProfile:
    zm = lambda g: np.zeros(g.batch_shape + (m,))
    zH = lambda g: np.zeros(g.batch_shape + (m, m))
    zs = lambda g: np.zeros(g.batch_shape)
    return SmoothProfile(f"const({c})", lambda X, Y, t: np.full(np.shape(t), float(c)),
                         zm, zH, zm, zs)


def affine_profile(a, b: float, m: int) -> SmoothProfile:
    a = np.atleast_1d(np.asarray(a, float))
    if a.shape != (m,):
        raise ValueError("coefficient vector must have length m")
    return SmoothProfile(
        "affine",
        lambda X, Y, t: (a * X).sum(axis=-1) + b,
        lambda g: np.broadcast_to(a, g.batch_shape + (m,)).copy(),
        lambda g: np.zeros(g.batch_shape + (m, m)),
        lambda g: np.zeros(g.batch_shape + (m,)),
        lambda g: np.zeros(g.batch_shape),
    )


def y_plus_tx_profile(m: int) -> SmoothProfile:
    """Y . e + t X . e for the first axis e = e_1; annihilated for every p."""
    e = np.zeros(m)
    e[0] = 1.0
    return SmoothProfile(
        "y_plus_tx",
        lambda X, Y, t: Y[..., 0] + t * X[..., 0],
        lambda g: np.asarray(g.t)[..., None] * e,
        lambda g: np.zeros(g.batch_shape + (m, m)),
        lambda g: np.broadcast_to(e, g.batch_shape + (m,)).copy(),
        lambda g: np.sum(e * g.X, axis=-1),
    )


def quadratic_profile(p, m: int) -> SmoothProfile:
    """|X|^2 + c t with c chosen so the p-operator vanishes away from X = 0."""
    c = quadratic_time_coefficient(p, m)
    pn = "inf" if is_inf(p) else f"{p:g}"
    return SmoothProfile(
        f"quadratic_p(p={pn})",
        lambda X, Y, t: (X**2).sum(axis=-1) + c * t,
        lambda g: 2.0 * g.X,
        lambda g: np.broadcast_to(2.0 * np.eye(m), g.batch_shape + (m, m)).copy(),
        lambda g: np.zeros(g.batch_shape + (m,)),
        lambda g: np.full(g.batch_shape, c),
    )


def x_squared_profile(m: int) -> SmoothProfile:
    """First velocity coordinate squared; L_p > 0, the workhorse non-solution."""
    def hess(g):
        H = np.zeros(g.batch_shape + (m, m))
        H[..., 0, 0] = 2.0
        return H

    def grad(g):
        G = np.zeros(g.batch_shape + (m,))
        G[..., 0] = 2.0 * g.X[..., 0]
        return G

    return SmoothProfile(
        "x_squared",
        lambda X, Y, t: X[..., 0] ** 2,
        grad,
        hess,
        lambda g: np.zeros(g.batch_shape + (m,)),
        lambda g: np.zeros(g.batch_shape),
    )


def sq_norm_x_profile(m: int) -> SmoothProfile:
    return SmoothProfile(
        "sq_norm_x",
        lambda X, Y, t: (X**2).sum(axis=-1),
        lambda g: 2.0 * g.X,
        lambda g: np.broadcast_to(2.0 * np.eye(m), g.batch_shape + (m, m)).copy(),
        lambda g: np.zeros(g.batch_shape + (m,)),
        lambda g: np.zeros(g.batch_shape),
    )


def trig_profile(m: int) -> SmoothProfile:
    """sin(x1) + cos(y1) + t^2 + x1 y1, a smooth non-polynomial non-solution."""

    def value(X, Y, t):
        return np.sin(X[..., 0]) + np.cos(Y[..., 0]) + t**2 + X[..., 0] * Y[..., 0]

    def grad_x(g):
        G = np.zeros(g.batch_shape + (m,))
        G[..., 0] = np.cos(g.X[..., 0]) + g.Y[..., 0]
        return G

    def hess_x(g):
        H = np.zeros(g.batch_shape + (m, m))
        H[..., 0, 0] = -np.sin(g.X[..., 0])
        return H

    def grad_y(g):
        G = np.zeros(g.batch_shape + (m,))
        G[..., 0] = -np.sin(g.Y[..., 0]) + g.X[..., 0]
        return G

    return SmoothProfile("trig", value, grad_x, hess_x, grad_y, lambda g: 2.0 * np.asarray(g.t))


def poly_mix_profile(m: int) -> SmoothProfile:
    """x1^2 + x1 y1 + 0.5 y1^2 + 0.3 t x1, couples all blocks; not a solution."""

    def value(X, Y, t):
        x, y = X[..., 0], Y[..., 0]
        return x**2 + x * y + 0.5 * y**2 + 0.3 * t * x

    def grad_x(g):
        G = np.zeros(g.batch_shape + (m,))
        G[..., 0] = 2 * g.X[..., 0] + g.Y[..., 0] + 0.3 * g.t
        return G

    def hess_x(g):
        H = np.zeros(g.batch_shape + (m, m))
        H[..., 0, 0] = 2.0
        return H

    def grad_y(g):
        G = np.zeros(g.batch_shape + (m,))
        G[..., 0] = g.X[..., 0] + g.Y[..., 0]
        return G

    return SmoothProfile("poly_mix", value, grad_x, hess_x, grad_y,
                         lambda g: 0.3 * g.X[..., 0])


def left_translate(phi: SmoothProfile, g0: GroupPoint) -> SmoothProfile:
    """Profile g -> phi(g0 o g) with chain-rule derivatives.

    Only the time derivative picks up an extra term: the group product shifts
    Y by -t X0, so dt(psi) = dt(phi) - X0 . grad_Y(phi) at the moved point.
    """
    X0 = g0.X.copy()

    def at(g):
        return compose(g0, g)

    return SmoothProfile(
        f"{phi.name}@left",
        lambda X, Y, t: phi.value(at(GroupPoint(X, Y, t))),
        lambda g: phi.grad_x(at(g)),
        lambda g: phi.hess_x(at(g)),
        lambda g: phi.grad_y(at(g)),
        lambda g: phi.dt(at(g)) - np.sum(X0 * phi.grad_y(at(g)), axis=-1),
    )


def dilate_profile(phi: SmoothProfile, r: float) -> SmoothProfile:
    """Profile g -> phi(delta_r g); derivatives scale with the dilation weights."""
    if not r > 0:
        raise ValueError("r must be positive")

    def at(g):
        return dilate(r, g)

    return SmoothProfile(
        f"{phi.name}@dilate({r})",
        lambda X, Y, t: phi.value(at(GroupPoint(X, Y, t))),
        lambda g: r * phi.grad_x(at(g)),
        lambda g: r**2 * phi.hess_x(at(g)),
        lambda g: r**3 * phi.grad_y(at(g)),
        lambda g: r**2 * phi.dt(at(g)),
    )


@dataclass
class ExactSolution:
    """Catalog entry: a profile annihilated by the p-operator for the listed p."""

    profile: SmoothProfile
    valid_p: tuple | str  # explicit tuple of p values, or "all"
    description: str
    # predicate marking points excluded from annihilation checks (measure zero)
    degenerate: Callable[[GroupPoint], np.ndarray] = field(default=lambda g: np.zeros(g.batch_shape, bool))

    def p_list(self, candidates):
        if self.valid_p == "all":
            return list(candidates)
        return [p for p in candidates if any(is_inf(p) and is_inf(q) or p == q for q in self.valid_p)]


def catalog(m: int) -> list[ExactSolution]:
    """Exact solutions used as oracles; each verified by annihilation tests."""
    entries = [
        ExactSolution(constant_profile(1.7, m), "all", "constants solve for every p"),
        ExactSolution(affine_profile(np.arange(1, m + 1, dtype=float), 0.5, m), "all",
                      "affine in X; zero Hessian"),
        ExactSolution(y_plus_tx_profile(m), "all",
                      "transport-invariant linear solution"),
    ]
    for p in (2.0, 3.0, math.inf):
        entries.append(
            ExactSolution(
                quadratic_profile(p, m),
                (p,),
                "velocity paraboloid with matched time slope; degenerate at X = 0",
                degenerate=lambda g: np.linalg.norm(g.X, axis=-1) < 1e-6,
            )
        )
    return entries


PROFILE_BUILDERS = {
    "const": lambda m, p=None, c=1.0, **kw: constant_profile(c, m),
    "linear": lambda m, p=None, a=None, b=0.0, **kw: affine_profile(
        np.ones(m) if a is None else a, b, m),
    "y_plus_tx": lambda m, p=None, **kw: y_plus_tx_profile(m),
    "quadratic_p": lambda m, p=2.0, **kw: quadratic_profile(p, m),
    "x_squared": lambda m, p=None, **kw: x_squared_profile(m),
    "sq_norm_x": lambda m, p=None, **kw: sq_norm_x_profile(m),
    "trig": lambda m, p=None, **kw: trig_profile(m),
    "poly_mix": lambda m, p=None, **kw: poly_mix_profile(m),
}


def profile_by_name(name: str, m: int, p=None, **kw) -> SmoothProfile:
    if name not in PROFILE_BUILDERS:
        raise KeyError(f"unknown profile {name!r}; available: {sorted(PROFILE_BUILDERS)}")
    return PROFILE_BUILDERS[name](m, p=p, **kw)
