"""Ball quadratures and extremum search shared by the mean-value module.

Tensor rules are Gauss-Legendre in radius crossed with uniform angles, which
make odd monomials over centered balls vanish exactly; the quasi-random mode
is an unweighted Halton point set for cross checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def gauss_unit(n: int):
    """Gauss-Legendre nodes and weights on [0, 1]; weights sum to 1."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def gauss_interval(n: int, a: float, b: float):
    """Nodes and averaging weights (summing to 1) on [a, b]."""
    x, w = gauss_unit(n)
    return a + (b - a) * x, w


def _halton(n: int, dim: int, start: int = 1):
    primes = [2, 3, 5, 7, 11, 13]
    out = np.empty((n, dim))
    for d in range(dim):
        b = primes[d]
        idx = np.arange(start, start + n)
        res = np.zeros(n)
        f = 1.0 / b
        i = idx.copy()
        while np.any(i > 0):
            res += f * (i % b)
            i //= b
            f /= b
        out[:, d] = res
    return out


@dataclass(frozen=True)
class BallQuadrature:
    """Quadrature over the unit ball of R^m, scaled by the caller.

    mode "tensor": Gauss-Legendre radial nodes crossed with uniform angles
    (for m = 1 the angles are the two directions).  mode "quasi-random":
    n_points Halton samples with uniform weights, offset by the seed.
    """

    n_radial: int = 16
    n_angular: int = 32
    n_points: int = 256
    mode: str = "tensor"
    seed: int = 0

    def points_weights(self, m: int):
        """Offsets (k, m) inside the closed unit ball and weights summing to 1."""
        if self.mode == "tensor":
            if m == 1:
                r, w = gauss_unit(self.n_radial)
                pts = np.concatenate([r, -r])[:, None]
                wts = np.concatenate([w, w]) / 2.0
                return pts, wts
            if m == 2:
                # radial rule for the measure 2 r dr via the substitution u = r^2
                u, wu = gauss_unit(self.n_radial)
                r = np.sqrt(u)
                theta = 2.0 * np.pi * np.arange(self.n_angular) / self.n_angular
                pts = np.stack(
                    [
                        np.outer(r, np.cos(theta)).ravel(),
                        np.outer(r, np.sin(theta)).ravel(),
                    ],
                    axis=-1,
                )
                wts = np.repeat(wu / self.n_angular, self.n_angular)
                return pts, wts
            raise NotImplementedError(f"tensor ball quadrature implemented for m <= 2, got m={m}")
        if self.mode == "quasi-random":
            u = _halton(self.n_points, m, start=1 + self.seed * self.n_points)
            if m == 1:
                pts = (2.0 * u - 1.0)
            elif m == 2:
                r = np.sqrt(u[:, 0])
                th = 2.0 * np.pi * u[:, 1]
                pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
            else:
                raise NotImplementedError(f"quasi-random ball quadrature for m <= 2, got m={m}")
            wts = np.full(len(pts), 1.0 / len(pts))
            return pts, wts
        raise ValueError(f"unknown quadrature mode {self.mode!r}")

    def count(self, m: int) -> int:
        return len(self.points_weights(m)[0])


def shared_ball_points(m: int):
    """Deterministic closed-ball point set shared by the DPP solver and the game.

    Returns (offsets, weights): the centre, the tensor rule of
    ``BallQuadrature(n_radial=30, n_angular=16)`` carrying the averaging
    weights, then the sphere (the two directions for m = 1, the rule's 16
    angles for m = 2).  Centre and sphere weigh zero; they make the extrema
    scan the closed ball.
    """
    q = BallQuadrature(n_radial=30, n_angular=16)
    pts, wts = q.points_weights(m)
    if m == 1:
        sphere = np.array([[1.0], [-1.0]])
    else:
        theta = 2.0 * np.pi * np.arange(q.n_angular) / q.n_angular
        sphere = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    pts = np.concatenate([np.zeros((1, m)), pts, sphere])
    wts = np.concatenate([[0.0], wts, np.zeros(len(sphere))])
    return pts, wts


def golden_section_extremum(f, a, b, maximize: bool, iters: int = 40):
    """Vectorized golden-section search over brackets [a, b] (arrays).

    ``f`` maps an array of abscissae to an array of values.  Returns the best
    probed value per bracket; the caller should combine it with the scanned
    values so refinement can only improve the estimate.
    """
    a = np.asarray(a, float).copy()
    b = np.asarray(b, float).copy()
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    sign = 1.0 if maximize else -1.0
    best = np.full(a.shape, -np.inf)
    for _ in range(iters):
        x1 = b - invphi * (b - a)
        x2 = a + invphi * (b - a)
        f1 = sign * np.asarray(f(x1))
        f2 = sign * np.asarray(f(x2))
        best = np.maximum(best, np.maximum(f1, f2))
        move_right = f2 >= f1
        a = np.where(move_right, x1, a)
        b = np.where(move_right, b, x2)
    return sign * best
