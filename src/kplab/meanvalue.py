"""Asymptotic mean-value formulas and their small-radius limits.

Four nonlinear averaging formulas (V1 to V4) characterize the p-operator:
the residual between the average and the center value behaves like
eps^2 * L_p(phi) / (2 (m + p)) for p finite and eps^2 * L_inf(phi) / 2 at
p = inf.  Two further plain space-time averages (K, K2) characterize the
linear kinetic operator and its (m + 2)-weighted variant.  The limits are
estimated by Richardson extrapolation over an eps ladder and cross-checked
against the pointwise operators, which are the independent oracle.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .geometry import GroupPoint
from .operators import SmoothProfile, coin_weights
from .quadrature import BallQuadrature, gauss_interval, golden_section_extremum

_OUTER_GAUSS = 8  # per-axis rule for the position-ball and time-window averages
_GOLDEN_ITERS = 40
_SCAN_BLOCK = 16  # outer nodes per disc scan: bounds the (block, scan, m) temporaries


class MeanValueVariant(enum.Enum):
    """Averaging set and inner argument of each formula.

    V1/V3 average over a position ball of radius eps^3 and a trailing time
    window of length eps^2, transporting the inner position by the elapsed
    time times the center velocity (V1) or the sampled velocity (V3).  V2/V4
    are single-evaluation forms at time t - eps^2/2 with the position shifted
    by eps^2/2 times the center velocity (V2) or the sampled velocity (V4).
    K and K2 are plain space-time averages with time windows eps^2/(m+2) and
    eps^2, characterizing the linear operator and its weighted variant.
    """

    V1_shiftX = "V1"
    V2_pointwise_X = "V2"
    V3_shiftXtilde = "V3"
    V4_pointwise_Xtilde = "V4"
    K_space_time = "K"
    K2_space_time = "K2"


def variant_from(s) -> MeanValueVariant:
    if isinstance(s, MeanValueVariant):
        return s
    for v in MeanValueVariant:
        if v.value == s or v.name == s:
            return v
    raise ValueError(f"unknown mean-value variant {s!r}")


def _expand(arr, like):
    """Reshape a (B,) array for broadcasting against (B, ...) probes."""
    return np.asarray(arr).reshape(np.shape(arr) + (1,) * (np.ndim(like) - 1))


def _interval_extrema(f_sig, B: int, sig_scan: np.ndarray):
    """Max and min over the closed interval [-1, 1] for B batched objectives.

    ``f_sig`` maps offset arrays of shape (B,) or (B, S) to values of the same
    shape.  A scan over ``sig_scan`` locates the bracket; one golden-section
    pass refines it.  Refinement can only improve on the scanned extremum.
    """
    S = len(sig_scan)
    vals = f_sig(np.broadcast_to(sig_scan, (B, S)))
    out = []
    for maximize in (True, False):
        idx = np.argmax(vals, axis=1) if maximize else np.argmin(vals, axis=1)
        lo = sig_scan[np.maximum(idx - 1, 0)]
        hi = sig_scan[np.minimum(idx + 1, S - 1)]
        refined = golden_section_extremum(f_sig, lo, hi, maximize, iters=_GOLDEN_ITERS)
        scanned = vals[np.arange(B), idx]
        out.append(np.maximum(refined, scanned) if maximize else np.minimum(refined, scanned))
    return out[0], out[1]


def _disc_extrema(f_off, B: int, offs: np.ndarray, w: np.ndarray):
    """Max, min and ball mean over the closed unit disc for B batched objectives (m = 2).

    ``f_off(off, rows)`` maps offsets (len(rows), ..., 2) to the values of
    objectives ``rows``.  The quadrature offsets (whose weighted sum is the
    mean), a 32-point ring and the centre are scanned in blocks of _SCAN_BLOCK
    objectives; one golden-section pass per extremum then refines all B rows
    along a polar line: the ring, a radius between neighbouring scan radii, or
    from the centre toward the best off-centre scan point.
    """
    ring = np.stack([np.cos(2 * np.pi * np.arange(32) / 32),
                     np.sin(2 * np.pi * np.arange(32) / 32)], axis=-1)
    scan = np.concatenate([offs, ring, np.zeros((1, 2))])
    r = np.linalg.norm(scan, axis=-1)
    theta = np.arctan2(scan[:, 1], scan[:, 0])
    radii = np.array(sorted(set(np.round(r, 14))))  # np.unique would import numpy.ma (~1 MB resident)
    dth = 2 * np.pi / max(np.count_nonzero(np.abs(r - 1) < 1e-12), 4)
    means, best = np.empty(B), np.empty((2, B))  # best: scanned, then refined, max and min
    idx, nb = np.empty((2, B), dtype=np.intp), np.empty((2, B), dtype=np.intp)  # nb fixes a radial theta
    for b0 in range(0, B, _SCAN_BLOCK):
        rows = np.arange(b0, min(b0 + _SCAN_BLOCK, B))
        vals = f_off(np.broadcast_to(scan, (len(rows),) + scan.shape), rows)
        # stacked (1, k) @ (k,) products: one dot per row, summed as a single node's
        means[rows] = np.matmul(vals[:, None, :len(offs)], w)[:, 0]
        for j, i in enumerate((np.argmax(vals, axis=1), np.argmin(vals, axis=1))):
            idx[j, rows] = nb[j, rows] = i
            best[j, rows] = vals[np.arange(len(rows)), i]
            c = r[i] < 1e-12  # at the centre: the next scan point in the extremum's ranking
            order = np.argsort(-vals[c] if j == 0 else vals[c], axis=1)
            nb[j, rows[c]] = order[np.arange(len(order)), np.argmax(r[order] > 1e-12, axis=1)]
    for j, maximize in enumerate((True, False)):
        i, on_ring, centre = idx[j], r[idx[j]] > 1 - 1e-12, r[idx[j]] < 1e-12
        k = np.searchsorted(radii, r[i])
        lo = np.where(on_ring, theta[i] - dth, np.where(centre, 0.0, radii[np.maximum(k - 1, 0)]))
        hi = np.where(on_ring, theta[i] + dth,
                      np.where(centre, r[nb[j]], radii[np.minimum(k + 1, len(radii) - 1)]))
        th0 = theta[nb[j]]

        def f_line(s):
            rr, th = np.where(on_ring, 1.0, s), np.where(on_ring, s, th0)
            return f_off(np.stack([rr * np.cos(th), rr * np.sin(th)], axis=-1), slice(None))

        refined = golden_section_extremum(f_line, lo, hi, maximize, iters=_GOLDEN_ITERS)
        best[j] = np.maximum(refined, best[j]) if maximize else np.minimum(refined, best[j])
    return best[0], best[1], means


def _point_scalar(g: GroupPoint):
    if g.batch_shape != ():
        raise ValueError("mean-value evaluation expects a single (unbatched) point")
    return g.X, g.Y, float(g.t)


def _outer_nodes(m, Y, t, eps, window):
    """Flattened position-ball x time-window nodes and averaging weights."""
    tn, wt = gauss_interval(_OUTER_GAUSS, t - window, t)
    if m == 1:
        yn, wy = gauss_interval(_OUTER_GAUSS, Y[0] - eps**3, Y[0] + eps**3)
        YB = yn[:, None]
    else:
        q = BallQuadrature(n_radial=_OUTER_GAUSS, n_angular=_OUTER_GAUSS)
        offs, wy = q.points_weights(m)
        YB = Y + eps**3 * offs
    Yg = np.repeat(YB, len(tn), axis=0)
    tg = np.tile(tn, len(YB))
    wg = np.repeat(wy, len(tn)) * np.tile(wt, len(YB))
    return Yg, tg, wg


def mv_value(phi: SmoothProfile, g: GroupPoint, p, eps: float, variant, quad: BallQuadrature | None = None) -> float:
    """Evaluate one mean-value formula at g with ball radius eps.

    For V1..V4 this is (alpha/2)(max + min over the sampled closed velocity
    ball) + beta * (ball average), with the variant's inner argument and outer
    averaging set; K variants return the plain space-time average.
    """
    variant = variant_from(variant)
    quad = quad or BallQuadrature()
    if not eps > 0:
        raise ValueError("eps must be positive")
    X, Y, t = _point_scalar(g)
    m = g.m
    offs, w = quad.points_weights(m)
    if len(offs) < 8:
        raise ValueError(f"quadrature too coarse: {len(offs)} ball samples < 8")

    if variant in (MeanValueVariant.K_space_time, MeanValueVariant.K2_space_time):
        window = eps**2 / (m + 2) if variant is MeanValueVariant.K_space_time else eps**2
        Yg, tg, wg = _outer_nodes(m, Y, t, eps, window)
        B = len(tg)
        k = len(offs)
        Xq = X + eps * offs                                # (k, m)
        Yq = Yg[:, None, :] - (tg - t)[:, None, None] * X  # (B, 1, m)
        Yq = np.broadcast_to(Yq, (B, k, m)).copy()
        tq = np.broadcast_to(tg[:, None], (B, k)).copy()
        vals = phi.value(GroupPoint(np.broadcast_to(Xq, (B, k, m)).copy(), Yq, tq))
        return float(np.sum(wg * (vals @ w)))

    alpha, beta = coin_weights(p, m)

    if variant in (MeanValueVariant.V2_pointwise_X, MeanValueVariant.V4_pointwise_Xtilde):
        shift_center = variant is MeanValueVariant.V2_pointwise_X
        t1 = t - eps**2 / 2

        def f_off(off):
            Xq = X + eps * off
            Yq = Y + eps**2 / 2 * (X if shift_center else Xq)
            return phi.value(GroupPoint(Xq, np.broadcast_to(Yq, Xq.shape), np.full(Xq.shape[:-1], t1)))

        if m == 1:
            sig_scan = np.array(sorted(set(np.concatenate([offs[:, 0], [-1.0, 0.0, 1.0]]))))
            (mx,), (mn,) = _interval_extrema(lambda s: f_off(s[..., None]), 1, sig_scan)
            mean = f_off(offs) @ w
        else:
            (mx,), (mn,), (mean,) = _disc_extrema(lambda off, rows: f_off(off), 1, offs, w)
        return float(alpha / 2 * (mx + mn) + beta * mean)

    # V1 / V3: optimize and average inside a position-ball x time-window average
    shift_center = variant is MeanValueVariant.V1_shiftX
    Yg, tg, wg = _outer_nodes(m, Y, t, eps, eps**2)
    B = len(tg)

    if m == 1:
        def f_sig(sig):
            Xq = X[0] + eps * sig
            xs = X[0] if shift_center else Xq
            Yq = _expand(Yg[:, 0], sig) - (_expand(tg, sig) - t) * xs
            tq = np.broadcast_to(_expand(tg, sig), np.shape(sig)).copy()
            return phi.value(GroupPoint(Xq[..., None], Yq[..., None] * np.ones_like(Xq)[..., None], tq))

        sig_scan = np.array(sorted(set(np.concatenate([offs[:, 0], [-1.0, 0.0, 1.0]]))))
        mx, mn = _interval_extrema(f_sig, B, sig_scan)
        means = f_sig(np.broadcast_to(offs[:, 0], (B, len(offs)))) @ w
    else:
        def f_off(off, rows):
            Xq = X + eps * off
            xs = X if shift_center else Xq
            tb = _expand(tg[rows], off[..., 0])
            Yq = Yg[rows].reshape(tb.shape + (m,)) - (tb[..., None] - t) * xs
            return phi.value(GroupPoint(Xq, np.broadcast_to(Yq, Xq.shape), np.broadcast_to(tb, Xq.shape[:-1])))

        mx, mn, means = _disc_extrema(f_off, B, offs, w)

    return float(alpha / 2 * (wg @ mx) + alpha / 2 * (wg @ mn) + beta * (wg @ means))


def mv_residual(phi, g, p, eps, variant, quad=None) -> float:
    """Signed difference between the mean-value formula and phi(g)."""
    return mv_value(phi, g, p, eps, variant, quad) - float(phi.value(g))


def mv_limit_estimate(phi, g, p, variant, eps_ladder, quad=None):
    """Richardson-extrapolated limit of residual / eps^2 along a shrinking ladder.

    The ladder must have at least three entries, each at most half the
    previous.  Extrapolation assumes first-order convergence in eps; the
    observed order is reported in the diagnostics rather than assumed, and a
    noise flag marks non-monotone residual magnitudes (quadrature noise on
    exact solutions).
    """
    eps_ladder = [float(e) for e in eps_ladder]
    if len(eps_ladder) < 3:
        raise ValueError("eps ladder needs at least 3 entries")
    for a, b in zip(eps_ladder, eps_ladder[1:]):
        if not b <= a / 2 + 1e-12:
            raise ValueError(f"ladder entries must at least halve: {a} -> {b}")
    residuals = np.array([mv_residual(phi, g, p, e, variant, quad) for e in eps_ladder])
    scaled = residuals / np.array(eps_ladder) ** 2

    noise = False
    scale = float(np.max(np.abs(residuals))) + 1e-300
    for a, b in zip(residuals, residuals[1:]):
        if abs(b) > abs(a) * 1.05 + 1e-12 * scale:
            noise = True

    s = eps_ladder[-2] / eps_ladder[-1]
    limit = float(scaled[-1] + (scaled[-1] - scaled[-2]) / (s - 1.0))

    d1 = abs(scaled[-3] - scaled[-2])
    d2 = abs(scaled[-2] - scaled[-1])
    if d1 > 1e-14 and d2 > 1e-14:
        order = float(np.log(d1 / d2) / np.log(eps_ladder[-2] / eps_ladder[-1]))
    else:
        order = math.nan
        limit = float(scaled[-1])  # already converged to quadrature accuracy

    diagnostics = {
        "epsilons": eps_ladder,
        "residuals": residuals.tolist(),
        "residual_over_eps2": scaled.tolist(),
        "observed_order": order,
        "noise_flagged": noise,
    }
    return limit, diagnostics
