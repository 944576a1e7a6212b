import math

import numpy as np
import pytest

from kplab.geometry import GroupPoint, point
from kplab.meanvalue import (_SCAN_BLOCK, MeanValueVariant, _disc_extrema, mv_value, mv_residual,
                             mv_limit_estimate, variant_from)
from kplab.operators import (apply_K, apply_Kp, coin_weights, constant_profile,
                             affine_profile, y_plus_tx_profile, quadratic_profile,
                             x_squared_profile, poly_mix_profile, trig_profile,
                             sq_norm_x_profile)
from kplab.quadrature import BallQuadrature, shared_ball_points

ALL_V = ["V1", "V2", "V3", "V4"]
G = point(0.7, 0.3, 0.5)


def test_quadrature_normalization():
    for m in (1, 2):
        for q in (BallQuadrature(), BallQuadrature(mode="quasi-random", n_points=128, seed=3)):
            pts, w = q.points_weights(m)
            assert abs(w.sum() - 1.0) < 1e-12
            assert np.all(np.linalg.norm(pts, axis=-1) <= 1 + 1e-12)


def test_quadrature_odd_moments_tensor():
    for m in (1, 2):
        pts, w = BallQuadrature().points_weights(m)
        for d in range(m):
            assert abs(np.sum(w * pts[:, d])) < 1e-12
            assert abs(np.sum(w * pts[:, d] ** 3)) < 1e-12


def test_shared_ball_points_cover_closed_ball():
    for m in (1, 2):
        pts, w = shared_ball_points(m)
        assert abs(w.sum() - 1.0) < 1e-12
        r = np.linalg.norm(pts, axis=-1)
        assert r.max() == pytest.approx(1.0)  # boundary included for extrema
        assert r.min() == 0.0                 # center included


def test_too_coarse_quadrature_rejected():
    with pytest.raises(ValueError):
        mv_value(x_squared_profile(1), G, 2.0, 0.1, "V4", BallQuadrature(n_radial=2))


def test_variant_lookup():
    assert variant_from("V1") is MeanValueVariant.V1_shiftX
    assert variant_from("K2") is MeanValueVariant.K2_space_time
    with pytest.raises(ValueError):
        variant_from("V9")


def test_constant_profile_reproduced_exactly():
    c = constant_profile(4.2, 1)
    for v in ALL_V + ["K", "K2"]:
        assert mv_value(c, G, 3.0, 0.15, v) == pytest.approx(4.2, abs=1e-12)
        assert mv_residual(c, G, 3.0, 0.15, v) == pytest.approx(0.0, abs=1e-12)


def test_affine_profile_v4_cancellation():
    a = affine_profile([1.7], 0.0, 1)
    # max+min cancels the excursion and the ball average is the center value
    assert mv_value(a, G, 3.0, 0.2, "V4") == pytest.approx(1.7 * 0.7, abs=1e-12)


def test_y_plus_tx_fixed_point_every_eps():
    # inner argument y + eps^2 x/2 + (t - eps^2/2) x recombines to y + t x
    phi = y_plus_tx_profile(1)
    for eps in (0.3, 0.1, 0.05):
        for v in ALL_V:
            assert mv_value(phi, G, 3.0, eps, v) == pytest.approx(
                float(phi.value(G)), abs=1e-11)


def test_x_squared_residual_closed_form():
    # for |x| > eps: residual = eps^2 (alpha + beta/3) = eps^2 (p-1)/(p+1) at m=1
    phi = x_squared_profile(1)
    for p in (2.0, 3.0, 7.0):
        alpha, beta = coin_weights(p, 1)
        for eps in (0.2, 0.1):
            r = mv_residual(phi, G, p, eps, "V4")
            assert r == pytest.approx(eps**2 * (alpha + beta / 3), rel=1e-10)
    # spec desk number: p=2, eps=0.1 gives ~3.33e-3 within 10 percent
    assert mv_residual(phi, G, 2.0, 0.1, "V4") == pytest.approx(0.1**2 / 3, rel=0.1)


def test_limit_estimates_match_operator_oracle():
    ladder = [0.2, 0.1, 0.05]
    phi = x_squared_profile(1)
    for p in (2.0, 3.0, math.inf):
        div = 2.0 if p == math.inf else 2.0 * (1 + p)
        oracle = float(apply_Kp(phi, G, p)) / div
        for v in ALL_V:
            lim, diag = mv_limit_estimate(phi, G, p, v, ladder)
            assert lim == pytest.approx(oracle, rel=0.05), (p, v)


def test_limit_consistency_generic_profile():
    # non-solution with all blocks coupled; oracle from the pointwise operator
    ladder = [0.2, 0.1, 0.05]
    phi = poly_mix_profile(1)
    for p in (3.0,):
        oracle = float(apply_Kp(phi, G, p)) / (2.0 * (1 + p))
        lims = {}
        for v in ALL_V:
            lim, _ = mv_limit_estimate(phi, G, p, v, ladder)
            lims[v] = lim
            assert lim == pytest.approx(oracle, rel=0.05), v
        # variant agreement: the four formulas characterize the same operator
        assert lims["V1"] == pytest.approx(lims["V3"], rel=0.05)
        assert lims["V2"] == pytest.approx(lims["V4"], rel=0.05)


def test_exact_solutions_have_tiny_limits():
    ladder = [0.2, 0.1, 0.05]
    ref = {p: abs(float(apply_Kp(x_squared_profile(1), G, p))
                  / (2.0 if p == math.inf else 2.0 * (1 + p)))
           for p in (2.0, 3.0, math.inf)}
    for p in (2.0, 3.0, math.inf):
        for phi in (y_plus_tx_profile(1), quadratic_profile(p, 1)):
            for v in ALL_V:
                lim, _ = mv_limit_estimate(phi, G, p, v, ladder)
                assert abs(lim) <= 0.02 * ref[p], (phi.name, p, v)


def test_k_variants_characterize_linear_operators():
    ladder = [0.2, 0.1, 0.05]
    m = 1
    phi = poly_mix_profile(1)
    # K window eps^2/(m+2): residual/eps^2 -> K phi / (2(m+2))
    oracle_k = float(apply_K(phi, G)) / (2.0 * (m + 2))
    lim, _ = mv_limit_estimate(phi, G, 2.0, "K", ladder)
    assert lim == pytest.approx(oracle_k, rel=0.05)
    # K2 window eps^2: residual/eps^2 -> K_2 phi / (2(m+2))
    oracle_k2 = float(apply_Kp(phi, G, 2.0)) / (2.0 * (m + 2))
    lim2, _ = mv_limit_estimate(phi, G, 2.0, "K2", ladder)
    assert lim2 == pytest.approx(oracle_k2, rel=0.05)


def test_m2_pointwise_variant():
    # |X|^2 in two dimensions: V4 limit matches the operator value
    g2 = GroupPoint(np.array([0.8, 0.5]), np.array([0.1, -0.2]), 0.4)
    phi = sq_norm_x_profile(2)
    p = 3.0
    oracle = float(apply_Kp(phi, g2, p)) / (2.0 * (2 + p))
    lim, _ = mv_limit_estimate(phi, g2, p, "V4", [0.2, 0.1, 0.05])
    assert lim == pytest.approx(oracle, rel=0.05)


G2 = GroupPoint(np.array([0.6, -0.3]), np.array([0.2, 0.1]), 0.5)

# exact m=2 values at p=3, eps=0.2, pinned so that any change in the disc
# search's arithmetic shows; the X = 0 point puts the minimum at the disc centre
M2_PINNED = {
    ("x_squared", "V1"): 0.37599999999999995, ("x_squared", "V2"): 0.37599999999999995,
    ("x_squared", "V3"): 0.37599999999999995, ("x_squared", "V4"): 0.37599999999999995,
    ("trig", "V1"): 1.8954507025578788, ("trig", "V2"): 1.8953486524323118,
    ("trig", "V3"): 1.895766536963185, ("trig", "V4"): 1.895665524076915,
    ("sq_norm_x", "V1"): 0.019999999999999997, ("sq_norm_x", "V2"): 0.019999999999999997,
    ("sq_norm_x", "V3"): 0.019999999999999997, ("sq_norm_x", "V4"): 0.019999999999999997,
}


def test_m2_values_pinned():
    centre = GroupPoint(np.zeros(2), np.array([0.2, 0.1]), 0.5)
    cases = {"x_squared": (x_squared_profile(2), G2), "trig": (trig_profile(2), G2),
             "sq_norm_x": (sq_norm_x_profile(2), centre)}
    for (name, v), expected in M2_PINNED.items():
        phi, g = cases[name]
        assert mv_value(phi, g, 3.0, 0.2, v) == expected, (name, v)


def test_disc_extrema_match_dense_polar_search():
    # row b is sign_b * |off - c_b|^2: with c outside the disc the extremum of
    # that sign lies on the ring, inside it the extremum is interior, and next
    # to the origin the best scan point is the centre; the other extremum is
    # on the ring.  The batch spans more than one scan block.
    cases = [(-1.0, (2.0, 0.5)), (1.0, (2.0, 0.5)), (-1.0, (0.3, -0.45)),
             (1.0, (0.3, -0.45)), (-1.0, (0.02, 0.01)), (1.0, (0.02, 0.01))]
    B = 2 * _SCAN_BLOCK + 3
    sign = np.array([cases[b % 6][0] for b in range(B)])
    c = np.array([cases[b % 6][1] for b in range(B)]) * (1 + 0.01 * (np.arange(B) // 6))[:, None]

    def f_off(off, rows):
        shape = (-1,) + (1,) * (off.ndim - 2)
        return sign[rows].reshape(shape) * np.sum((off - c[rows].reshape(shape + (2,))) ** 2, axis=-1)

    offs, w = BallQuadrature().points_weights(2)
    mx, mn, means = _disc_extrema(f_off, B, offs, w)
    rr, th = np.meshgrid(np.linspace(0.0, 1.0, 401), np.linspace(-np.pi, np.pi, 1441), indexing="ij")
    dense = np.stack([rr.ravel() * np.cos(th.ravel()), rr.ravel() * np.sin(th.ravel())], axis=-1)
    for b in range(B):
        vals = f_off(dense[None], [b])[0]
        assert abs(mx[b] - vals.max()) < 1e-4 and abs(mn[b] - vals.min()) < 1e-4, b
        assert means[b] == f_off(offs[None], [b])[0] @ w


def test_m2_limits_match_operator_oracle():
    for phi in (sq_norm_x_profile(2), trig_profile(2)):
        oracle = float(apply_Kp(phi, G2, 3.0)) / (2.0 * (2 + 3.0))
        for v in ALL_V:
            lim, _ = mv_limit_estimate(phi, G2, 3.0, v, [0.2, 0.1, 0.05])
            assert lim == pytest.approx(oracle, rel=0.05), (phi.name, v)


def test_constant_shift_identity():
    phi = poly_mix_profile(1)
    shifted = poly_mix_profile(1)
    base_value = shifted.fn
    shifted.fn = lambda X, Y, t: base_value(X, Y, t) + 5.0
    for v in ALL_V:
        a = mv_value(phi, G, 3.0, 0.1, v)
        b = mv_value(shifted, G, 3.0, 0.1, v)
        assert b - a == pytest.approx(5.0, abs=1e-12)


def test_monotonicity():
    lo = trig_profile(1)
    hi = trig_profile(1)
    base = hi.fn
    hi.fn = lambda X, Y, t: base(X, Y, t) + 1e-3
    for v in ALL_V:
        assert mv_value(lo, G, 3.0, 0.1, v) <= mv_value(hi, G, 3.0, 0.1, v) + 1e-12


def test_ladder_validation():
    phi = x_squared_profile(1)
    with pytest.raises(ValueError):
        mv_limit_estimate(phi, G, 2.0, "V4", [0.2, 0.1])
    with pytest.raises(ValueError):
        mv_limit_estimate(phi, G, 2.0, "V4", [0.2, 0.15, 0.1])


def test_noise_flag_on_exact_solution():
    # residuals at quadrature-noise level are flagged as non-monotone
    phi = y_plus_tx_profile(1)
    lim, diag = mv_limit_estimate(phi, G, 3.0, "V1", [0.2, 0.1, 0.05])
    assert abs(lim) < 1e-8
    assert "noise_flagged" in diag


def test_quasi_random_mode_agrees_roughly():
    phi = x_squared_profile(1)
    q = BallQuadrature(mode="quasi-random", n_points=4096, seed=1)
    r_qmc = mv_residual(phi, G, 3.0, 0.2, "V4", q)
    r_tensor = mv_residual(phi, G, 3.0, 0.2, "V4")
    assert r_qmc == pytest.approx(r_tensor, rel=0.02)
