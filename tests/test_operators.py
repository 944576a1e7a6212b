import math

import numpy as np
import pytest

from kplab.geometry import GroupPoint, point
from kplab.operators import (SmoothProfile, DegenerateGradient, coin_weights,
                             inf_laplacian_normalized, apply_K, apply_Kp,
                             viscosity_check, catalog, quadratic_time_coefficient,
                             constant_profile, affine_profile, y_plus_tx_profile,
                             quadratic_profile, x_squared_profile, sq_norm_x_profile,
                             trig_profile, poly_mix_profile, left_translate,
                             dilate_profile, profile_by_name)
from conftest import batch_points


def test_coin_weights():
    for p in (2.0, 3.0, 10.0):
        for m in (1, 2):
            a, b = coin_weights(p, m)
            assert a + b == pytest.approx(1.0, abs=1e-15)
            assert a == pytest.approx((p - 2) / (m + p))
    assert coin_weights(math.inf, 1) == (1.0, 0.0)
    with pytest.raises(ValueError):
        coin_weights(1.0, 1)


def test_inf_laplacian_examples():
    g = point(0.3, 0.0, 0.0)
    assert inf_laplacian_normalized(x_squared_profile(1), g) == pytest.approx(2.0, abs=1e-14)
    aff = affine_profile([2.0], 1.0, 1)
    assert inf_laplacian_normalized(aff, g) == pytest.approx(0.0, abs=1e-15)
    g2 = GroupPoint(np.array([1.0, 1.0]), np.zeros(2), 0.0)
    assert inf_laplacian_normalized(sq_norm_x_profile(2), g2) == pytest.approx(2.0, abs=1e-13)


def test_inf_laplacian_degenerate_raises():
    g = point(0.0, 0.0, 0.0)
    with pytest.raises(DegenerateGradient):
        inf_laplacian_normalized(x_squared_profile(1), g)


def test_apply_K_examples():
    g = point(0.7, 0.1, 0.2)
    assert apply_K(y_plus_tx_profile(1), g) == pytest.approx(0.0, abs=1e-14)
    # pure drift: only x d_y survives
    ylin = SmoothProfile(
        "y", lambda X, Y, t: Y[..., 0],
        lambda gg: np.zeros(gg.batch_shape + (1,)),
        lambda gg: np.zeros(gg.batch_shape + (1, 1)),
        lambda gg: np.ones(gg.batch_shape + (1,)),
        lambda gg: np.zeros(gg.batch_shape),
    )
    assert apply_K(ylin, g) == pytest.approx(0.7, abs=1e-15)
    assert apply_K(x_squared_profile(1), g) == pytest.approx(2.0, abs=1e-15)


def test_apply_Kp_examples():
    g = point(0.4, -0.2, 0.3)
    for p in (2.0, 3.0, 7.0, math.inf):
        assert apply_Kp(y_plus_tx_profile(1), g, p) == pytest.approx(0.0, abs=1e-13)
    # m=1, p=4: |X|^2 + (6/5) t
    q = quadratic_profile(4.0, 1)
    assert quadratic_time_coefficient(4.0, 1) == pytest.approx(6 / 5)
    assert apply_Kp(q, g, 4.0) == pytest.approx(0.0, abs=1e-13)
    assert apply_Kp(x_squared_profile(1), g, 2.0) == pytest.approx(2.0, abs=1e-14)


def test_apply_Kp_constant_all_p():
    g = point(0.4, -0.2, 0.3)
    c = constant_profile(3.3, 1)
    for p in (2.0, 3.0, math.inf):
        assert apply_Kp(c, g, p) == pytest.approx(0.0, abs=1e-15)


def test_apply_Kp_degenerate_gradient_with_curvature_raises():
    g = point(0.0, 0.0, 0.3)
    with pytest.raises(DegenerateGradient):
        apply_Kp(quadratic_profile(3.0, 1), g, 3.0)
    # p = 2 bypasses the normalized term entirely
    assert apply_Kp(quadratic_profile(2.0, 1), g, 2.0) == pytest.approx(0.0, abs=1e-14)


def test_catalog_annihilation(rng):
    for m in (1, 2):
        pts = GroupPoint(
            np.sign(rng.uniform(-1, 1, (1000, m))) * rng.uniform(0.1, 2.0, (1000, m)),
            rng.uniform(-2, 2, (1000, m)),
            np.sign(rng.uniform(-1, 1, 1000)) * rng.uniform(0.1, 2.0, 1000),
        )
        for entry in catalog(m):
            keep = ~entry.degenerate(pts)
            sub = GroupPoint(pts.X[keep], pts.Y[keep], pts.t[keep])
            for p in entry.p_list((2.0, 3.0, math.inf)):
                vals = apply_Kp(entry.profile, sub, p)
                assert np.max(np.abs(vals)) < 1e-9, (entry.profile.name, p, m)


def test_viscosity_check_on_solutions():
    g = point(0.4, -0.2, 0.3)
    for p in (2.0, 3.0, math.inf):
        for side in ("super", "sub"):
            r = viscosity_check(y_plus_tx_profile(1), g, p, side)
            assert r.satisfied and abs(r.margin) <= 1e-9
            r = viscosity_check(quadratic_profile(p, 1), g, p, side)
            assert r.satisfied and abs(r.margin) <= 1e-9


def test_viscosity_check_strict_supersolution():
    # x^2 + C t with C above the matched slope is a strict supersolution
    m, p = 1, 3.0
    C = quadratic_time_coefficient(p, m) + 0.5

    prof = SmoothProfile(
        "x2+Ct", lambda X, Y, t: X[..., 0] ** 2 + C * t,
        lambda g: np.stack([2 * g.X[..., 0]], axis=-1),
        lambda g: np.full(g.batch_shape + (1, 1), 2.0),
        lambda g: np.zeros(g.batch_shape + (1,)),
        lambda g: np.full(g.batch_shape, C),
    )
    r = viscosity_check(prof, point(0.4, 0.0, 0.1), p, "super")
    assert r.satisfied and r.margin > 1e-6
    r = viscosity_check(prof, point(0.4, 0.0, 0.1), p, "sub")
    assert not r.satisfied


def test_viscosity_check_fully_degenerate_point():
    # cubic at the origin: gradient and Hessian both vanish, the check
    # reduces to the sign of the drift-time combination
    cub = SmoothProfile(
        "x3", lambda X, Y, t: X[..., 0] ** 3,
        lambda g: np.stack([3 * g.X[..., 0] ** 2], axis=-1),
        lambda g: (6 * g.X[..., 0])[..., None, None],
        lambda g: np.zeros(g.batch_shape + (1,)),
        lambda g: np.zeros(g.batch_shape),
    )
    g = point(0.0, 0.5, 0.2)
    r = viscosity_check(cub, g, 3.0, "super")
    assert r.branch == "degenerate"
    assert r.margin == pytest.approx(0.0, abs=1e-15)


def _invariance_profiles():
    return [
        affine_profile([1.3], -0.4, 1),
        y_plus_tx_profile(1),
        quadratic_profile(3.0, 1),
        trig_profile(1),
    ]


def _valid_mask(phi, g, p):
    if p == 2.0:
        return np.ones(g.batch_shape, bool)
    grad = phi.grad_x(g)
    return np.linalg.norm(grad, axis=-1) > 1e-5


def test_left_invariance(rng):
    g0 = point(0.3, -0.7, 0.45)
    pts = batch_points(rng, 1000, 1)
    from kplab.geometry import compose

    for phi in _invariance_profiles():
        moved = left_translate(phi, g0)
        target = compose(g0, pts)
        for p in (3.0, math.inf):
            mask = _valid_mask(phi, target, p) & _valid_mask(moved, pts, p)
            sub = GroupPoint(pts.X[mask], pts.Y[mask], pts.t[mask])
            tgt = GroupPoint(target.X[mask], target.Y[mask], target.t[mask])
            lhs = apply_Kp(moved, sub, p)
            rhs = apply_Kp(phi, tgt, p)
            assert np.max(np.abs(lhs - rhs)) < 1e-8, phi.name


def test_dilation_homogeneity(rng):
    from kplab.geometry import dilate

    pts = batch_points(rng, 1000, 1)
    for phi in _invariance_profiles():
        for r in (0.5, 2.0):
            scaled = dilate_profile(phi, r)
            target = dilate(r, pts)
            for p in (3.0, math.inf):
                mask = _valid_mask(phi, target, p)
                sub = GroupPoint(pts.X[mask], pts.Y[mask], pts.t[mask])
                tgt = GroupPoint(target.X[mask], target.Y[mask], target.t[mask])
                lhs = apply_Kp(scaled, sub, p)
                rhs = r**2 * apply_Kp(phi, tgt, p)
                assert np.max(np.abs(lhs - rhs)) < 1e-8, (phi.name, r)


def test_finite_difference_matches_analytic_on_catalog():
    for m in (1, 2):
        for entry in catalog(m):
            fd = SmoothProfile.from_value(entry.profile.name, entry.profile.fn, fd_scale=1e-4)
            g = GroupPoint(np.full(m, 0.6), np.full(m, -0.4), 0.7)
            for p in entry.p_list((2.0, 3.0)):
                a = float(apply_Kp(entry.profile, g, p))
                b = float(apply_Kp(fd, g, p))
                assert abs(a - b) < 1e-5


def test_finite_difference_second_order():
    # non-polynomial profile: halving the step divides the defect by ~4
    phi = trig_profile(1)
    g = point(0.6, -0.3, 0.4)
    exact = float(apply_Kp(phi, g, 3.0))
    errs = []
    for scale in (2e-3, 1e-3):
        fd = SmoothProfile.from_value("trig-fd", phi.fn, fd_scale=scale)
        errs.append(abs(float(apply_Kp(fd, g, 3.0)) - exact))
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5


def test_fd_hessian_symmetric(rng):
    phi = SmoothProfile.from_value("mix", poly_mix_profile(2).fn, fd_scale=1e-4)
    g = GroupPoint(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2), 0.3)
    H = phi.hess_x(g)
    assert np.max(np.abs(H - np.swapaxes(H, -1, -2))) < 1e-12


def test_profile_registry():
    assert profile_by_name("y_plus_tx", 1).name == "y_plus_tx"
    q = profile_by_name("quadratic_p", 1, p=3.0)
    assert q.value(point(0.0, 0.0, 1.0)) == pytest.approx(1.0)  # coefficient 2(m+p-2)/(m+p) = 1
    with pytest.raises(KeyError):
        profile_by_name("nope", 1)
