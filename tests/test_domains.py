import numpy as np
import pytest
from hypothesis import given, strategies as st

from kplab.domains import (Ball, Box, interval, ParabolicCollar, Region,
                           classify_parabolic, KolmogorovRegion, classify_kolmogorov,
                           BoundaryDatum, mcshane_extend, LipschitzViolation,
                           verify_g_eps_lipschitz, velocity_bound)
from kplab.game import _terminal_predicate
from kplab.geometry import point, GroupPoint, extension_metric
from kplab.operators import affine_profile, constant_profile, y_plus_tx_profile


def test_signed_distance_interval():
    dom = interval(-1, 1)
    assert dom.signed_distance(np.array([0.0])) == pytest.approx(-1.0)
    assert dom.signed_distance(np.array([1.05])) == pytest.approx(0.05)
    assert dom.signed_distance(np.array([1.0])) == pytest.approx(0.0)


def test_signed_distance_ball_and_gradient():
    dom = Ball([0.0, 0.0], 1.0)
    X = np.array([0.5, 0.0])
    assert dom.signed_distance(X) == pytest.approx(-0.5)
    n = dom.outward_normal(np.array([0.0, 1.0]))
    assert np.allclose(n, [0.0, 1.0])


def test_box_normal_tie_break():
    dom = Box([-1, -1], [1, 1])
    # corner: face of maximal penetration with lexicographic tie-break
    n = dom.outward_normal(np.array([1.0, 1.0]))
    assert np.allclose(n, [1.0, 0.0])
    n = dom.outward_normal(np.array([0.2, 0.9]))
    assert np.allclose(n, [0.0, 1.0])


def test_signed_distance_gradient_norm_one(rng):
    for dom in (interval(-1, 1), Ball([0.0, 0.0], 1.0), Box([-1, -2], [2, 1])):
        m = dom.m
        X = rng.uniform(-3, 3, (200, m))
        h = 1e-6
        grads = np.zeros_like(X)
        for d in range(m):
            e = np.zeros(m)
            e[d] = h
            grads[:, d] = (dom.signed_distance(X + e) - dom.signed_distance(X - e)) / (2 * h)
        gn = np.linalg.norm(grads, axis=-1)
        smooth = np.abs(dom.signed_distance(X)) > 0.05  # skip kinks near edges/boundary
        if isinstance(dom, Box) and m == 2:
            q = np.maximum(dom.lo - X, X - dom.hi)
            smooth &= np.abs(q[:, 0] - q[:, 1]) > 0.05
        assert np.allclose(gn[smooth], 1.0, atol=1e-5)


def test_velocity_bound():
    assert velocity_bound(interval(-1, 1)) == 1.0
    assert velocity_bound(interval(-0.3, 0.2)) == 1.0  # floor at 1
    assert velocity_bound(Ball([1.0], 2.0)) == 3.0


def _straddle(X):
    """X and every point one float step either side of X in one coordinate."""
    out = [X]
    for d in range(X.shape[-1]):
        for to in (-np.inf, np.inf):
            Z = X.copy()
            Z[..., d] = np.nextafter(X[..., d], to)
            out.append(Z)
    return np.concatenate(out)


def _collar_probes():
    box2 = Box([-1.0, -0.5], [1.0, 2.0])
    faces = np.array([[-1.0, 0.3], [1.0, 0.3], [0.2, -0.5], [0.2, 2.0], [-1.0, -0.5], [1.0, 2.0]])
    # a dyadic centre and radius put (3, 4, 5)-triangle points exactly on the
    # sphere; the rotated points land within rounding of it
    ball = Ball([0.5, -0.25], 0.625)
    angles = np.linspace(0.0, 2 * np.pi, 41)
    rim = np.concatenate([ball.center + np.array([[0.375, 0.5], [-0.5, 0.375], [0.625, 0.0], [0.0, -0.625]]),
                          ball.center + 0.625 * np.stack([np.cos(angles), np.sin(angles)], axis=-1)])
    return [(interval(-1, 1), _straddle(np.array([[-1.0], [1.0], [0.0]]))),
            (box2, _straddle(faces)),
            (ball, _straddle(rim))]


@pytest.mark.parametrize("case", range(3), ids=["box-m1", "box-m2", "ball-m2"])
def test_collar_is_signed_distance_at_least_zero(case):
    domain, X = _collar_probes()[case]
    collar = domain.collar(X)
    assert np.array_equal(collar, domain.signed_distance(X) >= 0)
    assert collar.any() and not collar.all()
    stops = _terminal_predicate(domain)
    parabolic = ParabolicCollar(domain, 0.1, 0.5)
    for x, c in zip(X, collar):
        assert bool(stops(x)) == c
        interior = classify_parabolic(GroupPoint(x, np.zeros_like(x), 0.25), parabolic) is Region.INTERIOR
        assert interior == (not c)


def test_classify_parabolic_examples():
    collar = ParabolicCollar(interval(-1, 1), 0.1, 0.5)
    assert classify_parabolic(point(0.5, 3.0, 0.4), collar) is Region.INTERIOR
    assert classify_parabolic(point(1.05, 0.0, 0.4), collar) is Region.LATERAL_COLLAR
    assert classify_parabolic(point(0.5, 0.0, -0.004), collar) is Region.INITIAL_COLLAR
    assert classify_parabolic(point(1.2, 0.0, 0.4), collar) is Region.OUTSIDE
    assert classify_parabolic(point(0.5, 0.0, 0.6), collar) is Region.OUTSIDE


def test_classify_parabolic_partition(rng):
    collar = ParabolicCollar(interval(-1, 1), 0.1, 0.5)
    eps = collar.epsilon
    # sample the slab U_X^eps x R x (-eps^2/2, T]: exactly one label each, never OUTSIDE
    for _ in range(1000):
        x = rng.uniform(-1.1, 1.1)
        t = rng.uniform(-eps**2 / 2 + 1e-9, 0.5)
        g = point(x, rng.uniform(-2, 2), t)
        r = classify_parabolic(g, collar)
        assert r in (Region.INTERIOR, Region.LATERAL_COLLAR, Region.INITIAL_COLLAR)


def test_classify_kolmogorov_examples():
    UX = interval(-1, 1)
    UY = interval(-1, 1)
    assert classify_kolmogorov(point(0.5, 1.0, 0.2), UX, UY, 1.0) is KolmogorovRegion.OUTFLOW_Y
    assert classify_kolmogorov(point(-0.5, 1.0, 0.2), UX, UY, 1.0) is KolmogorovRegion.CHARACTERISTIC_Y
    assert classify_kolmogorov(point(0.2, 0.3, 0.0), UX, UY, 1.0) is KolmogorovRegion.INITIAL
    assert classify_kolmogorov(point(1.0, 0.3, 0.5), UX, UY, 1.0) is KolmogorovRegion.LATERAL_X
    assert classify_kolmogorov(point(0.2, 0.3, 1.0), UX, UY, 1.0) is KolmogorovRegion.OTHER
    assert classify_kolmogorov(point(0.2, 0.3, 0.5), UX, UY, 1.0) is KolmogorovRegion.INTERIOR


def test_classify_kolmogorov_outside_closure():
    with pytest.raises(ValueError):
        classify_kolmogorov(point(2.0, 0.0, 0.5), interval(-1, 1), interval(-1, 1), 1.0)


def test_outflow_split_exhaustive(rng):
    # on sampled boundary-Y points the outflow/characteristic split is a partition
    UX = interval(-1, 1)
    UY = interval(-1, 1)
    for _ in range(500):
        x = rng.uniform(-0.999, 0.999)
        y = 1.0 if rng.random() < 0.5 else -1.0
        g = point(x, y, rng.uniform(0.0, 0.999))
        r = classify_kolmogorov(g, UX, UY, 1.0)
        n = 1.0 if y > 0 else -1.0
        expected = KolmogorovRegion.OUTFLOW_Y if x * n > 1e-12 else KolmogorovRegion.CHARACTERISTIC_Y
        assert r is expected


def test_mcshane_single_sample():
    g0 = point(0.5, 0.2, 0.1)
    ext = mcshane_extend([(g0, 5.0)], L=2.0)
    assert float(ext.at(g0)) == pytest.approx(5.0, abs=1e-14)
    # truncation keeps the extension at the sample max everywhere
    assert float(ext.at(point(3.0, -1.0, 0.7))) == pytest.approx(5.0)


def test_mcshane_reproduces_samples_exactly(rng):
    pts = [point(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0, 1)) for _ in range(12)]
    vals = [float(np.sin(g.X[0]) + 0.5 * g.Y[0]) for g in pts]
    L = 3.0
    ext = mcshane_extend(list(zip(pts, vals)), L)
    for g, v in zip(pts, vals):
        assert float(ext.at(g)) == v  # exact, not approximate


def test_mcshane_violation_reports_witness():
    a = point(0.0, 0.0, 0.0)
    b = point(0.1, 0.0, 0.0)
    with pytest.raises(LipschitzViolation) as ei:
        mcshane_extend([(a, 0.0), (b, 10.0)], L=1.0)
    assert ei.value.pair in ((0, 1), (1, 0))


def test_mcshane_fresh_pair_lipschitz(rng):
    # 50 samples of a clipped smooth function; extension constant re-checked
    # on fresh pairs must not exceed the declared constant
    pts = [point(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0, 1)) for _ in range(50)]
    vals = [float(np.clip(np.sin(g.X[0]) + g.Y[0], -1.2, 1.2)) for g in pts]
    samples = list(zip(pts, vals))
    # declare the tightest constant the samples exhibit (plus head room)
    L = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = float(extension_metric(pts[i], pts[j]))
            if d > 0:
                L = max(L, abs(vals[i] - vals[j]) / d)
    L *= 1.000001
    ext = mcshane_extend(samples, L)
    a = GroupPoint(rng.uniform(-2, 2, (10_000, 1)), rng.uniform(-2, 2, (10_000, 1)),
                   rng.uniform(-1, 2, 10_000))
    b = GroupPoint(rng.uniform(-2, 2, (10_000, 1)), rng.uniform(-2, 2, (10_000, 1)),
                   rng.uniform(-1, 2, 10_000))
    fa = ext(a.X, a.Y, a.t)
    fb = ext(b.X, b.Y, b.t)
    d = extension_metric(a, b)
    mask = d > 1e-9
    assert np.max(np.abs(fa - fb)[mask] / d[mask]) <= L * (1 + 1e-9)


def test_mcshane_bounded_by_sample_max(rng):
    pts = [point(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0, 1)) for _ in range(8)]
    vals = [float(v) for v in rng.uniform(-2, 2, 8)]
    ext = mcshane_extend(list(zip(pts, vals)), L=50.0)
    B = max(abs(v) for v in vals)
    q = GroupPoint(rng.uniform(-5, 5, (500, 1)), rng.uniform(-5, 5, (500, 1)),
                   rng.uniform(-5, 5, 500))
    out = ext(q.X, q.Y, q.t)
    assert np.all(np.abs(out) <= B + 1e-12)


def test_verify_lipschitz_const_and_linear():
    collar = ParabolicCollar(interval(-1, 1), 0.1, 0.5)
    Fc = BoundaryDatum("const", constant_profile(2.5, 1).fn)
    assert verify_g_eps_lipschitz(Fc, collar, 500, seed=5) == 0.0
    Fx = BoundaryDatum("x1", affine_profile([1.0], 0.0, 1).fn)
    assert verify_g_eps_lipschitz(Fx, collar, 2000, seed=5) <= 1.0 + 1e-9


def test_verify_lipschitz_recorded_value():
    # F = y1 + t x1: sampled maximum ratio observed near 1.4 (seeds 5..7);
    # recorded as a fixture band, not a proof
    collar = ParabolicCollar(interval(-1, 1), 0.1, 0.5)
    F = BoundaryDatum("y+tx", y_plus_tx_profile(1).fn)
    est = verify_g_eps_lipschitz(F, collar, 2000, seed=5)
    assert 0.5 < est < 3.0
