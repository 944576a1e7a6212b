"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; every tolerance is pinned here, none deferred to calibration.
"""

import math
import time

import numpy as np
import pytest

from kplab.domains import BoundaryDatum, interval, mcshane_extend
from kplab.game import (GameConfig, GameState, Strategy, episode_rng, estimate_value,
                        greedy_from_grid, pull_toward, run_episode, stay_strategy,
                        step, supermartingale_diagnostic)
from kplab.geometry import (GroupPoint, point, compose, inverse, dilate, identity,
                            quasi_norm, extension_metric)
from kplab.meanvalue import mv_limit_estimate
from kplab.operators import (apply_Kp, catalog, coin_weights, left_translate,
                             dilate_profile, x_squared_profile, y_plus_tx_profile,
                             quadratic_profile, affine_profile, trig_profile)
from kplab.quadrature import BallQuadrature
from kplab.solver import SolveConfig, solve, solve_iterative, time_ladder
from kplab.cli import _grid_error_vs_profile

from conftest import batch_points


def report(num, ok, text):
    line = f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {text}"
    print(line)
    assert ok, line


def datum_y_plus_tx():
    return BoundaryDatum("y_plus_tx", y_plus_tx_profile(1).fn)


def test_criterion_01_geometry_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True
    for m in (1, 2):
        a = batch_points(rng, 10_000, m)
        b = batch_points(rng, 10_000, m)
        c = batch_points(rng, 10_000, m)
        lhs, rhs = compose(compose(a, b), c), compose(a, compose(b, c))
        scale = 1.0 + np.abs(rhs.Y)
        ok &= float(np.max(np.abs(lhs.X - rhs.X))) < 1e-12
        ok &= float(np.max(np.abs(lhs.Y - rhs.Y) / scale)) < 1e-12
        ok &= float(np.max(np.abs(lhs.t - rhs.t))) < 1e-12
        inv = compose(inverse(a), a)
        scale_i = 1.0 + np.abs(a.Y) + np.abs(a.t)[..., None] * np.abs(a.X)
        ok &= float(np.max(np.abs(inv.X))) < 1e-12
        ok &= float(np.max(np.abs(inv.Y) / scale_i)) < 1e-12
        ok &= float(np.max(np.abs(inv.t))) < 1e-12
        e = identity(m)
        ident = compose(e, a)
        ok &= np.array_equal(ident.X, a.X) and np.array_equal(ident.t, a.t)
        for r in (0.37, 2.4):
            qn = quasi_norm(dilate(r, a))
            ok &= float(np.max(np.abs(qn - r * quasi_norm(a)) / np.maximum(r * quasi_norm(a), 1e-300))) < 1e-12
        tri = extension_metric(a, c) <= extension_metric(a, b) + extension_metric(b, c) + 1e-12
        ok &= bool(np.all(tri))
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report(1, ok, f"geometry group laws, homogeneity, metric triangle (10^4 cases, {elapsed:.2f}s)")


def test_criterion_02_operator_invariance():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    profiles = [affine_profile([1.3], -0.4, 1), y_plus_tx_profile(1),
                quadratic_profile(3.0, 1), trig_profile(1)]
    g0 = point(0.3, -0.7, 0.45)
    worst = 0.0
    pts = batch_points(rng, 1000, 1)
    for phi in profiles:
        moved = left_translate(phi, g0)
        target = compose(g0, pts)
        for p in (3.0, math.inf):
            mask = np.linalg.norm(phi.grad_x(target), axis=-1) > 1e-5
            mask &= np.linalg.norm(moved.grad_x(pts), axis=-1) > 1e-5
            sub = GroupPoint(pts.X[mask], pts.Y[mask], pts.t[mask])
            tgt = GroupPoint(target.X[mask], target.Y[mask], target.t[mask])
            worst = max(worst, float(np.max(np.abs(apply_Kp(moved, sub, p) - apply_Kp(phi, tgt, p)))))
        for r in (0.5, 2.0):
            scaled = dilate_profile(phi, r)
            tgt_all = dilate(r, pts)
            for p in (3.0, math.inf):
                mask = np.linalg.norm(phi.grad_x(tgt_all), axis=-1) > 1e-5
                sub = GroupPoint(pts.X[mask], pts.Y[mask], pts.t[mask])
                tgt = GroupPoint(tgt_all.X[mask], tgt_all.Y[mask], tgt_all.t[mask])
                worst = max(worst, float(np.max(np.abs(
                    apply_Kp(scaled, sub, p) - r**2 * apply_Kp(phi, tgt, p)))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 5.0
    report(2, ok, f"left invariance and degree-2 dilation homogeneity (worst {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_03_exact_solution_annihilation():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
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
                worst = max(worst, float(np.max(np.abs(apply_Kp(entry.profile, sub, p)))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    report(3, ok, f"catalog annihilation |L_p phi| <= 1e-9 (worst {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_04_mean_value_limits():
    start = time.perf_counter()
    g = point(0.7, 0.3, 0.5)
    ladder = [0.2, 0.1, 0.05]
    phi = x_squared_profile(1)
    ok = True
    detail = []
    ref = {}
    for p in (2.0, 3.0, math.inf):
        div = 2.0 if p == math.inf else 2.0 * (1 + p)
        oracle = float(apply_Kp(phi, g, p)) / div
        ref[p] = abs(oracle)
        for v in ("V1", "V2", "V3", "V4"):
            lim, _ = mv_limit_estimate(phi, g, p, v, ladder)
            rel = abs(lim - oracle) / abs(oracle)
            ok &= rel < 0.05
            detail.append(rel)
    for p in (2.0, 3.0, math.inf):
        for sol in (y_plus_tx_profile(1), quadratic_profile(p, 1)):
            for v in ("V1", "V2", "V3", "V4"):
                lim, _ = mv_limit_estimate(sol, g, p, v, ladder)
                ok &= abs(lim) <= 0.02 * ref[p]
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    report(4, ok, f"mean-value limits match the operator within 5% "
                  f"(worst rel {max(detail):.2e}, {elapsed:.1f}s)")


def test_criterion_05_dpp_affine_exactness():
    start = time.perf_counter()
    cfg = SolveConfig(domain=interval(-1, 1), T=0.5, p=3.0, epsilon=0.1,
                      y_seed_lo=[-0.5], y_seed_hi=[0.5])
    grid = solve(cfg, datum_y_plus_tx())
    err = _grid_error_vs_profile(grid, y_plus_tx_profile(1), interior_only=False)
    elapsed = time.perf_counter() - start
    bound = 10 * grid.h_x**2
    ok = err <= bound and elapsed < 60.0
    report(5, ok, f"affine fixed point: max node error {err:.2e} <= {bound:.3e} ({elapsed:.1f}s)")


def test_criterion_06_finite_step_convergence():
    cfg = SolveConfig(domain=interval(-1, 1), T=0.1, p=3.0, epsilon=0.4,
                      y_seed_lo=[-0.3], y_seed_hi=[0.3])
    F = datum_y_plus_tx()
    N, _ = time_ladder(cfg.T, cfg.epsilon)
    a = solve_iterative(cfg, F, init=0.0, sweeps=N)
    b = solve_iterative(cfg, F, init=1e6, sweeps=N)
    gap = float(np.max(np.abs(a.values - b.values)))
    ok = gap <= 1e-12
    report(6, ok, f"initialization independence after exactly {N} sweeps (gap {gap:.2e})")


def test_criterion_07_comparison_principle():
    rng = np.random.default_rng(707)
    cfg = SolveConfig(domain=interval(-1, 1), T=0.2, p=3.0, epsilon=0.3,
                      y_seed_lo=[-0.3], y_seed_hi=[0.3])
    ok = True
    worst = -np.inf
    for trial in range(5):
        a1, a2, a3 = rng.uniform(-1, 1, 3)
        s0, s1 = rng.uniform(0.0, 0.5, 2)

        def f_lo(X, Y, t, a1=a1, a2=a2, a3=a3):
            return a1 * X[..., 0] + a2 * Y[..., 0] + a3 * np.asarray(t)

        def f_hi(X, Y, t, f=f_lo, s0=s0, s1=s1):
            return f(X, Y, t) + s0 + s1 * (1 + np.cos(X[..., 0]))

        lo = solve(cfg, BoundaryDatum("lo", f_lo))
        hi = solve(cfg, BoundaryDatum("hi", f_hi))
        gap = float(np.min(hi.values - lo.values))
        worst = max(worst, -gap)
        ok &= gap >= -1e-12
    F = datum_y_plus_tx()
    base = solve(cfg, F)
    shifted = solve(cfg, BoundaryDatum("y_plus_tx+0.7", lambda X, Y, t: F.fn(X, Y, t) + 0.7))
    drift = float(np.max(np.abs(shifted.values - base.values - 0.7)))
    ok &= drift <= 1e-12
    report(7, ok, f"comparison principle on 5 random pairs (worst violation {max(worst,0):.2e}), "
                  f"constant shift drift {drift:.2e}")


def test_criterion_08_eps_convergence():
    start = time.perf_counter()
    p = 3.0
    phi = quadratic_profile(p, 1)
    F = BoundaryDatum("quadratic_p", phi.fn)  # |X|^2 + t
    errors = []
    for eps in (0.4, 0.2, 0.1):
        cfg = SolveConfig(domain=interval(-1, 1), T=0.5, p=p, epsilon=eps,
                          y_seed_lo=[-0.5], y_seed_hi=[0.5])
        grid = solve(cfg, F)
        xs = np.linspace(-0.5, 0.5, 21)
        XX, YY = np.meshgrid(xs, xs, indexing="ij")
        Xq, Yq = XX.ravel()[:, None], YY.ravel()[:, None]
        worst = 0.0
        for i, t in enumerate(grid.t_slices):
            if not 0.1 <= t <= 0.4:
                continue
            approx = grid.interpolate_slice(i, Xq, Yq)
            exact = phi.value(GroupPoint(Xq, Yq, np.full(len(Xq), float(t))))
            worst = max(worst, float(np.max(np.abs(approx - exact))))
        errors.append(worst)
    elapsed = time.perf_counter() - start
    ok = all(b < a for a, b in zip(errors, errors[1:])) and elapsed < 300.0
    report(8, ok, f"sup-norm error strictly decreasing along eps 0.4/0.2/0.1: "
                  f"{[f'{e:.4f}' for e in errors]} ({elapsed:.1f}s)")


def test_criterion_09_game_dpp_value_equality():
    start = time.perf_counter()
    F = datum_y_plus_tx()
    cfg = SolveConfig(domain=interval(-1, 1), T=0.5, p=3.0, epsilon=0.2,
                      y_seed_lo=[-0.5], y_seed_hi=[0.5])
    grid = solve(cfg, F)
    gc = GameConfig(domain=cfg.domain, T=cfg.T, p=cfg.p, epsilon=cfg.epsilon,
                    payoff=F, seed=909, episodes=100_000)
    s_one = greedy_from_grid(grid, "maximize")
    s_two = greedy_from_grid(grid, "minimize")
    h = max(grid.h_x, grid.h_y)
    ok = True
    details = []
    for start_pt in (([0.3], [0.1], 0.5), ([-0.4], [-0.2], 0.4), ([0.0], [0.3], 0.3)):
        mean, se = estimate_value(gc, start_pt, s_one, s_two)
        gv = float(grid.interpolate(np.array(start_pt[0]), np.array(start_pt[1]), start_pt[2]))
        diff = abs(mean - gv)
        tol = 3 * se + 10 * h * h
        ok &= diff <= tol
        details.append(f"{diff:.1e}<={tol:.1e}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    report(9, ok, f"game value equals grid value at 3 starts ({', '.join(details)}; {elapsed:.0f}s)")


def test_criterion_10_one_round_oracle():
    start = time.perf_counter()
    eps = 0.3
    F = BoundaryDatum("quadratic_p", quadratic_profile(3.0, 1).fn)  # |X|^2 + t
    gc = GameConfig(domain=interval(-1, 1), T=0.5, p=3.0, epsilon=eps,
                    payoff=F, seed=1010, episodes=1_000_000)
    s_one = pull_toward([0.8], eps)
    s_two = pull_toward([-0.5], eps)
    start_pt = ([0.2], [0.1], 0.04)   # eps^2/2 = 0.045: exactly one round
    mean, se = estimate_value(gc, start_pt, s_one, s_two)
    alpha, beta = gc.alpha_beta
    t1 = 0.04 - eps**2 / 2
    offs, w = BallQuadrature().points_weights(1)
    ball_avg = float(np.sum(w * ((0.2 + eps * offs[:, 0]) ** 2 + t1)))
    closed = alpha / 2 * ((0.5**2 + t1) + ((-0.1) ** 2 + t1)) + beta * ball_avg
    diff = abs(mean - closed)
    elapsed = time.perf_counter() - start
    ok = diff <= 3 * se
    report(10, ok, f"one-round MC mean {mean:.6f} vs quadrature {closed:.6f} "
                   f"(diff {diff:.2e} <= 3se {3*se:.2e}; {elapsed:.0f}s)")


def test_criterion_11_kernel_statistics():
    F = datum_y_plus_tx()
    ok = True
    details = []
    for p in (2.0, 3.0, 10.0, math.inf):
        gc = GameConfig(domain=interval(-1, 1), T=0.5, p=p, epsilon=0.1,
                        payoff=F, seed=1111)
        alpha, beta = gc.alpha_beta
        rng = episode_rng(1111, 0)
        n = 100_000
        counts = {"I": 0, "II": 0, "noise": 0}
        s = stay_strategy()
        st0 = GameState(0, np.array([0.0]), np.array([0.0]))
        for _ in range(n):
            _, _, actor = step(gc, st0, s, s, rng, 0.5, 10)
            counts[actor] += 1
        for key, prob in (("I", alpha / 2), ("II", alpha / 2), ("noise", beta)):
            sigma = math.sqrt(n * prob * (1 - prob))
            ok &= abs(counts[key] - n * prob) <= 4 * sigma + 1e-9
        details.append(f"p={p:g}")
    report(11, ok, f"kernel frequencies within 4 sigma over 1e5 steps ({', '.join(details)})")


def test_criterion_12_supermartingale_diagnostics():
    ok = True
    for p in (2.0, 3.0):
        F = datum_y_plus_tx()
        gc = GameConfig(domain=interval(-1, 1), T=0.5, p=p, epsilon=0.2,
                        payoff=F, seed=1212)
        eps = gc.epsilon

        def push_away(X, Y, k, t):
            n = np.linalg.norm(X)
            if n == 0:
                return X + eps
            return X + (eps / n) * X

        rep = supermartingale_diagnostic(gc, ([0.5], [0.0], 0.3), Z=[0.0],
                                         episodes=10_000,
                                         opponent=Strategy(push_away, "push"))
        ok &= rep.flags_x == []
    report(12, ok, "compensated pull-toward distance never increases in mean (p=2,3; 1e4 episodes)")


def test_criterion_13_mcshane_extension():
    rng = np.random.default_rng(1313)
    pts = [point(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0, 1))
           for _ in range(50)]
    vals = [float(np.clip(np.sin(g.X[0]) + g.Y[0], -1.2, 1.2)) for g in pts]
    L = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = float(extension_metric(pts[i], pts[j]))
            if d > 0:
                L = max(L, abs(vals[i] - vals[j]) / d)
    L *= 1.000001
    ext = mcshane_extend(list(zip(pts, vals)), L)
    exact = all(float(ext.at(g)) == v for g, v in zip(pts, vals))
    a = GroupPoint(rng.uniform(-2, 2, (10_000, 1)), rng.uniform(-2, 2, (10_000, 1)),
                   rng.uniform(-1, 2, 10_000))
    b = GroupPoint(rng.uniform(-2, 2, (10_000, 1)), rng.uniform(-2, 2, (10_000, 1)),
                   rng.uniform(-1, 2, 10_000))
    d = extension_metric(a, b)
    mask = d > 1e-9
    ratio = float(np.max(np.abs(ext(a.X, a.Y, a.t) - ext(b.X, b.Y, b.t))[mask] / d[mask]))
    ok = exact and ratio <= L * (1 + 1e-9)
    report(13, ok, f"extension exact at samples; fresh-pair constant {ratio:.6f} <= {L:.6f}")


def test_criterion_14_thread_determinism(tmp_path):
    from kplab.cli import main

    cfg_dir = tmp_path
    play_cfg = cfg_dir / "play.cfg"
    play_cfg.write_text(
        "[experiment]\ncommand = play\nseed = 4242\n"
        "[domain]\nm = 1\nshape = interval\nlo = -1\nhi = 1\n"
        "[boundary]\nname = y_plus_tx\n"
        "[play]\np = 3\nepsilon = 0.2\nt_horizon = 0.5\n"
        "starts = 0.2 0.0 0.4\nepisodes = 2000\n"
        "strategy_i = pull:0.9\nstrategy_ii = pull:-0.9\nlog_episodes = true\n")
    cv_cfg = cfg_dir / "cv.cfg"
    cv_cfg.write_text(
        "[experiment]\ncommand = cross-validate\nseed = 4242\n"
        "[domain]\nm = 1\nshape = interval\nlo = -1\nhi = 1\n"
        "[boundary]\nname = y_plus_tx\n"
        "[solve]\np = 3\nepsilon = 0.3\nt_horizon = 0.2\ny_seed = -0.3 0.3\n"
        "[play]\np = 3\nepsilon = 0.3\nt_horizon = 0.2\n"
        "starts = 0.2 0.0 0.155\nepisodes = 1500\n")
    outs_play, outs_cv = [], []
    for threads in (1, 4, 8):
        out = cfg_dir / f"play{threads}"
        assert main(["play", "--config", str(play_cfg), "--out", str(out),
                     "--threads", str(threads)]) == 0
        outs_play.append((out / "play.json").read_bytes()
                         + (out / "play_log.csv").read_bytes())
        out = cfg_dir / f"cv{threads}"
        assert main(["cross-validate", "--config", str(cv_cfg), "--out", str(out),
                     "--threads", str(threads)]) == 0
        outs_cv.append((out / "cross_validate.json").read_bytes())
    ok = outs_play[0] == outs_play[1] == outs_play[2]
    ok &= outs_cv[0] == outs_cv[1] == outs_cv[2]
    report(14, ok, "play and cross-validate outputs byte-identical for threads 1/4/8")
