import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kplab
from kplab.domains import Ball, BoundaryDatum, Box, interval, mcshane_extend
from kplab.geometry import GroupPoint, point
from kplab.operators import affine_profile, coin_weights, constant_profile, y_plus_tx_profile
from kplab.solver import (SolveConfig, ValueGrid, time_ladder, build_grid, apply_dpp,
                          solve, solve_iterative, fixed_point_residual, compare,
                          write_grid_binary, read_grid_binary, write_grid_csv,
                          GridTooLarge, InterpolationRangeError)


def datum_y_plus_tx():
    return BoundaryDatum("y_plus_tx", y_plus_tx_profile(1).fn)


def datum_const(c):
    return BoundaryDatum("const", constant_profile(c, 1).fn)


def small_config(eps=0.3, T=0.2, p=3.0):
    return SolveConfig(domain=interval(-1, 1), T=T, p=p, epsilon=eps,
                       y_seed_lo=[-0.3], y_seed_hi=[0.3])


def test_time_ladder_exact_division():
    N, times = time_ladder(1.0, 0.2)
    assert N == 50
    assert times[0] == 1.0
    assert abs(times[-1]) < 1e-12


def test_time_ladder_ceiling():
    N, times = time_ladder(0.05, 0.2)
    assert N == 3
    assert times[-1] == pytest.approx(-0.01)
    assert -0.02 < times[-1] <= 0


def test_time_ladder_one_round():
    N, times = time_ladder(0.02, 0.2)
    assert N == 1
    assert times[-1] == pytest.approx(0.0, abs=1e-15)


@given(st.floats(1e-3, 2.0), st.floats(0.05, 0.5))
@settings(max_examples=200, deadline=None)
def test_time_ladder_properties(t, eps):
    step = eps * eps / 2
    N, times = time_ladder(t, eps)
    assert -step < times[-1] <= step * 1e-9 + 0.0 or times[-1] <= 0
    assert -step < times[-1] <= 0 + 1e-12
    assert len(times) == N + 1
    assert np.allclose(np.diff(times), -step, atol=1e-15)


def test_ladder_out_of_range():
    with pytest.raises(ValueError):
        time_ladder(-0.05, 0.2)


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(domain=interval(-1, 1), T=0.5, p=1.5, epsilon=0.1)
    with pytest.raises(ValueError):
        SolveConfig(domain=interval(-1, 1), T=0.5, p=3.0, epsilon=0.1, h_x=0.05)


def test_grid_geometry():
    grid = build_grid(small_config(), datum_const(1.0))
    assert np.allclose(np.diff(grid.t_slices), 0.3**2 / 2)
    assert grid.t_slices[-1] == pytest.approx(0.2)
    assert -0.3**2 / 2 < grid.t_slices[0] <= 0
    # x axis spans the eps-fattened domain
    assert grid.x_axes[0].origin == pytest.approx(-1.3)
    assert grid.x_axes[0].top == pytest.approx(1.3)
    assert grid.h_x <= 0.3 / 8 + 1e-12


def test_constant_datum_gives_constant_solution():
    grid = solve(small_config(), datum_const(2.5))
    assert np.max(np.abs(grid.values - 2.5)) < 1e-12


def test_apply_dpp_constant_slice():
    cfg = small_config()
    F = datum_const(0.7)
    grid = build_grid(cfg, F)
    out = apply_dpp(grid, 0, float(grid.t_slices[1]))
    assert np.max(np.abs(out - 0.7)) < 1e-12


def test_affine_fixed_point_small():
    grid = solve(small_config(eps=0.2, T=0.3), datum_y_plus_tx())
    Xn, Yn = grid.x_nodes(), grid.y_nodes()
    worst = 0.0
    for i, t in enumerate(grid.t_slices):
        exact = Yn[None, :, 0] + float(t) * Xn[:, None, 0]
        worst = max(worst, float(np.max(np.abs(grid.values[i] - exact))))
    assert worst < 1e-12


def test_velocity_linear_datum_is_fixed_point():
    # data a.X with no position or time dependence: the extremum pair cancels
    # the excursion and odd moments vanish, so the solution stays a.X
    F = BoundaryDatum("ax", affine_profile([1.7], 0.0, 1).fn)
    grid = solve(small_config(), F)
    Xn = grid.x_nodes()
    for i in range(len(grid.t_slices)):
        exact = 1.7 * Xn[:, None, 0]
        assert np.max(np.abs(grid.values[i] - exact)) < 1e-12


def test_collar_nodes_store_datum_bitwise():
    F = BoundaryDatum("wavy", lambda X, Y, t: np.sin(2 * X[..., 0]) * np.cos(Y[..., 0])
                      + 0.2 * np.asarray(t))
    grid = solve(small_config(), F)
    Xn, Yn = grid.x_nodes(), grid.y_nodes()
    collar = ~grid.interior_x_mask()
    for i, t in enumerate(grid.t_slices):
        flat = grid.values[i].reshape(len(Xn), len(Yn))
        Xb = np.repeat(Xn[collar], len(Yn), axis=0)
        Yb = np.tile(Yn, (int(np.count_nonzero(collar)), 1))
        expect = F(Xb, Yb, np.full(len(Xb), float(t))).reshape(-1, len(Yn))
        assert np.array_equal(flat[collar], expect)  # bitwise, not approximate
        if t <= 0:
            full = F(np.repeat(Xn, len(Yn), axis=0), np.tile(Yn, (len(Xn), 1)),
                     np.full(len(Xn) * len(Yn), float(t))).reshape(len(Xn), len(Yn))
            assert np.array_equal(flat, full)


def test_constant_shift_identity():
    cfg = small_config()
    base = solve(cfg, datum_y_plus_tx())
    yptx = y_plus_tx_profile(1).fn
    shifted = solve(cfg, BoundaryDatum("y_plus_tx+c", lambda X, Y, t: yptx(X, Y, t) + 0.7))
    assert np.max(np.abs(shifted.values - base.values - 0.7)) < 1e-12


def test_monotonicity_of_operator():
    cfg = small_config()
    lo = solve(cfg, datum_y_plus_tx())
    yptx = y_plus_tx_profile(1).fn
    hi = solve(cfg, BoundaryDatum(
        "y_plus_tx+bump", lambda X, Y, t: yptx(X, Y, t) + 0.1 * (1 + np.cos(X[..., 0]))))
    r = compare(hi, lo)
    assert r.dominates


def test_compare_reports_witness():
    cfg = small_config()
    a = solve(cfg, datum_const(0.0))
    b = solve(cfg, datum_const(1.0))
    r = compare(a, b)
    assert not r.dominates and r.witness is not None
    assert r.witness[2] == pytest.approx(-1.0)


def test_compare_geometry_mismatch():
    a = solve(small_config(), datum_const(0.0))
    b = solve(small_config(eps=0.2), datum_const(0.0))
    with pytest.raises(ValueError):
        compare(a, b)


def test_fixed_point_residual_structural():
    grid = solve(small_config(), datum_y_plus_tx())
    assert fixed_point_residual(grid) == 0.0


def test_fixed_point_residual_random_lipschitz(rng):
    F = BoundaryDatum("rand", lambda X, Y, t: 0.3 * X[..., 0] - 0.2 * Y[..., 0]
                      + 0.1 * np.asarray(t) + 0.05 * np.sin(3 * X[..., 0]))
    grid = solve(small_config(), F)
    assert fixed_point_residual(grid) <= 1e-12


def test_finite_step_initialization_independence():
    cfg = small_config(eps=0.4, T=0.1)
    F = datum_y_plus_tx()
    N, _ = time_ladder(cfg.T, cfg.epsilon)
    a = solve_iterative(cfg, F, init=0.0, sweeps=N)
    b = solve_iterative(cfg, F, init=1e6, sweeps=N)
    assert np.max(np.abs(a.values - b.values)) <= 1e-12
    marched = solve(cfg, F)
    assert np.max(np.abs(a.values - marched.values)) <= 1e-12


def test_insufficient_sweeps_leave_top_slice_unconverged():
    cfg = small_config(eps=0.4, T=0.1)
    F = datum_y_plus_tx()
    N, _ = time_ladder(cfg.T, cfg.epsilon)
    a = solve_iterative(cfg, F, init=0.0, sweeps=N - 1)
    b = solve_iterative(cfg, F, init=1e6, sweeps=N - 1)
    assert np.max(np.abs(a.values - b.values)) > 1.0


def test_bound_preservation():
    cfg = small_config()
    F = BoundaryDatum("wavy", lambda X, Y, t: np.sin(2 * X[..., 0]) * np.cos(Y[..., 0])
                      + 0.2 * np.asarray(t))
    grid = solve(cfg, F)
    # every slice value is a convex combination of datum evaluations, so the
    # exact global range of F over reachable times bounds the grid
    t_lo, t_hi = float(grid.t_slices[0]), cfg.T
    assert grid.values.min() >= -1.0 + 0.2 * t_lo - 1e-12
    assert grid.values.max() <= 1.0 + 0.2 * t_hi + 1e-12


def test_non_finite_slice_raises_with_witness():
    F = BoundaryDatum("nan-right", lambda X, Y, t: np.where(X[..., 0] > 0.5, np.nan, Y[..., 0]))
    for run in (build_grid, solve):
        with pytest.raises(ValueError, match=r"slice 0 .* holds nan at node X=\[0\.5"):
            run(small_config(), F)
    # finite on every node, NaN only past the top of the position box: the
    # margin-strip queries of the first update slice read it
    top = build_grid(small_config(), datum_const(0.0)).y_axes[0].top
    F = BoundaryDatum("nan-above", lambda X, Y, t: np.where(Y[..., 0] > top + 1e-9, np.nan, 0.0))
    build_grid(small_config(), F)
    with pytest.raises(ValueError, match=r"slice 1 "):
        solve(small_config(), F)


def test_interpolation_queries():
    grid = solve(small_config(), datum_y_plus_tx())
    t = float(grid.t_slices[-1])
    v = float(grid.interpolate(np.array([0.25]), np.array([0.1]), t))
    assert v == pytest.approx(0.1 + t * 0.25, abs=1e-12)
    with pytest.raises(InterpolationRangeError):
        grid.interpolate(np.array([0.25]), np.array([50.0]), t)
    with pytest.raises(ValueError):
        grid.interpolate(np.array([0.25]), np.array([0.1]), t - 0.33 * grid.epsilon**2)


def test_binary_round_trip(tmp_path):
    grid = solve(small_config(), datum_y_plus_tx())
    path = tmp_path / "grid.bin"
    write_grid_binary(grid, path)
    back = read_grid_binary(path)
    assert back.m == grid.m
    assert back.p == grid.p
    assert back.epsilon == grid.epsilon
    assert np.array_equal(back.values, grid.values)
    assert np.allclose(back.t_slices, grid.t_slices, atol=1e-15)
    assert back.x_axes == grid.x_axes and back.y_axes == grid.y_axes


def test_write_grid_binary_does_not_copy_grid(tmp_path):
    import tracemalloc

    grid = solve(small_config(), datum_y_plus_tx())
    tracemalloc.start()
    try:
        write_grid_binary(grid, tmp_path / "grid.bin")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < grid.values.nbytes / 2
    assert np.array_equal(read_grid_binary(tmp_path / "grid.bin").values, grid.values)


def test_binary_round_trip_inf_p(tmp_path):
    cfg = SolveConfig(domain=interval(-1, 1), T=0.1, p=math.inf, epsilon=0.4,
                      y_seed_lo=[-0.2], y_seed_hi=[0.2])
    grid = solve(cfg, datum_y_plus_tx())
    write_grid_binary(grid, tmp_path / "g.bin")
    back = read_grid_binary(tmp_path / "g.bin")
    assert back.p == math.inf


def test_csv_dump(tmp_path):
    grid = solve(small_config(eps=0.4, T=0.1), datum_const(1.0))
    write_grid_csv(grid, tmp_path / "grid.csv")
    lines = (tmp_path / "grid.csv").read_text().splitlines()
    n_nodes = len(grid.t_slices) * int(np.prod(grid.x_shape)) * int(np.prod(grid.y_shape))
    assert len(lines) == n_nodes + 1
    assert lines[0] == "x1,y1,t,value"
    assert lines[1].endswith("1.0")


def reference_apply_dpp(grid, source_index, t_target):
    """The operator computed afresh for every ball point, with a fancy-index
    corner gather: the arithmetic that the solver's plan reproduces bit for bit."""
    eps, m = grid.epsilon, grid.m
    alpha, beta = coin_weights(grid.p, m)
    t_src = t_target - eps**2 / 2
    Xn, Yn = grid.x_nodes(), grid.y_nodes()
    interior = grid.interior_x_mask()
    Xi = Xn[interior]
    ni, ny = len(Xi), len(Yn)
    axes = grid.x_axes + grid.y_axes
    y_lo = np.array([ax.origin for ax in grid.y_axes])
    y_hi = np.array([ax.top for ax in grid.y_axes])
    y_tol = 1e-12 * np.maximum(y_hi - y_lo, 1.0)

    def interp(Xq, Yq):
        idx0, fracs = [], []
        for ax, q in zip(axes, [Xq[..., d] for d in range(m)] + [Yq[..., d] for d in range(m)]):
            u = np.clip((q - ax.origin) / ax.spacing, 0.0, ax.n - 1)
            i0 = np.minimum(u.astype(np.int64), ax.n - 2)
            idx0.append(i0)
            fracs.append(u - i0)
        k = len(axes)
        corners = [grid.values[source_index][tuple(idx0[a] + ((c >> a) & 1) for a in range(k))]
                   for c in range(1 << k)]
        for a in range(k - 1, -1, -1):
            corners = [lo + fracs[a] * (hi - lo) for lo, hi in zip(corners[:1 << a], corners[1 << a:])]
        return corners[0]

    mx = np.full((ni, ny), -np.inf)
    mn = np.full((ni, ny), np.inf)
    acc = np.zeros((ni, ny))
    for off, w in zip(grid.ball_offsets, grid.ball_weights):
        Xs = Xi + eps * off
        Yq = Yn[None, :, :] + (eps**2 / 2) * Xs[:, None, :]
        Xq = np.broadcast_to(Xs[:, None, :], (ni, ny, m))
        if t_src <= 0:
            vals = grid.boundary(Xq, Yq, np.full((ni, ny), t_src))
        else:
            vals = interp(Xq, Yq)
            datum = grid.domain.signed_distance(Xs)[:, None] >= 0
            datum = datum | np.any((Yq < y_lo - y_tol) | (Yq > y_hi + y_tol), axis=-1)
            if np.any(datum):
                vals[datum] = grid.boundary(Xq[datum], Yq[datum],
                                            np.full(int(np.count_nonzero(datum)), t_src))
        np.maximum(mx, vals, out=mx)
        np.minimum(mn, vals, out=mn)
        if w != 0.0:
            acc += w * vals
    out = grid.boundary(np.repeat(Xn, ny, axis=0), np.tile(Yn, (len(Xn), 1)),
                        np.full(len(Xn) * ny, t_target)).reshape(len(Xn), ny)
    out[interior] = alpha / 2 * (mx + mn) + beta * acc
    return out.reshape(grid.values.shape[1:])


def wavy_m1(X, Y, t):
    return np.sin(3 * Y[..., 0]) + np.cos(2 * X[..., 0]) * t + X[..., 0] ** 2


def wavy_m2(X, Y, t):
    return np.sin(2 * Y[..., 0]) + X[..., 0] ** 2 - X[..., 1] * Y[..., 1] + t


def lipschitz_table_m1():
    rng = np.random.default_rng(5)
    return mcshane_extend([(point([x], [y], t), float(np.sin(x + y) + t))
                           for x, y, t in rng.uniform(-1, 1, (30, 3))], 20.0)


@pytest.mark.parametrize("domain, p, eps, T, h_y, seed, datum", [
    (interval(-1, 1), 3.0, 0.2, 0.3, None, [-0.3, 0.3], wavy_m1),
    (interval(-0.5, 1), math.inf, 0.25, 0.4, None, [0.0, 0.2], wavy_m1),
    (interval(-1, 1), 4.0, 0.3, 0.3, None, [-0.3, 0.3], "table"),
    (Ball([0.0, 0.1], 0.5), 4.0, 0.8, 0.64, 0.6, [-0.2, -0.3, 0.3, 0.2], wavy_m2),
], ids=["m1-box-p3", "m1-shifted-inf", "m1-table-p4", "m2-ball-p4"])
def test_planned_operator_matches_reference_bitwise(domain, p, eps, T, h_y, seed, datum):
    m = domain.m
    F = lipschitz_table_m1() if datum == "table" else BoundaryDatum("wavy", datum)
    cfg = SolveConfig(domain=domain, T=T, p=p, epsilon=eps, h_y=h_y,
                      y_seed_lo=seed[:m], y_seed_hi=seed[m:])
    grid = solve(cfg, F)
    for i in range(1, len(grid.t_slices)):
        t = float(grid.t_slices[i])
        if t > 0:
            assert np.array_equal(grid.values[i], reference_apply_dpp(grid, i - 1, t))
    assert np.array_equal(apply_dpp(grid, len(grid.t_slices) - 2, t), grid.values[-1])


# SHA-256 of values.tobytes() for m=2 solves of three rounds, the last two of
# which interpolate the slice below; recorded before the solver planned its
# gathers, so any change of a single bit shows here.
M2_PINNED = {
    "box-p3": (Box([-0.5, -0.5], [0.5, 0.5]), 3.0,
               "055b38a805090914b2d26cef462d5680e882f2c703fd3be9403ead394f69ba5b"),
    "ball-pinf": (Ball([0.1, 0.0], 0.5), math.inf,
                  "3d6fc9e5f9c45c5bc2ebf76a89c098cf5bfd7128356a466839163f4b2b501637"),
}


@pytest.mark.parametrize("case", sorted(M2_PINNED))
def test_m2_interpolated_rounds_pinned(case):
    domain, p, digest = M2_PINNED[case]
    cfg = SolveConfig(domain=domain, T=0.96, p=p, epsilon=0.8, h_y=0.8,
                      y_seed_lo=[-0.4, -0.4], y_seed_hi=[0.4, 0.4])
    grid = solve(cfg, BoundaryDatum("wavy", wavy_m2))
    assert grid.values.shape == (4, 27, 27, 10, 10)
    assert list(grid.t_slices[2:] - grid.epsilon**2 / 2 > 0) == [True, True]
    assert hashlib.sha256(grid.values.tobytes()).hexdigest() == digest


FAULTS_SCRIPT = """
import resource, sys
from kplab.domains import BoundaryDatum, interval
from kplab.operators import quadratic_profile
from kplab.solver import SolveConfig, solve
cfg = SolveConfig(domain=interval(-1, 1), T=float(sys.argv[1]), p=3.0, epsilon=0.1,
                  y_seed_lo=[-0.5], y_seed_hi=[0.5])
F = BoundaryDatum("quadratic_p", quadratic_profile(3.0, 1).fn)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
grid = solve(cfg, F)
print(len(grid.t_slices), resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_solve_page_faults_per_extra_slice():
    # the planned operator reuses its buffers, so a longer march faults in
    # little more than its extra slices; fresh temporaries per ball point
    # cost about 20,000 faults per slice
    src = str(Path(kplab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    runs = []
    for T in (0.1, 0.2):
        res = subprocess.run([sys.executable, "-c", FAULTS_SCRIPT, repr(T)], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        runs.append([int(v) for v in res.stdout.split()])
    (n_short, f_short), (n_long, f_long) = runs
    assert n_long - n_short == 20
    assert (f_long - f_short) / (n_long - n_short) < 2000, runs


def test_build_grid_refuses_grid_beyond_memory():
    # 177^2 x nodes, 285^2 y nodes and 101 slices: 1.9 TiB of values alone,
    # known from the axes before anything of that size is allocated
    cfg = SolveConfig(domain=Box([-1, -1], [1, 1]), T=0.5, p=3.0, epsilon=0.1)
    with pytest.raises(GridTooLarge, match=r"31329 x nodes .* 81225 y nodes .* 101 slices needs \d+ bytes"):
        build_grid(cfg, BoundaryDatum("y_plus_tx", y_plus_tx_profile(2).fn))


def interpolation_batch(grid, seed):
    """Query rows (X, Y) over the grid's box: random points, and for each axis
    its nodes, both ends and a point inside the 1e-9-cell range tolerance
    beyond either end (the other coordinates random)."""
    rng = np.random.default_rng(seed)
    axes = grid.x_axes + grid.y_axes
    lo, hi = [ax.origin for ax in axes], [ax.top for ax in axes]
    bands = [0.5e-9 * max(ax.n - 1, 1) * ax.spacing for ax in axes]
    rows = [rng.uniform(lo, hi, (200, len(axes))),
            np.array([[a - b for a, b in zip(lo, bands)], [a + b for a, b in zip(hi, bands)]])]
    for a, (ax, band) in enumerate(zip(axes, bands)):
        special = np.concatenate([[ax.origin - band, ax.origin, ax.top, ax.top + band], ax.nodes()])
        R = rng.uniform(lo, hi, (len(special), len(axes)))
        R[:, a] = special
        rows.append(R)
    Q = np.concatenate(rows)
    return Q[:, :grid.m], Q[:, grid.m:]


# SHA-256 of interpolate_slice over every slice of the batch above and one
# broadcast (X column by Y row) query, recorded before interpolate_slice and
# the greedy strategies shared one reader of grid slices.
INTERPOLATE_PINNED = {
    1: "0c03d63264a9e10d2d7a8e1c3aa9a7e66dc858e120becba5111a554429a05722",
    2: "bf55647c31463a1c5caee9513b801497517aa9226e5d9aa622abaaac780103b7",
}


@pytest.mark.parametrize("m", sorted(INTERPOLATE_PINNED))
def test_interpolate_slice_pinned(m):
    if m == 1:
        grid = solve(small_config(), BoundaryDatum("wavy", wavy_m1))
    else:
        grid = build_grid(SolveConfig(domain=Box([-0.5, -0.5], [0.5, 0.5]), T=0.96, p=3.0,
                                      epsilon=0.8, h_y=0.8, y_seed_lo=[-0.4, -0.4],
                                      y_seed_hi=[0.4, 0.4]), BoundaryDatum("wavy", wavy_m2))
    X, Y = interpolation_batch(grid, 11 + m)
    digest = hashlib.sha256()
    for i in range(len(grid.t_slices)):
        digest.update(grid.interpolate_slice(i, X, Y).tobytes())
    wide = grid.interpolate_slice(len(grid.t_slices) - 1, X[:, None, :], Y[None, :30, :])
    assert wide.shape == (len(X), 30)
    digest.update(wide.tobytes())
    assert digest.hexdigest() == INTERPOLATE_PINNED[m]
    # past the tolerance the first offending axis and its first value are named
    axes = grid.x_axes + grid.y_axes
    for a, ax in enumerate(axes):
        Q = np.concatenate([X, Y], axis=1)
        far = 2e-9 * max(ax.n - 1, 1) * ax.spacing
        Q[7, a], Q[3, a] = ax.origin - far, ax.top + far
        Q[0, a + 1:] = [b.top + 1.0 for b in axes[a + 1:]]
        with pytest.raises(InterpolationRangeError) as err:
            grid.interpolate_slice(0, Q[:, :m], Q[:, m:])
        assert err.value.offending == (a, ax.top + far)
