import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kplab.domains import BoundaryDatum, interval
from kplab.geometry import GroupPoint
from kplab.operators import affine_profile, constant_profile, y_plus_tx_profile
from kplab.solver import (SolveConfig, ValueGrid, time_ladder, build_grid, apply_dpp,
                          solve, solve_iterative, fixed_point_residual, compare,
                          write_grid_binary, read_grid_binary, write_grid_csv,
                          InterpolationRangeError)


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
