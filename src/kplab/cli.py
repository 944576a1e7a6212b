"""Experiment runner: mean-value checks, DPP solves, Monte Carlo, sweeps,
solver-vs-game cross-validation.

Every run is driven by a config file (see kplab.config); outputs are CSV and
JSON written under the output directory.  Exit codes: 0 on success, 1 when a
threshold declared in the config is violated, 2 on config or I/O errors.
Results are byte-identical for a fixed seed; --threads is accepted and
changes nothing.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .config import ConfigError, ExperimentConfig, checked
from .domains import BoundaryDatum, mcshane_extend
from .dpp import node_lattice
from .game import (GameConfig, Strategy, estimate_value, greedy_from_grid,
                   pull_toward, run_episode, episode_rng, stay_strategy)
from .geometry import point
from .meanvalue import BallQuadrature, mv_limit_estimate, variant_from
from .operators import apply_Kp, is_inf, profile_by_name
from .solver import GridTooLarge, SolveConfig, solve, write_grid_binary, write_grid_csv


NAMED_BOUNDARIES = ("const", "linear", "y_plus_tx", "quadratic_p")
GREEDY_MODES = {"greedy-max": "maximize", "greedy-min": "minimize"}


def boundary_profile(cfg: ExperimentConfig, p):
    """The exact-solution profile a named boundary datum is; None for custom tables."""
    b = cfg["boundary"]
    if b["name"] not in NAMED_BOUNDARIES:
        return None
    return checked(profile_by_name, b["name"], cfg["domain"]["m"], p=p, c=b["c"], a=b["a"], b=b["b"])


def build_boundary(cfg: ExperimentConfig, p) -> BoundaryDatum:
    """Named data are catalog profiles; custom tables go through the Lipschitz extension."""
    b = cfg["boundary"]
    m = cfg["domain"]["m"]
    phi = boundary_profile(cfg, p)
    if phi is not None:
        return BoundaryDatum(b["name"], phi.fn)
    if b["name"] == "custom-table":
        if not b["table"]:
            raise ConfigError("custom-table boundary requires boundary.table = <csv path>")
        if b["lipschitz"] is None:
            raise ConfigError("custom-table boundary requires boundary.lipschitz")
        samples = []
        with open(b["table"]) as f:
            for row in csv.DictReader(f):
                X = [float(row[f"x{d + 1}"]) for d in range(m)]
                Y = [float(row[f"y{d + 1}"]) for d in range(m)]
                samples.append((point(X, Y, float(row["t"])), float(row["value"])))
        return mcshane_extend(samples, b["lipschitz"])
    raise ConfigError(f"unknown boundary name {b['name']!r}")


def _strategy(spec: str, eps: float, grid=None) -> Strategy:
    if spec == "stay":
        return stay_strategy()
    if spec.startswith("pull:"):
        Z = [float(x) for x in spec[len("pull:"):].split()]
        return pull_toward(Z, eps)
    if spec in GREEDY_MODES:
        if grid is None:
            raise ConfigError("greedy strategies need a solved grid (use cross-validate)")
        return greedy_from_grid(grid, GREEDY_MODES[spec])
    raise ConfigError(f"unknown strategy {spec!r}")


def _write_json(path: Path, obj):
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def run_mv_check(cfg: ExperimentConfig, out: Path) -> int:
    mv = cfg["mv"]
    m = cfg["domain"]["m"]
    p = mv["p"]
    phi = profile_by_name(mv["profile"], m, p=p)
    coords = mv["point"]
    g = point(coords[:m], coords[m:2 * m], coords[2 * m])
    quad = BallQuadrature(n_radial=mv["n_radial"], n_angular=mv["n_angular"],
                          mode=mv["quad_mode"], seed=mv["quad_seed"])
    ladder = mv["epsilons"]
    oracle_div = 2.0 if is_inf(p) else 2.0 * (m + p)
    try:
        oracle = float(apply_Kp(phi, g, p)) / oracle_div
    except Exception:
        oracle = math.nan
    rows = []
    failed = False
    for vname in mv["variants"]:
        variant = checked(variant_from, vname)
        limit, diag = checked(mv_limit_estimate, phi, g, p, variant, ladder, quad)
        rel = abs(limit - oracle) / abs(oracle) if abs(oracle) > 1e-9 else math.nan
        if mv["max_rel_error"] is not None and not math.isnan(rel) and rel > mv["max_rel_error"]:
            failed = True
        for eps, res, sc in zip(ladder, diag["residuals"], diag["residual_over_eps2"]):
            rows.append({
                "variant": variant.value, "p": "inf" if is_inf(p) else repr(p),
                "point": " ".join(repr(c) for c in coords), "epsilon": repr(eps),
                "residual": repr(res), "residual_over_eps2": repr(sc),
                "extrapolated_limit": repr(limit), "oracle_value": repr(oracle),
                "rel_error": repr(rel), **{k: repr(diag[k]) for k in ("observed_order", "noise_flagged")},
            })
    out.mkdir(parents=True, exist_ok=True)
    path = out / "mv_check.csv"
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
        w.writeheader()
        w.writerows(rows)
    print(f"mv-check: profile={phi.name} p={mv['p']} variants={len(mv['variants'])} -> {path}"
          f" ({'THRESHOLD VIOLATED' if failed else 'ok'})")
    return 1 if failed else 0


def _solve_from_config(cfg: ExperimentConfig, eps=None, h=None):
    sv = cfg["solve"]
    domain = cfgmod.build_domain(cfg)
    eps = sv["epsilon"] if eps is None else eps
    y_seed = sv["y_seed"]
    lo, hi = (None, None) if y_seed is None else (y_seed[:domain.m], y_seed[domain.m:])
    sc = checked(
        SolveConfig, domain=domain, T=sv["t_horizon"], p=sv["p"], epsilon=eps,
        h_x=h if h is not None else sv["h_x"], h_y=h if h is not None else sv["h_y"],
        y_seed_lo=lo, y_seed_hi=hi,
    )
    F = build_boundary(cfg, sv["p"])
    try:
        return solve(sc, F), sc
    except GridTooLarge as e:
        raise ConfigError(str(e)) from e


def _grid_error_vs_profile(grid, phi, interior_only=True):
    Xb, Yb = node_lattice(grid)
    mask = grid.interior_x_mask()
    worst = 0.0
    for i, t in enumerate(grid.t_slices):
        if t <= 0:
            continue
        flat = grid.values[i].reshape(len(mask), -1)
        exact = np.asarray(phi.fn(Xb, Yb, np.full(len(Xb), float(t))), float).reshape(flat.shape)
        diff = np.abs(flat - exact)
        if interior_only:
            diff = diff[mask]
        worst = max(worst, float(np.max(diff)))
    return worst


def run_solve(cfg: ExperimentConfig, out: Path) -> int:
    grid, sc = _solve_from_config(cfg)
    out.mkdir(parents=True, exist_ok=True)
    report = {
        "m": grid.m, "p": "inf" if is_inf(grid.p) else grid.p, "epsilon": grid.epsilon,
        "h_x": grid.h_x, "h_y": grid.h_y, "slices": len(grid.t_slices),
        "x_nodes": int(np.prod(grid.x_shape)), "y_nodes": int(np.prod(grid.y_shape)),
        "boundary": cfg["boundary"]["name"],
    }
    if cfg["solve"]["write_binary"]:
        write_grid_binary(grid, out / "grid.bin")
        report["grid_binary"] = "grid.bin"
    if cfg["solve"]["write_csv"]:
        write_grid_csv(grid, out / "grid.csv")
        report["grid_csv"] = "grid.csv"
    failed = False
    phi = boundary_profile(cfg, sc.p)
    if phi is not None:
        err = _grid_error_vs_profile(grid, phi)
        report["max_node_error_vs_exact"] = err
        if cfg["solve"]["max_error"] is not None and err > cfg["solve"]["max_error"]:
            failed = True
    _write_json(out / "solve_report.json", report)
    print(f"solve: eps={grid.epsilon} slices={len(grid.t_slices)} "
          f"error={report.get('max_node_error_vs_exact', 'n/a')} "
          f"({'THRESHOLD VIOLATED' if failed else 'ok'})")
    return 1 if failed else 0


def run_play(cfg: ExperimentConfig, out: Path) -> int:
    pl = cfg["play"]
    domain = cfgmod.build_domain(cfg)
    m = domain.m
    F = build_boundary(cfg, pl["p"])
    gc = checked(GameConfig, domain=domain, T=pl["t_horizon"], p=pl["p"], epsilon=pl["epsilon"],
                 payoff=F, seed=cfg.seed, episodes=pl["episodes"])
    s_one = _strategy(pl["strategy_i"], pl["epsilon"])
    s_two = _strategy(pl["strategy_ii"], pl["epsilon"])
    out.mkdir(parents=True, exist_ok=True)
    results = []
    for start in pl["starts"]:
        X0, Y0, t0 = start[:m], start[m:2 * m], start[2 * m]
        mean, se, taus = checked(estimate_value, gc, (X0, Y0, t0), s_one, s_two, collect_tau=True)
        hist = {str(k): int(c) for k, c in zip(*np.unique(taus, return_counts=True))}
        results.append({"start": list(start), "mean": mean, "se": se,
                        "n": pl["episodes"], "tau_histogram": hist})
    _write_json(out / "play.json", {"results": results, "seed": cfg.seed,
                                    "p": "inf" if is_inf(pl["p"]) else pl["p"],
                                    "epsilon": pl["epsilon"]})
    if pl["log_episodes"]:
        with open(out / "play_log.csv", "w", newline="") as f:
            cols = ["episode", "k"] + [f"x{d+1}" for d in range(m)] + [f"y{d+1}" for d in range(m)] + ["t", "coin", "actor"]
            f.write(",".join(cols) + "\n")
            start = pl["starts"][0]
            for i in range(min(pl["episodes"], 200)):
                res = run_episode(gc, (start[:m], start[m:2 * m], start[2 * m]),
                                  s_one, s_two, episode_rng(gc.seed, i), log_steps=True)
                for (k, X, Y, t, coin, actor) in res.log:
                    parts = [repr(i), repr(k)] + [repr(v) for v in X] + [repr(v) for v in Y]
                    parts += [repr(t), repr(coin), actor]
                    f.write(",".join(parts) + "\n")
    print(f"play: {len(pl['starts'])} start(s) x {pl['episodes']} episodes -> {out / 'play.json'}")
    return 0


def run_sweep(cfg: ExperimentConfig, out: Path) -> int:
    sw = cfg["sweep"]
    m = cfg["domain"]["m"]
    phi = boundary_profile(cfg, cfg["solve"]["p"])
    if phi is None:
        raise ConfigError("sweep requires a boundary datum with an exact-solution counterpart")
    if m != 1:
        raise ConfigError("sweep error evaluation is implemented for m = 1")
    comp = sw["compact"]
    n_eval = sw["n_eval"]
    rows = []
    errors = []
    for eps in sw["epsilons"]:
        grid, _ = _solve_from_config(cfg, eps=eps, h=eps / sw["h_ratio"])
        xs = np.linspace(comp[0], comp[1], n_eval)
        ys = np.linspace(comp[2], comp[3], n_eval)
        tlo, thi = comp[4], comp[5]
        XX, YY = np.meshgrid(xs, ys, indexing="ij")
        Xq = XX.ravel()[:, None]
        Yq = YY.ravel()[:, None]
        worst = 0.0
        for i, t in enumerate(grid.t_slices):
            if not (tlo <= t <= thi):
                continue
            approx = grid.interpolate_slice(i, Xq, Yq)
            exact = np.asarray(phi.fn(Xq, Yq, np.full(len(Xq), float(t))), float)
            worst = max(worst, float(np.max(np.abs(approx - exact))))
        errors.append(worst)
        rows.append({"epsilon": repr(eps), "h": repr(grid.h_x), "sup_error": repr(worst)})
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sweep.csv", "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=["epsilon", "h", "sup_error"])
        w.writeheader()
        w.writerows(rows)
    monotone = all(b < a for a, b in zip(errors, errors[1:]))
    failed = sw["require_monotone"] and not monotone
    print(f"sweep: errors={errors} monotone={monotone} ({'THRESHOLD VIOLATED' if failed else 'ok'})")
    return 1 if failed else 0


def run_cross_validate(cfg: ExperimentConfig, out: Path) -> int:
    pl = cfg["play"]
    grid, sc = _solve_from_config(cfg)
    m = grid.m
    F = grid.boundary
    gc = checked(GameConfig, domain=sc.domain, T=sc.T, p=sc.p, epsilon=sc.epsilon,
                 payoff=F, seed=cfg.seed, episodes=pl["episodes"])
    s_one = greedy_from_grid(grid, "maximize")
    s_two = greedy_from_grid(grid, "minimize")
    h = max(grid.h_x, grid.h_y)
    tol_grid = cfg["cross-validate"]["tolerance_grid_factor"] * h * h
    results = []
    failed = False
    for start in pl["starts"]:
        X0, Y0, t0 = np.asarray(start[:m]), np.asarray(start[m:2 * m]), start[2 * m]
        gv = float(grid.interpolate(X0, Y0, t0))
        mean, se = checked(estimate_value, gc, (X0, Y0, t0), s_one, s_two)
        diff = abs(mean - gv)
        tol = 3 * se + tol_grid
        ok = bool(diff <= tol)
        failed = failed or not ok
        results.append({"start": list(start), "grid_value": gv, "mc_mean": mean,
                        "se": se, "abs_diff": diff, "tolerance": tol, "pass": ok})
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "cross_validate.json", {
        "results": results, "seed": cfg.seed, "epsilon": sc.epsilon,
        "p": "inf" if is_inf(sc.p) else sc.p, "episodes": pl["episodes"], "h": h,
    })
    print(f"cross-validate: {len(results)} start(s), "
          f"{sum(r['pass'] for r in results)} within tolerance "
          f"({'THRESHOLD VIOLATED' if failed else 'ok'})")
    return 1 if failed else 0


def run(cfg: ExperimentConfig, out_dir=None, seed=None) -> int:
    """Dispatch one experiment; returns the process exit code."""
    if seed is not None:
        cfg.sections["experiment"]["seed"] = seed
    if out_dir is not None:
        cfg.sections["experiment"]["out"] = str(out_dir)
    cfgmod.validate(cfg)
    out = Path(cfg.sections["experiment"]["out"])
    cmd = cfg.command
    if cmd == "mv-check":
        return run_mv_check(cfg, out)
    if cmd == "solve":
        return run_solve(cfg, out)
    if cmd == "play":
        return run_play(cfg, out)
    if cmd == "sweep":
        return run_sweep(cfg, out)
    if cmd == "cross-validate":
        return run_cross_validate(cfg, out)
    raise ConfigError(f"config declares no runnable command (got {cmd!r})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="kplab", description=__doc__)
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name in cfgmod.COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--threads", type=int, default=None,
                        help="accepted for compatibility; runs are single-threaded")
    args = ap.parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        cfg = cfgmod.parse(text)
        declared = cfg.sections["experiment"]["command"]
        if declared and declared != args.subcommand:
            raise ConfigError(
                f"config declares command {declared!r} but subcommand is {args.subcommand!r}")
        cfg.sections["experiment"]["command"] = args.subcommand
        return run(cfg, out_dir=args.out, seed=args.seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
