"""The four workloads: config text made from the seed, and output checks.

Every check is computed here from closed forms or from kplab's written
outputs, never by calling kplab.  ``check`` returns one (name, ok, detail)
triple per operation: a slice, a start or a mean-value variant.
"""

from __future__ import annotations

import csv
import json
import math
import random
import struct

import numpy as np

DOMAIN_1D = """[domain]
m = 1
shape = interval
lo = -1
hi = 1
"""


def _alpha_beta(p, m):
    return (p - 2.0) / (m + p), (m + 2.0) / (m + p)


def _quadratic_c(p, m):
    """|X|^2 + c t solves the kinetic p-Laplace equation for this c."""
    return 2.0 * (m + p - 2.0) / (m + p)


# ---------------------------------------------------------------------------
# solve: DPP fixed point for |X|^2 + c t, grid.bin read back here


class Solve:
    name = "solve"
    p, eps, T = 3.0, 0.1, 0.2

    def __init__(self, seed):
        rng = random.Random(seed)
        # the seed region keeps its width; its centre moves on a 1/64 lattice
        self.y_shift = rng.randint(-16, 16) / 64.0
        self.y_seed = (-0.5 + self.y_shift, 0.5 + self.y_shift)

    def config(self):
        return f"""[experiment]
command = solve

{DOMAIN_1D}
[boundary]
name = quadratic_p

[solve]
p = {self.p!r}
epsilon = {self.eps!r}
t_horizon = {self.T!r}
y_seed = {self.y_seed[0]!r} {self.y_seed[1]!r}
write_binary = true
"""

    def check(self, out, spans):
        m, p, eps, T = 1, self.p, self.eps, self.T
        header, axes, values = read_grid_bin(out / "grid.bin")
        g_m, g_p, g_eps, h_x, h_y, n_slices, t_first = header
        ops = []
        step = eps * eps / 2
        n_rounds = math.ceil(T / step - 1e-9)
        shape_ok = (g_m == m and g_p == p and g_eps == eps and n_slices == n_rounds + 1
                    and -step < t_first <= 0 and h_x <= eps / 8 * (1 + 1e-12)
                    and h_y <= eps / 8 * (1 + 1e-12))
        (x0, hx, nx), (y0, hy, ny) = axes
        margin = (T + eps**2) * (1.0 + eps)   # drift margin with R = 1
        shape_ok = shape_ok and math.isclose(x0, -1 - eps) and math.isclose(x0 + hx * (nx - 1), 1 + eps)
        shape_ok = shape_ok and y0 <= self.y_seed[0] - margin + 1e-9 and \
            y0 + hy * (ny - 1) >= self.y_seed[1] + margin - 1e-9
        ops.append(("grid header and axes", shape_ok, f"{header} {axes}"))
        X = x0 + hx * np.arange(nx)
        interior = (X > -1) & (X < 1)
        c = _quadratic_c(p, m)
        alpha, beta = _alpha_beta(p, m)
        for k in range(n_slices):
            t = t_first + k * step
            exact = (X**2 + c * t)[:, None]
            err = np.abs(values[k] - exact)
            roundoff = 1e-12 * max(1.0, float(np.max(np.abs(exact))))
            if t <= 0:
                ok = float(err.max()) <= roundoff
                ops.append((f"slice t={t:.4f} initial slab", ok, f"err={err.max():.3g}"))
                continue
            # first order in eps: tug-of-war error in the strip |X| < eps over the
            # walk's expected visits there, plus the interpolation error of X^2
            tol = 2 * alpha * eps * math.sqrt(2 * t / math.pi) + beta * t * hx**2 / (2 * eps**2)
            e_int = float(err[interior].max())
            e_col = float(err[~interior].max())
            ok = e_int <= tol and e_col <= roundoff
            ops.append((f"slice t={t:.4f}", ok, f"interior {e_int:.3g} <= {tol:.3g}, collar {e_col:.3g}"))
        report = json.loads((out / "solve_report.json").read_text())
        ops.append(("report slices", report["slices"] == n_slices, f"{report['slices']} vs {n_slices}"))
        if spans is not None:
            calls = spans["spans"].get("solver.apply_dpp", {}).get("calls", 0)
            expect = sum(1 for k in range(report["slices"]) if T - k * report["epsilon"] ** 2 / 2 > 0)
            ops.append(("apply_dpp calls = slices with t > 0", calls == expect, f"{calls} vs {expect}"))
        return ops


def read_grid_bin(path):
    """Parse grid.bin by the layout table in the top-level README."""
    data = path.read_bytes()
    off = 0

    def take(fmt):
        nonlocal off
        vals = struct.unpack_from(fmt, data, off)
        off += struct.calcsize(fmt)
        return vals

    (m,) = take("<I")
    p, eps, h_x, h_y = take("<dddd")
    (n_slices,) = take("<I")
    (t_first,) = take("<d")
    axes = [take("<Idd") for _ in range(2 * m)]
    axes = [(origin, spacing, n) for n, origin, spacing in axes]
    shape = (n_slices,) + tuple(n for _, _, n in axes)
    values = np.frombuffer(data, dtype="<f8", offset=off)
    if values.size != math.prod(shape):
        raise ValueError(f"grid.bin holds {values.size} values, header says {shape}")
    p = math.inf if p == -1.0 else p
    return (m, p, eps, h_x, h_y, n_slices, t_first), axes, values.reshape(shape)


# ---------------------------------------------------------------------------
# cross-validate: greedy-max against greedy-min on the affine datum Y + t X


class CrossValidate:
    name = "cross-validate"
    eps = 0.2
    episodes = 3000
    starts = ((0.3, 0.1, 0.5), (-0.4, -0.2, 0.4), (0.0, 0.3, 0.3))

    def __init__(self, seed):
        self.cli_seed = random.Random(seed).randrange(2**32)

    def config(self):
        starts = "; ".join(" ".join(repr(v) for v in s) for s in self.starts)
        return f"""[experiment]
command = cross-validate
seed = {self.cli_seed}

{DOMAIN_1D}
[boundary]
name = y_plus_tx

[solve]
p = 3
epsilon = {self.eps!r}
t_horizon = 0.5
y_seed = -0.5 0.5

[play]
p = 3
epsilon = {self.eps!r}
t_horizon = 0.5
starts = {starts}
episodes = {self.episodes}
"""

    def check(self, out, spans):
        res = json.loads((out / "cross_validate.json").read_text())["results"]
        h = self.eps / 8
        ops = []
        for start, r in zip(self.starts, res):
            X0, Y0, t0 = start
            exact = Y0 + t0 * X0   # the greedy game is a martingale for Y + t X
            diff = abs(r["mc_mean"] - exact)
            tol = 4 * r["se"] + 10 * h * h
            ok = tuple(r["start"]) == start and diff <= tol
            ops.append((f"start {start}", ok, f"|{r['mc_mean']:.5f} - {exact:.5f}| <= {tol:.5f}"))
        if spans is not None:
            got = spans["spans"].get("game.run_episode", {}).get("calls", 0)
            expect = len(self.starts) * self.episodes
            ops.append(("traced episodes", got == expect, f"{got} vs {expect}"))
        return ops


# ---------------------------------------------------------------------------
# play: one round of pull against pull on |X|^2 + c t


class Play:
    name = "play"
    p, eps, t0 = 3.0, 0.3, 0.04
    z_one, z_two = 0.8, -0.5
    episodes = 40000

    def __init__(self, seed):
        rng = random.Random(seed)
        self.cli_seed = rng.randrange(2**32)
        self.starts = tuple((round(rng.uniform(-0.9, 0.9), 6), round(rng.uniform(-0.5, 0.5), 6), self.t0)
                            for _ in range(2))

    def config(self):
        starts = "; ".join(" ".join(repr(v) for v in s) for s in self.starts)
        return f"""[experiment]
command = play
seed = {self.cli_seed}

{DOMAIN_1D}
[boundary]
name = quadratic_p

[play]
p = {self.p!r}
epsilon = {self.eps!r}
t_horizon = 0.5
starts = {starts}
episodes = {self.episodes}
strategy_i = pull:{self.z_one!r}
strategy_ii = pull:{self.z_two!r}
"""

    def one_round_value(self, X0):
        """Exact expected payoff of one round from velocity X0 (m = 1)."""
        eps, p = self.eps, self.p
        alpha, beta = _alpha_beta(p, 1)
        c = _quadratic_c(p, 1)
        t1 = self.t0 - eps**2 / 2

        def pulled(Z):
            return X0 if abs(X0 - Z) <= eps else X0 - eps * math.copysign(1.0, X0 - Z)

        F = lambda X: X * X + c * t1
        return alpha / 2 * F(pulled(self.z_one)) + alpha / 2 * F(pulled(self.z_two)) \
            + beta * (X0 * X0 + eps**2 / 3 + c * t1)

    def check(self, out, spans):
        res = json.loads((out / "play.json").read_text())["results"]
        ops = []
        taus = 0
        for start, r in zip(self.starts, res):
            exact = self.one_round_value(start[0])
            diff = abs(r["mean"] - exact)
            hist = r["tau_histogram"]
            taus += sum(int(k) * v for k, v in hist.items())
            ok = (tuple(r["start"]) == start and hist == {"1": self.episodes}
                  and diff <= 4 * r["se"])
            ops.append((f"start {start}", ok, f"|{r['mean']:.6f} - {exact:.6f}| <= 4 se, tau {hist}"))
        if spans is not None:
            steps = spans["spans"].get("game.step", {}).get("calls", 0)
            ops.append(("traced steps = sum of tau", steps == taus, f"{steps} vs {taus}"))
        return ops


# ---------------------------------------------------------------------------
# mv-check: m = 2 box, x_squared, p = 3; the operator value is 0.4 everywhere


class MvCheck:
    name = "mv-check"
    p, m = 3.0, 2
    variants = ("V1", "V2", "V3", "V4")
    max_rel_error = 0.05

    def __init__(self, seed):
        rng = random.Random(seed)
        X = (round(rng.uniform(0.3, 0.9), 6), round(rng.uniform(-0.5, 0.5), 6))
        Y = (round(rng.uniform(-0.5, 0.5), 6), round(rng.uniform(-0.5, 0.5), 6))
        self.point = X + Y + (round(rng.uniform(0.3, 0.7), 6),)

    def config(self):
        point = " ".join(repr(v) for v in self.point)
        # [play] starts is not used by mv-check; config.validate checks the
        # default one-dimensional start against m = 2 and refuses the config
        # without it.
        return f"""[experiment]
command = mv-check

[domain]
m = 2
shape = box
lo = -1 -1
hi = 1 1

[mv]
profile = x_squared
p = {self.p!r}
variants = {' '.join(self.variants)}
epsilons = 0.2 0.1 0.05
point = {point}
max_rel_error = {self.max_rel_error!r}

[play]
starts = 0 0 0 0 0.1
"""

    def check(self, out, spans):
        # L_p(x1^2) = (p - 2) * 2 + 2, divided by 2 (m + p)
        exact = ((self.p - 2) * 2 + 2) / (2 * (self.m + self.p))
        with open(out / "mv_check.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        ops = []
        for v in self.variants:
            limits = sorted({float(r["extrapolated_limit"]) for r in rows if r["variant"] == v})
            ok = len(limits) == 1 and abs(limits[0] - exact) <= self.max_rel_error * exact
            ops.append((f"variant {v}", ok, f"limits {limits} vs {exact}"))
        return ops


WORKLOADS = {w.name: w for w in (Solve, CrossValidate, Play, MvCheck)}
