"""Two-player tug-of-war with noise on the velocity coordinate.

Each round a biased coin decides who moves: with probability alpha/2 player I
picks the next velocity inside the closed step ball, with alpha/2 player II
does, and with probability beta the velocity jumps uniformly inside the open
ball.  The position then drifts by eps^2/2 times the new velocity and the
clock steps eps^2/2 backwards.  The game stops when the velocity enters the
lateral collar or after N rounds, and pays the boundary datum at the final
state.  Expected payoffs estimated here cross-validate the DPP solver.

Episodes draw from counter-based streams keyed by (seed, episode index), so
results are reproducible independently of scheduling, and payoff aggregation
uses exact summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .domains import BoundaryDatum, Box, SpatialDomain
from .operators import coin_weights, is_inf
from .solver import InterpolationRangeError, ValueGrid, rounds


@dataclass
class GameState:
    k: int
    X: np.ndarray
    Y: np.ndarray
    done: bool = False


@dataclass
class Strategy:
    """Measurable rule mapping (X, Y, round index, clock time) to a target velocity.

    The engine projects returned targets onto the closed ball of radius eps
    around the current velocity, so the step constraint holds exactly.
    """

    chooser: Callable[[np.ndarray, np.ndarray, int, float], np.ndarray]
    descriptor: str = ""

    def __call__(self, X, Y, k, t):
        return np.array(self.chooser(X, Y, k, t), dtype=float, copy=None, ndmin=1)


@dataclass
class GameConfig:
    domain: SpatialDomain
    T: float
    p: float
    epsilon: float
    payoff: BoundaryDatum
    seed: int = 0
    episodes: int = 1000

    def __post_init__(self):
        if not (is_inf(self.p) or self.p >= 2):
            raise ValueError(f"game requires p >= 2, got {self.p}")
        if not (self.epsilon > 0 and self.T > 0):
            raise ValueError("epsilon and T must be positive")
        # read on every step
        self.alpha = self.alpha_beta[0]
        self.is_terminal = _terminal_predicate(self.domain)

    @property
    def alpha_beta(self):
        return coin_weights(self.p, self.domain.m)


def _episode_key(seed: int, episode: int) -> np.ndarray:
    """Philox key of the stream of episode ``episode`` under ``seed``."""
    return np.array([seed & 0xFFFFFFFFFFFFFFFF, episode], dtype=np.uint64)


def episode_rng(seed: int, episode: int) -> np.random.Generator:
    """Independent per-episode stream from a counter-based generator."""
    return np.random.Generator(np.random.Philox(key=_episode_key(seed, episode)))


def _rekey(rng: np.random.Generator, seed: int, episode: int) -> np.random.Generator:
    """Re-key rng in place to the start of episode_rng(seed, episode)'s stream.

    Sets the whole Philox state a fresh key leaves (counter 0, empty buffer,
    no cached half word) for a fraction of the cost of building a generator.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox", "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        "state": {"counter": (0, 0, 0, 0), "key": _episode_key(seed, episode)},
        "buffer": (0, 0, 0, 0)}
    return rng


def _uniform_ball(rng: np.random.Generator, m: int) -> np.ndarray:
    """Uniform point of the open unit ball: a normal direction and radius u^(1/m)."""
    v = rng.standard_normal(m)
    n = np.linalg.norm(v)
    while n == 0.0:
        v = rng.standard_normal(m)
        n = np.linalg.norm(v)
    r = rng.random() ** (1.0 / m)
    return r * v / n


def _project_step(X: np.ndarray, target: np.ndarray, eps: float) -> np.ndarray:
    d = target - X
    n2 = float(d @ d)
    if n2 <= eps * eps:
        return target
    return X + (eps / math.sqrt(n2)) * d


def _terminal_predicate(domain: SpatialDomain):
    """The stopping condition sdf(X) >= 0, domain.collar for one state.

    An m=1 box keeps a scalar lambda: this runs on every round.
    """
    if isinstance(domain, Box) and domain.m == 1:
        lo0, hi0 = float(domain.lo[0]), float(domain.hi[0])
        return lambda X: X[0] <= lo0 or X[0] >= hi0
    return lambda X: bool(domain.collar(X))


def step(config: GameConfig, state: GameState, s_one: Strategy, s_two: Strategy,
         rng: np.random.Generator, t: float, N: int):
    """Advance one round; returns (new state, coin draw, actor in {'I','II','noise'})."""
    if state.done:
        raise ValueError("cannot step a terminal state")
    alpha = config.alpha
    eps = config.epsilon
    u = rng.random()
    if alpha > 0.0 and u < alpha / 2:
        X_new = _project_step(state.X, s_one(state.X, state.Y, state.k, t), eps)
        actor = "I"
    elif alpha > 0.0 and u < alpha:
        X_new = _project_step(state.X, s_two(state.X, state.Y, state.k, t), eps)
        actor = "II"
    else:
        if config.domain.m == 1:
            X_new = state.X + eps * (2.0 * rng.random() - 1.0)
        else:
            X_new = state.X + eps * _uniform_ball(rng, config.domain.m)
        actor = "noise"
    Y_new = state.Y + (eps**2 / 2) * X_new
    k_new = state.k + 1
    done = config.is_terminal(X_new) or k_new >= N
    return GameState(k_new, X_new, Y_new, done), u, actor


@dataclass
class EpisodeResult:
    tau: int
    X: np.ndarray
    Y: np.ndarray
    t: float
    payoff: float
    log: list = field(default_factory=list)  # rows (k, X, Y, t, coin, actor)


def run_episode(config: GameConfig, start, s_one: Strategy, s_two: Strategy,
                rng: np.random.Generator, log_steps: bool = False) -> EpisodeResult:
    """Play one game from start = (X0, Y0, t0) until the collar or N rounds."""
    X0, Y0, t0 = start
    X = np.array(X0, float, ndmin=1)
    Y = np.array(Y0, float, ndmin=1)
    t0 = float(t0)
    N = rounds(t0, config.epsilon)
    state = GameState(0, X, Y, done=config.is_terminal(X) or N == 0)
    log = []
    step_back = config.epsilon**2 / 2
    while not state.done:
        t = t0 - state.k * step_back
        state, coin, actor = step(config, state, s_one, s_two, rng, t, N)
        if log_steps:
            log.append((state.k, state.X.copy(), state.Y.copy(), t0 - state.k * step_back, coin, actor))
    tau = state.k
    t_tau = t0 - tau * step_back
    payoff = float(config.payoff(state.X, state.Y, np.asarray(t_tau)))
    return EpisodeResult(tau, state.X, state.Y, t_tau, payoff, log)


def _exact_mean_se(payoffs: np.ndarray):
    # a memoryview iterates Python floats, which square bit for bit as numpy
    # scalars do but faster, and unlike tolist() holds no list of them all
    xs = memoryview(payoffs)
    n = len(xs)
    mean = math.fsum(xs) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((x - mean) ** 2 for x in xs) / (n - 1)
    return mean, math.sqrt(var / n)


def estimate_value(config: GameConfig, start, s_one: Strategy, s_two: Strategy,
                   episodes: int | None = None, collect_tau: bool = False):
    """Sample mean and standard error of the payoff over seeded episodes.

    Each episode uses its own counter-based stream keyed by its index (one
    generator, re-keyed per episode); the final reduction is exact summation.
    """
    n = episodes if episodes is not None else config.episodes
    if n < 2:
        raise ValueError("need at least 2 episodes")
    payoffs = np.empty(n)
    taus = np.empty(n, dtype=np.int64) if collect_tau else None
    rng = episode_rng(config.seed, 0)
    for i in range(n):
        res = run_episode(config, start, s_one, s_two, _rekey(rng, config.seed, i))
        payoffs[i] = res.payoff
        if collect_tau:
            taus[i] = res.tau
    mean, se = _exact_mean_se(payoffs)
    if collect_tau:
        return mean, se, taus
    return mean, se


# ---------------------------------------------------------------------------
# strategies


def stay_strategy() -> Strategy:
    return Strategy(lambda X, Y, k, t: X, "stay")


def pull_toward(Z, eps: float) -> Strategy:
    """Move distance eps straight toward Z; stay put once within eps of Z.

    Staying avoids overshooting: the decrease |X - Z| - eps is only needed
    while |X - Z| > eps.
    """
    Z = np.atleast_1d(np.asarray(Z, float))

    def chooser(X, Y, k, t):
        d = X - Z
        n = math.sqrt(d @ d)
        if n <= eps:
            return X
        return X - (eps / n) * d

    return Strategy(chooser, f"pull_toward({Z.tolist()})")


def greedy_from_grid(grid: ValueGrid, mode: str) -> Strategy:
    """Scan the shared ball point set for the extremal one-step DPP value.

    The position is snapped to the lattice of the grid's position spacing
    h_y before evaluation, matching the measurable-selection construction;
    ties break toward the first sample.  ``mode`` is "maximize" (player I) or
    "minimize" (player II).  The clock time passed by the engine must lie on
    the grid's ladder (ValueGrid.slice_index).

    The one-step value is read the way the solver reads it: the datum at
    source times <= 0 and at collar velocities, the grid's slice reader on
    the slice below otherwise.  Everything that depends only on the grid is
    prepared here, once.
    """
    if mode not in ("maximize", "minimize"):
        raise ValueError("mode must be 'maximize' or 'minimize'")
    if grid.domain is None or grid.boundary is None:
        raise ValueError("greedy_from_grid needs the grid's velocity domain and boundary datum; "
                         "a grid read back by read_grid_binary carries neither")
    pick = np.argmax if mode == "maximize" else np.argmin
    m, eps, snap = grid.m, grid.epsilon, grid.h_y
    half_step = eps**2 / 2
    D = np.ascontiguousarray((eps * grid.ball_offsets).T)   # (m, S) velocity offsets
    S = D.shape[1]
    # the position queries are monotone in the offset, so the extreme offsets
    # bound them exactly; velocity queries need no check, since one off the
    # velocity axes lies in the collar and reads the datum
    d_lo, d_hi = D.min(axis=1).tolist(), D.max(axis=1).tolist()
    u_lo, u_hi = (bound[m:, 0].tolist() for bound in grid.u_bounds)
    y_range = list(zip(range(m, 2 * m), grid.y_axes, u_lo, u_hi))
    V = grid.values.reshape(len(grid.t_slices), -1)
    read, scale, slice_index = grid.reader, grid.reader.scale, grid.slice_index
    collar, F = grid.domain.collar, grid.boundary

    def chooser(X, Y, k, t):
        t_src = t - half_step
        y_hat = [snap * math.floor(y / snap) for y in Y.tolist()]
        q = np.empty((2 * m, S))                  # rows: Xs by axis, then Yq
        Xs, Yq = q[:m], q[m:]
        np.add(X[:, None], D, out=Xs)
        np.multiply(half_step, Xs, out=Yq)
        Yq += np.array(y_hat)[:, None]
        if t_src <= 0:
            vals = F(Xs.T, Yq.T, np.full(S, t_src))
        else:
            i = slice_index(t_src)
            for (a, ax, lo_u, hi_u), x, y, lo, hi in zip(y_range, X.tolist(), y_hat, d_lo, d_hi):
                q_lo, q_hi = y + half_step * (x + lo), y + half_step * (x + hi)
                if not ((q_lo - ax.origin) / ax.spacing >= lo_u):    # NaN fails too
                    raise InterpolationRangeError(a, q_lo, ax.origin, ax.top)
                if not ((q_hi - ax.origin) / ax.spacing <= hi_u):
                    raise InterpolationRangeError(a, q_hi, ax.origin, ax.top)
            vals = read(V[i], scale(q))
            lateral = collar(Xs.T)
            n_lateral = np.count_nonzero(lateral)
            if n_lateral:
                vals[lateral] = F(Xs.T[lateral], Yq.T[lateral], np.full(n_lateral, t_src))
        return Xs[:, int(pick(vals))]

    return Strategy(chooser, f"greedy-{mode}(snap={snap:g})")


# ---------------------------------------------------------------------------
# diagnostics


@dataclass
class SupermartingaleReport:
    rounds: np.ndarray
    mean_x: np.ndarray
    se_x: np.ndarray
    mean_y: np.ndarray
    se_y: np.ndarray
    flags_x: list
    flags_y: list
    c_x: float
    c_y: float


def supermartingale_diagnostic(config: GameConfig, start, Z, episodes: int,
                               opponent: Strategy | None = None,
                               c_x: float | None = None,
                               c_y: float | None = None) -> SupermartingaleReport:
    """Empirical drift check of the compensated distances under the pull strategy.

    Player I pulls toward Z; the opponent is arbitrary but fixed.  Tracks the
    stopped processes  |X_k - Z| - c_x k eps  and
    |Y_k - Y0 - (t0 - t_k) Z| - c_y k eps^2 R,  whose means should never
    increase.  Default compensators: c_x = beta m/(m+1) (the one-step ball
    average drift bound) and c_y from |X - Z| <= R + eps + |Z|.
    """
    X0, Y0, t0 = start
    X0 = np.atleast_1d(np.asarray(X0, float))
    Y0 = np.atleast_1d(np.asarray(Y0, float))
    Z = np.atleast_1d(np.asarray(Z, float))
    m = config.domain.m
    alpha, beta = config.alpha_beta
    from .domains import velocity_bound

    R = velocity_bound(config.domain)
    if c_x is None:
        c_x = beta * m / (m + 1.0)
    if c_y is None:
        c_y = (R + config.epsilon + float(np.linalg.norm(Z))) / (2.0 * R)
    s_one = pull_toward(Z, config.epsilon)
    s_two = opponent or stay_strategy()
    eps = config.epsilon
    N = rounds(float(t0), eps)
    MX = np.empty((episodes, N + 1))
    MY = np.empty((episodes, N + 1))
    rng = episode_rng(config.seed, 0)
    for i in range(episodes):
        res = run_episode(config, start, s_one, s_two, _rekey(rng, config.seed, i), log_steps=True)
        dx = float(np.linalg.norm(X0 - Z))
        dy = 0.0
        MX[i, 0] = dx
        MY[i, 0] = dy
        last_x, last_y = dx, dy
        for (k, Xk, Yk, tk, _, _) in res.log:
            last_x = float(np.linalg.norm(Xk - Z)) - c_x * k * eps
            last_y = float(np.linalg.norm(Yk - Y0 - (t0 - tk) * Z)) - c_y * k * eps**2 * R
            MX[i, k] = last_x
            MY[i, k] = last_y
        for k in range(res.tau + 1, N + 1):
            MX[i, k] = last_x   # stopped process stays frozen
            MY[i, k] = last_y
    mean_x = MX.mean(axis=0)
    mean_y = MY.mean(axis=0)
    se_x = MX.std(axis=0, ddof=1) / math.sqrt(episodes)
    se_y = MY.std(axis=0, ddof=1) / math.sqrt(episodes)
    flags_x, flags_y = [], []
    for k in range(1, N + 1):
        inc_x = MX[:, k] - MX[:, k - 1]
        inc_y = MY[:, k] - MY[:, k - 1]
        se_ix = inc_x.std(ddof=1) / math.sqrt(episodes) if episodes > 1 else 0.0
        se_iy = inc_y.std(ddof=1) / math.sqrt(episodes) if episodes > 1 else 0.0
        if inc_x.mean() > 3 * se_ix + 1e-12:
            flags_x.append(k)
        if inc_y.mean() > 3 * se_iy + 1e-12:
            flags_y.append(k)
    return SupermartingaleReport(np.arange(N + 1), mean_x, se_x, mean_y, se_y,
                                 flags_x, flags_y, c_x, c_y)
