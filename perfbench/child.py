"""One fresh-process kplab CLI run, as a user would start it.

    python3 perfbench/child.py RESULT_JSON TRACE(0|1) SPANS_NPZ -- <kplab CLI args>

Times ``import kplab.cli``, marks the end of set-up when the CLI enters
``kplab.cli.run`` (after argument and config parsing), times the experiment
up to the return of ``run``, and writes the process's own ``getrusage``
figures.  With TRACE=1 it also wraps kplab's public functions where the CLI
looks them up (see ``install``) and saves the spans to SPANS_NPZ.
"""

import sys
import time


def install(tr, extra):
    """Wrap kplab's layers; counters that are not spans go into ``extra``."""
    import os

    import kplab.cli as cli
    import kplab.config as config
    import kplab.domains as domains
    import kplab.game as game
    import kplab.meanvalue as meanvalue
    import kplab.operators as operators
    import kplab.solver as solver
    from tracer import rusage

    for cmd in ("run_solve", "run_play", "run_cross_validate", "run_mv_check"):
        tr.wrap(cli, cmd, f"cli.{cmd}")
    tr.wrap(cli, "_grid_error_vs_profile", "cli.error_check")
    tr.wrap(config, "parse", "config.parse")

    real_solve = cli.solve

    def solve_with_rusage(*args, **kwargs):
        r0 = rusage()
        grid = real_solve(*args, **kwargs)
        r1 = rusage()
        extra["solver.minor_faults"] += r1[2] - r0[2]
        extra["solver.sys_s"] += r1[1] - r0[1]
        return grid

    cli.solve = solve_with_rusage
    tr.wrap(cli, "solve", "solver.solve")
    tr.wrap(solver, "build_grid", "solver.build_grid")

    nodes_per_slice = {}

    def count_updates(args, _):
        grid = args[0]
        n = nodes_per_slice.get(id(grid))
        if n is None:
            n = nodes_per_slice[id(grid)] = (int(grid.interior_x_mask().sum())
                                             * int(grid.values[0].size // len(grid.x_nodes())))
        extra["solver.node_updates"] += n

    tr.wrap(solver, "apply_dpp", "solver.apply_dpp", after=count_updates)

    def count_bytes(args, _):
        extra["solver.write_binary_bytes"] += os.path.getsize(args[1])

    tr.wrap(cli, "write_grid_binary", "solver.write_grid_binary", after=count_bytes)

    tr.wrap(cli, "estimate_value", "game.estimate_value")
    tr.wrap(game, "run_episode", "game.run_episode")
    tr.wrap(game, "episode_rng", "game.episode_rng")
    tr.wrap(game, "step", "game.step")
    tr.wrap(game.Strategy, "__call__", "game.strategy")

    tr.wrap(cli, "mv_limit_estimate", "meanvalue.mv_limit_estimate")
    tr.wrap(meanvalue, "mv_value",
            lambda a: "meanvalue.mv_value." + meanvalue.variant_from(a[4]).value)
    tr.wrap(meanvalue, "golden_section_extremum", "quadrature.golden_section_extremum")
    tr.wrap(operators.SmoothProfile, "value", "operators.profile_value", points=True)

    tr.wrap(domains.BoundaryDatum, "__call__", "domains.datum", points=True)
    tr.wrap(domains.Box, "signed_distance", "domains.signed_distance")
    tr.wrap(domains.Ball, "signed_distance", "domains.signed_distance")


def main():
    result_path, traced, spans_path = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    argv = sys.argv[sys.argv.index("--") + 1:]

    t0 = time.perf_counter()
    import kplab.cli as cli
    import_s = time.perf_counter() - t0

    tr = None
    extra = {}
    if traced:
        from collections import defaultdict

        from tracer import Tracer

        tr = Tracer()
        extra = defaultdict(float)
        install(tr, extra)
        tr.wrap(cli, "run", "cli.run")

    marks = {}
    real_run = cli.run

    def timed_run(*args, **kwargs):
        marks["setup_end"] = time.monotonic()
        t = time.perf_counter()
        try:
            return real_run(*args, **kwargs)
        finally:
            marks["run_s"] = time.perf_counter() - t

    cli.run = timed_run
    code = cli.main(argv)

    import json

    from tracer import rusage

    user, sys_s, minflt, maxrss_kb = rusage()
    result = {"exit_code": code, "import_s": import_s, "user_s": user, "sys_s": sys_s,
              "minor_faults": minflt, "maxrss_kb": maxrss_kb, **marks}
    if tr is not None:
        from tracer import summarize, under

        arrays = tr.arrays()
        extra["solver.datum_points"] = under(tr.names, *arrays, "domains.datum",
                                             "solver.apply_dpp")[1]
        extra["game.payoff_s"] = under(tr.names, *arrays, "domains.datum",
                                       "game.run_episode")[0]
        result.update(spans=summarize(tr.names, *arrays), extra=dict(extra),
                      span_count=len(arrays[0]))
        tr.save(spans_path)
    with open(result_path, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
