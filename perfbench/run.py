"""Benchmark of kplab's CLI experiments, one fresh process per experiment.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kplab source tree.  The workload's config is made from
the seed; the experiment is then run again and again, each time as a fresh
single-threaded ``python3`` process through ``kplab.cli.main``, while the
next process is expected to end within S seconds (at least twice).  After
every process the outputs are checked against values computed apart from
kplab.  The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics (--trace 0),
the times as the fastest of the processes and peak RSS as their median, or the
per-layer metrics of traced processes (--trace 1), ``trace.run_s`` as the
fastest and the others as the median.
``correct`` is true only if no operation failed.  Outputs of the last run of
each workload stay under ``.perfbench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 80
MIN_PROCESSES = 2   # at least two, also for mv-check's 13-22 s processes
MODULES = ("cli", "config", "solver", "game", "meanvalue", "quadrature", "operators", "domains")
VARIANTS = ("V1", "V2", "V3", "V4")
# Times reported as the fastest of the run's processes: the host's slow phases
# only ever add time, so the minimum drifts least between runs taken at
# different times.  Every other metric is the median over the processes.
# trace.run_s is taken the same way as run_s, so that their difference is the
# tracing overhead.
FASTEST_OF = ("setup_s", "run_s", "trace.run_s")


def ref_loop() -> float:
    """Fixed pure-Python work that uses no kplab code: a host speed probe."""
    t = time.perf_counter()
    s = 0
    for i in range(300_000):
        s += i * i % 7
    return time.perf_counter() - t


def end_to_end(r, spawned_at):
    return {
        "setup_s": (r["setup_end"] - spawned_at, "s"),
        "run_s": (r["run_s"], "s"),
        "peak_rss_mb": (r["maxrss_kb"] / 1024.0, "MB"),
    }


def per_layer(r):
    spans, extra = r["spans"], r["extra"]

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    def per(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    dpp_s = get("solver.apply_dpp", "incl_s")
    updates = extra.get("solver.node_updates", 0)
    mc_s = get("game.estimate_value", "incl_s")
    steps = get("game.step", "calls")
    episodes = get("game.run_episode", "calls")
    out = {
        "setup.import_s": (r["import_s"], "s"),
        "config.parse_s": (get("config.parse", "incl_s"), "s"),
        "solver.build_grid_s": (get("solver.build_grid", "incl_s"), "s"),
        "solver.apply_dpp_s": (dpp_s, "s"),
        "solver.apply_dpp_calls": (get("solver.apply_dpp", "calls"), "count"),
        "solver.node_updates": (updates, "count"),
        "solver.node_updates_per_s": (per(updates, dpp_s), "1/s"),
        "solver.minor_faults": (extra.get("solver.minor_faults", 0), "count"),
        "solver.sys_s": (extra.get("solver.sys_s", 0.0), "s"),
        "solver.datum_points": (extra.get("solver.datum_points", 0), "count"),
        "solver.write_binary_s": (get("solver.write_grid_binary", "incl_s"), "s"),
        "solver.write_binary_bytes": (extra.get("solver.write_binary_bytes", 0), "bytes"),
        "cli.error_check_s": (get("cli.error_check", "incl_s"), "s"),
        "game.episodes": (episodes, "count"),
        "game.steps": (steps, "count"),
        "game.estimate_value_s": (mc_s, "s"),
        "game.step_s": (get("game.step", "self_s"), "s"),
        "game.us_per_step": (per(mc_s, steps, 1e6), "us"),
        "game.steps_per_s": (per(steps, mc_s), "1/s"),
        "game.strategy_s": (get("game.strategy", "incl_s"), "s"),
        "game.episode_rng_s": (get("game.episode_rng", "incl_s"), "s"),
        "game.episode_rng_calls": (get("game.episode_rng", "calls"), "count"),
        "game.run_episode_s": (get("game.run_episode", "self_s"), "s"),
        "game.payoff_s": (extra.get("game.payoff_s", 0.0), "s"),
        "game.us_per_episode": (per(mc_s, episodes, 1e6), "us"),
    }
    for v in VARIANTS:
        out[f"meanvalue.mv_value_s.{v}"] = (get(f"meanvalue.mv_value.{v}", "incl_s"), "s")
    out["meanvalue.mv_value_calls"] = (
        sum(get(f"meanvalue.mv_value.{v}", "calls") for v in VARIANTS), "count")
    out["quadrature.golden_section_s"] = (get("quadrature.golden_section_extremum", "incl_s"), "s")
    out["operators.profile_value_s"] = (get("operators.profile_value", "incl_s"), "s")
    out["operators.profile_value_points"] = (get("operators.profile_value", "points"), "count")
    for mod in MODULES:
        mine = [s for n, s in spans.items() if n.startswith(mod + ".")]
        out[f"{mod}.self_s"] = (sum(s["self_s"] for s in mine), "s")
        out[f"{mod}.calls"] = (sum(s["calls"] for s in mine), "count")
    out.update({
        "proc.user_s": (r["user_s"], "s"),
        "proc.sys_s": (r["sys_s"], "s"),
        "proc.minor_faults": (r["minor_faults"], "count"),
        "trace.run_s": (r["run_s"], "s"),
        "trace.spans": (r["span_count"], "count"),
    })
    return out


def run_child(root, out, cfg_path, workload, traced, index):
    result_path = out / f"child-{index}.json"
    argv = [sys.executable, str(HERE / "child.py"), str(result_path), "1" if traced else "0",
            str(out / "spans.npz"), "--", workload.name, "--config", str(cfg_path),
            "--out", str(out / "cli"), "--threads", "1"]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with open(out / "cli.log", "ab") as log:
        spawned_at = time.monotonic()
        try:
            proc = subprocess.run(argv, cwd=root, env=env, stdout=log, stderr=log,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, spawned_at
    if proc.returncode != 0 or not result_path.is_file():
        return None, spawned_at
    r = json.loads(result_path.read_text())
    return (r if r["exit_code"] == 0 else None), spawned_at


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "kplab" / "cli.py").is_file():
        print(f"no kplab source tree under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    traced = args.trace == 1
    out = root / ".perfbench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    (out / "cli").mkdir(parents=True)
    cfg_path = out / "workload.cfg"
    cfg_path.write_text(workload.config())

    samples, refs, log = [], [], []
    attempted = failed = 0
    begin = time.monotonic()
    while True:
        refs.append(ref_loop())
        started = time.monotonic()
        r, spawned_at = run_child(root, out, cfg_path, workload, traced, len(log))
        took = time.monotonic() - started
        if r is None:
            ops = [("process", False, f"failed, see {out / 'cli.log'}")]
        else:
            try:
                ops = workload.check(out / "cli", r if traced else None)
            except (OSError, ValueError, KeyError) as e:
                ops = [("outputs", False, f"unreadable: {e!r}")]
            samples.append(per_layer(r) if traced else end_to_end(r, spawned_at))
        attempted += len(ops)
        failed += sum(not ok for _, ok, _ in ops)
        log.append({"wall_s": took, "ops": ops, "result": r})
        elapsed = time.monotonic() - begin
        if len(log) >= MIN_PROCESSES and elapsed + took > args.seconds:
            break

    metrics = {}
    for name in (samples[0] if samples else {}):
        values = [s[name][0] for s in samples]
        pick = min if name in FASTEST_OF else statistics.median
        metrics[name] = {"value": pick(values), "unit": samples[0][name][1]}
    if traced:
        metrics["host.ref_loop_s"] = {"value": statistics.median(refs), "unit": "s"}
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "config": workload.config(), "ref_loop_s": refs, "processes": log}
    (out / "summary.json").write_text(json.dumps(summary, indent=1, default=str) + "\n")
    for entry in log:
        for name, ok, detail in entry["ops"]:
            if not ok:
                print(f"FAILED {name}: {detail}", file=sys.stderr)
    print(f"{args.workload}: {len(log)} process(es), ref loop median "
          f"{statistics.median(refs):.4f} s", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
