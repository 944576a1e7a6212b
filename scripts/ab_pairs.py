#!/usr/bin/env python3
"""Alternating pairs of benchmark runs: a parent revision against the working tree.

    python3 scripts/ab_pairs.py PARENT_REV --workload W --pairs N [--seconds S]

Run from the repository root.  The tracked files of PARENT_REV (``git
archive``) and of the working tree (``git ls-files``, as they are on disk)
are written by the same code into two fresh sibling directories of equal
name length, so that neither side's peak RSS reads a difference of directory
or of how its copy was made.  Pair k (k = 1..N) runs the benchmark command of
BENCHMARK.json,

    python3 perfbench/run.py --workload W --seed k --seconds S --trace 0

in both copies, the parent first on odd k and the change first on even k.
For each end-to-end metric of BENCHMARK.json it prints the median and the
quartiles of each side and the number of pairs in which the change is
better.  S defaults to BENCHMARK.json's run_seconds.  The copies are removed
at the end.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


def git(*args) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def parent_files(rev):
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        for member in tar.getmembers():
            if member.isfile():
                yield member.name, tar.extractfile(member).read()


def working_files():
    for name in filter(None, git("ls-files", "-z").decode().split("\0")):
        if Path(name).is_file():    # a tracked file deleted but not yet staged is skipped
            yield name, Path(name).read_bytes()


def write_tree(root: Path, files):
    for name, data in files:
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def run(root: Path, command, workload: str, seed: int, seconds: float):
    """The benchmark's JSON summary of one run in the copy at root (None if it printed none)."""
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return None


def value(summary, name):
    """Metric name of one run's summary, or None if the run printed none."""
    return summary["metrics"][name]["value"] if summary and name in summary["metrics"] else None


def spread(values):
    """Median and quartiles, as text."""
    if len(values) < 2:
        return f"{values[0]:.4f}" if values else "-"
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{q2:.4f} [{q1:.4f}-{q3:.4f}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_rev")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args(argv)
    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    tmp = Path(tempfile.mkdtemp(prefix="ab_pairs-"))
    try:
        sides = {"parent": tmp / "parent", "change": tmp / "change"}
        write_tree(sides["parent"], parent_files(args.parent_rev))
        write_tree(sides["change"], working_files())
        results = {side: [] for side in sides}
        for k in range(1, args.pairs + 1):
            order = ("parent", "change") if k % 2 else ("change", "parent")
            for side in order:
                results[side].append(run(sides[side], bench["command"], args.workload, k, seconds))
            print(f"pair {k} (seed {k}, {order[0]} first): " + "  ".join(
                f"{side} run_s {value(results[side][-1], 'run_s')}" for side in sides), flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for side, runs in results.items():
        bad = sum(r is None or not r["correct"] for r in runs)
        print(f"{side}: {len(runs) - bad}/{len(runs)} runs correct")
    for metric in bench["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        got = {side: [value(r, name) for r in runs] for side, runs in results.items()}
        pairs = [(a, b) for a, b in zip(got["parent"], got["change"]) if None not in (a, b)]
        wins = sum((b < a) if lower else (b > a) for a, b in pairs)
        print(f"{name} ({metric['unit']}, {metric['better']} is better): "
              f"parent {spread([a for a, _ in pairs])}  change {spread([b for _, b in pairs])}  "
              f"change better in {wins}/{len(pairs)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
