import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from kplab import config as cfgmod
from kplab.cli import main, run, build_boundary
from kplab.config import ConfigError, parse, serialize

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_parse_defaults_and_round_trip():
    text = (CONFIG_DIR / "play_pull.cfg").read_text()
    cfg = parse(text)
    assert cfg.command == "play"
    assert cfg.seed == 7
    assert cfg["play"]["episodes"] == 2000
    canon = serialize(cfg)
    again = serialize(parse(canon))
    assert canon == again  # idempotent canonical form


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse("[experiment]\ncommand = play\nbogus = 1\n")
    with pytest.raises(ConfigError):
        parse("[nosuchsection]\nx = 1\n")


def test_seed_mandatory_for_play():
    with pytest.raises(ConfigError):
        parse("[experiment]\ncommand = play\n")


def test_p_inf_round_trip():
    cfg = parse("[experiment]\ncommand = solve\n[solve]\np = inf\n")
    assert cfg["solve"]["p"] == math.inf
    assert "p = inf" in serialize(cfg)


def test_boundary_builders():
    cfg = parse("[experiment]\ncommand = solve\n[boundary]\nname = const\nc = 2.0\n")
    F = build_boundary(cfg, 3.0)
    assert float(F(np.array([[0.1]]), np.array([[0.2]]), np.array([0.3]))[0]) == 2.0
    cfg = parse("[experiment]\ncommand = solve\n[boundary]\nname = quadratic_p\n")
    F = build_boundary(cfg, 3.0)
    assert float(F(np.array([[0.5]]), np.array([[0.0]]), np.array([1.0]))[0]) == pytest.approx(1.25)


def test_custom_table_boundary(tmp_path):
    table = tmp_path / "table.csv"
    table.write_text("x1,y1,t,value\n0.0,0.0,0.0,1.0\n0.5,0.0,0.0,1.2\n")
    cfg = parse(
        "[experiment]\ncommand = solve\n[boundary]\nname = custom-table\n"
        f"table = {table}\nlipschitz = 2.0\n")
    F = build_boundary(cfg, 3.0)
    assert float(F(np.array([[0.0]]), np.array([[0.0]]), np.array([0.0]))[0]) == pytest.approx(1.0)


def test_mv_check_runs_and_writes_csv(tmp_path):
    rc = main(["mv-check", "--config", str(CONFIG_DIR / "mv_check_x_squared.cfg"),
               "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "mv_check.csv").read_text().splitlines()
    assert rows[0].startswith("variant,p,point,epsilon,residual")
    assert len(rows) == 1 + 4 * 3  # four variants, three epsilons
    # extrapolated limit column is close to the p=2 oracle value 1/3
    first = rows[1].split(",")
    assert abs(float(first[6]) - 1 / 3) < 0.05 / 3


def test_mv_check_m2_without_play_section(tmp_path):
    rc = main(["mv-check", "--config", str(CONFIG_DIR / "mv_check_m2.cfg"), "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "mv_check.csv").read_text().splitlines()
    assert rows[0].split(",")[-2:] == ["observed_order", "noise_flagged"]
    assert len(rows) == 1 + 4 * 3


def test_solve_command_artifacts(tmp_path):
    cfg = parse((CONFIG_DIR / "solve_affine.cfg").read_text())
    cfg.sections["solve"]["epsilon"] = 0.3   # shrink for test speed
    cfg.sections["solve"]["max_error"] = 10 * (0.3 / 8) ** 2
    rc = run(cfg, out_dir=tmp_path)
    assert rc == 0
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert report["max_node_error_vs_exact"] <= 10 * (0.3 / 8) ** 2
    assert (tmp_path / "grid.bin").exists()


def test_play_command_json(tmp_path):
    rc = main(["play", "--config", str(CONFIG_DIR / "play_pull.cfg"),
               "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "play.json").read_text())
    res = doc["results"][0]
    assert res["n"] == 2000
    assert sum(res["tau_histogram"].values()) == 2000
    log = (tmp_path / "play_log.csv").read_text().splitlines()
    assert log[0] == "episode,k,x1,y1,t,coin,actor"
    assert len(log) > 10


def test_sweep_command(tmp_path):
    cfg = parse((CONFIG_DIR / "sweep_quadratic.cfg").read_text())
    cfg.sections["sweep"]["epsilons"] = [0.4, 0.2]  # shrink for test speed
    rc = run(cfg, out_dir=tmp_path)
    assert rc == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[0] == "epsilon,h,sup_error"
    errs = [float(r.split(",")[2]) for r in rows[1:]]
    assert errs[1] < errs[0]


def test_cross_validate_command(tmp_path):
    cfg = parse((CONFIG_DIR / "cross_validate_affine.cfg").read_text())
    cfg.sections["play"]["episodes"] = 2000
    cfg.sections["play"]["starts"] = [(0.3, 0.1, 0.5)]
    rc = run(cfg, out_dir=tmp_path)
    assert rc == 0
    doc = json.loads((tmp_path / "cross_validate.json").read_text())
    assert doc["results"][0]["pass"] is True


def test_exit_code_2_on_bad_config(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[experiment]\ncommand = play\nnonsense = 1\n")
    assert main(["play", "--config", str(bad)]) == 2
    assert main(["play", "--config", str(tmp_path / "missing.cfg")]) == 2


@pytest.mark.parametrize("line", ["epsilon = -0.1", "p = 1.5"])
def test_exit_code_2_on_bad_solve_value(tmp_path, line):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"[experiment]\ncommand = solve\n[solve]\n{line}\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("text", [
    "[experiment]\ncommand = mv-check\n[mv]\nepsilons = 0.2 0.15 0.1\n",
    "[experiment]\ncommand = mv-check\n[mv]\nvariants = V9\n",
    "[experiment]\ncommand = play\nseed = 1\n[play]\nepisodes = 1\n",
    "[experiment]\ncommand = solve\n[domain]\nm = 2\nshape = box\nlo = -1 -1\nhi = 1 1\n"
    "[boundary]\nname = linear\na = 2\n",
    "[experiment]\ncommand = solve\n[domain]\nm = 2\nshape = box\nlo = -1 -1\nhi = 1 1\n"
    "[solve]\nepsilon = 0.1\nt_horizon = 0.5\n",
], ids=["ladder", "variant", "episodes", "boundary-a-length", "grid-beyond-memory"])
def test_exit_code_2_on_value_checked_during_run(tmp_path, text):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    command = parse(text).command
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_exit_code_2_on_command_mismatch(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[experiment]\ncommand = solve\n")
    assert main(["play", "--config", str(cfg)]) == 2


def test_exit_code_1_on_threshold_violation(tmp_path):
    cfg = parse((CONFIG_DIR / "solve_affine.cfg").read_text())
    cfg.sections["solve"]["epsilon"] = 0.3
    cfg.sections["solve"]["max_error"] = 1e-30  # impossible threshold
    assert run(cfg, out_dir=tmp_path) == 1


def test_seed_override_and_reproducibility(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        rc = main(["play", "--config", str(CONFIG_DIR / "play_pull.cfg"),
                   "--out", str(out), "--seed", "123"])
        assert rc == 0
    assert (out_a / "play.json").read_bytes() == (out_b / "play.json").read_bytes()
    assert (out_a / "play_log.csv").read_bytes() == (out_b / "play_log.csv").read_bytes()


def test_threads_do_not_change_play_output(tmp_path):
    outs = []
    for threads in (1, 4):
        out = tmp_path / f"t{threads}"
        rc = main(["play", "--config", str(CONFIG_DIR / "play_pull.cfg"),
                   "--out", str(out), "--threads", str(threads)])
        assert rc == 0
        outs.append((out / "play.json").read_bytes())
    assert outs[0] == outs[1]


# Small solve / play / cross-validate runs; each file's SHA-256 was recorded
# from the CLI before the named boundary data were built from the profile
# catalog, and any change to the seeded outputs shows up here.  The sweep's
# digest was recorded before interpolate_slice read through the reader it
# shares with the greedy strategies.
PINNED_RUNS = {
    "solve": ("[experiment]\ncommand = solve\n"
              "[domain]\nm = 1\nshape = interval\nlo = -1\nhi = 1\n"
              "[boundary]\nname = quadratic_p\n"
              "[solve]\np = 3\nepsilon = 0.2\nt_horizon = 0.3\ny_seed = -0.3 0.3\n"
              "write_binary = true\n"),
    "play": ("[experiment]\ncommand = play\nseed = 31\n"
             "[domain]\nm = 1\nshape = interval\nlo = -1\nhi = 1\n"
             "[boundary]\nname = linear\na = 0.7\nb = 0.1\n"
             "[play]\np = 3\nepsilon = 0.2\nt_horizon = 0.5\n"
             "starts = 0.2 0.0 0.4; -0.5 0.1 0.3\nepisodes = 1000\n"
             "strategy_i = pull:0.9\nstrategy_ii = pull:-0.9\nlog_episodes = true\n"),
    "cross-validate": ("[experiment]\ncommand = cross-validate\nseed = 31\n"
                       "[domain]\nm = 1\nshape = interval\nlo = -1\nhi = 1\n"
                       "[boundary]\nname = y_plus_tx\n"
                       "[solve]\np = 3\nepsilon = 0.3\nt_horizon = 0.2\ny_seed = -0.3 0.3\n"
                       "[play]\np = 3\nepsilon = 0.3\nt_horizon = 0.2\n"
                       "starts = 0.2 0.0 0.155; -0.3 0.1 0.11\nepisodes = 1000\n"),
    "sweep": ("[experiment]\ncommand = sweep\n"
              "[domain]\nm = 1\nshape = interval\nlo = -1\nhi = 1\n"
              "[boundary]\nname = quadratic_p\n"
              "[solve]\np = 3\nt_horizon = 0.3\ny_seed = -0.3 0.3\n"
              "[sweep]\nepsilons = 0.4 0.3 0.2\ncompact = -0.3 0.3 -0.3 0.3 0.05 0.3\n"),
}
PINNED_SHA256 = {
    "solve/grid.bin": "6f813281accf0d2977a0e960d20b35416641e88624a31e0c8ba4f8749438765d",
    "solve/solve_report.json": "7d9e9f21f8c7b4dd9254d811d3c4b62e789afe172a1ab6e67bf90853bc2480fb",
    "play/play.json": "4ecccac491b3e679b419ba9b758bad2fab1b9121685cf7ef9976431b6dbf3775",
    "play/play_log.csv": "632b3fb9392c00d8c339d4952e23795e5a09c550e6f34f58e17b56b6af8621a6",
    "cross-validate/cross_validate.json":
        "9f235b3042daefc0ee82dbaf81e0ef51114e6524bd00407ed7ea3dccb4bd2232",
    "sweep/sweep.csv": "dbed5ed8cc0c22dca77cd7edf19392af8b42dc29af7df065872636ab10391f6b",
}


def test_cli_outputs_match_pinned_digests(tmp_path):
    for command, text in PINNED_RUNS.items():
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in PINNED_SHA256}
    assert got == PINNED_SHA256
