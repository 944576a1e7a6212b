"""Flat key=value experiment configs with one section per concern.

The format is INI-style text parsed with configparser: an [experiment]
section naming the command plus sections for the domain, boundary datum and
the per-command parameters.  Unknown sections or keys are rejected; every
key has a default except the seed, which is mandatory for the stochastic
commands.  serialize(parse(text)) is canonical and idempotent, which keeps
config fixtures diff-friendly.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field

from .domains import Ball, Box, interval


class ConfigError(ValueError):
    pass


def _parse_p(s: str):
    s = s.strip().lower()
    if s in ("inf", "infinity"):
        return math.inf
    return float(s)


def _ser_p(v) -> str:
    return "inf" if v == math.inf else repr(float(v))


def _parse_floats(s: str):
    return [float(x) for x in s.split()]


def _ser_floats(v) -> str:
    return " ".join(repr(float(x)) for x in v)


def _parse_starts(s: str):
    groups = [g.strip() for g in s.split(";") if g.strip()]
    return [tuple(float(x) for x in g.split()) for g in groups]


def _ser_starts(v) -> str:
    return "; ".join(" ".join(repr(float(x)) for x in g) for g in v)


def _parse_bool(s: str) -> bool:
    s = s.strip().lower()
    if s in ("true", "1", "yes"):
        return True
    if s in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _ser_bool(v) -> str:
    return "true" if v else "false"


def _opt(parser):
    def inner(s: str):
        return None if s.strip() == "" else parser(s)
    return inner


def _ser_opt(ser):
    def inner(v):
        return "" if v is None else ser(v)
    return inner


_ident = (str.strip, str)
_int = (lambda s: int(s), repr)
_float = (float, lambda v: repr(float(v)))

# section -> key -> (parse, serialize, default)
SCHEMA = {
    "experiment": {
        "command": _ident + ("",),
        "seed": (_opt(lambda s: int(s)), _ser_opt(repr), None),
        "out": _ident + ("out",),
    },
    "domain": {
        "m": _int + (1,),
        "shape": _ident + ("interval",),
        "lo": (_parse_floats, _ser_floats, [-1.0]),
        "hi": (_parse_floats, _ser_floats, [1.0]),
        "center": (_parse_floats, _ser_floats, [0.0]),
        "radius": _float + (1.0,),
    },
    "boundary": {
        "name": _ident + ("y_plus_tx",),
        "c": _float + (0.0,),
        "a": (_opt(_parse_floats), _ser_opt(_ser_floats), None),
        "b": _float + (0.0,),
        "lipschitz": (_opt(float), _ser_opt(lambda v: repr(float(v))), None),
        "table": _ident + ("",),
    },
    "mv": {
        "profile": _ident + ("x_squared",),
        "p": (_parse_p, _ser_p, 2.0),
        "variants": (lambda s: s.split(), lambda v: " ".join(v), ["V1", "V2", "V3", "V4"]),
        "epsilons": (_parse_floats, _ser_floats, [0.2, 0.1, 0.05]),
        "point": (_parse_floats, _ser_floats, [0.7, 0.3, 0.5]),
        "n_radial": _int + (16,),
        "n_angular": _int + (32,),
        "quad_mode": _ident + ("tensor",),
        "quad_seed": _int + (0,),
        "max_rel_error": (_opt(float), _ser_opt(lambda v: repr(float(v))), None),
    },
    "solve": {
        "p": (_parse_p, _ser_p, 3.0),
        "epsilon": _float + (0.1,),
        "t_horizon": _float + (0.5,),
        "h_x": (_opt(float), _ser_opt(lambda v: repr(float(v))), None),
        "h_y": (_opt(float), _ser_opt(lambda v: repr(float(v))), None),
        "y_seed": (_opt(_parse_floats), _ser_opt(_ser_floats), None),
        "write_csv": (_parse_bool, _ser_bool, False),
        "write_binary": (_parse_bool, _ser_bool, True),
        "max_error": (_opt(float), _ser_opt(lambda v: repr(float(v))), None),
    },
    "play": {
        "p": (_parse_p, _ser_p, 3.0),
        "epsilon": _float + (0.2,),
        "t_horizon": _float + (0.5,),
        "starts": (_parse_starts, _ser_starts, [(0.3, 0.0, 0.4)]),
        "episodes": _int + (1000,),
        "strategy_i": _ident + ("stay",),
        "strategy_ii": _ident + ("stay",),
        "log_episodes": (_parse_bool, _ser_bool, False),
    },
    "sweep": {
        "epsilons": (_parse_floats, _ser_floats, [0.4, 0.2, 0.1]),
        "h_ratio": _float + (8.0,),
        "compact": (_parse_floats, _ser_floats, [-0.5, 0.5, -0.5, 0.5, 0.1, 0.4]),
        "require_monotone": (_parse_bool, _ser_bool, True),
        "n_eval": _int + (21,),
    },
    "cross-validate": {
        "tolerance_grid_factor": _float + (10.0,),
    },
}

_SECTION_ORDER = ["experiment", "domain", "boundary", "mv", "solve", "play", "sweep", "cross-validate"]

COMMANDS = ("mv-check", "solve", "play", "sweep", "cross-validate")


@dataclass
class ExperimentConfig:
    sections: dict = field(default_factory=dict)

    def __getitem__(self, section):
        return self.sections[section]

    @property
    def command(self) -> str:
        return self.sections["experiment"]["command"]

    @property
    def seed(self):
        return self.sections["experiment"]["seed"]


def parse(text: str) -> ExperimentConfig:
    """Parse config text; unknown sections or keys are errors, defaults fill gaps."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"malformed config: {e}") from e
    sections = {}
    for sec in cp.sections():
        if sec not in SCHEMA:
            raise ConfigError(f"unknown section [{sec}]")
        for key in cp[sec]:
            if key not in SCHEMA[sec]:
                raise ConfigError(f"unknown key {key!r} in section [{sec}]")
    for sec, keys in SCHEMA.items():
        out = {}
        for key, (parse_fn, _, default) in keys.items():
            if cp.has_option(sec, key):
                raw = cp.get(sec, key)
                try:
                    out[key] = parse_fn(raw)
                except (ValueError, TypeError) as e:
                    raise ConfigError(f"bad value for {sec}.{key}: {raw!r} ({e})") from e
            else:
                out[key] = default
        sections[sec] = out
    cfg = ExperimentConfig(sections)
    validate(cfg)
    return cfg


def validate(cfg: ExperimentConfig):
    cmd = cfg.command
    if cmd and cmd not in COMMANDS:
        raise ConfigError(f"unknown command {cmd!r}; expected one of {COMMANDS}")
    if cmd in ("play", "cross-validate") and cfg.seed is None:
        raise ConfigError(f"experiment.seed is mandatory for command {cmd!r}")
    dom = cfg["domain"]
    if dom["shape"] not in ("interval", "box", "ball"):
        raise ConfigError(f"unknown domain shape {dom['shape']!r}")
    m = dom["m"]
    if dom["shape"] in ("interval", "box"):
        if len(dom["lo"]) != m or len(dom["hi"]) != m:
            raise ConfigError(f"domain lo/hi must each have {m} entries")
    else:
        if len(dom["center"]) != m:
            raise ConfigError(f"domain center must have {m} entries")
    for g in cfg["play"]["starts"] if cmd in ("play", "cross-validate") else ():
        if len(g) != 2 * m + 1:
            raise ConfigError(f"each start needs {2 * m + 1} numbers (X.. Y.. t), got {g}")


def serialize(cfg: ExperimentConfig) -> str:
    """Canonical text form: fixed section and key order, repr-exact floats."""
    buf = io.StringIO()
    for sec in _SECTION_ORDER:
        buf.write(f"[{sec}]\n")
        for key, (_, ser_fn, _d) in SCHEMA[sec].items():
            buf.write(f"{key} = {ser_fn(cfg.sections[sec][key])}\n")
        buf.write("\n")
    return buf.getvalue()


def checked(make, *args, **kw):
    """Call ``make`` on config values; a value it rejects (ValueError) is a config error."""
    try:
        return make(*args, **kw)
    except ValueError as e:
        raise ConfigError(f"bad value: {e}") from e


def build_domain(cfg: ExperimentConfig):
    dom = cfg["domain"]
    m = dom["m"]
    if dom["shape"] == "interval":
        if m != 1:
            raise ConfigError("interval domains are one-dimensional; use shape=box")
        return checked(interval, dom["lo"][0], dom["hi"][0])
    if dom["shape"] == "box":
        return checked(Box, dom["lo"], dom["hi"])
    return checked(Ball, dom["center"], dom["radius"])
