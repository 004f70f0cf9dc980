"""Flat key-value experiment configuration shared by all CLI commands.

Format: one ``key=value`` per line, ``#`` starts a comment; a key not in
`DEFAULTS` or set twice is rejected naming the file and line. CLI flags
override file keys. The fully resolved config is echoed to the output
directory so a run can be reproduced from its artifacts alone.
"""
from __future__ import annotations

import hashlib
import json
import math

from .errors import ConfigError

# Defaults follow the experiment setup: l=3, huber beta=1, 50 epochs, m=30,
# d=48, D=24, lr 0.01/0.001, hidden 32/200, dropout 0.2, batch 32,
# seasonalities {(6, 365.25), (3, 7), (6, 1)}.
DEFAULTS = {
    # data source
    "dataset": "synth",            # "synth" or a CSI CSV path
    "sample_interval": 5e-4,
    "train_frac": 0.8,
    "val_frac": 0.1,
    "test_frac": 0.1,
    "window_stride": 1,
    "data_seed": 0,
    # synthetic channel
    "carrier_hz": 2.18e9,
    "speed_kmph": 5.0,
    "path_count": 32,
    "antenna_count": 1,
    "sample_count": 20000,
    # model selection and shared shape
    "model": "rnn",                # np | rnn | lstm | bilstm | hybrid
    "d": 48,
    "D": 24,
    "epochs": 50,
    "batch_size": 32,
    "huber_beta": 1.0,
    "seed": 0,
    # recurrent family
    "rnn_learning_rate": 0.001,
    "rnn_hidden": 200,
    "rnn_layers": 3,
    "dropout": 0.2,
    "bilstm_combine": "hadamard",  # hadamard | concat
    # additive model
    "np_learning_rate": 0.01,
    "np_hidden": 32,
    "np_layers": 3,
    "n_changepoints": 30,
    "changepoint_range": 0.9,
    "discontinuous_growth": True,
    "trend_enabled": True,
    "seasonality_enabled": True,
    "ar_enabled": True,
    "ar_linear": False,
    "seasonalities": "6:365.25,3:7,6:1",  # order:period-in-days pairs
    "samples_per_day": 2000.0,
    # hybrid
    "hybrid_source": "rnn",        # rnn | bilstm
    # comparison
    "compare_seeds": "0",          # comma-separated seed list for cmd_compare
}

CHOICES = {
    "model": ("np", "rnn", "lstm", "bilstm", "hybrid"),
    "bilstm_combine": ("hadamard", "concat"),
    "hybrid_source": ("rnn", "bilstm"),
}


# Every numeric key: (keys, rule, test). Values must also be finite.
_RANGES = (
    ("seed data_seed n_changepoints np_layers", ">= 0", lambda v: v >= 0),
    ("batch_size window_stride path_count antenna_count sample_count d D epochs "
     "rnn_hidden rnn_layers np_hidden", ">= 1", lambda v: v >= 1),
    ("sample_interval carrier_hz speed_kmph huber_beta rnn_learning_rate "
     "np_learning_rate samples_per_day", "> 0", lambda v: v > 0),
    ("train_frac val_frac test_frac", "in (0, 1)", lambda v: 0 < v < 1),
    ("changepoint_range", "in [0, 1]", lambda v: 0 <= v <= 1),
    ("dropout", "in [0, 1)", lambda v: 0 <= v < 1),
)


def _coerce(key, raw):
    default = DEFAULTS[key]
    if isinstance(default, bool):
        if isinstance(raw, bool):
            return raw
        low = str(raw).strip().lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    if isinstance(default, int):
        try:
            return int(str(raw).strip())
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    if isinstance(default, float):
        try:
            return float(str(raw).strip())
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    return str(raw).strip()


def parse_config_file(path) -> dict:
    out, line_of = {}, {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    for ln, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {ln}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"{path}: line {ln}: unknown config key {key!r}")
        if key in out:
            raise ConfigError(f"{path}: line {ln}: {key} is already set on "
                              f"line {line_of[key]}")
        out[key], line_of[key] = value, ln
    return out


def resolve_config(file_values=None, overrides=None) -> dict:
    """Apply defaults, file values, then overrides; validate every key."""
    cfg = dict(DEFAULTS)
    for source in (file_values or {}, overrides or {}):
        for key, raw in source.items():
            # A file's keys were checked where it was read; this guards the
            # flag overrides and the config a checkpoint stores.
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            cfg[key] = _coerce(key, raw)
    for key, choices in CHOICES.items():
        if cfg[key] not in choices:
            raise ConfigError(f"{key} must be one of {choices}, got {cfg[key]!r}")
    for keys, rule, ok in _RANGES:
        for key in keys.split():
            if not (ok(cfg[key]) and abs(cfg[key]) < math.inf):
                raise ConfigError(f"{key} must be finite and {rule}, got {cfg[key]!r}")
    if abs(cfg["train_frac"] + cfg["val_frac"] + cfg["test_frac"] - 1.0) > 1e-9:
        raise ConfigError("split fractions must sum to 1")
    # A period shorter than a sample cannot be observed, and its Fourier
    # angles overflow as the sample index grows.
    for _, period in parse_seasonalities(cfg["seasonalities"]):
        if period * cfg["samples_per_day"] < 1.0:
            raise ConfigError(
                f"seasonalities: period {period!r} is shorter than one sample "
                f"at samples_per_day={cfg['samples_per_day']!r}")
    parse_compare_seeds(cfg["compare_seeds"])
    return cfg


def parse_seasonalities(spec: str):
    """"6:365.25,3:7,6:1" -> ((6, 365.25), (3, 7.0), (6, 1.0))."""
    out = []
    if not spec.strip():
        return ()
    for item in spec.split(","):
        try:
            k, p = item.split(":")
            k, p = int(k), float(p)
        except ValueError:
            k, p = 0, 0.0
        if k < 1 or not 0 < p < math.inf:
            raise ConfigError(
                f"seasonalities: bad entry {item!r}; expected order:period with "
                f"an integer order >= 1 and a finite period > 0")
        out.append((k, p))
    return tuple(out)


def parse_compare_seeds(spec: str):
    """"0,1,2" -> (0, 1, 2)."""
    try:
        seeds = tuple(int(item) for item in spec.split(","))
    except ValueError:
        seeds = ()
    if not seeds or min(seeds) < 0:
        raise ConfigError(
            f"compare_seeds: expected a comma-separated list of integers "
            f">= 0, got {spec!r}")
    return seeds


def format_config(cfg: dict) -> str:
    lines = []
    for key in sorted(cfg):
        v = cfg[key]
        if isinstance(v, bool):
            v = "true" if v else "false"
        elif isinstance(v, float):
            v = repr(v)
        lines.append(f"{key}={v}")
    return "\n".join(lines) + "\n"


def json_digest(obj) -> str:
    """sha256 hex digest of `obj` as JSON with sorted keys."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def config_digest(cfg: dict) -> str:
    return json_digest(cfg)[:16]
