"""Command-line entry point.

Each command takes only the flags it reads (--config is a flat key=value
file, --seed overrides the config's `seed`):

    gen-data --config --seed --out   (--seed sets `data_seed`)
    train    --config --seed --out
    tune     --config --seed --grid --out
    compare  --config --out
    evaluate --checkpoint --split --out
    predict  --checkpoint --split --out

Logs go to stderr; all machine-readable output goes to files, each written
by `datapipe.write_text`. `train` and `compare` create --out only after their
data is read and cut into windows, and `tune` after every grid cell resolves.
Exit codes: 0 success, 1 usage/config error (running out of memory
included), 2 data error, 3 numeric divergence, 4 a worker process died.
"""
from __future__ import annotations

import argparse
import itertools
import json
import statistics
import sys
from pathlib import Path

from . import experiment
from .config import (DEFAULTS, config_digest, format_config,
                     parse_compare_seeds, parse_config_file, resolve_config)
from .datapipe import save_csi, write_text
from .errors import ConfigError, DataError, DivergenceError, WorkerError
from .evalx import grid_cells, grid_search, write_reports, write_trials


def _log(msg):
    print(msg, file=sys.stderr)


def _load_config(args):
    """The config file, if any, under the flags whose `dest` is a config key."""
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {key: value for key, value in vars(args).items()
                 if key in DEFAULTS and value is not None}
    return resolve_config(file_values, overrides)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path, payload):
    # Compact `dumps` is the one form CPython encodes in C; `json.dump` and
    # any `indent` fall back to the pure-Python encoder.
    write_text(path, [json.dumps(payload, sort_keys=True) + "\n"])


def cmd_gen_data(args):
    cfg = _load_config(args)
    series = experiment.get_series({**cfg, "dataset": "synth"})
    save_csi(series, args.out)
    _log(f"wrote {series.length} samples x {series.antenna_count} antennas "
         f"to {args.out} (config {config_digest(cfg)})")
    return 0


def _write_histories(out, histories):
    write_text(out / "loss.csv", itertools.chain(["feature,phase,epoch,loss\n"], (
        f"{feat_id},{phase},{epoch},{loss!r}\n"
        for feat_id in sorted(histories) for phase in sorted(histories[feat_id])
        for epoch, loss in enumerate(histories[feat_id][phase], start=1))))


def cmd_train(args):
    cfg = _load_config(args)
    _log(f"training model={cfg['model']} seed={cfg['seed']}")
    prepared, digest = experiment.prepare(cfg)
    out = _out_dir(args)
    checkpoint, histories = experiment.train_prepared(cfg, prepared, digest)
    _write_json(out / "checkpoint.json", checkpoint)
    _write_histories(out, histories)
    write_text(out / "resolved.cfg", [format_config(cfg)])
    _log(f"checkpoint written to {out / 'checkpoint.json'}")
    return 0


def _load_checkpoint(path):
    """The JSON value in `path`. A file that is not UTF-8 or not JSON, or that
    holds an integer too long to convert or nesting too deep, is a data
    error naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{path}: {exc}") from None


def cmd_predict(args):
    checkpoint = _load_checkpoint(args.checkpoint)
    rows = experiment.predictions_table(checkpoint, split=args.split)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_text(out, itertools.chain(
        ["feature,t,horizon,prediction,truth\n"],
        (f"{f},{t},{h},{p!r},{y!r}\n" for f, t, h, p, y in rows)))
    _log(f"wrote {len(rows)} prediction rows to {out}")
    return 0


def cmd_evaluate(args):
    checkpoint = _load_checkpoint(args.checkpoint)
    reports = experiment.evaluate_checkpoint(checkpoint, split=args.split)
    out = _out_dir(args)
    write_reports(reports, out / "metrics.csv", out / "metrics.json")
    for r in reports:
        _log(f"{r.model_id} {r.antenna}: nmse={r.nmse:.6g} "
             f"({r.nmse_db:.2f} dB) cosine={r.cosine:.6g}")
    return 0


def _parse_grid_file(path):
    """Grid file: `key=v1,v2,...` lines, with the syntax and the keys of a
    config file. Values are split at commas, one per cell."""
    grid = {}
    for key, values in parse_config_file(path).items():
        grid[key] = [v.strip() for v in values.split(",") if v.strip()]
        if not grid[key]:
            raise ConfigError(f"{path}: {key} has no values")
    if not grid:
        raise ConfigError(f"{path}: empty grid")
    return grid


def cmd_tune(args):
    base_cfg = _load_config(args)
    grid = _parse_grid_file(args.grid)
    # A value the config refuses stops the run before any cell trains.
    for cell in grid_cells(grid):
        try:
            resolve_config(dict(base_cfg), cell)
        except ConfigError as exc:
            raise ConfigError(f"grid cell {cell}: {exc}") from None
    out = _out_dir(args)

    def evaluate(cell):
        cfg = resolve_config(dict(base_cfg), cell)
        prepared, digest = experiment.prepare(cfg)
        overall = experiment.train_and_score(cfg, prepared, digest, "val")
        params = len(prepared) * experiment.stream_param_count(cfg, cfg["model"])
        return {"nmse": overall.nmse, "param_count": params}

    best, trials = grid_search(grid, evaluate)
    write_trials(trials, out / "trials.csv")
    best_cfg = resolve_config(dict(base_cfg), best)
    write_text(out / "best.cfg", [format_config(best_cfg)])
    _log(f"best cell: {best}")
    return 0


COMPARE_MODELS = ("np", "rnn", "bilstm", "hybrid")


def cmd_compare(args):
    base_cfg = _load_config(args)
    seeds = parse_compare_seeds(base_cfg["compare_seeds"])
    # Every run trains and is scored on these windows: the model and the
    # seed, all that the runs change, cut none of them.
    prepared, digest = experiment.prepare(base_cfg)
    out = _out_dir(args)
    rows = []
    try:
        for seed in seeds:
            for model in COMPARE_MODELS:
                cfg = resolve_config(dict(base_cfg),
                                     {"model": model, "seed": seed})
                _log(f"compare: training {model} (seed {seed})")
                rows.append(experiment.train_and_score(cfg, prepared, digest,
                                                       "test"))
    finally:
        if rows:  # the runs that finished, even if a later one failed
            write_reports(rows, out / "comparison.csv", out / "comparison.json")
    nmses = {m: [r.nmse for r in rows if r.model_id == m] for m in COMPARE_MODELS}
    summary = {m: {"median_nmse": statistics.median(v), "seeds": len(v)}
               for m, v in nmses.items()}
    _write_json(out / "summary.json", summary)
    write_text(out / "resolved.cfg", [format_config(base_cfg)])
    for m, s in summary.items():
        _log(f"{m}: median test NMSE over {s['seeds']} seeds = "
             f"{s['median_nmse']:.6g}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="csipred",
        description="Train and compare channel predictors on CSI time series.")
    sub = parser.add_subparsers(dest="command", required=True)
    config = ("--config", {"help": "flat key=value config file"})
    seed = ("--seed", {"type": int, "help": "override the config seed"})
    checkpoint = ("--checkpoint", {"required": True})
    split = ("--split", {"default": "test", "choices": ("train", "val", "test")})
    out_csv = ("--out", {"required": True, "help": "output CSV path"})
    out_dir = ("--out", {"required": True, "help": "output directory"})
    commands = {
        "gen-data": (cmd_gen_data, config,
                     ("--seed", {"type": int, "dest": "data_seed", "metavar": "SEED",
                                 "help": "override the config data_seed"}), out_csv),
        "train": (cmd_train, config, seed, out_dir),
        "predict": (cmd_predict, checkpoint, split, out_csv),
        "evaluate": (cmd_evaluate, checkpoint, split, out_dir),
        "tune": (cmd_tune, config, seed,
                 ("--grid", {"required": True, "help": "grid file: key=v1,v2 lines"}),
                 out_dir),
        "compare": (cmd_compare, config, out_dir),
    }
    for name, (fn, *flags) in commands.items():
        p = sub.add_parser(name)
        for flag, kw in flags:
            p.add_argument(flag, **kw)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ConfigError as exc:
        _log(f"config error: {exc}")
        return 1
    except MemoryError as exc:  # here or sent back by a worker
        _log(f"config error: out of memory: {exc}")
        return 1
    except (DataError, OSError) as exc:
        _log(f"data error: {exc}")
        return 2
    except DivergenceError as exc:
        _log(f"divergence: {exc}")
        return 3
    except WorkerError as exc:
        _log(f"worker error: {exc}")
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
