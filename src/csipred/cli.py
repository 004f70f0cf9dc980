"""Command-line entry point.

Commands: gen-data, train, predict, evaluate, tune, compare. Shared flags:
--config (flat key=value file), --seed, --out. Logs go to stderr; all
machine-readable output goes to files. Exit codes: 0 success, 1 usage/config
error, 2 data error, 3 numeric divergence, 4 a training worker died.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from . import experiment
from .config import (DEFAULTS, config_digest, format_config,
                     parse_compare_seeds, parse_config_file, resolve_config)
from .datapipe import save_csi
from .errors import ConfigError, DataError, DivergenceError, WorkerError
from .evalx import grid_cells, grid_search, write_reports, write_trials


def _log(msg):
    print(msg, file=sys.stderr)


def _load_config(args):
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {"seed": args.seed} if args.seed is not None else {}
    return resolve_config(file_values, overrides)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path, payload):
    # Compact `dumps` is the one form CPython encodes in C; `json.dump` and
    # any `indent` fall back to the pure-Python encoder.
    _write_text(path, json.dumps(payload, sort_keys=True) + "\n")


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def cmd_gen_data(args):
    overrides = {"data_seed": args.seed} if args.seed is not None else {}
    file_values = parse_config_file(args.config) if args.config else {}
    cfg = resolve_config(file_values, overrides)
    series = experiment.get_series({**cfg, "dataset": "synth"})
    save_csi(series, args.out)
    _log(f"wrote {series.length} samples x {series.antenna_count} antennas "
         f"to {args.out} (config {config_digest(cfg)})")
    return 0


def _write_histories(out, histories):
    lines = ["feature,phase,epoch,loss"]
    for feat_id in sorted(histories):
        for phase in sorted(histories[feat_id]):
            for epoch, loss in enumerate(histories[feat_id][phase], start=1):
                lines.append(f"{feat_id},{phase},{epoch},{loss!r}")
    _write_text(out / "loss.csv", "\n".join(lines) + "\n")


def cmd_train(args):
    cfg = _load_config(args)
    out = _out_dir(args)
    _log(f"training model={cfg['model']} seed={cfg['seed']}")
    checkpoint, histories = experiment.train_experiment(cfg)
    _write_json(out / "checkpoint.json", checkpoint)
    _write_histories(out, histories)
    _write_text(out / "resolved.cfg", format_config(cfg))
    _log(f"checkpoint written to {out / 'checkpoint.json'}")
    return 0


def _load_checkpoint(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cmd_predict(args):
    checkpoint = _load_checkpoint(args.checkpoint)
    rows = experiment.predictions_table(checkpoint, split=args.split)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = ["feature,t,horizon,prediction,truth"]
    lines += [f"{f},{t},{h},{p!r},{y!r}" for f, t, h, p, y in rows]
    _write_text(out, "\n".join(lines) + "\n")
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
    """Grid file: `key=v1,v2,...` lines, with the syntax of a config file."""
    grid = {}
    for key, values in parse_config_file(path).items():
        if key not in DEFAULTS:
            raise ConfigError(f"{path}: unknown config key {key!r}")
        grid[key] = [v.strip() for v in values.split(",") if v.strip()]
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

    try:
        best, trials = grid_search(grid, evaluate)
    except WorkerError:
        raise
    except RuntimeError as exc:  # no cell trained: exit as its first failure
        raise exc.__cause__ from None
    write_trials(trials, out / "trials.csv")
    best_cfg = resolve_config(dict(base_cfg), best)
    _write_text(out / "best.cfg", format_config(best_cfg))
    _log(f"best cell: {best}")
    return 0


COMPARE_MODELS = ("np", "rnn", "bilstm", "hybrid")


def cmd_compare(args):
    base_cfg = _load_config(args)
    out = _out_dir(args)
    seeds = parse_compare_seeds(base_cfg["compare_seeds"])
    series = experiment.get_series(base_cfg)
    rows = []
    per_model = {m: [] for m in COMPARE_MODELS}
    try:
        # Every run trains and is scored on these windows: the model and the
        # seed, all that the runs change, cut none of them.
        prepared, digest = experiment.prepare(base_cfg, series)
        for seed in seeds:
            for model in COMPARE_MODELS:
                cfg = resolve_config(dict(base_cfg),
                                     {"model": model, "seed": seed})
                _log(f"compare: training {model} (seed {seed})")
                overall = experiment.train_and_score(cfg, prepared, digest, "test")
                rows.append(overall)
                per_model[model].append(overall.nmse)
    finally:
        write_reports(rows, out / "comparison.csv", out / "comparison.json")
    summary = {m: {"median_nmse": statistics.median(v),
                   "seeds": len(v)} for m, v in per_model.items() if v}
    _write_json(out / "summary.json", summary)
    _write_text(out / "resolved.cfg", format_config(base_cfg))
    for m, s in summary.items():
        _log(f"{m}: median test NMSE over {s['seeds']} seeds = "
             f"{s['median_nmse']:.6g}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="csipred",
        description="Train and compare channel predictors on CSI time series.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        for flag, kw in flags.items():
            p.add_argument(flag, **kw)
        p.set_defaults(fn=fn)
        return p

    add("gen-data", cmd_gen_data,
        **{"--out": {"required": True, "help": "output CSV path"}})
    add("train", cmd_train,
        **{"--out": {"required": True, "help": "output directory"}})
    add("predict", cmd_predict,
        **{"--checkpoint": {"required": True},
           "--split": {"default": "test", "choices": ("train", "val", "test")},
           "--out": {"required": True, "help": "output CSV path"}})
    add("evaluate", cmd_evaluate,
        **{"--checkpoint": {"required": True},
           "--split": {"default": "test", "choices": ("train", "val", "test")},
           "--out": {"required": True, "help": "output directory"}})
    add("tune", cmd_tune,
        **{"--grid": {"required": True, "help": "grid file: key=v1,v2 lines"},
           "--out": {"required": True, "help": "output directory"}})
    add("compare", cmd_compare,
        **{"--out": {"required": True, "help": "output directory"}})
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
    except (DataError, OSError, json.JSONDecodeError) as exc:
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
