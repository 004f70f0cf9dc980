"""Experiment orchestration: config -> data -> per-feature models -> metrics.

Each (antenna, real/imag) stream trains its own predictor; results are
recombined into complex channel vectors for evaluation. All randomness flows
from the config seeds, so a rerun with the same config is bit-identical.
"""
from __future__ import annotations

import numpy as np

from . import datapipe, synthchan
from .config import DEFAULTS, config_digest, parse_seasonalities, resolve_config
from .errors import CheckpointMismatch, ConfigError
from .evalx import (MetricReport, aggregate_nmse, assemble_complex,
                    cosine_similarity, nmse)
from .hybrid import HybridModel, build_hybrid, hybrid_predict_batch
from .nprophet import (NpConfig, NpModel, config_dict, np_predict_batch,
                       np_train)
from .recurrent import RecurrentModel, TrainConfig, predict_batch, train_recurrent

CHECKPOINT_FORMAT = "csipred-experiment-v1"
# Model kind -> class whose `from_dict` reads a feature's saved model.
MODEL_CLASSES = {"rnn": RecurrentModel, "lstm": RecurrentModel,
                 "bilstm": RecurrentModel, "np": NpModel, "hybrid": HybridModel}


def get_series(cfg) -> datapipe.CsiSeries:
    if cfg["dataset"] == "synth":
        fading = synthchan.FadingConfig(
            carrier_hz=cfg["carrier_hz"],
            speed_mps=cfg["speed_kmph"] / 3.6,
            sample_interval=cfg["sample_interval"],
            path_count=cfg["path_count"],
            antenna_count=cfg["antenna_count"],
            sample_count=cfg["sample_count"],
            seed=cfg["data_seed"])
        return synthchan.generate_fading(fading)
    return datapipe.load_csi(cfg["dataset"], sample_interval=cfg["sample_interval"])


def prepare(cfg, series=None):
    if series is None:
        series = get_series(cfg)
    fractions = (cfg["train_frac"], cfg["val_frac"], cfg["test_frac"])
    return datapipe.prepare_dataset(series, cfg["d"], cfg["D"],
                                    fractions=fractions,
                                    stride=cfg["window_stride"])


def recurrent_model(cfg, arch, seed) -> RecurrentModel:
    """An untrained recurrent model of the given architecture, shaped by cfg."""
    train_cfg = TrainConfig(learning_rate=cfg["rnn_learning_rate"],
                            epochs=cfg["epochs"], batch_size=cfg["batch_size"],
                            huber_beta=cfg["huber_beta"], dropout=cfg["dropout"])
    return RecurrentModel(arch, cfg["d"], cfg["D"], hidden_size=cfg["rnn_hidden"],
                          layers=cfg["rnn_layers"],
                          bilstm_combine=cfg["bilstm_combine"], config=train_cfg,
                          seed=seed)


def np_config(cfg, regressor=False) -> NpConfig:
    return NpConfig(
        d=cfg["d"], D=cfg["D"],
        learning_rate=cfg["np_learning_rate"], epochs=cfg["epochs"],
        batch_size=cfg["batch_size"], huber_beta=cfg["huber_beta"],
        n_changepoints=cfg["n_changepoints"],
        changepoint_range=cfg["changepoint_range"],
        discontinuous_growth=cfg["discontinuous_growth"],
        trend_enabled=cfg["trend_enabled"],
        seasonality_enabled=cfg["seasonality_enabled"],
        seasonalities=parse_seasonalities(cfg["seasonalities"]),
        samples_per_day=cfg["samples_per_day"],
        ar_enabled=cfg["ar_enabled"], ar_layers=cfg["np_layers"],
        ar_hidden=cfg["np_hidden"], ar_linear=cfg["ar_linear"],
        regressor_enabled=regressor)


def _feature_seed(seed, index):
    return seed * 10007 + index


def train_feature(cfg, kind, prepared: datapipe.PreparedFeature, seed,
                  dataset_digest=""):
    """Train one model of the given kind on one feature stream."""
    windows = prepared.windows
    if kind in ("rnn", "lstm", "bilstm"):
        model = recurrent_model(cfg, kind, seed)
        history = train_recurrent(model, windows["train"], seed=seed)
        return model, {"train": history}
    if kind == "np":
        model, history = np_train(windows["train"], np_config(cfg), seed=seed)
        return model, {"train": history}
    if kind == "hybrid":
        model, rnn_hist, np_hist, _ = build_hybrid(
            windows, recurrent_model(cfg, cfg["hybrid_source"], seed),
            np_config(cfg, regressor=True), seed=seed,
            dataset_digest=dataset_digest)
        return model, {"stage1": rnn_hist, "stage2": np_hist}
    raise ConfigError(f"unknown model kind {kind!r}")


def predict_windows(kind, model, ws: datapipe.SupervisedWindowSet):
    """Normalized-domain predictions for every window in the set."""
    if kind in ("rnn", "lstm", "bilstm"):
        return predict_batch(model, ws.X)
    if kind == "np":
        return np_predict_batch(model, ws.t, ws.X)
    if kind == "hybrid":
        return hybrid_predict_batch(model, ws.t, ws.X)
    raise ConfigError(f"unknown model kind {kind!r}")


def train_experiment(cfg, series=None):
    """Train the configured model on every feature stream.

    Returns (checkpoint dict, per-feature loss histories).
    """
    prepared, digest = prepare(cfg, series)
    kind = cfg["model"]
    features = {}
    histories = {}
    for idx, pf in enumerate(prepared):
        seed = _feature_seed(cfg["seed"], idx)
        model, history = train_feature(cfg, kind, pf, seed,
                                       dataset_digest=digest)
        features[pf.feature.feature_id] = {
            "model": model.to_dict(),
            "scaler": {"shift": pf.scaler.shift,
                       "half_range": pf.scaler.half_range},
        }
        histories[pf.feature.feature_id] = history
    checkpoint = {"format": CHECKPOINT_FORMAT, "kind": kind,
                  "config": dict(cfg), "dataset_digest": digest,
                  "features": features}
    return checkpoint, histories


def _implied_entry(kind, cfg):
    """The fields of a trained model entry of this kind that `cfg` fixes."""
    if kind == "np":
        return {"trained": True, "config": config_dict(np_config(cfg))}
    if kind == "hybrid":
        return {"rnn": _implied_entry(cfg["hybrid_source"], cfg),
                "np": {"trained": True,
                       "config": config_dict(np_config(cfg, regressor=True))}}
    return {"trained": True, "arch": kind, "d": cfg["d"], "D": cfg["D"],
            "hidden_size": cfg["rnn_hidden"], "layers": cfg["rnn_layers"],
            "input_size": 1, "bilstm_combine": cfg["bilstm_combine"]}


def _mismatch(payload, implied, where):
    """Names the first field of `payload` that differs from `implied` (nested
    objects field by field), or returns None."""
    if not isinstance(payload, dict):
        return f"{where} is not an object"
    for key, want in implied.items():
        got = payload.get(key)
        if isinstance(want, dict):
            found = _mismatch(got, want, f"{where}.{key}")
            if found:
                return found
        elif got != want:
            return f"{where}.{key} is {got!r}, the config implies {want!r}"
    return None


def _predict_split(checkpoint, split, series):
    """Re-prepare a checkpoint's dataset and predict one split per feature.

    Returns {feature id: (windows, prediction, truth)}, de-normalized. Refuses
    a checkpoint that is not an experiment object with a known model kind and
    a full, valid config, whose dataset digest or features do not match, or
    whose feature entries do not hold the scaler of the re-prepared data and a
    trained, loadable model of that kind with the shape the config implies.
    """
    if not isinstance(checkpoint, dict) or checkpoint.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointMismatch("not an experiment checkpoint")
    missing = {"kind", "config", "dataset_digest", "features"} - checkpoint.keys()
    if missing:
        raise CheckpointMismatch(f"checkpoint lacks {', '.join(sorted(missing))}")
    kind, cfg = checkpoint["kind"], checkpoint["config"]
    if not isinstance(kind, str) or kind not in MODEL_CLASSES:
        raise CheckpointMismatch(f"unknown model kind {kind!r}")
    if not isinstance(cfg, dict) or not isinstance(checkpoint["features"], dict):
        raise CheckpointMismatch("checkpoint config or features is not an object")
    missing = DEFAULTS.keys() - cfg.keys()
    if missing:
        raise CheckpointMismatch(f"checkpoint config lacks {', '.join(sorted(missing))}")
    try:
        cfg = resolve_config(cfg)
    except ConfigError as exc:
        raise CheckpointMismatch(f"checkpoint config: {exc}") from None
    prepared, digest = prepare(cfg, series)
    if digest != checkpoint["dataset_digest"]:
        raise CheckpointMismatch(
            "dataset digest mismatch: checkpoint was trained on different windows")
    implied = _implied_entry(kind, cfg)
    by_feature = {}
    for pf in prepared:
        feat_id = pf.feature.feature_id
        entry = checkpoint["features"].get(feat_id)
        if not isinstance(entry, dict) or not {"model", "scaler"} <= entry.keys():
            raise CheckpointMismatch(f"checkpoint lacks a model and scaler "
                                     f"for feature {feat_id}")
        if entry["scaler"] != {"shift": pf.scaler.shift,
                               "half_range": pf.scaler.half_range}:
            raise CheckpointMismatch(f"feature {feat_id}: stored scaler is not "
                                     f"the one its training data gives")
        found = _mismatch(entry["model"], implied, "model")
        if found:
            raise CheckpointMismatch(f"feature {feat_id}: {found}")
        try:
            model = MODEL_CLASSES[kind].from_dict(entry["model"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointMismatch(
                f"feature {feat_id}: unusable {kind} model entry: {exc}") from None
        ws = pf.windows[split]
        by_feature[feat_id] = (ws, pf.scaler.inverse(predict_windows(kind, model, ws)),
                               pf.scaler.inverse(ws.Y))
    return by_feature


def evaluate_checkpoint(checkpoint, split="test", series=None):
    """Per-antenna and aggregate NMSE / cosine similarity on one split.

    Predictions are de-normalized before real/imag recombination so metrics
    are computed on original-scale complex values.
    """
    by_feature = _predict_split(checkpoint, split, series)
    cfg = checkpoint["config"]
    kind = checkpoint["kind"]
    reports = []
    parts = []
    cos_parts = []
    antennas = sorted({f.split("_")[0] for f in by_feature})
    track = cfg["dataset"] if cfg["dataset"] != "synth" else f"synth-{cfg['data_seed']}"
    digest16 = config_digest(cfg)
    for ant in antennas:
        ws, pred_re, truth_re = by_feature[f"{ant}_re"]
        _, pred_im, truth_im = by_feature[f"{ant}_im"]
        pred_c = assemble_complex(pred_re, pred_im)
        truth_c = assemble_complex(truth_re, truth_im)
        count = len(ws)
        try:
            # Finite but huge parameters can overflow the metrics' squares.
            with np.errstate(over="raise", invalid="raise"):
                v_nmse = nmse(pred_c, truth_c)
                v_cos = cosine_similarity(pred_c, truth_c)
        except FloatingPointError as exc:
            raise CheckpointMismatch(
                f"antenna {ant}: the metrics of its predictions overflow "
                f"({exc}); the checkpoint parameters are out of range") from None
        reports.append(MetricReport(model_id=kind, track=track, seed=cfg["seed"],
                                    nmse=v_nmse, cosine=v_cos,
                                    window_count=count, config_digest=digest16,
                                    antenna=ant))
        parts.append((v_nmse, count))
        cos_parts.append((v_cos, count))
    reports.append(MetricReport(model_id=kind, track=track, seed=cfg["seed"],
                                nmse=aggregate_nmse(parts),
                                cosine=aggregate_nmse(cos_parts),
                                window_count=sum(c for _, c in parts),
                                config_digest=digest16, antenna="all"))
    return reports


def predictions_table(checkpoint, split="test", series=None):
    """Rows (feature, origin t, horizon step, prediction, truth), de-normalized."""
    rows = []
    for feat_id, (ws, pred, truth) in _predict_split(checkpoint, split,
                                                     series).items():
        for t, p_row, y_row in zip(ws.t.tolist(), pred.tolist(), truth.tolist()):
            rows.extend((feat_id, t, h, p, y)
                        for h, (p, y) in enumerate(zip(p_row, y_row), start=1))
    return rows
