"""Experiment orchestration: config -> data -> per-feature models -> metrics.

Every command composes four steps: `prepare`, `train_prepared`,
`predict_prepared` (which checks the checkpoint) and `report`. `compare` and
`tune` prepare once per run or cell and call `train_and_score`.

Each (antenna, real/imag) stream trains its own predictor, in stacked groups
of streams that train as one (see `group_size`), and the groups train in
forked worker processes (see `workers`); results are recombined into
complex channel vectors for evaluation. All randomness flows from the config
seeds, so a rerun with the same config is bit-identical.
"""
from __future__ import annotations

import contextlib
import functools

import numpy as np

from . import datapipe, hybrid, numcore, synthchan, workers
from .config import config_digest, parse_seasonalities, resolve_config
from .errors import (CheckpointMismatch, ConfigError, ContractViolation,
                     DivergenceError)
from .evalx import (MetricReport, aggregate_nmse, assemble_complex,
                    cosine_similarity, nmse)
from .hybrid import HybridModel, build_hybrid, hybrid_predict_batch
from .nprophet import (NpConfig, NpModel, batch_cache_bytes, np_predict_batch,
                       np_train, trend_span)
from .numcore import unstack
from .recurrent import (RecurrentModel, TrainConfig, predict_batch,
                        scan_cache_bytes, train_recurrent)

CHECKPOINT_FORMAT = "csipred-experiment-v1"


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


# Feature streams train in stacked groups (see `numcore.unstack`): as many
# streams as keep the arrays that one stacked forward+backward pass holds live
# within this many bytes, and at least one. At H=16, L=1, B=32 that is 8 rnn,
# 2 lstm and 1 bilstm streams; at the paper shape (H=200, L=3) one recurrent
# stream alone exceeds it. Larger groups gained little more speed and raised
# the peak RSS of a 16-antenna `csipred` session.
GROUP_CACHE_BYTES = 5 << 20


def _stages(cfg, kind):
    """A model kind's stages under cfg: (the additive model's config, the
    recurrent architecture), None for a stage the kind lacks. The hybrid has
    both, with `hybrid_source` as its architecture and the recurrent
    forecasts as the additive model's regressor. Training, loading and
    sizing all read a kind's stages here."""
    np_cfg = np_config(cfg, kind == "hybrid") if kind in ("np", "hybrid") else None
    arch = {"np": None, "hybrid": cfg["hybrid_source"]}.get(kind, kind)
    return np_cfg, arch


def stream_bytes(cfg, kind):
    """About the bytes that one stream's forward+backward pass over a batch
    keeps live, for this config and model kind (the larger of the hybrid's
    two stages)."""
    np_cfg, arch = _stages(cfg, kind)
    return max(0 if np_cfg is None else batch_cache_bytes(np_cfg, cfg["batch_size"]),
               0 if arch is None else scan_cache_bytes(
                   arch, cfg["rnn_hidden"], cfg["rnn_layers"], cfg["d"],
                   cfg["batch_size"]))


def stream_param_count(cfg, kind):
    """Trainable parameters of one stream's model for this config and model
    kind (the sum of the hybrid's two stages), as training builds it."""
    np_cfg, arch = _stages(cfg, kind)
    return ((0 if np_cfg is None else NpModel(np_cfg).param_count())
            + (0 if arch is None else recurrent_model(cfg, arch, 0).param_count()))


def group_size(cfg, kind, streams):
    """Streams per stacked training group, of `streams` in all."""
    return max(1, min(streams, GROUP_CACHE_BYTES // stream_bytes(cfg, kind)))


def train_feature(cfg, kind, group, seeds, dataset_digest=""):
    """Train one model of the given kind on each feature stream of `group`
    (a list of PreparedFeature, one seed each), as one stacked model; a group
    of one stream trains as a plain model.

    Returns the per-stream models and loss histories.
    """
    stacked = len(group) > 1
    seed = seeds if stacked else seeds[0]

    def per_stream(value):
        return value if stacked else [value]

    np_cfg, arch = _stages(cfg, kind)
    two_stage = np_cfg is not None and arch is not None
    # Stage 2 trains on the train forecasts; perfbench/tracing.py reads val's.
    splits = {name: datapipe.stack_windows([pf.windows[name] for pf in group])
              for name in (("train", "val") if two_stage else ("train",))}
    if two_stage:
        model, rnn_hists, np_hists, _ = build_hybrid(
            splits, recurrent_model(cfg, arch, seed), np_cfg, seed=seed,
            dataset_digest=dataset_digest)
        models = [HybridModel(*stages) for stages in zip(
            unstack(model.rnn), unstack(model.np_model),
            per_stream(model.provenance))]
        return models, [{"stage1": a, "stage2": b} for a, b in
                        zip(per_stream(rnn_hists), per_stream(np_hists))]
    if arch is None:
        model, histories = np_train(splits["train"], np_cfg, seed=seed)
    else:
        model = recurrent_model(cfg, arch, seed)
        histories = train_recurrent(model, splits["train"], seed=seed)
    return unstack(model), [{"train": h} for h in per_stream(histories)]


def predict_windows(kind, model, ws: datapipe.SupervisedWindowSet):
    """Normalized-domain predictions for every window in the set."""
    if kind == "np":
        return np_predict_batch(model, ws.t, ws.X)
    if kind == "hybrid":
        return hybrid_predict_batch(model, ws.t, ws.X)
    return predict_batch(model, ws.X)


def train_experiment(cfg, series=None):
    """`train_prepared` on the windows that `prepare` cuts for cfg."""
    return train_prepared(cfg, *prepare(cfg, series))


def train_prepared(cfg, prepared, digest):
    """Train the configured model on every prepared feature stream, in
    stacked groups of `group_size` streams.

    The groups are independent, and `workers.run_groups` trains them in one
    process per CPU this process may run on (`workers.default_jobs`); the
    result does not depend on that count. A failure raises the error of the
    lowest-index failing group.

    Returns (checkpoint dict, per-feature loss histories).
    """
    kind = cfg["model"]
    size = group_size(cfg, kind, len(prepared))

    def train_group(index):
        """(feature id, checkpoint entry, loss history) of each stream."""
        start = index * size
        group = prepared[start:start + size]
        seeds = [_feature_seed(cfg["seed"], start + i) for i in range(len(group))]
        try:
            models, group_histories = train_feature(cfg, kind, group, seeds,
                                                    dataset_digest=digest)
        except DivergenceError as exc:
            exc.feature, exc.kind = group[exc.stream].feature.feature_id, kind
            raise
        return [(pf.feature.feature_id, _feature_entry(model, pf.scaler), history)
                for pf, model, history in zip(group, models, group_histories)]

    features = {}
    histories = {}
    count = -(-len(prepared) // size)
    for streams in workers.run_groups(train_group, count,
                                      workers.default_jobs()):
        for feat_id, entry, history in streams:
            features[feat_id] = entry
            histories[feat_id] = history
    return _checkpoint(cfg, digest, features), histories


def train_and_score(cfg, prepared, digest, split):
    """Train cfg on prepared windows and score one split of them, checking
    the checkpoint as `evaluate` does: the report over all antennas."""
    checkpoint, _ = train_prepared(cfg, prepared, digest)
    return report(cfg, predict_prepared(cfg, checkpoint, split, prepared,
                                        digest))[-1]


def _checkpoint(cfg, digest, features):
    """What training writes for a resolved config, the digest of its windows
    and the entries of its features."""
    return {"format": CHECKPOINT_FORMAT, "kind": cfg["model"],
            "config": dict(cfg), "dataset_digest": digest, "features": features}


def _feature_entry(model, scaler, with_params=True):
    """A feature's checkpoint entry: its model and its stream's scaler."""
    return {"model": model.to_dict(with_params),
            "scaler": {"shift": scaler.shift, "half_range": scaler.half_range}}


def _load_model(cfg, train, seed, digest, entry):
    """The model training builds for a feature from these train windows, seed
    and dataset digest, marked trained, with the parameters of its `entry`;
    names the first key on the way to them that the entry lacks."""
    def filled(model, *path):
        stored, where = entry, f"features.{train.feature_id}"
        for key in ("model", *path, "params"):
            if not isinstance(stored, dict) or key not in stored:
                raise CheckpointMismatch(f"{where}.{key} is missing")
            stored, where = stored[key], f"{where}.{key}"
        try:
            model.params = numcore.load_params(model.params, stored)
        except ContractViolation as exc:
            raise CheckpointMismatch(f"feature {train.feature_id}: {exc}") from None
        model.trained = True
        return model
    np_cfg, arch = _stages(cfg, cfg["model"])
    if np_cfg is None:
        return filled(recurrent_model(cfg, arch, seed))
    np_model = NpModel(np_cfg, seed, *trend_span(train))
    if arch is None:
        return filled(np_model)
    rnn = filled(recurrent_model(cfg, arch, seed), "rnn")
    return HybridModel(rnn, filled(np_model, "np"),
                       hybrid.make_provenance(seed, digest, rnn, np_cfg))


def _check_entry(got, want, where=""):
    """Refuses a stored value `got` unless it equals `want` field by field, in
    value and type, naming the path of the first field that differs or only
    one holds; `load_params` reads `params`."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(got.keys() | want.keys()):
            path = f"{where}.{key}" if where else key
            if key not in got or key not in want:
                raise CheckpointMismatch(
                    f"{path} is {'missing' if key in want else 'extra'}")
            if key != "params":
                _check_entry(got[key], want[key], path)
    elif type(got) is not type(want) or got != want:
        wrote = "an object" if isinstance(want, dict) else repr(want)
        raise CheckpointMismatch(f"{where} is {got!r}, training writes {wrote}")


def predict_prepared(cfg, checkpoint, split, prepared, digest):
    """{feature id: (windows, prediction, truth)} of one split, de-normalized,
    from the windows `prepare` cut for the resolved config `cfg`. Refuses a
    checkpoint that, apart from the model parameters, is not exactly what
    `train_prepared` writes for them; each feature's entry is checked as its
    model is loaded."""
    # A digest that is missing is named by the comparison below.
    if checkpoint.get("dataset_digest", digest) != digest:
        raise CheckpointMismatch(
            "dataset digest mismatch: checkpoint was trained on different windows")
    # The feature entries are compared below, each as its model is loaded.
    stored = checkpoint.get("features")
    _check_entry({**checkpoint, "features": dict.fromkeys(stored)}
                 if isinstance(stored, dict) else checkpoint,
                 _checkpoint(cfg, digest, dict.fromkeys(
                     pf.feature.feature_id for pf in prepared)))
    by_feature = {}
    for index, pf in enumerate(prepared):
        feat_id = pf.feature.feature_id
        entry = stored[feat_id]
        model = _load_model(cfg, pf.windows["train"],
                            _feature_seed(cfg["seed"], index), digest, entry)
        _check_entry(entry, _feature_entry(model, pf.scaler, with_params=False),
                     f"features.{feat_id}")
        ws = pf.windows[split]
        # Finite but huge parameters can overflow the forward pass.
        with _refuse_overflow(f"feature {feat_id}: its predictions"):
            pred = predict_windows(cfg["model"], model, ws)
        by_feature[feat_id] = (ws, pf.scaler.inverse(pred), pf.scaler.inverse(ws.Y))
    return by_feature


def _predict_split(checkpoint, split, series):
    """A checkpoint's resolved config, and `predict_prepared` on the windows
    that `prepare` cuts for it."""
    if not isinstance(checkpoint, dict) or not isinstance(checkpoint.get("config"), dict):
        raise CheckpointMismatch("not an experiment checkpoint with a config object")
    try:
        cfg = resolve_config(checkpoint["config"])
    except ConfigError as exc:
        raise CheckpointMismatch(f"checkpoint config: {exc}") from None
    return cfg, predict_prepared(cfg, checkpoint, split, *prepare(cfg, series))


@contextlib.contextmanager
def _refuse_overflow(what):
    """Refuses the checkpoint when the numpy work in the block overflows."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise CheckpointMismatch(f"{what} overflow ({exc}); the checkpoint "
                                 f"parameters are out of range") from None


def report(cfg, by_feature):
    """Per-antenna NMSE / cosine similarity of `predict_prepared`'s output,
    then their window-weighted aggregate, antenna `all`. The predictions are
    de-normalized before real/imag recombination, so metrics are computed on
    original-scale complex values."""
    track = cfg["dataset"] if cfg["dataset"] != "synth" else f"synth-{cfg['data_seed']}"
    row = functools.partial(MetricReport, model_id=cfg["model"], track=track,
                            seed=cfg["seed"], config_digest=config_digest(cfg))
    reports = []
    for ant in sorted({f.split("_")[0] for f in by_feature}):
        ws, pred_re, truth_re = by_feature[f"{ant}_re"]
        _, pred_im, truth_im = by_feature[f"{ant}_im"]
        pred_c = assemble_complex(pred_re, pred_im)
        truth_c = assemble_complex(truth_re, truth_im)
        # Finite but huge predictions can overflow the metrics' squares.
        with _refuse_overflow(f"antenna {ant}: the metrics of its predictions"):
            reports.append(row(nmse=nmse(pred_c, truth_c),
                               cosine=cosine_similarity(pred_c, truth_c),
                               window_count=len(ws), antenna=ant))
    reports.append(row(
        nmse=aggregate_nmse([(r.nmse, r.window_count) for r in reports]),
        cosine=aggregate_nmse([(r.cosine, r.window_count) for r in reports]),
        window_count=sum(r.window_count for r in reports), antenna="all"))
    return reports


def evaluate_checkpoint(checkpoint, split="test", series=None):
    """`report` of a checkpoint's predictions of one split."""
    return report(*_predict_split(checkpoint, split, series))


def predictions_table(checkpoint, split="test", series=None):
    """Rows (feature, origin t, horizon step, prediction, truth), de-normalized."""
    rows = []
    for feat_id, (ws, pred, truth) in _predict_split(checkpoint, split,
                                                     series)[1].items():
        for t, p_row, y_row in zip(ws.t.tolist(), pred.tolist(), truth.tolist()):
            rows.extend((feat_id, t, h, p, y)
                        for h, (p, y) in enumerate(zip(p_row, y_row), start=1))
    return rows
