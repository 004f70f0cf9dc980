"""Experiment orchestration: config -> data -> per-feature models -> metrics.

Every command composes four steps: `prepare`, `train_prepared`,
`predict_prepared` (which checks the checkpoint) and `report`. `compare` and
`tune` prepare once per run or cell and call `train_and_score`.

Each (antenna, real/imag) stream trains its own predictor, in stacked groups
of streams that train as one stack, a group of one stream included (see
`group_size`), and predicts in stacks sized by its windows (see
`predict_size`). `_run_streams` cuts a run's streams into groups of at most
either size, spread evenly over its processes (see `group_sizes`), and runs
them in forked worker processes (see `workers`): one per CPU to train, and
to predict as many as the work merits (see `predict_jobs`).
Predictions are recombined into complex channel vectors for evaluation. All
randomness flows from the config seeds, so a rerun with the same config is
bit-identical.
"""
from __future__ import annotations

import contextlib
import functools
import itertools

import numpy as np

from . import datapipe, hybrid, numcore, synthchan, workers
from .config import config_digest, parse_seasonalities, resolve_config
from .errors import (CheckpointMismatch, ConfigError, ContractViolation,
                     DataError, DivergenceError)
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
        # Each path's phase grows to 2*pi*f_d*t at the last sample, computed
        # in this order; a phase that overflows makes every sample NaN.
        last = fading.sample_interval * (fading.sample_count - 1)
        if not np.isfinite(2.0 * np.pi * fading.doppler_hz * last):
            raise ConfigError(
                f"speed_kmph={cfg['speed_kmph']!r}, carrier_hz={cfg['carrier_hz']!r}, "
                f"sample_interval={cfg['sample_interval']!r} and sample_count="
                f"{cfg['sample_count']!r} give a Doppler phase that overflows")
        return synthchan.generate_fading(fading)
    return datapipe.load_csi(cfg["dataset"], sample_interval=cfg["sample_interval"])


def prepare(cfg, series=None):
    if series is None:
        series = get_series(cfg)
    fractions = (cfg["train_frac"], cfg["val_frac"], cfg["test_frac"])
    return datapipe.prepare_dataset(series, cfg["d"], cfg["D"],
                                    fractions=fractions,
                                    stride=cfg["window_stride"])


def recurrent_model(cfg, arch, seed, draw=True) -> RecurrentModel:
    """An untrained recurrent model of the given architecture, shaped by cfg;
    `draw` false leaves its parameters undrawn."""
    train_cfg = TrainConfig(learning_rate=cfg["rnn_learning_rate"],
                            epochs=cfg["epochs"], batch_size=cfg["batch_size"],
                            huber_beta=cfg["huber_beta"], dropout=cfg["dropout"])
    return RecurrentModel(arch, cfg["d"], cfg["D"], hidden_size=cfg["rnn_hidden"],
                          layers=cfg["rnn_layers"],
                          bilstm_combine=cfg["bilstm_combine"], config=train_cfg,
                          seed=seed, draw=draw)


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
# 2 lstm and 2 bilstm streams; at the paper shape (H=200, L=3) one recurrent
# stream alone exceeds it. Larger groups gained little more speed and raised
# the peak RSS of a 16-antenna `csipred` session.
GROUP_CACHE_BYTES = 5 << 20
# Prediction forks one more process per this many multiply-adds of
# `predict_jobs`'s estimate, up to one per CPU. Below it a fork costs more
# than it saves: on 2 vCPUs a fork and reap took 3.5 ms, two processes cost
# `run_groups` 6-7 ms more than one, and the whole mimo-shape forecast (32
# streams of 11 windows, 14-55 M) ran faster in one process in every family.
FORK_WORK = 75_000_000


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


def _stage_sizes(cfg, kind):
    """(trainable parameters, steps per window) of each stage of one stream's
    model for this config and model kind, as training builds it: a
    recurrent stage scans `d` steps, the additive stage one."""
    np_cfg, arch = _stages(cfg, kind)
    sizes = [] if np_cfg is None else [(NpModel(np_cfg, draw=False).param_count(), 1)]
    if arch is not None:
        sizes.append((recurrent_model(cfg, arch, 0, draw=False).param_count(),
                      cfg["d"]))
    return sizes


def stream_param_count(cfg, kind):
    """Trainable parameters of one stream's model for this config and model
    kind (the sum of the hybrid's two stages), as training builds it."""
    return sum(params for params, _ in _stage_sizes(cfg, kind))


def group_size(cfg, kind, streams):
    """Streams per stacked group, of `streams` in all."""
    return max(1, min(streams, GROUP_CACHE_BYTES // stream_bytes(cfg, kind)))


def group_sizes(streams, size, jobs):
    """The sizes of the groups, of at most `size` streams each, that
    `streams` streams are cut into for `jobs` processes, which
    `workers.run_groups` deals them to round-robin. As few groups as fit
    (c), all of `size` but the last, when c is 1 or a multiple of `jobs`;
    else min(streams, jobs * ceil(c / jobs)) groups whose sizes differ by at
    most one, larger first, so that no process runs more streams than it
    would in c groups, and most run fewer."""
    count = -(-streams // size)
    if count > 1 and count % jobs:
        count = min(streams, jobs * -(-count // jobs))
        return [streams // count + (g < streams % count) for g in range(count)]
    return [min(size, streams - start) for start in range(0, streams, size)]


def predict_size(streams, windows, jobs):
    """Streams per prediction stack, of `streams` in all, each predicting
    `windows` windows in `jobs` processes: an equal share of the streams per
    process, but no more than keep a stacked part of `predict_in_parts` within
    `PREDICT_WINDOWS` windows, and at least one. A stacked forward gives each
    stream the bytes of its own (see `recurrent`), so the size changes no
    output; larger stacks of larger parts were slower."""
    bound = numcore.PREDICT_WINDOWS
    return max(1, min(-(-streams // jobs), bound // min(windows, bound)))


def predict_jobs(cfg, kind, streams, windows, jobs):
    """Processes, of at most `jobs`, that predict `streams` streams of
    `windows` windows each: one per `FORK_WORK` multiply-adds of the work,
    and at least one. Each stage of each stream costs its parameters times
    their load (strict base64 decoding took about 45 ns per float64, the
    time of about 100 multiply-adds) plus one multiply-add per window and
    step."""
    work = streams * sum(params * (100 + windows * steps)
                         for params, steps in _stage_sizes(cfg, kind))
    return max(1, min(jobs, work // FORK_WORK))


def train_feature(cfg, kind, group, seeds, dataset_digest=""):
    """Train one model of the given kind on each feature stream of `group`
    (a PreparedDataset, one seed per stream), as one stacked model on its
    split stacks; a group of one stream is a stack of one.

    Returns the per-stream models and loss histories.
    """
    np_cfg, arch = _stages(cfg, kind)
    two_stage = np_cfg is not None and arch is not None
    # Stage 2 trains on the train forecasts; perfbench/tracing.py reads val's.
    splits = {name: group.stacks[name]
              for name in (("train", "val") if two_stage else ("train",))}
    if two_stage:
        model, rnn_hists, np_hists, _ = build_hybrid(
            splits, recurrent_model(cfg, arch, seeds), np_cfg, seed=seeds,
            dataset_digest=dataset_digest)
        return _streams(model), [{"stage1": a, "stage2": b}
                                 for a, b in zip(rnn_hists, np_hists)]
    if arch is None:
        model, histories = np_train(splits["train"], np_cfg, seed=seeds)
    else:
        model = recurrent_model(cfg, arch, seeds)
        histories = train_recurrent(model, splits["train"], seed=seeds)
    return unstack(model), [{"train": h} for h in histories]


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


def _run_streams(cfg, prepared, run_group, size, jobs):
    """`run_group(streams, seeds)` of each stacked group of at most `size`
    prepared streams, cut by `group_sizes`, with their seeds, through
    `workers.run_groups` in `jobs` processes: the per-stream results that
    each call returns, joined in stream order."""
    seeds = [_feature_seed(cfg["seed"], index) for index in range(len(prepared))]
    bounds = [0, *itertools.accumulate(group_sizes(len(prepared), size, jobs))]

    def run(index):
        cut = slice(bounds[index], bounds[index + 1])
        return run_group(prepared[cut], seeds[cut])

    return [result for results in workers.run_groups(run, len(bounds) - 1, jobs)
            for result in results]


def train_prepared(cfg, prepared, digest):
    """Train the configured model on every prepared feature stream, in the
    stacked groups of `_run_streams`.

    The groups are independent, and `workers.run_groups` trains them in one
    process per CPU this process may run on (`workers.default_jobs`); the
    result does not depend on that count. A failure raises the error of the
    lowest-index failing group.

    Returns (checkpoint dict, per-feature loss histories).
    """
    kind = cfg["model"]

    def train_group(group, seeds):
        """(checkpoint entry, loss history) of each stream."""
        try:
            models, histories = train_feature(cfg, kind, group, seeds,
                                              dataset_digest=digest)
        except DivergenceError as exc:
            exc.feature, exc.kind = group[exc.stream].feature.feature_id, kind
            raise
        return [(_feature_entry(model, pf.scaler), history)
                for pf, model, history in zip(group, models, histories)]

    ids = [pf.feature.feature_id for pf in prepared]
    entries, histories = zip(*_run_streams(
        cfg, prepared, train_group, group_size(cfg, kind, len(prepared)),
        workers.default_jobs()))
    return (_checkpoint(cfg, digest, dict(zip(ids, entries))),
            dict(zip(ids, histories)))


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


def _stack_model(cfg, seeds, train):
    """The stacked model that training builds for streams of these seeds, cut
    at the origins of these train windows, with parameters left undrawn for
    `_load_model` to fill stream by stream: no random numbers are drawn."""
    np_cfg, arch = _stages(cfg, cfg["model"])
    rnn = None if arch is None else recurrent_model(cfg, arch, seeds, draw=False)
    if np_cfg is None:
        return rnn
    np_model = NpModel(np_cfg, seeds, *trend_span(train), draw=False)
    return np_model if rnn is None else HybridModel(rnn, np_model, [None] * len(seeds))


def _streams(model):
    """The per-stream models of a stacked model (see `numcore.unstack`), a
    hybrid's with its stages' rows and its provenance."""
    if isinstance(model, HybridModel):
        return [HybridModel(*stages) for stages in zip(
            unstack(model.rnn), unstack(model.np_model), model.provenance)]
    return unstack(model)


def _load_model(cfg, train, model, digest, entry):
    """`model`, one stream of a `_stack_model` stack, with its row filled from
    the parameters of its `entry` and marked trained; for a hybrid, with the
    provenance training gives it for this dataset digest. Names the first key
    on the way to the parameters that the entry lacks."""
    def filled(model, *path):
        stored, where = entry, f"features.{train.feature_id}"
        for key in ("model", *path, "params"):
            if not isinstance(stored, dict) or key not in stored:
                raise CheckpointMismatch(f"{where}.{key} is missing")
            stored, where = stored[key], f"{where}.{key}"
        try:
            numcore.load_params(model.params, stored)
        except ContractViolation as exc:
            raise CheckpointMismatch(f"feature {train.feature_id}: {exc}") from None
        model.trained = True
        return model
    if not isinstance(model, HybridModel):
        return filled(model)
    rnn = filled(model.rnn, "rnn")
    return HybridModel(rnn, filled(model.np_model, "np"), hybrid.make_provenance(
        rnn.seed, digest, rnn, model.np_model.cfg))


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
    `train_prepared` writes for them.

    The streams predict in stacks of `predict_size`, through `_run_streams`
    in `predict_jobs` processes: in each stack, stream by stream, an entry
    is checked as its row of the stacked model is loaded, and then the stack
    predicts in one call. A failure raises the error of the lowest-index
    failing stream."""
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
    kind = cfg["model"]

    def predict_group(group, seeds):
        """The normalized predictions of each stream."""
        stack = _stack_model(cfg, seeds, group.stacks["train"])
        models, failure = [], None
        for pf, model in zip(group, _streams(stack)):
            feat_id = pf.feature.feature_id
            try:
                model = _load_model(cfg, pf.windows["train"], model, digest,
                                    stored[feat_id])
                _check_entry(stored[feat_id],
                             _feature_entry(model, pf.scaler, with_params=False),
                             f"features.{feat_id}")
            except Exception as exc:  # noqa: BLE001 - raised after the streams before it
                failure = exc
                break
            models.append(model)
        if failure is None:
            for part in (stack.rnn, stack.np_model) if kind == "hybrid" else (stack,):
                part.trained = True
            try:
                with np.errstate(over="raise", invalid="raise"):
                    return list(predict_windows(kind, stack, group.stacks[split]))
            except FloatingPointError:
                pass  # named below by the lowest stream that overflows
        preds = []
        for pf, model in zip(group, models):
            # Finite but huge parameters can overflow the forward pass.
            with _refuse_overflow(f"feature {pf.feature.feature_id}: its predictions"):
                preds.append(predict_windows(kind, model, pf.windows[split]))
        if failure is not None:
            raise failure
        return preds

    streams, windows = len(prepared), len(prepared.stacks[split])
    jobs = workers.default_jobs()
    # Stacks are sized for one process per CPU whatever the process count,
    # so that the memory of a stack does not depend on the work.
    size = predict_size(streams, windows, jobs)
    # Reversed and popped, so that each normalized prediction is freed once
    # it is de-normalized.
    preds = _run_streams(cfg, prepared, predict_group, size,
                         predict_jobs(cfg, kind, streams, windows, jobs))[::-1]
    return {pf.feature.feature_id: (pf.windows[split], pf.scaler.inverse(preds.pop()),
                                    pf.scaler.inverse(pf.windows[split].Y))
            for pf in prepared}


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
            try:
                reports.append(row(nmse=nmse(pred_c, truth_c),
                                   cosine=cosine_similarity(pred_c, truth_c),
                                   window_count=len(ws), antenna=ant))
            except ContractViolation as exc:  # e.g. a split of zero truth power
                raise DataError(f"antenna {ant}: {exc}") from None
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
