"""Decomposable forecaster: trend + Fourier seasonality + AR network.

Prediction for each horizon step is the sum of a piecewise-linear trend with
change-points, per-period Fourier seasonalities, a feed-forward autoregressive
block on the d lag values, and (optionally) a linear head over an exogenous
future-regressor vector. All parameters train jointly with Adam on Huber loss;
gradients are hand-derived (every component is linear in its parameters except
the AR network, which is a standard MLP).

The trend and seasonality terms depend only on a horizon step's time. They
are computed once per distinct horizon time (see `NpModel.time_terms`) and
gathered per window: `np_train` builds them once per fit, over the training
split, so that every stream, batch and epoch shares them, and a forward pass
without them, as each part of `np_predict_batch` is, builds them once for its
own origins.

Conventions:
- trend time is normalized to [0, 1] over the training span;
- seasonality uses absolute sample indices, with periods given in virtual
  "days" mapped to samples via ``samples_per_day``;
- AR lag vectors are ordered most-recent-first.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS, parse_seasonalities
from .datapipe import SupervisedWindowSet
from .errors import ContractViolation
# `fit` does the clipping; `clip_grad_norm` stays bound here because
# perfbench/tracing.py patches it under this module's name.
from .numcore import (GRAD_CLIP_NORM, clip_grad_norm, fit,  # noqa: F401
                      batch_rows, check_windows, encode_params, generators,
                      huber_grad, huber_loss, init_params, mT,
                      predict_in_parts, relu)

DEFAULT_SEASONALITIES = parse_seasonalities(DEFAULTS["seasonalities"])
# v1 held float lists in per-component sections and the changepoints, which
# the config fixes.
FORMAT = "csipred-npmodel-v2"


# ---------------------------------------------------------------------------
# Stand-alone component evaluators (also serve as oracle targets)


@dataclass
class TrendParams:
    growth: float
    offset: float
    growth_adj: np.ndarray      # (m,)
    offset_adj: np.ndarray      # (m,)
    changepoints: np.ndarray    # (m,) strictly increasing


def changepoint_indicator(t, n_j):
    return 1.0 if t >= n_j else 0.0


def trend_eval(t, p: TrendParams):
    """R_t = (growth + G.adj_g) * t + (offset + G.adj_o), G the indicator vector."""
    gamma = np.array([changepoint_indicator(t, n) for n in p.changepoints])
    return ((p.growth + float(gamma @ p.growth_adj)) * t
            + (p.offset + float(gamma @ p.offset_adj)))


def seasonality_eval(t, period, a, b):
    """Truncated Fourier sum of order k = len(a) for one period."""
    if period <= 0 or len(a) < 1 or len(a) != len(b):
        raise ContractViolation("invalid seasonality parameters")
    r = np.arange(1, len(a) + 1)
    ang = 2.0 * np.pi * r * t / period
    return float(np.asarray(a) @ np.cos(ang) + np.asarray(b) @ np.sin(ang))


def classic_ar_eval(lags, theta, q=0.0):
    """Noise-free AR: q + sum_e theta_e * z_{t-e}; lags ordered z_{t-1} first."""
    lags = np.asarray(lags, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if lags.shape != theta.shape:
        raise ContractViolation("lag count does not match AR order")
    return q + float(theta @ lags)


def ar_net_forward(z_lags, weights, biases, linear=False):
    """MLP: relu(U_i . + b_i) through hidden layers, linear output layer.

    `weights` is [U_1 .. U_{l+1}], `biases` is [b_1 .. b_l]; `z_lags` is a
    single lag vector or a (B, d) batch, most recent lag first.
    """
    z = np.atleast_2d(np.asarray(z_lags, dtype=float))
    if z.shape[1] != weights[0].shape[1]:
        raise ContractViolation("lag count does not match first layer")
    act = (lambda x: x) if linear else relu
    h = z
    for U, b in zip(weights[:-1], biases):
        h = act(h @ U.T + b)
    out = h @ weights[-1].T
    return out[0] if np.asarray(z_lags).ndim == 1 else out


# ---------------------------------------------------------------------------
# Joint model


@dataclass
class NpConfig:
    d: int = DEFAULTS["d"]
    D: int = DEFAULTS["D"]
    learning_rate: float = DEFAULTS["np_learning_rate"]
    lr_decay: float = 1.0       # per-epoch multiplicative decay
    epochs: int = DEFAULTS["epochs"]
    batch_size: int = DEFAULTS["batch_size"]
    huber_beta: float = DEFAULTS["huber_beta"]
    grad_clip: float = GRAD_CLIP_NORM
    # trend
    trend_enabled: bool = DEFAULTS["trend_enabled"]
    n_changepoints: int = DEFAULTS["n_changepoints"]
    changepoint_range: float = DEFAULTS["changepoint_range"]
    discontinuous_growth: bool = DEFAULTS["discontinuous_growth"]
    # seasonality
    seasonality_enabled: bool = DEFAULTS["seasonality_enabled"]
    seasonalities: tuple = DEFAULT_SEASONALITIES  # ((order k, period days), ...)
    samples_per_day: float = DEFAULTS["samples_per_day"]
    # autoregression
    ar_enabled: bool = DEFAULTS["ar_enabled"]
    ar_layers: int = DEFAULTS["np_layers"]
    ar_hidden: int = DEFAULTS["np_hidden"]
    ar_linear: bool = DEFAULTS["ar_linear"]
    # exogenous future regressor
    regressor_enabled: bool = False


def config_dict(cfg: NpConfig) -> dict:
    """`cfg` as the JSON object a checkpoint stores."""
    return {**vars(cfg), "seasonalities": [list(s) for s in cfg.seasonalities]}


def _mv(A, v):
    """A @ v per stream: A (..., k) against v (k,), or against a stack v (F, k)
    with A (F, ...), as one matrix-vector product per (D, k) slice of A."""
    return (A @ v[..., None, :, None])[..., 0]


def horizon_rows(t_origins, D):
    """(distinct times (T,), rows (..., D)): the horizon times t + 1..D of
    origins t (...,), each once and sorted, and the row of each origin's step
    in them. Keyed by time value, so fractional origins share rows too.
    Where no time repeats and they come sorted, as for origins that increase
    by D or more (windows cut at a stride of at least D), these are the times
    as they come and their positions, which is what `np.unique` returns."""
    t_abs = np.asarray(t_origins, dtype=float)[..., None] + np.arange(1, D + 1)
    flat = t_abs.ravel()
    if np.all(flat[1:] > flat[:-1]):
        return flat, np.arange(flat.size).reshape(t_abs.shape)
    times, rows = np.unique(t_abs, return_inverse=True)
    return times, rows.reshape(t_abs.shape)


class NpModel:
    """Additive forecaster; see module docstring for conventions.

    With a list of seeds it is a stack of one model per seed, one per feature
    stream (see `numcore.unstack`): each parameter gets a leading stream axis,
    and `forward` and `grads` take origins, lags, regressors and dY with the
    same leading axis. All streams share `t0` and `t_span`.
    """

    def __init__(self, cfg: NpConfig, seed=0, t0=0.0, t_span=1.0, draw=True):
        """`draw` false leaves the parameters undrawn (see `init_params`)."""
        self.cfg = cfg
        self.seed = seed
        self.t0 = float(t0)
        self.t_span = float(max(t_span, 1.0))
        self.trained = False
        m = cfg.n_changepoints
        # Uniformly spaced over the first `changepoint_range` of the span,
        # in normalized time.
        self.changepoints = cfg.changepoint_range * np.arange(1, m + 1) / (m + 1.0)
        self.params = init_params(self._param_specs(), seed, draw)

    def _param_specs(self):
        """{name: (shape, fan_in)} of one stream's parameters, in draw order;
        fan_in None for those that start at zero."""
        cfg = self.cfg
        m = cfg.n_changepoints
        p = {"trend_g0": ((1,), None), "trend_r0": ((1,), None),
             "trend_dg": ((m,), None), "trend_dr": ((m,), None)}
        for i, (k, _period) in enumerate(cfg.seasonalities):
            p[f"season{i}_a"] = ((k,), None)
            p[f"season{i}_b"] = ((k,), None)
        dims = [cfg.d] + [cfg.ar_hidden] * cfg.ar_layers + [cfg.D]
        for i in range(len(dims) - 1):
            p[f"ar_U{i + 1}"] = ((dims[i + 1], dims[i]), dims[i])
            if i < len(dims) - 2:
                p[f"ar_b{i + 1}"] = ((dims[i + 1],), dims[i])
        p["reg_W"] = ((cfg.D, cfg.D), None)  # zero init: no contribution untrained
        return p

    # -- forward -----------------------------------------------------------

    def _offset_adj(self):
        """Free in discontinuous mode; -cp_j * growth_adj_j in continuous mode."""
        if self.cfg.discontinuous_growth:
            return self.params["trend_dr"]
        return -self.changepoints * self.params["trend_dg"]

    def time_terms(self, times):
        """The time terms of the enabled components at distinct horizon
        times (T,): trend time "tn" (T,) and changepoint indicators "ind"
        (T, m), and each seasonality's cos and sin bases "bases" (T, k). Row
        by row these are the elementwise expressions that a time gives, so
        that gathering rows by `horizon_rows` equals computing them at every
        step of every window."""
        cfg = self.cfg
        terms = {}
        if cfg.trend_enabled:
            tn = (times - self.t0) / self.t_span
            terms["tn"] = tn
            terms["ind"] = (tn[..., None] >= self.changepoints).astype(float)
        if cfg.seasonality_enabled:
            terms["bases"] = []
            for k, period_days in cfg.seasonalities:
                period = period_days * cfg.samples_per_day
                r = np.arange(1, k + 1)
                ang = 2.0 * np.pi * r * times[..., None] / period
                terms["bases"].append((np.cos(ang), np.sin(ang)))
        return terms

    def forward_components(self, t_origins, lags, regressors=None, terms=None):
        """`terms` is (`time_terms` of distinct times, the row of each horizon
        step of these origins in them), as `horizon_rows` gives; without it
        the terms are computed here, once per distinct time of these
        origins. Rows that are 0, 1, 2, ... in order, as `horizon_rows` gives
        for origins at least D apart, take the table's rows as they are,
        reshaped, rather than gathering a copy of them."""
        cfg = self.cfg
        p = self.params
        if terms is None:
            times, rows = horizon_rows(t_origins, cfg.D)
            terms = self.time_terms(times), rows
        table, rows = terms
        flat = rows.reshape(-1)
        in_order = np.array_equal(flat, np.arange(flat.size))

        def gather(a):
            if in_order:
                return a[:flat.size].reshape(*rows.shape, *a.shape[1:])
            return a[rows]
        comps = {}
        cache = {}
        if cfg.trend_enabled:
            tn, ind = gather(table["tn"]), gather(table["ind"])
            comps["trend"] = ((p["trend_g0"][..., None] + _mv(ind, p["trend_dg"])) * tn
                              + (p["trend_r0"][..., None] + _mv(ind, self._offset_adj())))
            cache["tn"], cache["ind"] = tn, ind
        else:
            comps["trend"] = np.zeros(rows.shape)
        if cfg.seasonality_enabled:
            F = np.zeros(rows.shape)
            bases = []
            for i, (cos, sin) in enumerate(table["bases"]):
                cos, sin = gather(cos), gather(sin)
                F = F + (_mv(cos, p[f"season{i}_a"]) + _mv(sin, p[f"season{i}_b"]))
                bases.append((cos, sin))
            comps["seasonality"] = F
            cache["bases"] = bases
        else:
            comps["seasonality"] = np.zeros(rows.shape)
        if cfg.ar_enabled:
            z = np.asarray(lags, dtype=float)[..., ::-1]  # most recent lag first
            if z.shape[-1] != cfg.d:
                raise ContractViolation(
                    f"expected {cfg.d} lags, got {z.shape[-1]}")
            hs = [z]
            pre = []
            h = z
            for i in range(1, cfg.ar_layers + 1):
                a = h @ mT(p[f"ar_U{i}"]) + p[f"ar_b{i}"][..., None, :]
                pre.append(a)
                h = a if cfg.ar_linear else relu(a)
                hs.append(h)
            comps["ar"] = h @ mT(p[f"ar_U{cfg.ar_layers + 1}"])
            cache["ar_hs"], cache["ar_pre"] = hs, pre
        else:
            comps["ar"] = np.zeros(rows.shape)
        if cfg.regressor_enabled:
            if regressors is None:
                raise ContractViolation("model expects a future regressor")
            reg = np.asarray(regressors, dtype=float)
            comps["regressor"] = reg @ mT(p["reg_W"])
            cache["reg"] = reg
        else:
            comps["regressor"] = np.zeros(rows.shape)
        return comps, cache

    def forward(self, t_origins, lags, regressors=None, terms=None):
        comps, cache = self.forward_components(t_origins, lags, regressors, terms)
        total = comps["trend"] + comps["seasonality"] + comps["ar"] + comps["regressor"]
        return total, cache

    # -- backward ----------------------------------------------------------

    def grads(self, dY, cache):
        cfg = self.cfg
        p = self.params
        g = {}
        if cfg.trend_enabled:
            tn, ind = cache["tn"], cache["ind"]
            g["trend_g0"] = (dY * tn).sum(axis=(-2, -1))[..., None]
            g["trend_r0"] = dY.sum(axis=(-2, -1))[..., None]
            dg = np.einsum("...bd,...bdm->...m", dY * tn, ind)
            dr = np.einsum("...bd,...bdm->...m", dY, ind)
            if cfg.discontinuous_growth:
                g["trend_dg"] = dg
                g["trend_dr"] = dr
            else:
                g["trend_dg"] = dg - self.changepoints * dr
        if cfg.seasonality_enabled:
            for i, (cos, sin) in enumerate(cache["bases"]):
                g[f"season{i}_a"] = np.einsum("...bd,...bdk->...k", dY, cos)
                g[f"season{i}_b"] = np.einsum("...bd,...bdk->...k", dY, sin)
        if cfg.ar_enabled:
            hs, pre = cache["ar_hs"], cache["ar_pre"]
            L = cfg.ar_layers
            g[f"ar_U{L + 1}"] = mT(dY) @ hs[L]
            dh = dY @ p[f"ar_U{L + 1}"]
            for i in range(L, 0, -1):
                da = dh if cfg.ar_linear else dh * (pre[i - 1] > 0)
                g[f"ar_U{i}"] = mT(da) @ hs[i - 1]
                g[f"ar_b{i}"] = da.sum(axis=-2)
                dh = da @ p[f"ar_U{i}"]
        if cfg.regressor_enabled:
            g["reg_W"] = mT(dY) @ cache["reg"]
        # the parameters of disabled components get zero gradients
        return {k: g[k] if k in g else np.zeros_like(v) for k, v in p.items()}

    # -- persistence -------------------------------------------------------

    def to_dict(self, with_params=True):
        return {
            "format": FORMAT,
            "config": config_dict(self.cfg),
            "seed": self.seed, "t0": self.t0, "t_span": self.t_span,
            "trained": self.trained,
            "params": encode_params(self.params) if with_params else {},
        }

    def param_count(self):
        return sum(v.size for v in self.params.values())


def trend_span(data: SupervisedWindowSet):
    """(t0, t_span) that normalise trend time over the samples `data` covers."""
    t0 = float(data.t.min() - data.d)
    return t0, float(data.t.max() + data.D - t0)


def np_train(data: SupervisedWindowSet, cfg: NpConfig, seed=0, regressors=None):
    """Joint Adam fit of all enabled components; returns (model, loss history).

    With a split stack of a `datapipe.PreparedDataset`, stacked regressors and
    a list of seeds it trains a stacked model and returns a history per stream.
    """
    check_windows(data, cfg.d, cfg.D)
    if regressors is not None:
        regressors = np.asarray(regressors, dtype=float)
        if regressors.shape != data.Y.shape:
            raise ContractViolation("regressor array must be (N, D)")
    model = NpModel(cfg, seed, *trend_span(data))
    stacked = isinstance(seed, list)
    # Every stream, batch and epoch gathers its time terms from one table.
    times, steps = horizon_rows(data.t, cfg.D)
    table = model.time_terms(times)

    def batch_loss(idx):
        rows = batch_rows(idx)
        reg = None if regressors is None else regressors[rows]
        y_hat, cache = model.forward(data.t[idx], data.X[rows], reg,
                                     (table, steps[idx]))
        dY = huber_grad(data.Y[rows], y_hat, cfg.huber_beta, stacked)
        return (huber_loss(data.Y[rows], y_hat, cfg.huber_beta, stacked),
                model.grads(dY, cache))

    return model, fit(model, batch_loss, len(data), cfg, generators(seed))


def batch_cache_bytes(cfg: NpConfig, batch):
    """About the bytes that one stream's forward+backward pass over a batch
    keeps live: per window the changepoint indicators, the Fourier bases and a
    few (D,) arrays, and the activations of the AR net."""
    per_step = cfg.n_changepoints + 2 * sum(k for k, _ in cfg.seasonalities) + 4
    return 8 * batch * (cfg.D * per_step + cfg.d + 2 * cfg.ar_layers * cfg.ar_hidden)


def np_predict_batch(model: NpModel, t_origins, X, regressors=None):
    """Forecasts (N, D) for origins t (N,), windows X (N, d) and regressors."""
    t, X = np.asarray(t_origins, dtype=float), np.asarray(X, dtype=float)
    return predict_in_parts(model, lambda s: model.forward(
        t[..., s], X[..., s, :],
        None if regressors is None else regressors[..., s, :])[0], X)
