"""Hand-built recurrent predictors: Elman RNN, LSTM, and BiLSTM.

Each model consumes a d-lag window one scalar per step and maps the final
hidden state through a dense head to all D horizon steps at once. Gradients
are hand-derived backpropagation through time over the full window; no
autodiff anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS
from .datapipe import SupervisedWindowSet
from .errors import ContractViolation
# `fit` does the clipping; `clip_grad_norm` stays bound here because
# perfbench/tracing.py patches it under this module's name.
from .numcore import (GRAD_CLIP_NORM, clip_grad_norm, fit,  # noqa: F401
                      huber_grad, huber_loss, init_uniform, sigmoid)

ARCHITECTURES = ("rnn", "lstm", "bilstm")


@dataclass
class TrainConfig:
    learning_rate: float = DEFAULTS["rnn_learning_rate"]
    lr_decay: float = 1.0  # per-epoch multiplicative decay
    epochs: int = DEFAULTS["epochs"]
    batch_size: int = DEFAULTS["batch_size"]
    huber_beta: float = DEFAULTS["huber_beta"]
    dropout: float = DEFAULTS["dropout"]
    grad_clip: float = GRAD_CLIP_NORM


def apply_dropout(activations, p, training, rng):
    """Inverted dropout: zero units with probability p, scale survivors."""
    if not (0.0 <= p < 1.0):
        raise ContractViolation("dropout probability must be in [0, 1)")
    a = np.asarray(activations, dtype=float)
    if not training or p == 0.0:
        return a
    mask = (rng.random(a.shape) >= p) / (1.0 - p)
    return a * mask


# ---------------------------------------------------------------------------
# Elman cell


def rnn_cell_forward(x_t, s_prev, W, V, b):
    """s_t = tanh(W x_t + V s_{t-1} + b); rows are batch samples."""
    x_t = np.atleast_2d(np.asarray(x_t, dtype=float))
    s_prev = np.atleast_2d(np.asarray(s_prev, dtype=float))
    if x_t.shape[1] != W.shape[1] or s_prev.shape[1] != V.shape[1]:
        raise ContractViolation("rnn_cell_forward dimension mismatch")
    return np.tanh(x_t @ W.T + s_prev @ V.T + b)


def _rnn_scan(x, p):
    B, T, _ = x.shape
    H = p["b"].shape[0]
    s = np.zeros((B, H))
    S = np.empty((B, T, H))
    prev = [s]
    for t in range(T):
        s = np.tanh(x[:, t, :] @ p["W"].T + s @ p["V"].T + p["b"])
        S[:, t, :] = s
        prev.append(s)
    return S, prev[:-1]


def _rnn_backward(dS, x, p, S, prevs):
    B, T, _ = x.shape
    grads = {k: np.zeros_like(v) for k, v in p.items()}
    dX = np.zeros_like(x)
    ds_next = np.zeros((B, p["b"].shape[0]))
    for t in reversed(range(T)):
        ds = dS[:, t, :] + ds_next
        da = ds * (1.0 - S[:, t, :] ** 2)
        grads["W"] += da.T @ x[:, t, :]
        grads["V"] += da.T @ prevs[t]
        grads["b"] += da.sum(axis=0)
        ds_next = da @ p["V"]
        dX[:, t, :] = da @ p["W"]
    return dX, grads


# ---------------------------------------------------------------------------
# LSTM cell


@dataclass
class LstmState:
    s: np.ndarray  # short-term state
    c: np.ndarray  # long-term cell state


def lstm_cell_forward(x_t, prev: LstmState, w: dict) -> LstmState:
    """One gated step: forget/input/candidate/output, then c and s updates."""
    x_t = np.atleast_2d(np.asarray(x_t, dtype=float))
    s_prev = np.atleast_2d(np.asarray(prev.s, dtype=float))
    c_prev = np.atleast_2d(np.asarray(prev.c, dtype=float))
    if x_t.shape[1] != w["Wf"].shape[1] or s_prev.shape[1] != w["Vf"].shape[1]:
        raise ContractViolation("lstm_cell_forward dimension mismatch")
    f = sigmoid(x_t @ w["Wf"].T + s_prev @ w["Vf"].T + w["bf"])
    i = sigmoid(x_t @ w["Wi"].T + s_prev @ w["Vi"].T + w["bi"])
    g = np.tanh(x_t @ w["Wg"].T + s_prev @ w["Vg"].T + w["bg"])
    o = sigmoid(x_t @ w["Wo"].T + s_prev @ w["Vo"].T + w["bo"])
    c = f * c_prev + i * g
    s = o * np.tanh(c)
    return LstmState(s=s, c=c)


def _lstm_scan(x, p):
    B, T, _ = x.shape
    H = p["bf"].shape[0]
    s = np.zeros((B, H))
    c = np.zeros((B, H))
    S = np.empty((B, T, H))
    cache = []
    for t in range(T):
        xt = x[:, t, :]
        f = sigmoid(xt @ p["Wf"].T + s @ p["Vf"].T + p["bf"])
        i = sigmoid(xt @ p["Wi"].T + s @ p["Vi"].T + p["bi"])
        g = np.tanh(xt @ p["Wg"].T + s @ p["Vg"].T + p["bg"])
        o = sigmoid(xt @ p["Wo"].T + s @ p["Vo"].T + p["bo"])
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        cache.append((xt, s, c, f, i, g, o, tc))
        c = c_new
        s = o * tc
        S[:, t, :] = s
    return S, cache


def _lstm_backward(dS, x, p, cache):
    B, T, _ = x.shape
    grads = {k: np.zeros_like(v) for k, v in p.items()}
    dX = np.zeros_like(x)
    H = p["bf"].shape[0]
    ds_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))
    for t in reversed(range(T)):
        xt, s_prev, c_prev, f, i, g, o, tc = cache[t]
        ds = dS[:, t, :] + ds_next
        do = ds * tc
        dc = ds * o * (1.0 - tc ** 2) + dc_next
        df = dc * c_prev
        di = dc * g
        dg = dc * i
        dc_next = dc * f
        daf = df * f * (1.0 - f)
        dai = di * i * (1.0 - i)
        dag = dg * (1.0 - g ** 2)
        dao = do * o * (1.0 - o)
        ds_next = daf @ p["Vf"] + dai @ p["Vi"] + dag @ p["Vg"] + dao @ p["Vo"]
        dX[:, t, :] = daf @ p["Wf"] + dai @ p["Wi"] + dag @ p["Wg"] + dao @ p["Wo"]
        for da, nm in ((daf, "f"), (dai, "i"), (dag, "g"), (dao, "o")):
            grads["W" + nm] += da.T @ xt
            grads["V" + nm] += da.T @ s_prev
            grads["b" + nm] += da.sum(axis=0)
    return dX, grads


def bilstm_forward(x, p_fwd, p_bwd, combine="hadamard"):
    """Two-direction pass; combined output per step is s_fwd (x) s_bwd."""
    if x.shape[1] == 0:
        raise ContractViolation("bilstm_forward: empty sequence")
    Sf, cache_f = _lstm_scan(x, p_fwd)
    xr = x[:, ::-1, :].copy()
    Sb_r, cache_b = _lstm_scan(xr, p_bwd)
    Sb = Sb_r[:, ::-1, :].copy()
    if combine == "hadamard":
        Y = Sf * Sb
    elif combine == "concat":
        Y = np.concatenate([Sf, Sb], axis=2)
    else:
        raise ContractViolation(f"unknown bilstm combine mode {combine!r}")
    return Y, (Sf, Sb, cache_f, cache_b, xr)


def _bilstm_backward(dY, x, p_fwd, p_bwd, cache, combine):
    Sf, Sb, cache_f, cache_b, xr = cache
    H = Sf.shape[2]
    if combine == "hadamard":
        dSf = dY * Sb
        dSb = dY * Sf
    else:
        dSf = dY[:, :, :H]
        dSb = dY[:, :, H:]
    dXf, gf = _lstm_backward(dSf, x, p_fwd, cache_f)
    dXr, gb = _lstm_backward(dSb[:, ::-1, :].copy(), xr, p_bwd, cache_b)
    return dXf + dXr[:, ::-1, :], gf, gb


# ---------------------------------------------------------------------------
# Stacked model

_LSTM_KEYS = ("Wf", "Wi", "Wg", "Wo", "Vf", "Vi", "Vg", "Vo",
              "bf", "bi", "bg", "bo")


class RecurrentModel:
    """Stacked recurrent predictor with a dense multi-horizon head."""

    def __init__(self, arch, lag_depth, horizon,
                 hidden_size=DEFAULTS["rnn_hidden"], layers=DEFAULTS["rnn_layers"],
                 input_size=1, bilstm_combine=DEFAULTS["bilstm_combine"],
                 config: TrainConfig | None = None, seed=0):
        if arch not in ARCHITECTURES:
            raise ContractViolation(f"unknown architecture {arch!r}")
        self.arch = arch
        self.d = lag_depth
        self.D = horizon
        self.hidden_size = hidden_size
        self.layers = layers
        self.input_size = input_size
        self.bilstm_combine = bilstm_combine
        self.config = config or TrainConfig()
        self.seed = seed
        self.trained = False
        self.params = self._init_params(np.random.default_rng(seed))

    def _layer_out_dim(self):
        if self.arch == "bilstm" and self.bilstm_combine == "concat":
            return 2 * self.hidden_size
        return self.hidden_size

    def _init_params(self, rng):
        params = {}
        H = self.hidden_size
        for k in range(self.layers):
            n_in = self.input_size if k == 0 else self._layer_out_dim()
            if self.arch == "rnn":
                params[f"L{k}_W"] = init_uniform(rng, (H, n_in), n_in)
                params[f"L{k}_V"] = init_uniform(rng, (H, H), H)
                params[f"L{k}_b"] = init_uniform(rng, (H,), H)
            else:
                prefixes = ("",) if self.arch == "lstm" else ("f_", "b_")
                for pre in prefixes:
                    for key in _LSTM_KEYS:
                        if key.startswith("W"):
                            shape, fan = (H, n_in), n_in
                        elif key.startswith("V"):
                            shape, fan = (H, H), H
                        else:
                            shape, fan = (H,), H
                        params[f"L{k}_{pre}{key}"] = init_uniform(rng, shape, fan)
        out_in = self._layer_out_dim()
        params["out_W"] = init_uniform(rng, (self.D, out_in), out_in)
        params["out_b"] = init_uniform(rng, (self.D,), out_in)
        return params

    def _layer_params(self, k, prefix=""):
        tag = f"L{k}_{prefix}"
        return {key[len(tag):]: val for key, val in self.params.items()
                if key.startswith(tag)}

    # -- forward / backward over a batch of windows ------------------------

    def forward(self, X, training=False, rng=None):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.d:
            raise ContractViolation(
                f"expected lag windows of shape (B, {self.d}), got {X.shape}")
        h = X[:, :, None]
        caches = []
        p_drop = self.config.dropout
        for k in range(self.layers):
            if self.arch == "rnn":
                seq, aux = _rnn_scan(h, self._layer_params(k))
                cache = ("rnn", h, seq, aux)
            elif self.arch == "lstm":
                seq, aux = _lstm_scan(h, self._layer_params(k))
                cache = ("lstm", h, seq, aux)
            else:
                seq, aux = bilstm_forward(h, self._layer_params(k, "f_"),
                                          self._layer_params(k, "b_"),
                                          self.bilstm_combine)
                cache = ("bilstm", h, seq, aux)
            mask = None
            if training and p_drop > 0.0 and k < self.layers - 1:
                mask = (rng.random(seq.shape) >= p_drop) / (1.0 - p_drop)
                seq = seq * mask
            caches.append((cache, mask))
            h = seq
        last = h[:, -1, :]
        y = last @ self.params["out_W"].T + self.params["out_b"]
        return y, (caches, last)

    def loss_and_grads(self, X, Y, training=False, rng=None):
        Y = np.asarray(Y, dtype=float)
        y_hat, (caches, last) = self.forward(X, training=training, rng=rng)
        loss = huber_loss(Y, y_hat, self.config.huber_beta)
        dY = huber_grad(Y, y_hat, self.config.huber_beta)
        grads = {"out_W": dY.T @ last, "out_b": dY.sum(axis=0)}
        B, T = np.asarray(X).shape
        d_seq = np.zeros((B, T, last.shape[1]))
        d_seq[:, -1, :] = dY @ self.params["out_W"]
        for k in reversed(range(self.layers)):
            (kind, h_in, seq, aux), mask = caches[k]
            if mask is not None:
                d_seq = d_seq * mask
            if kind == "rnn":
                p = self._layer_params(k)
                dX, g = _rnn_backward(d_seq, h_in, p, seq, aux)
                for name, val in g.items():
                    grads[f"L{k}_{name}"] = val
            elif kind == "lstm":
                p = self._layer_params(k)
                dX, g = _lstm_backward(d_seq, h_in, p, aux)
                for name, val in g.items():
                    grads[f"L{k}_{name}"] = val
            else:
                dX, gf, gb = _bilstm_backward(
                    d_seq, h_in, self._layer_params(k, "f_"),
                    self._layer_params(k, "b_"), aux, self.bilstm_combine)
                for name, val in gf.items():
                    grads[f"L{k}_f_{name}"] = val
                for name, val in gb.items():
                    grads[f"L{k}_b_{name}"] = val
            d_seq = dX
        return loss, grads

    # -- flat-parameter helpers (gradient verification) --------------------

    def param_names(self):
        return sorted(self.params)

    def get_flat(self):
        return np.concatenate([self.params[k].ravel() for k in self.param_names()])

    def set_flat(self, vec):
        pos = 0
        for k in self.param_names():
            n = self.params[k].size
            self.params[k] = np.asarray(vec[pos:pos + n],
                                        dtype=float).reshape(self.params[k].shape)
            pos += n

    def flat_grads(self, grads):
        return np.concatenate([grads[k].ravel() for k in self.param_names()])

    def param_count(self):
        return sum(v.size for v in self.params.values())

    # -- persistence -------------------------------------------------------

    def to_dict(self):
        return {
            "format": "csipred-recurrent-v1",
            "arch": self.arch,
            "d": self.d, "D": self.D,
            "hidden_size": self.hidden_size, "layers": self.layers,
            "input_size": self.input_size,
            "bilstm_combine": self.bilstm_combine,
            "seed": self.seed, "trained": self.trained,
            "config": vars(self.config),
            "params": {k: v.tolist() for k, v in self.params.items()},
        }

    @classmethod
    def from_dict(cls, payload):
        if payload.get("format") != "csipred-recurrent-v1":
            raise ContractViolation(
                f"unsupported checkpoint format {payload.get('format')!r}")
        model = cls(payload["arch"], payload["d"], payload["D"],
                    hidden_size=payload["hidden_size"], layers=payload["layers"],
                    input_size=payload["input_size"],
                    bilstm_combine=payload["bilstm_combine"],
                    config=TrainConfig(**payload["config"]),
                    seed=payload["seed"])
        model.params = {k: np.asarray(v, dtype=float)
                        for k, v in payload["params"].items()}
        model.trained = payload["trained"]
        return model


def train_recurrent(model: RecurrentModel, data: SupervisedWindowSet, seed=0):
    """Minibatch Adam on Huber loss with full-window BPTT; returns loss history."""
    if len(data) == 0:
        raise ContractViolation("empty training dataset")
    if data.d != model.d or data.D != model.D:
        raise ContractViolation(
            f"window shape (d={data.d}, D={data.D}) does not match model "
            f"(d={model.d}, D={model.D})")
    rng = np.random.default_rng(seed)

    def batch_loss(idx):
        return model.loss_and_grads(data.X[idx], data.Y[idx], training=True, rng=rng)

    return fit(model, batch_loss, len(data), model.config, rng)


def predict_batch(model: RecurrentModel, X):
    if not model.trained:
        raise ContractViolation("model is not trained")
    y, _ = model.forward(X, training=False)
    return y


def predict_horizon(model: RecurrentModel, lags):
    """Deterministic D-step forecast from one d-lag window."""
    lags = np.asarray(lags, dtype=float)
    if lags.shape != (model.d,):
        raise ContractViolation(
            f"expected {model.d} lags, got shape {lags.shape}")
    return predict_batch(model, lags[None, :])[0]
