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
from .numcore import (GRAD_CLIP_NORM, clip_grad_norm,  # noqa: F401
                      batch_rows, check_windows, encode_params, fit, flatten,
                      generators, huber_grad, huber_loss, init_params,
                      init_uniform, mT, predict_in_parts, sigmoid, unflatten)

ARCHITECTURES = ("rnn", "lstm", "bilstm")
# v1 held 12 per-gate arrays per LSTM direction; v2 held float lists.
FORMAT = "csipred-recurrent-v3"


@dataclass
class TrainConfig:
    learning_rate: float = DEFAULTS["rnn_learning_rate"]
    lr_decay: float = 1.0  # per-epoch multiplicative decay
    epochs: int = DEFAULTS["epochs"]
    batch_size: int = DEFAULTS["batch_size"]
    huber_beta: float = DEFAULTS["huber_beta"]
    dropout: float = DEFAULTS["dropout"]
    grad_clip: float = GRAD_CLIP_NORM


def _dropout_mask(p, shape, rng):
    """Inverted-dropout mask: 0 with probability p, else 1/(1-p). For a list
    of generators, one mask per stream of `shape`'s leading axis, each drawn
    from its stream's own generator."""
    if not isinstance(rng, list):
        return (rng.random(shape) >= p) / (1.0 - p)
    masks = np.empty(shape)
    for mask, r in zip(masks, rng):
        np.divide(r.random(shape[1:]) >= p, 1.0 - p, out=mask)
    return masks


# ---------------------------------------------------------------------------
# Scans
#
# A direction of a layer holds W (G*H, n_in), V (G*H, H) and b (G*H,), with
# G = 1 for the Elman cell and G = 4 for the LSTM, whose gate rows are
# stacked f, i, g, o. The time loops keep only the work that depends on the
# recurrence (Appleyard et al. 2016, arXiv:1604.01946). `_project` writes the
# input projection of every step into the scan's gate buffer with one GEMM;
# each step then adds its recurrent GEMM and applies the activations in
# place. Each scan returns its states S (T+1, B, H), time-major with
# S[0] = 0, and `backward()`, which turns the caches in place into the
# factors that map a step's state and cell gradients to its pre-activation
# gradient da. It returns the (T, B, G*H) buffer that will hold da and
# `step(t, ds, carry)`, which writes da at step t and returns the carry for
# step t-1. `_bptt` runs that loop and then gets the weight gradients and dX
# as single GEMMs over all T*B rows. The caches are consumed, so a scan is
# differentiated at most once. They are allocated once per scan, because
# per-step arrays interleaved with (B, G*H) temporaries fragment the heap.
# Between the passes a scan keeps no array that its backward pass can
# recompute with one elementwise op: the lstm keeps Z, S and C, and
# `backward()` recomputes tanh(c) from C. `RecurrentModel.loss_and_grads`
# drops each layer's caches once its backward pass has run.
# `rnn_cell_forward` and `lstm_cell_forward` compute one step gate by gate;
# they are the independent reference the scans are tested against.
#
# Every array may carry a leading stream axis (see `numcore.unstack`): the
# parameters (F, G*H, n_in) and so on, the inputs (F, B, T, n) and the caches
# (F, T+1, B, H). Each GEMM is then one `np.matmul` over the F slices, which
# calls the same BLAS routine per slice as the unstacked GEMM, so each
# stream's numbers are bit-equal to those of its own scan.


def _rows_with_ones(x):
    """x (B, T, n) as rows (T*B, n+1) of [x_t, 1], ordered by step, then
    window; the ones column carries the bias through the GEMMs."""
    *lead, B, T, n = x.shape
    xb = np.ones((*lead, T, B, n + 1))
    xb[..., :n] = np.swapaxes(x, -3, -2)
    return xb.reshape(*lead, T * B, n + 1)


def _steps(a, axis=-3):
    """a (..., T, B, n) as a view indexed by step first: _steps(a)[t] is
    a[..., t, :, :]. With at most one axis before T, a swap of the two does
    it, and costs less than `np.moveaxis`."""
    return a.swapaxes(0, axis)


def _project(x, p, Z, scale=1.0):
    """Z[t] = x_t @ W.T + b for every step t, in one GEMM; returns V.T.

    The gate columns of both are multiplied by `scale`. V.T is a contiguous
    copy: with OpenBLAS a GEMM on the transposed view is up to 4x slower for
    batches of a few windows.
    """
    *lead, T, B, GH = Z.shape
    Wb = np.concatenate([mT(p["W"]), p["b"][..., None, :]], axis=-2) * scale
    np.matmul(_rows_with_ones(x), Wb, out=Z.reshape(*lead, T * B, GH))
    return np.multiply(mT(p["V"]), scale, order="C")


def rnn_cell_forward(x_t, s_prev, W, V, b):
    """s_t = tanh(W x_t + V s_{t-1} + b); rows are batch samples."""
    x_t = np.atleast_2d(np.asarray(x_t, dtype=float))
    s_prev = np.atleast_2d(np.asarray(s_prev, dtype=float))
    if x_t.shape[1] != W.shape[1] or s_prev.shape[1] != V.shape[1]:
        raise ContractViolation("rnn_cell_forward dimension mismatch")
    return np.tanh(x_t @ W.T + s_prev @ V.T + b)


def _rnn_scan(x, p):
    *lead, B, T, _ = x.shape
    S = np.zeros((*lead, T + 1, B, p["V"].shape[-1]))
    St = _steps(S)
    VT = _project(x, p, S[..., 1:, :, :])  # pre-activations, turned into states
    for t in range(T):
        s = St[t + 1]
        s += St[t] @ VT
        np.tanh(s, out=s)

    def backward():
        A = np.square(S[..., 1:, :, :])
        np.subtract(1.0, A, out=A)  # ds -> da: 1 - s^2
        At = _steps(A)

        def step(t, ds, carry):
            At[t] *= ds
            return carry
        return A, step
    return S, backward


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
    *lead, B, T, _ = x.shape
    H = p["V"].shape[-1]
    # sigmoid(a) = 1/2 + tanh(a/2)/2, so with the f, i and o rows halved (an
    # exact scaling) one tanh over all 4H columns, times `scale` plus
    # `1 - scale`, gives the four gates.
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], H)
    shift = 1.0 - scale
    Z = np.empty((*lead, T, B, 4 * H))  # gate activations f, i, g, o
    S = np.zeros((*lead, T + 1, B, H))
    C = np.zeros((*lead, T + 1, B, H))
    tc = np.empty((*lead, B, H))        # tanh of the new cell state
    VT = _project(x, p, Z, scale)
    Zt, St, Ct = (_steps(a) for a in (Z, S, C))
    for t in range(T):
        z = Zt[t]
        z += St[t] @ VT
        np.tanh(z, out=z)
        z *= scale
        z += shift
        f, i, g, o = z[..., :H], z[..., H:2 * H], z[..., 2 * H:3 * H], z[..., 3 * H:]
        c = Ct[t + 1]
        np.multiply(f, Ct[t], out=c)
        c += i * g
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=St[t + 1])

    def backward():
        # Z: the factors of (dc, dc, dc, ds) in da, that is C_{t-1} f (1-f),
        # g i (1-i), i (1-g^2) and tanh(c) o (1-o); TC: o (1-tanh^2 c), the
        # factor of ds in dc; C[t]: f of step t, the factor of the carry.
        # In-place ops through one (T, B, H) temporary: the same expressions
        # with a temporary per operation took 1.3x the time and 3-5 MB more
        # peak RSS at the paper shape. tanh(c) is recomputed here, before C
        # is overwritten, rather than kept through the forward pass: a
        # (T, B, H) array less in every scan that waits for its backward pass.
        TC = np.tanh(C[..., 1:, :, :])
        TCt = _steps(TC)
        f, i, g, o = (Z[..., k * H:(k + 1) * H] for k in range(4))
        tmp = np.subtract(1.0, f)
        tmp *= f
        tmp *= C[..., :-1, :, :]
        C[..., :-1, :, :] = f
        f[...] = tmp
        np.subtract(1.0, i, out=tmp)
        tmp *= i
        tmp *= g
        np.square(g, out=g)
        np.subtract(1.0, g, out=g)
        g *= i
        i[...] = tmp
        np.subtract(1.0, o, out=tmp)
        tmp *= o
        tmp *= TC
        np.square(TC, out=TC)
        np.subtract(1.0, TC, out=TC)
        np.multiply(TC, o, out=TC)
        o[...] = tmp
        gates = _steps(Z.reshape(*lead, T, B, 4, H), -4)

        def step(t, ds, dc_next):
            dc = ds * TCt[t]
            dc += dc_next
            gates[t, ..., :3, :] *= dc[..., None, :]
            gates[t, ..., 3, :] *= ds
            dc *= Ct[t]
            return dc
        return Z, step
    return S, backward


def _bptt(dS, x, p, S, backward):
    """Reverse-time pass over one direction: (dX, grads of W, V and b).

    dS (B, T', H) is the state gradient of the last T' <= T steps; the steps
    before them get only the one that flows back through the recurrence (a
    top layer's head reads its last step alone). Consumes the scan's caches
    through `backward()`; the loop keeps only the da update and ds = da @ V,
    and the rest runs once over all T*B rows.
    """
    A, step = backward()
    *lead, B, T, n_in = x.shape
    V = p["V"]
    t0 = T - dS.shape[-2]
    ds_next = carry = 0.0
    At = _steps(A)
    for t in range(T - 1, -1, -1):
        ds = dS[..., t - t0, :] + ds_next if t >= t0 else ds_next
        carry = step(t, ds, carry)
        if t:
            ds_next = At[t] @ V
    A = A.reshape(*lead, T * B, -1)
    dWb = mT(A) @ _rows_with_ones(x)
    grads = {"W": dWb[..., :-1],
             "V": mT(A) @ S[..., :-1, :, :].reshape(*lead, T * B, -1),
             "b": dWb[..., -1]}
    return np.swapaxes((A @ p["W"]).reshape(*lead, T, B, n_in), -3, -2), grads


def _direction(x, p, scan):
    """One scan over x: its states (B, T, H) and their backward pass."""
    S, backward = scan(x, p)
    return (np.swapaxes(S[..., 1:, :, :], -3, -2),
            lambda dS: _bptt(dS, x, p, S, backward))


def bilstm_forward(x, p_fwd, p_bwd, combine="hadamard", last_step=False):
    """Two-direction pass; combined output per step is s_fwd (x) s_bwd.

    Returns Y and (Sf, Sb, back), where back(dY) -> (dX, grads) with the
    grads of p_fwd and p_bwd keyed "f_" and "b_" + name. With `last_step`
    (a top layer, whose last step alone the head reads) the reverse
    direction scans x_{T-1} alone, and Y, Sb and dY hold step T-1 only.
    """
    if x.shape[-2] == 0:
        raise ContractViolation("bilstm_forward: empty sequence")
    if combine not in ("hadamard", "concat"):
        raise ContractViolation(f"unknown bilstm combine mode {combine!r}")
    Sf, back_f = _direction(x, p_fwd, _lstm_scan)
    Sb_r, back_b = _direction(x[..., -1:, :] if last_step else x[..., ::-1, :],
                              p_bwd, _lstm_scan)
    Sb = Sb_r[..., ::-1, :]
    Tb = Sb.shape[-2]  # the steps the reverse direction covers: T or 1
    Sf_out = Sf[..., -Tb:, :]
    Y = (Sf_out * Sb if combine == "hadamard"
         else np.concatenate([Sf_out, Sb], axis=-1))

    def back(dY):
        H = Sf.shape[-1]
        if combine == "hadamard":
            dSf, dSb = dY * Sb, dY * Sf_out
        else:
            dSf, dSb = dY[..., :H], dY[..., H:]
        dX, gf = back_f(dSf)
        dXr, gb = back_b(dSb[..., ::-1, :])
        dX[..., -Tb:, :] += dXr[..., ::-1, :]
        return dX, {**{"f_" + k: v for k, v in gf.items()},
                    **{"b_" + k: v for k, v in gb.items()}}
    return Y, (Sf, Sb, back)


def scan_cache_bytes(arch, hidden, layers, lag_depth, batch):
    """About the bytes that one stream's forward+backward pass over a batch
    keeps live: per layer and direction the scan caches, (T+1, B, H) arrays
    (S and the factors da of the rnn; Z, S, C and the backward pass's TC and
    temporary of the lstm, 8 in all), and one state gradient dS. The top
    layer counts in full, its one-step bilstm reverse direction too, so that
    the group sizes stay those of the full-window scans. Every layer counts
    TC, though only the layer in its backward pass holds one: the count, and
    so the group sizes, stay those measured when every scan kept its TC."""
    per_layer = {"rnn": 2, "lstm": 8, "bilstm": 16}[arch]
    return 8 * batch * hidden * (lag_depth + 1) * (layers * per_layer + 1)


# ---------------------------------------------------------------------------
# Stacked model

_SCANS = {"rnn": _rnn_scan, "lstm": _lstm_scan}


class RecurrentModel:
    """Stacked recurrent predictor with a dense multi-horizon head.

    With a list of seeds it is a stack of one model per seed, one per feature
    stream (see `numcore.unstack`): each parameter gets a leading stream axis,
    and `forward` and `loss_and_grads` take windows (F, B, d), a generator per
    stream, and return (F, B, D) forecasts and F losses.
    """

    def __init__(self, arch, lag_depth, horizon,
                 hidden_size=DEFAULTS["rnn_hidden"], layers=DEFAULTS["rnn_layers"],
                 bilstm_combine=DEFAULTS["bilstm_combine"],
                 config: TrainConfig | None = None, seed=0):
        if arch not in ARCHITECTURES:
            raise ContractViolation(f"unknown architecture {arch!r}")
        self.arch = arch
        self.d = lag_depth
        self.D = horizon
        self.hidden_size = hidden_size
        self.layers = layers
        self.bilstm_combine = bilstm_combine
        self.config = config or TrainConfig()
        self.seed = seed
        self.trained = False
        self.params = init_params(self._init_params, seed)

    def _layer_out_dim(self):
        if self.arch == "bilstm" and self.bilstm_combine == "concat":
            return 2 * self.hidden_size
        return self.hidden_size

    def _init_params(self, rng):
        params = {}
        H = self.hidden_size
        GH = H if self.arch == "rnn" else 4 * H
        for k in range(self.layers):
            n_in = 1 if k == 0 else self._layer_out_dim()
            for pre in ("f_", "b_") if self.arch == "bilstm" else ("",):
                params[f"L{k}_{pre}W"] = init_uniform(rng, (GH, n_in), n_in)
                params[f"L{k}_{pre}V"] = init_uniform(rng, (GH, H), H)
                params[f"L{k}_{pre}b"] = init_uniform(rng, (GH,), H)
        out_in = self._layer_out_dim()
        params["out_W"] = init_uniform(rng, (self.D, out_in), out_in)
        params["out_b"] = init_uniform(rng, (self.D,), out_in)
        return params

    def _layer_params(self, k, prefix=""):
        return {n: self.params[f"L{k}_{prefix}{n}"] for n in ("W", "V", "b")}

    # -- forward / backward over a batch of windows ------------------------

    def forward(self, X, training=False, rng=None, backward=True):
        """Returns y and, if `backward`, each layer's backward pass and mask."""
        X = np.asarray(X, dtype=float)
        lead = self.params["out_b"].shape[:-1]
        if X.shape[:-2] != lead or X.ndim != len(lead) + 2 or X.shape[-1] != self.d:
            raise ContractViolation(
                f"expected lag windows of shape ({'F, ' * len(lead)}B, "
                f"{self.d}), got {X.shape}")
        h = X[..., None]
        backs = []
        p_drop = self.config.dropout
        for k in range(self.layers):
            if self.arch == "bilstm":
                seq, (_, _, back) = bilstm_forward(
                    h, self._layer_params(k, "f_"), self._layer_params(k, "b_"),
                    self.bilstm_combine, last_step=k == self.layers - 1)
            else:
                seq, back = _direction(h, self._layer_params(k), _SCANS[self.arch])
            mask = None
            if training and p_drop > 0.0 and k < self.layers - 1:
                mask = _dropout_mask(p_drop, seq.shape, rng)
                seq = seq * mask
            if backward:
                backs.append((back, mask))
            del back  # else its scan caches are freed before the next layer
            h = seq
        last = h[..., -1, :]
        y = last @ mT(self.params["out_W"]) + self.params["out_b"][..., None, :]
        return y, (backs, last)

    def loss_and_grads(self, X, Y, training=False, rng=None):
        Y = np.asarray(Y, dtype=float)
        y_hat, (backs, last) = self.forward(X, training=training, rng=rng)
        stacked = isinstance(self.seed, list)
        loss = huber_loss(Y, y_hat, self.config.huber_beta, stacked)
        dY = huber_grad(Y, y_hat, self.config.huber_beta, stacked)
        grads = {"out_W": mT(dY) @ last, "out_b": dY.sum(axis=-2)}
        del last  # for rnn and lstm a view of the top layer's states S
        d_seq = (dY @ self.params["out_W"])[..., None, :]  # step T-1 alone
        for k in reversed(range(self.layers)):
            # popped and deleted, so that each layer's caches go once its
            # pass has run, before the pass of the layer below
            back, mask = backs.pop()
            if mask is not None:
                d_seq = d_seq * mask
            d_seq, g = back(d_seq)
            del back
            grads.update({f"L{k}_{name}": val for name, val in g.items()})
        return loss, grads

    # -- flat-parameter helpers (gradient verification) --------------------

    def get_flat(self):
        return flatten(self.params, self.params)

    def set_flat(self, vec):
        self.params = unflatten(np.asarray(vec, dtype=float), self.params)

    def flat_grads(self, grads):
        return flatten(grads, self.params)

    def param_count(self):
        return sum(v.size for v in self.params.values())

    # -- persistence -------------------------------------------------------

    def to_dict(self, with_params=True):
        return {
            "format": FORMAT,
            "arch": self.arch,
            "d": self.d, "D": self.D,
            "hidden_size": self.hidden_size, "layers": self.layers,
            "input_size": 1,  # one scalar per step; kept for the format
            "bilstm_combine": self.bilstm_combine,
            "seed": self.seed, "trained": self.trained,
            "config": vars(self.config),
            "params": encode_params(self.params) if with_params else {},
        }


def train_recurrent(model: RecurrentModel, data: SupervisedWindowSet, seed=0):
    """Minibatch Adam on Huber loss with full-window BPTT; returns loss history.

    A stacked model trains on stacked windows (`datapipe.stack_windows`) with
    a list of seeds, one generator per stream, and returns a history per stream.
    """
    check_windows(data, model.d, model.D)
    rng = generators(seed)

    def batch_loss(idx):
        rows = batch_rows(idx)
        return model.loss_and_grads(data.X[rows], data.Y[rows], training=True,
                                    rng=rng)

    return fit(model, batch_loss, len(data), model.config, rng)


def predict_batch(model: RecurrentModel, X):
    """Forecasts (N, D) for windows X (N, d), or (F, N, D) for a stack."""
    X = np.asarray(X, dtype=float)
    return predict_in_parts(model, lambda s: model.forward(
        X[..., s, :], backward=False)[0], X)
