"""Minimal numeric substrate: activations, Huber loss, Adam, finite differences,
the one minibatch training loop (`fit`) and the window rules every model
family uses, and the stacks of per-stream models that `fit` trains as one.

Everything works on plain float64 numpy arrays. Gradients elsewhere in the
package are hand-derived; `finite_diff_grad` is the independent check.
"""
from __future__ import annotations

import binascii
import copy
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DivergenceError, OracleError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
GRAD_CLIP_NORM = 5.0
# `Adam.step` walks its vectors in blocks of this many elements through two
# work rows of that size, so it allocates nothing and the rows stay in cache.
# For paper-shape bilstm (1.6M parameters) whole-vector temporaries took 1.8x
# the time, and whole-vector work rows kept during training raised peak RSS.
ADAM_BLOCK = 1 << 15
# The most windows whose forward pass `predict_in_parts` holds at one time.
PREDICT_WINDOWS = 256


def sigmoid(x):
    """Logistic function 1/(1+e^-x), numerically safe for large |x|."""
    x = np.clip(x, -500.0, 500.0)
    return 1.0 / (1.0 + np.exp(-x))


def relu(x):
    return np.maximum(x, 0.0)


def _residual(truth, prediction, caller):
    """truth - prediction as float arrays, which must have one shape."""
    truth = np.asarray(truth, dtype=float)
    prediction = np.asarray(prediction, dtype=float)
    if truth.shape != prediction.shape:
        raise ContractViolation(
            f"{caller} shape mismatch: {truth.shape} vs {prediction.shape}")
    return truth - prediction


def huber_loss(truth, prediction, beta=1.0, stacked=False):
    """Mean Huber loss: (1/(2*beta))*r^2 inside |r|<=beta, |r|-beta/2 outside.

    With `stacked`, the arrays carry a leading stream axis and the result is
    one mean per stream.
    """
    r = _residual(truth, prediction, "huber_loss")
    if beta <= 0:
        raise ContractViolation("huber beta must be > 0")
    a = np.abs(r)
    per = np.where(a <= beta, r * r / (2.0 * beta), a - beta / 2.0)
    if stacked:
        return per.reshape(len(per), -1).mean(axis=1)
    return float(per.mean())


def huber_grad(truth, prediction, beta=1.0, stacked=False):
    """Gradient of `huber_loss` w.r.t. the prediction (includes the mean factor)."""
    r = _residual(truth, prediction, "huber_grad")
    dper = np.clip(r / beta, -1.0, 1.0)  # dL/dr, both branches
    return -dper / (r.size // len(r) if stacked else r.size)


@dataclass
class AdamState:
    """Per-parameter Adam accumulators."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    eps: float = ADAM_EPS

    @classmethod
    def for_param(cls, param, beta1=ADAM_BETA1, beta2=ADAM_BETA2, eps=ADAM_EPS):
        z = np.zeros_like(np.asarray(param, dtype=float))
        return cls(m=z.copy(), v=z.copy(), t=0, beta1=beta1, beta2=beta2, eps=eps)


def adam_update(param, grad, state: AdamState, lr):
    """One bias-corrected Adam step; returns the new parameter array.

    `state` is mutated (accumulators and step counter).
    """
    param = np.asarray(param, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if param.shape != grad.shape or param.shape != state.m.shape:
        raise ContractViolation(
            f"adam_update shape mismatch: param {param.shape}, grad {grad.shape}, "
            f"state {state.m.shape}")
    if lr <= 0:
        raise ContractViolation("learning rate must be > 0")
    state.t += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    m_hat = state.m / (1.0 - state.beta1 ** state.t)
    v_hat = state.v / (1.0 - state.beta2 ** state.t)
    return param - lr * m_hat / (np.sqrt(v_hat) + state.eps)


class Adam:
    """Adam over one flat vector with one m, one v and one step count; `step`
    works in place, bit-equal per element to `adam_update`."""

    def __init__(self, size):
        self.m, self.v, self.t = np.zeros(size), np.zeros(size), 0
        self._work = np.empty((2, min(size, ADAM_BLOCK)))

    def step(self, flat, grad, lr):
        self.t += 1
        for s in range(0, flat.size, ADAM_BLOCK):
            p, g, m, v = (x[s:s + ADAM_BLOCK] for x in (flat, grad, self.m, self.v))
            a, b = self._work[:, :p.size]
            # adam_update's operation order, through the two work rows
            m *= ADAM_BETA1
            m += np.multiply(1.0 - ADAM_BETA1, g, out=a)
            v *= ADAM_BETA2
            np.multiply(1.0 - ADAM_BETA2, g, out=a)
            v += np.multiply(a, g, out=a)
            np.divide(m, 1.0 - ADAM_BETA1 ** self.t, out=a)
            a *= lr  # lr * m_hat
            np.divide(v, 1.0 - ADAM_BETA2 ** self.t, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPS
            p -= np.divide(a, b, out=a)


def flatten(arrays: dict, names) -> np.ndarray:
    """The arrays named by `names`, raveled in that order into one new vector."""
    return np.concatenate([arrays[k] for k in names], axis=None)


def unflatten(vec, like: dict) -> dict:
    """Views into `vec`, one per array of `like`, in its order and shapes. A
    stack of vectors (F, P) gives views (F, *shape), one row per stream."""
    parts = np.split(vec, np.cumsum([a.size for a in like.values()])[:-1], axis=-1)
    return {k: p.reshape(*vec.shape[:-1], *a.shape)
            for (k, a), p in zip(like.items(), parts)}


# ---------------------------------------------------------------------------
# Stacks
#
# F models of one shape, one per feature stream, train as one stacked model:
# a copy of the model whose `seed` is the list of the F seeds and whose
# parameters carry a leading stream axis, (F, *shape). Its forward and
# backward passes take stacked batches with the same leading axis, so that
# each GEMM is one `np.matmul` over F slices, and each stream keeps its own
# generator (`generators`), batch order, dropout draws and clip norm.


def mT(a):
    """The matrices of `a` transposed, as a view (numpy 2's `ndarray.mT`)."""
    return np.swapaxes(a, -1, -2)


def init_params(specs, seed, draw=True):
    """Parameters of the shapes that `specs`, {name: (shape, fan_in)}, gives:
    each drawn by `init_uniform` from `np.random.default_rng(seed)` in the
    order of `specs`, or zeros where fan_in is None. For a list of seeds, the
    parameters of each seed stacked into one array per name, with a row per
    seed. With `draw` false, nothing is drawn: the arrays are left
    uninitialised, for `load_params` to fill."""
    rows = (len(seed),) if isinstance(seed, list) else ()
    if not draw:
        return {k: np.empty(rows + shape) for k, (shape, _) in specs.items()}

    def init(rng):
        return {k: np.zeros(shape) if fan_in is None
                else init_uniform(rng, shape, fan_in)
                for k, (shape, fan_in) in specs.items()}
    if not rows:
        return init(np.random.default_rng(seed))
    per = [init(np.random.default_rng(s)) for s in seed]
    return {k: np.stack([p[k] for p in per]) for k in specs}


def generators(seed):
    """One generator for one seed; a list of them for a list of seeds."""
    if isinstance(seed, list):
        return [np.random.default_rng(s) for s in seed]
    return np.random.default_rng(seed)


def batch_rows(idx):
    """The index that takes batch `idx` from the window arrays: for a stack,
    idx (F, b) holds one batch per stream and takes rows of stream f's
    (N, ...) slice."""
    if idx.ndim == 1:
        return idx
    return np.arange(len(idx))[:, None], idx


def unstack(model):
    """The F models of a stacked `model`: shallow copies, each with its own
    seed and with parameters that are views of its row of the stack. A plain
    model is its own one stream."""
    if not isinstance(model.seed, list):
        return [model]
    out = []
    for f, seed in enumerate(model.seed):
        one = copy.copy(model)
        one.seed, one.params = seed, {k: v[f] for k, v in model.params.items()}
        out.append(one)
    return out


def finite_diff_grad(f, x, eps=1e-5):
    """Central-difference gradient of scalar f at vector x."""
    if not (1e-7 <= eps <= 1e-3):
        raise ContractViolation("eps must lie in [1e-7, 1e-3]")
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise OracleError(f"non-finite f at coordinate {i}")
        gf[i] = (fp - fm) / (2.0 * eps)
    return g


def clip_grad_norm(flat, max_norm):
    """`flat` itself if its L2 norm is <= max_norm, else a copy scaled to it."""
    with np.errstate(over="ignore"):
        norm = np.sqrt(np.dot(flat, flat))
    if norm == np.inf:  # the squares overflow, though the norm may not
        peak = np.abs(flat).max()
        norm = peak * np.sqrt(np.dot(flat / peak, flat / peak))
    return flat if norm <= max_norm else flat * (max_norm / norm)


def check_windows(data, d, D):
    """Refuse training windows that are none, or not of d lags and D labels."""
    if len(data) == 0:
        raise ContractViolation("empty training dataset")
    if data.d != d or data.D != D:
        raise ContractViolation(f"window shape (d={data.d}, D={data.D}) does "
                                f"not match the model (d={d}, D={D})")


def predict_in_parts(model, forward, X):
    """A trained `model`'s `forward(s)` over ceil(n / PREDICT_WINDOWS) equal
    slices s of the n windows of X (..., n, d), joined on axis -2; for
    n > 256, parts of over 128. At H=200 (OpenBLAS 0.3.31, AVX-512) rnn and
    lstm parts of 60 rows or more gave the bytes of one pass, and parts of
    25-32 rows did not."""
    if not model.trained:
        raise ContractViolation("model is not trained")
    if X.ndim < 2:
        raise ContractViolation(
            f"expected lag windows of shape (..., N, d), got {X.shape}")
    n = X.shape[-2]
    parts = max(1, -(-n // PREDICT_WINDOWS))
    return np.concatenate([forward(slice(k * n // parts, (k + 1) * n // parts))
                           for k in range(parts)], axis=-2)


def fit(model, loss_and_grads, n, cfg, rng):
    """Minibatch Adam over `n` examples; returns the per-epoch mean loss.

    Each epoch walks one `rng.permutation(n)` in batches of `cfg.batch_size`;
    `loss_and_grads(idx)` returns (loss, grads keyed like `model.params`). A
    non-finite loss raises `DivergenceError` before that batch's step; else the
    grads are clipped to global norm `cfg.grad_clip` and Adam steps at a rate
    that decays by `cfg.lr_decay` per epoch. A step after which the squared
    norm of the parameters overflows raises `DivergenceError` too. Marks the
    model trained at the end.

    A stacked model comes with a list of F generators, one per stream, and
    gets back a list of F histories. Each stream walks its own permutations:
    `loss_and_grads` gets idx (F, b), one batch per stream, and returns F
    losses and stacked grads. Each stream's grads are clipped to their own
    norm, and one Adam steps all of them. On divergence the error names the
    lowest-index stream that diverged at the first batch where any did.

    At entry `model.params` becomes named views into one new (F, P) buffer
    whose row f holds stream f's parameters, in the order of `flatten`; for
    one model (F = 1) the views have the model's own shapes.
    """
    stacked = isinstance(rng, list)
    rngs = rng if stacked else [rng]
    F = len(rngs)
    P = sum(a.size for a in model.params.values()) // F
    flat, grad = np.empty(F * P), np.empty(F * P)
    buf, gbuf = flat.reshape(F, P), grad.reshape(F, P)
    np.concatenate([a.reshape(F, -1) for a in model.params.values()], axis=1,
                   out=buf)
    # No name may keep the arrays packed here alive: they are as large as buf.
    model.params = (unflatten(buf, {k: a[0] for k, a in model.params.items()})
                    if stacked else unflatten(flat, model.params))
    opt = Adam(flat.size)
    histories = [[] for _ in range(F)]
    lr = cfg.learning_rate
    for epoch in range(cfg.epochs):
        order = np.stack([r.permutation(n) for r in rngs])
        losses = []
        for b0 in range(0, n, cfg.batch_size):
            idx = order[:, b0:b0 + cfg.batch_size]
            # A diverging batch overflows; the check below reports it once.
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grads = loss_and_grads(idx if stacked else idx[0])
            loss = np.reshape(loss, F)
            batch = b0 // cfg.batch_size
            if not np.isfinite(loss).all():
                f = int(np.flatnonzero(~np.isfinite(loss))[0])
                raise DivergenceError(epoch, batch, float(loss[f]), f)
            np.concatenate([grads[k].reshape(F, -1) for k in model.params],
                           axis=1, out=gbuf)
            del grads  # else they live through the next batch's pass
            for row in gbuf:
                clipped = clip_grad_norm(row, cfg.grad_clip)
                if clipped is not row:
                    row[...] = clipped
            opt.step(flat, grad, lr)
            with np.errstate(over="ignore"):
                squares = np.array([np.dot(row, row) for row in buf])
            if not np.isfinite(squares).all():
                f = int(np.flatnonzero(~np.isfinite(squares))[0])
                raise DivergenceError(epoch, batch, float(loss[f]), f,
                                      "the squared norm of the parameters "
                                      "overflows after the step of")
            losses.append(loss)
        for history, mine in zip(histories, np.array(losses).T):
            history.append(float(np.mean(mine)))
        lr *= cfg.lr_decay
    model.trained = True
    return histories if stacked else histories[0]


def init_uniform(rng: np.random.Generator, shape, fan_in):
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def encode_params(params: dict) -> dict:
    """Each array as one base64 string of its little-endian float64 bytes."""
    return {k: binascii.b2a_base64(np.ascontiguousarray(v, "<f8"),
                                   newline=False).decode("ascii")
            for k, v in params.items()}


def load_params(params: dict, stored) -> dict:
    """`params`, the arrays of a model of the same config (as `init_params`
    shapes them, drawn or not, or views of one row of a stack), filled in
    place from `stored` as written by `encode_params`. Refused unless `stored`
    has the same names, each a strict base64 string of exactly its array's
    bytes, all of them finite."""
    if not isinstance(stored, dict) or stored.keys() != params.keys():
        raise ContractViolation("checkpoint parameter names do not match the "
                                "model config")
    for name, arr in params.items():
        blob = stored[name]
        try:
            raw = binascii.a2b_base64(blob, strict_mode=True)
        except (TypeError, ValueError):
            raw = None
        if not isinstance(blob, str) or raw is None or len(raw) != 8 * arr.size:
            raise ContractViolation(
                f"checkpoint parameter {name} is not the base64 of {arr.size} "
                f"float64 values, as the model config implies")
        arr[...] = np.frombuffer(raw, "<f8").reshape(arr.shape)
        if not np.isfinite(arr).all():
            raise ContractViolation(f"checkpoint parameter {name} holds a "
                                    f"non-finite value")
    return params
