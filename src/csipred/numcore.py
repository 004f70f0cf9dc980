"""Minimal numeric substrate: activations, Huber loss, Adam, finite differences,
and the one minibatch training loop (`fit`) every model family uses.

Everything works on plain float64 numpy arrays. Gradients elsewhere in the
package are hand-derived; `finite_diff_grad` is the independent check.
"""
from __future__ import annotations

import binascii
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


def sigmoid(x):
    """Logistic function 1/(1+e^-x), numerically safe for large |x|."""
    x = np.clip(x, -500.0, 500.0)
    return 1.0 / (1.0 + np.exp(-x))


def tanh_act(x):
    return np.tanh(x)


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


def huber_loss(truth, prediction, beta=1.0):
    """Mean Huber loss: (1/(2*beta))*r^2 inside |r|<=beta, |r|-beta/2 outside."""
    r = _residual(truth, prediction, "huber_loss")
    if beta <= 0:
        raise ContractViolation("huber beta must be > 0")
    a = np.abs(r)
    per = np.where(a <= beta, r * r / (2.0 * beta), a - beta / 2.0)
    return float(per.mean())


def huber_grad(truth, prediction, beta=1.0):
    """Gradient of `huber_loss` w.r.t. the prediction (includes the mean factor)."""
    r = _residual(truth, prediction, "huber_grad")
    dper = np.clip(r / beta, -1.0, 1.0)  # dL/dr, both branches
    return -dper / r.size


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
    """Views into `vec`, one per array of `like`, in its order and shapes."""
    parts = np.split(vec, np.cumsum([a.size for a in like.values()])[:-1])
    return {k: p.reshape(a.shape) for (k, a), p in zip(like.items(), parts)}


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
    norm = np.sqrt(np.dot(flat, flat))
    return flat if norm <= max_norm else flat * (max_norm / norm)


def fit(model, loss_and_grads, n, cfg, rng):
    """Minibatch Adam over `n` examples; returns the per-epoch mean loss.

    Each epoch walks one `rng.permutation(n)` in batches of `cfg.batch_size`;
    `loss_and_grads(idx)` returns (loss, grads keyed like `model.params`). A
    non-finite loss raises `DivergenceError` before that batch's step; else the
    grads are clipped to global norm `cfg.grad_clip` and Adam steps at a rate
    that decays by `cfg.lr_decay` per epoch. Marks the model trained at the end.
    At entry `model.params` becomes named views into one new vector.
    """
    flat = flatten(model.params, model.params)
    model.params = unflatten(flat, model.params)
    opt = Adam(flat.size)
    history = []
    lr = cfg.learning_rate
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        losses = []
        for b0 in range(0, n, cfg.batch_size):
            # A diverging batch overflows; the check below reports it once.
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grads = loss_and_grads(order[b0:b0 + cfg.batch_size])
            if not np.isfinite(loss):
                raise DivergenceError(epoch, b0 // cfg.batch_size, loss)
            opt.step(flat, clip_grad_norm(flatten(grads, model.params),
                                          cfg.grad_clip), lr)
            losses.append(loss)
        history.append(float(np.mean(losses)))
        lr *= cfg.lr_decay
    model.trained = True
    return history


def init_uniform(rng: np.random.Generator, shape, fan_in):
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def encode_params(params: dict) -> dict:
    """Each array as one base64 string of its little-endian float64 bytes."""
    return {k: binascii.b2a_base64(np.ascontiguousarray(v, "<f8"),
                                   newline=False).decode("ascii")
            for k, v in params.items()}


def load_params(fresh: dict, stored) -> dict:
    """`fresh`, the parameters of a newly built model of the same config, filled
    from `stored` as written by `encode_params`. Refused unless `stored` has the
    same names, each a strict base64 string of exactly its array's bytes, all
    of them finite."""
    if not isinstance(stored, dict) or stored.keys() != fresh.keys():
        raise ContractViolation("checkpoint parameter names do not match the "
                                "model config")
    for name, arr in fresh.items():
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
    return fresh
