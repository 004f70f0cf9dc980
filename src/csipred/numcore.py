"""Minimal numeric substrate: activations, Huber loss, Adam, finite differences,
and the one minibatch training loop (`fit`) every model family uses.

Everything works on plain float64 numpy arrays. Gradients elsewhere in the
package are hand-derived; `finite_diff_grad` is the independent check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DivergenceError, OracleError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
GRAD_CLIP_NORM = 5.0


def sigmoid(x):
    """Logistic function 1/(1+e^-x), numerically safe for large |x|."""
    x = np.clip(x, -500.0, 500.0)
    return 1.0 / (1.0 + np.exp(-x))


def tanh_act(x):
    return np.tanh(x)


def relu(x):
    return np.maximum(x, 0.0)


def huber_loss(truth, prediction, beta=1.0):
    """Mean Huber loss: (1/(2*beta))*r^2 inside |r|<=beta, |r|-beta/2 outside."""
    truth = np.asarray(truth, dtype=float)
    prediction = np.asarray(prediction, dtype=float)
    if truth.shape != prediction.shape:
        raise ContractViolation(
            f"huber_loss shape mismatch: {truth.shape} vs {prediction.shape}")
    if beta <= 0:
        raise ContractViolation("huber beta must be > 0")
    r = truth - prediction
    a = np.abs(r)
    per = np.where(a <= beta, r * r / (2.0 * beta), a - beta / 2.0)
    return float(per.mean())


def huber_grad(truth, prediction, beta=1.0):
    """Gradient of `huber_loss` w.r.t. the prediction (includes the mean factor)."""
    truth = np.asarray(truth, dtype=float)
    prediction = np.asarray(prediction, dtype=float)
    if truth.shape != prediction.shape:
        raise ContractViolation(
            f"huber_grad shape mismatch: {truth.shape} vs {prediction.shape}")
    r = truth - prediction
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
    """Adam over a dict of named parameter arrays (one AdamState per name)."""

    def __init__(self, beta1=ADAM_BETA1, beta2=ADAM_BETA2, eps=ADAM_EPS):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.states: dict[str, AdamState] = {}

    def step(self, params: dict, grads: dict, lr: float) -> dict:
        out = {}
        for name in params:
            if name not in self.states:
                self.states[name] = AdamState.for_param(
                    params[name], self.beta1, self.beta2, self.eps)
            out[name] = adam_update(params[name], grads[name], self.states[name], lr)
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


def clip_grad_norm(grads: dict, max_norm: float) -> dict:
    """Scale the whole gradient dict so its global L2 norm is <= max_norm."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = np.sqrt(total)
    if norm <= max_norm or norm == 0.0:
        return grads
    s = max_norm / norm
    return {k: g * s for k, g in grads.items()}


def fit(model, loss_and_grads, n, cfg, rng):
    """Minibatch Adam over `n` examples; returns the per-epoch mean loss.

    Each epoch walks one `rng.permutation(n)` in batches of `cfg.batch_size`;
    `loss_and_grads(idx)` returns (loss, grads keyed like `model.params`). A
    non-finite loss raises `DivergenceError` before that batch's step; else the
    grads are clipped to global norm `cfg.grad_clip` and Adam steps at a rate
    that decays by `cfg.lr_decay` per epoch. Marks the model trained at the end.
    """
    opt = Adam()
    history = []
    lr = cfg.learning_rate
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        losses = []
        for b0 in range(0, n, cfg.batch_size):
            loss, grads = loss_and_grads(order[b0:b0 + cfg.batch_size])
            if not np.isfinite(loss):
                raise DivergenceError(epoch, b0 // cfg.batch_size, loss)
            grads = clip_grad_norm(grads, cfg.grad_clip)
            model.params = opt.step(model.params, grads, lr)
            losses.append(loss)
        history.append(float(np.mean(losses)))
        lr *= cfg.lr_decay
    model.trained = True
    return history


def init_uniform(rng: np.random.Generator, shape, fan_in):
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)
