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
                      generators, huber_grad, huber_loss, init_params, mT,
                      predict_in_parts, sigmoid, unflatten)

ARCHITECTURES = ("rnn", "lstm", "bilstm")
# v1 held 12 per-gate arrays per LSTM direction; v2 held float lists.
FORMAT = "csipred-recurrent-v3"
# An lstm step scales and shifts its gates by (4H,) constants. Broadcast once
# per scan to the step's shape, they took 4-10% off a forward pass at H=16-100
# and B=1-32, whatever the stream count. Steps of more bytes than this keep
# them (4H,): two more step-sized operands cost about 1% at H=200, B=31 and
# B=256.
STEP_CONSTANTS_BYTES = 128 * 1024
# A forecast's lstm scan projects its inputs a run of steps at a time into one
# buffer of at most PROJECT_BYTES, not all T steps into a (T, B, 4H) buffer
# (78.6 MB for a 256-window part at H=200). Runs of PROJECT_ROWS rows or more
# gave the bytes of one GEMM (OpenBLAS 0.3.31, AVX-512; H of 16-200, B of
# 1-256, input width 1 or H), so no run is shorter, whatever the budget.
PROJECT_BYTES = 8 << 20
PROJECT_ROWS = 256


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
# input projection of every step into a (T, B, G*H) buffer with one GEMM;
# each step then adds its recurrent GEMM and applies the activations. A
# forecast's lstm scan projects a run of steps at a time (`_project_runs`).
#
# A scan keeps what its caller reads, and nothing more (`keep`):
# - "caches", for training the top layer: its states S (T+1, B, H),
#   time-major with S[0] = 0, the lstm's gates Z and cells C besides, and
#   `backward()`.
# - "gates", for training a lower layer: the lstm keeps its gates Z alone;
#   its states S go to the layer above, which keeps them only where it reads
#   them unmasked. The rnn's states are its gates, so it keeps S.
# - "states", the forward-only pass of a lower layer: the states S[1:] that
#   the layer above reads, and no backward pass.
# - "last", the forward-only pass of a top layer: its last state (1, B, H)
#   alone, the one the head reads.
# A forecast thus holds one run's projection buffer and the layers' states.
#
# Each cell's step math is written once. A step runs on contiguous
# (..., B, G*H) operands: a kept array's own step views where they are
# contiguous (one stream, or none), else step buffers allocated once per
# scan, which the kept arrays copy after each step (`_step_views`). A stack's
# step view is F blocks T*B rows apart, and elementwise ops on it took up to
# twice the time of the same ops on a contiguous array; the copy costs less.
# The recurrent GEMM and the other temporaries go into step buffers too
# (`np.matmul(..., out=)`), with the same values and BLAS calls as fresh
# temporaries.
#
# `backward()` turns the caches in place into the factors that map a step's
# state and cell gradients to its pre-activation gradient da. It returns the
# (T, B, G*H) buffer that will hold da, `step(t, ds, carry)`, which writes
# da at step t and returns the carry for step t-1, and the states S. `_bptt`
# runs that loop and then gets the weight gradients, and dX where the layer
# below needs it, as single GEMMs over all T*B rows. The caches are
# consumed, so a scan is differentiated at most once. They are allocated
# once per scan, because per-step arrays interleaved with (B, G*H)
# temporaries fragment the heap. Between the passes a scan keeps no array
# that its backward pass can rebuild from what it keeps, bit for bit:
# `backward()` recomputes tanh(c) from C with one elementwise op, and for a
# lower lstm layer it first rebuilds C from Z with the forward's own step
# recurrence (`_lstm_cells`: i g for all steps, then a multiply and an add
# per step) and S = o tanh(C) with one more multiply. A lower layer waits for the backward
# passes of every layer above it, so between the passes it holds its gates
# and input alone. The top layer keeps S and C: its backward pass runs at
# once, so rebuilding them saves nothing at the peak, and at one layer (the
# mimo shape) it cost 8% of a pass. `RecurrentModel.loss_and_grads` drops
# each layer's caches once its backward pass has run. `rnn_cell_forward`
# and `lstm_cell_forward` compute one step gate by gate; they are the
# independent reference the scans are tested against.
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
    xb = np.empty((*lead, T, B, n + 1))
    xb[..., :n] = np.swapaxes(x, -3, -2)
    xb[..., n] = 1.0
    return xb.reshape(*lead, T * B, n + 1)


def _steps(a, axis=-3):
    """a (..., T, B, n) as a view indexed by step first: _steps(a)[t] is
    a[..., t, :, :]. With at most one axis before T, a swap of the two does
    it, and costs less than `np.moveaxis`."""
    return a.swapaxes(0, axis)


def _step_views(views, buf, n):
    """The n views that a scan's steps work on for an array, given as the list
    of its step views, and the views that copy them after each step, or None.
    The array's own views where they are contiguous; else `buf` (..., B, k)
    n times, copied into them. With views None (an array that the scan does
    not keep), `buf` n times and no copies. The views are returned as given,
    so a step that reads and writes one step view in place passes the same
    object twice: for two views of the same memory numpy checks the overlap,
    about 0.5 us a call."""
    if views is None:
        return [buf] * n, None
    if views[0].flags.c_contiguous:
        return views, None
    return [buf] * n, views


def _weights(p, scale=1.0):
    """[W.T; b] (n_in+1, G*H), the weights of `_rows_with_ones` rows, and V.T,
    their gate columns multiplied by `scale`. V.T is a contiguous copy: with
    OpenBLAS a GEMM on the transposed view is up to 4x slower for batches of
    a few windows."""
    Wb = np.concatenate([mT(p["W"]), p["b"][..., None, :]], axis=-2) * scale
    return Wb, np.multiply(mT(p["V"]), scale, order="C")


def _project(x, Wb, Z):
    """Z[t] = [x_t, 1] @ Wb for every step t of x (..., B, T, n), into Z
    (..., T, B, G*H) with one GEMM; returns Z's step views."""
    *lead, T, B, GH = Z.shape
    np.matmul(_rows_with_ones(x), Wb, out=Z.reshape(*lead, T * B, GH))
    return list(_steps(Z))


def _project_runs(x, Wb):
    """`_project`'s step views, one step at a time, projected a run of steps
    at a time into one buffer: equal runs, as few as fit PROJECT_BYTES, but
    none of fewer than PROJECT_ROWS rows. A step's view is valid until the
    next run is projected."""
    *lead, B, T, _ = x.shape
    GH = Wb.shape[-1]
    width = int(np.prod(lead)) * B * GH  # a step's projections
    steps = max(PROJECT_BYTES // (Wb.itemsize * width), 1)
    runs = max(1, min(-(-T // steps), T // -(-PROJECT_ROWS // B)))
    ends = [T * k // runs for k in range(runs + 1)]
    buf = np.empty(width * -(-T // runs))
    for t0, t1 in zip(ends, ends[1:]):
        Z = buf[:width * (t1 - t0)].reshape(*lead, t1 - t0, B, GH)
        yield from _project(x[..., t0:t1, :], Wb, Z)


def rnn_cell_forward(x_t, s_prev, W, V, b):
    """s_t = tanh(W x_t + V s_{t-1} + b); rows are batch samples."""
    x_t = np.atleast_2d(np.asarray(x_t, dtype=float))
    s_prev = np.atleast_2d(np.asarray(s_prev, dtype=float))
    if x_t.shape[1] != W.shape[1] or s_prev.shape[1] != V.shape[1]:
        raise ContractViolation("rnn_cell_forward dimension mismatch")
    return np.tanh(x_t @ W.T + s_prev @ V.T + b)


def _rnn_scan(x, p, keep="caches"):
    *lead, B, T, _ = x.shape
    H = p["V"].shape[-1]
    S = np.zeros((*lead, T + 1, B, H))
    Wb, VT = _weights(p)
    _project(x, Wb, S[..., 1:, :, :])  # pre-activations, then kept states
    St = list(_steps(S))
    ss, kept = _step_views(None if keep == "last" else St,
                           np.zeros((*lead, B, H)), T + 1)
    sv = np.empty((*lead, B, H))            # the step's recurrent GEMM
    for t in range(T):
        s = ss[t + 1]
        np.add(St[t + 1], np.matmul(ss[t], VT, out=sv), out=s)
        np.tanh(s, out=s)
        if kept is not None:
            np.copyto(kept[t + 1], s)
    if keep in ("states", "last"):
        return S[..., 1:, :, :] if keep == "states" else ss[T][..., None, :, :]

    def backward():
        A = np.square(S[..., 1:, :, :])
        np.subtract(1.0, A, out=A)  # ds -> da: 1 - s^2
        At = _steps(A)

        def step(t, ds, carry):
            At[t] *= ds
            return carry
        return A, step, S
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


def _lstm_cells(Z, H):
    """The cells C (..., T+1, B, H), C[0] = 0, of the gates Z (..., T, B, 4H)
    that a forward pass kept: its step recurrence c = f c_prev + i g, with
    i g taken for all steps at once and added to f c_prev rather than the
    other way round, which gives the same bits."""
    *lead, T, B, _ = Z.shape
    C = np.zeros((*lead, T + 1, B, H))
    np.multiply(Z[..., H:2 * H], Z[..., 2 * H:3 * H], out=C[..., 1:, :, :])
    Ct, ft = _steps(C), _steps(Z[..., :H])
    fc = np.empty((*lead, B, H))
    for t in range(T):
        Ct[t + 1] += np.multiply(ft[t], Ct[t], out=fc)
    return C


def _lstm_scan(x, p, keep="caches"):
    *lead, B, T, _ = x.shape
    H = p["V"].shape[-1]
    # sigmoid(a) = 1/2 + tanh(a/2)/2, so with the f, i and o rows halved (an
    # exact scaling) one tanh over all 4H columns, times `scale` plus
    # `1 - scale`, gives the four gates.
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], H)
    shift = 1.0 - scale
    train = keep in ("caches", "gates")
    Wb, VT = _weights(p, scale)
    if train:  # projections, then gates f, i, g, o
        Z = np.empty((*lead, T, B, 4 * H))
        projected = _project(x, Wb, Z)
    else:
        Z, projected = None, _project_runs(x, Wb)
    # after a training scan's projection, whose input rows are then freed
    S = None if keep == "last" else np.zeros((*lead, T + 1, B, H))
    C = np.zeros((*lead, T + 1, B, H)) if keep == "caches" else None
    zv = np.empty((*lead, B, 4 * H))    # the step's recurrent GEMM, then gates
    if zv.nbytes <= STEP_CONSTANTS_BYTES:
        scale = np.broadcast_to(scale, zv.shape).copy()
        shift = 1.0 - scale
    St, Ct = (None if A is None else list(_steps(A)) for A in (S, C))
    zs, z_kept = _step_views(projected if train else None, zv, T)
    ss, s_kept = _step_views(St, np.zeros((*lead, B, H)), T + 1)
    cs, c_kept = _step_views(Ct, np.zeros((*lead, B, H)), T + 1)
    ig = np.empty((*lead, B, H))        # i * g
    tc = np.empty((*lead, B, H))        # tanh of the new cell state
    for t, zp in enumerate(projected):
        z = zs[t]
        np.add(zp, np.matmul(ss[t], VT, out=zv), out=z)
        np.tanh(z, out=z)
        z *= scale
        z += shift
        f, i, g, o = z[..., :H], z[..., H:2 * H], z[..., 2 * H:3 * H], z[..., 3 * H:]
        c, s = cs[t + 1], ss[t + 1]
        np.multiply(f, cs[t], out=c)
        c += np.multiply(i, g, out=ig)
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=s)
        if z_kept is not None:
            np.copyto(z_kept[t], z)
        if c_kept is not None:
            np.copyto(c_kept[t + 1], c)
        if s_kept is not None:
            np.copyto(s_kept[t + 1], s)
    if not train:
        return S[..., 1:, :, :] if keep == "states" else ss[T][..., None, :, :]
    kept = (S, C) if keep == "caches" else None  # "gates": rebuilt from Z

    def backward():
        # Z: the factors of (dc, dc, dc, ds) in da, that is C_{t-1} f (1-f),
        # g i (1-i), i (1-g^2) and tanh(c) o (1-o); TC: o (1-tanh^2 c), the
        # factor of ds in dc; C[t]: f of step t, the factor of the carry.
        # In-place ops through one (T, B, H) temporary: the same expressions
        # with a temporary per operation took 1.3x the time and 3-5 MB more
        # peak RSS at the paper shape. tanh(c) is recomputed here, before C
        # is overwritten, rather than kept through the forward pass: a
        # (T, B, H) array less in every scan that waits for its backward pass.
        S, C = kept if kept is not None else (None, _lstm_cells(Z, H))
        TC = np.tanh(C[..., 1:, :, :])
        f, i, g, o = (Z[..., k * H:(k + 1) * H] for k in range(4))
        if S is None:  # s = o tanh(c), as the forward step computes it
            S = np.zeros_like(C)
            np.multiply(o, TC, out=S[..., 1:, :, :])
        TCt, Ct = _steps(TC), _steps(C)
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
        # dc of odd and even steps: each step adds the carry of the one before
        dcs = np.empty((2, *lead, B, H))
        # (dc, dc, dc, ds), copied out once per step: one multiply of all 4H
        # gate columns by it took 0.6x the time of dc broadcast over three
        # gates plus ds times the fourth.
        dg = np.empty((*lead, B, 4, H))

        def step(t, ds, dc_next):
            dc = np.multiply(ds, TCt[t], out=dcs[t % 2])
            dc += dc_next
            np.copyto(dg[..., :3, :], dc[..., None, :])
            dg[..., 3, :] = ds
            np.multiply(gates[t], dg, out=gates[t])
            dc *= Ct[t]
            return dc
        return Z, step, S
    return S, backward


def _bptt(dS, x, p, A, step, S, dx=True):
    """Reverse-time pass over one direction: (dX, grads of W, V and b), with
    dX None unless `dx`.

    dS (B, T', H) is the state gradient of the last T' <= T steps; the steps
    before them get only the one that flows back through the recurrence (a
    top layer's head reads its last step alone). A, `step` and the states S
    are what the scan's `backward()` returns; the loop keeps only the da
    update and ds = da @ V, and the rest runs once over all T*B rows.
    """
    *lead, B, T, n_in = x.shape
    V = p["V"]
    t0 = T - dS.shape[-2]
    ds_next = carry = 0.0
    At = _steps(A)
    dsv = np.empty((*lead, B, V.shape[-1]))  # the step's recurrent GEMM
    for t in range(T - 1, -1, -1):
        ds = dS[..., t - t0, :] + ds_next if t >= t0 else ds_next
        carry = step(t, ds, carry)
        if t:
            ds_next = np.matmul(At[t], V, out=dsv)
    A = A.reshape(*lead, T * B, -1)
    dWb = mT(A) @ _rows_with_ones(x)
    grads = {"W": dWb[..., :-1],
             "V": mT(A) @ S[..., :-1, :, :].reshape(*lead, T * B, -1),
             "b": dWb[..., -1]}
    if not dx:
        return None, grads
    return np.swapaxes((A @ p["W"]).reshape(*lead, T, B, n_in), -3, -2), grads


def _keep(top, backward):
    """What a layer's scans keep (see the scan comment block)."""
    if backward:
        return "caches" if top else "gates"
    return "last" if top else "states"


def _direction(x, p, scan, keep="caches"):
    """One scan over x: the states (B, T', H) it keeps (see the scan comment
    block) and, if it keeps caches or gates, `back(dS, dx=True)`, its
    backward pass; else None."""
    if keep in ("states", "last"):
        return np.swapaxes(scan(x, p, keep), -3, -2), None
    S, backward = scan(x, p, keep)
    return (np.swapaxes(S[..., 1:, :, :], -3, -2),
            lambda dS, dx=True: _bptt(dS, x, p, *backward(), dx))


def bilstm_forward(x, p_fwd, p_bwd, combine="hadamard", last_step=False,
                   backward=True):
    """Two-direction pass; combined output per step is s_fwd (x) s_bwd.

    Returns Y and (Sf, Sb, back), where back(dY, dx=True) -> (dX, grads) with
    the grads of p_fwd and p_bwd keyed "f_" and "b_" + name, and dX None
    unless `dx`. With `last_step` (a top layer, whose last step alone the
    head reads) the reverse direction scans x_{T-1} alone, and Y, Sb and dY
    hold step T-1 only. Without `backward` the pass is forward-only: back is
    None, and with `last_step` Sf holds step T-1 only too. Else a lower
    layer (no `last_step`) keeps only its gates (see the scan comment block),
    and `back` rebuilds both directions' states before it combines dY with
    them.
    """
    if x.shape[-2] == 0:
        raise ContractViolation("bilstm_forward: empty sequence")
    if combine not in ("hadamard", "concat"):
        raise ContractViolation(f"unknown bilstm combine mode {combine!r}")
    keep = _keep(last_step, backward)
    x_r = x[..., -1:, :] if last_step else x[..., ::-1, :]
    if backward:
        Sf, backward_f = _lstm_scan(x, p_fwd, keep)
        Sb, backward_b = _lstm_scan(x_r, p_bwd, keep)
        Sf, Sb = (np.swapaxes(S[..., 1:, :, :], -3, -2) for S in (Sf, Sb))
    else:
        Sf, Sb = (_direction(xd, p, _lstm_scan, keep)[0]
                  for xd, p in ((x, p_fwd), (x_r, p_bwd)))
    Sb = Sb[..., ::-1, :]
    Tb = Sb.shape[-2]  # the steps the reverse direction covers: T or 1
    Sf_out = Sf[..., -Tb:, :]
    Y = (Sf_out * Sb if combine == "hadamard"
         else np.concatenate([Sf_out, Sb], axis=-1))
    if not backward:
        return Y, (Sf, Sb, None)

    def back(dY, dx=True):
        f, b = backward_f(), backward_b()  # (A, step, S) of each direction
        H = dY.shape[-1] // 2
        # each direction's state gradient, made just before its pass
        dSf = (dY * np.swapaxes(b[2][..., :0:-1, :, :], -3, -2)
               if combine == "hadamard" else dY[..., :H])
        dX, gf = _bptt(dSf, x, p_fwd, *f, dx)
        Sf = f[2]
        del f, dSf  # all that the forward direction's pass held but Sf
        dSb = (dY * np.swapaxes(Sf[..., -Tb:, :, :], -3, -2)
               if combine == "hadamard" else dY[..., H:])
        del Sf
        dXr, gb = _bptt(dSb[..., ::-1, :], x_r, p_bwd, *b, dx)
        if dx:
            dX[..., -Tb:, :] += dXr[..., ::-1, :]
        return dX, {**{"f_" + k: v for k, v in gf.items()},
                    **{"b_" + k: v for k, v in gb.items()}}
    return Y, (Sf, Sb, back)


def scan_cache_bytes(arch, hidden, layers, lag_depth, batch):
    """About the bytes that one stream's forward+backward pass over a batch
    keeps live: per layer and direction the scan caches, (T+1, B, H) arrays
    (S and the factors da of the rnn; Z, S, C and the backward pass's TC and
    temporary of the lstm, 8 in all), and one state gradient dS. The top
    bilstm layer's reverse direction scans x_{T-1} alone, so its 8 arrays
    count as (2, B, H). Every layer counts TC, though only the layer in its
    backward pass holds one, and every lstm layer counts S and C, though a
    lower layer holds only Z until its backward pass rebuilds them: the
    count is kept on purpose, so that the group sizes stay those measured
    when every scan kept all of them. A scan's step buffers, a few (B, G*H)
    arrays, are not counted."""
    steps = lag_depth + 1
    per_layer = {"rnn": 2, "lstm": 8, "bilstm": 16}[arch]
    arrays = steps * (layers * per_layer + 1)
    if arch == "bilstm":
        arrays -= 8 * (steps - 2)  # the top reverse direction's T+1 is 2
    return 8 * batch * hidden * arrays


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
                 config: TrainConfig | None = None, seed=0, draw=True):
        """`draw` false leaves the parameters undrawn (see `init_params`)."""
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
        self.params = init_params(self._param_specs(), seed, draw)

    def _layer_out_dim(self):
        if self.arch == "bilstm" and self.bilstm_combine == "concat":
            return 2 * self.hidden_size
        return self.hidden_size

    def _param_specs(self):
        """{name: (shape, fan_in)} of one stream's parameters, in draw order."""
        specs = {}
        H = self.hidden_size
        GH = H if self.arch == "rnn" else 4 * H
        for k in range(self.layers):
            n_in = 1 if k == 0 else self._layer_out_dim()
            for pre in ("f_", "b_") if self.arch == "bilstm" else ("",):
                specs[f"L{k}_{pre}W"] = ((GH, n_in), n_in)
                specs[f"L{k}_{pre}V"] = ((GH, H), H)
                specs[f"L{k}_{pre}b"] = ((GH,), H)
        out_in = self._layer_out_dim()
        specs["out_W"] = ((self.D, out_in), out_in)
        specs["out_b"] = ((self.D,), out_in)
        return specs

    def _layer_params(self, k, prefix=""):
        return {n: self.params[f"L{k}_{prefix}{n}"] for n in ("W", "V", "b")}

    # -- forward / backward over a batch of windows ------------------------

    def forward(self, X, training=False, rng=None, backward=True):
        """Returns y and, if `backward`, each layer's backward pass and mask;
        else the scans keep no caches (see the scan comment block)."""
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
            top = k == self.layers - 1
            if self.arch == "bilstm":
                seq, (*_, back) = bilstm_forward(
                    h, self._layer_params(k, "f_"), self._layer_params(k, "b_"),
                    self.bilstm_combine, last_step=top, backward=backward)
                del _  # the directions' states, which `back` keeps if it must
            else:
                seq, back = _direction(h, self._layer_params(k),
                                       _SCANS[self.arch], _keep(top, backward))
            mask = None
            if training and p_drop > 0.0 and k < self.layers - 1:
                mask = _dropout_mask(p_drop, seq.shape, rng)
                seq = seq * mask
                mask = mask != 0.0  # the backward pass rebuilds 0 or 1/(1-p)
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
                d_seq = d_seq * (mask / (1.0 - self.config.dropout))
            d_seq, g = back(d_seq, k > 0)  # no dX for the windows
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

    A stacked model trains on a split stack of a `datapipe.PreparedDataset`
    with a list of seeds, one generator per stream, and returns a history per stream.
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
