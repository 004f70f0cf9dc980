"""What a training step and a prediction keep alive: a batch's gradients and
a layer's scan caches go once they are used, and prediction memory of every
model family depends on PREDICT_WINDOWS, not on the number of windows."""
import tracemalloc
import weakref

import numpy as np
import pytest

from csipred import recurrent
from csipred.nprophet import NpConfig, NpModel, np_predict_batch
from csipred.numcore import PREDICT_WINDOWS, fit
from csipred.recurrent import RecurrentModel, TrainConfig, predict_batch


def test_fit_releases_a_batch_gradients_before_the_next_batch():
    rng = np.random.default_rng(0)
    X, Y = rng.normal(size=(12, 6)), rng.normal(size=(12, 3))
    model = RecurrentModel("rnn", 6, 3, hidden_size=4, layers=1,
                           config=TrainConfig(epochs=2, batch_size=4))
    previous, calls = [], []

    def batch_loss(idx):
        calls.append([ref() is None for ref in previous])
        loss, grads = model.loss_and_grads(X[idx], Y[idx])
        previous[:] = [weakref.ref(grads["out_W"])]
        return loss, grads

    fit(model, batch_loss, len(X), model.config, np.random.default_rng(1))
    assert len(calls) == 6
    assert calls[1:] == [[True]] * 5


@pytest.mark.parametrize("arch", ["rnn", "lstm", "bilstm"])
def test_layer_caches_go_before_the_layer_below_runs(arch, monkeypatch):
    """At each direction's backward pass, the states S of every layer above
    it are already freed; the top layer's included, which rnn and lstm read
    their forecasts from."""
    dirs = 2 if arch == "bilstm" else 1
    scans = []  # weakrefs to each scan's S, in forward order
    alive_above = []

    def traced(scan):
        def run(x, p):
            S, backward = scan(x, p)
            scans.append(weakref.ref(S))
            return S, backward
        return run

    def bptt(dS, x, p, S, backward):
        layer = next(i for i, ref in enumerate(scans) if ref() is S) // dirs
        alive_above.append(sum(ref() is not None
                               for ref in scans[(layer + 1) * dirs:]))
        return original_bptt(dS, x, p, S, backward)

    original_bptt = recurrent._bptt
    for name in ("rnn", "lstm"):
        monkeypatch.setitem(recurrent._SCANS, name, traced(recurrent._SCANS[name]))
    monkeypatch.setattr(recurrent, "_lstm_scan", traced(recurrent._lstm_scan))
    monkeypatch.setattr(recurrent, "_bptt", bptt)
    rng = np.random.default_rng(2)
    model = RecurrentModel(arch, 8, 3, hidden_size=5, layers=3,
                           config=TrainConfig(dropout=0.2), seed=3)
    model.loss_and_grads(rng.normal(size=(4, 8)), rng.normal(size=(4, 3)),
                         training=True, rng=np.random.default_rng(4))
    assert len(scans) == len(alive_above) == 3 * dirs
    assert alive_above == [0] * len(scans)


def test_lstm_scan_keeps_no_tanh_of_c_for_its_backward_pass():
    """Between the forward and backward pass an lstm scan holds its gates Z
    (T, B, 4H), states S and cells C (T+1, B, H): 6T+2 arrays of (B, H), not
    a (T, B, H) tanh(c) besides."""
    T, B, H = 40, 16, 16
    rng = np.random.default_rng(9)
    x = rng.normal(size=(B, T, 1))
    p = {"W": rng.normal(size=(4 * H, 1)), "V": rng.normal(size=(4 * H, H)),
         "b": rng.normal(size=4 * H)}
    tracemalloc.start()
    try:
        kept = recurrent._lstm_scan(x, p)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept[0].shape == (T + 1, B, H)
    assert held < 6.5 * T * B * H * 8


@pytest.mark.parametrize("arch", ["rnn", "lstm"])
@pytest.mark.parametrize("n,parts", [(PREDICT_WINDOWS + 1, 2), (600, 3)])
def test_prediction_in_parts_equals_one_pass(arch, n, parts):
    model = RecurrentModel(arch, 48, 24, hidden_size=200, layers=1, seed=5)
    model.trained = True
    X = np.random.default_rng(6).normal(size=(n, 48))
    sizes = []

    def forward(x, **kwargs):
        sizes.append(len(x))
        return RecurrentModel.forward(model, x, **kwargs)

    model.forward = forward
    y = predict_batch(model, X)
    assert len(sizes) == parts and sum(sizes) == n
    assert max(sizes) - min(sizes) <= 1
    whole, _ = RecurrentModel.forward(model, X, backward=False)
    assert y.tobytes() == whole.tobytes()


def test_a_paper_shape_bilstm_part_keeps_no_backward_caches():
    """A forecast holds one projection buffer (T, B, 4H) and layer states:
    while the reverse direction of a middle layer projects, its input, the
    rows that feed the projection GEMM and the forward direction's states,
    all about (T, B, H). With the training scans' caches it is about twice
    that: the forward direction's gates, states and cells live on while the
    reverse direction projects."""
    T, B, H = 48, PREDICT_WINDOWS, 200
    model = RecurrentModel("bilstm", T, 24, hidden_size=H, layers=3, seed=1)
    model.trained = True
    X = np.random.default_rng(13).normal(size=(B, T))
    tracemalloc.start()
    try:
        predict_batch(model, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    state = 8 * (T + 1) * B * H
    assert peak < 8 * T * B * 4 * H + 4 * state


def test_prediction_peak_does_not_grow_with_the_windows():
    model = RecurrentModel("lstm", 24, 6, hidden_size=16, layers=1, seed=7)
    model.trained = True
    rng = np.random.default_rng(8)
    peaks = []
    for n in (PREDICT_WINDOWS, 2000):
        X = rng.normal(size=(n, 24))
        tracemalloc.start()
        try:
            predict_batch(model, X)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def _trained_np_model():
    """An additive model of the default config with every parameter drawn,
    so that each component adds to the forecast."""
    model = NpModel(NpConfig(), seed=3, t0=0.0, t_span=5000.0)
    rng = np.random.default_rng(10)
    for value in model.params.values():
        value[...] = 0.1 * rng.normal(size=value.shape)
    model.trained = True
    return model


@pytest.mark.parametrize("n,parts", [(PREDICT_WINDOWS + 1, 2), (600, 3)])
def test_additive_prediction_in_parts_equals_one_pass(n, parts):
    model = _trained_np_model()
    rng = np.random.default_rng(11)
    t, X = np.arange(n) + 48.0, rng.normal(size=(n, model.cfg.d))
    sizes = []

    def forward(t_origins, lags, regressors=None):
        sizes.append(len(lags))
        return NpModel.forward(model, t_origins, lags, regressors)

    model.forward = forward
    y = np_predict_batch(model, t, X)
    assert len(sizes) == parts and sum(sizes) == n
    assert max(sizes) - min(sizes) <= 1
    whole, _ = NpModel.forward(model, t, X)
    assert y.tobytes() == whole.tobytes()


def test_additive_prediction_peak_does_not_grow_with_the_windows():
    model = _trained_np_model()
    rng = np.random.default_rng(12)
    peaks = []
    for n in (PREDICT_WINDOWS, 2000):
        t, X = np.arange(n) + 48.0, rng.normal(size=(n, model.cfg.d))
        tracemalloc.start()
        try:
            np_predict_batch(model, t, X)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]
