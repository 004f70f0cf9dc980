import math
import tracemalloc

import numpy as np
import pytest

from csipred import synthchan
from csipred.datapipe import make_windows
from csipred.errors import ContractViolation, DivergenceError
from csipred.numcore import (finite_diff_grad, huber_grad, huber_loss,
                             load_params, mT)
from csipred.recurrent import (LstmState, RecurrentModel, TrainConfig,
                               _direction, _dropout_mask, _lstm_scan, _rnn_scan,
                               bilstm_forward, lstm_cell_forward, predict_batch,
                               rnn_cell_forward, train_recurrent)


def _sig(x):
    return 1.0 / (1.0 + math.exp(-x))


def scalar_lstm_step(x, s_prev, c_prev, w):
    """Naive per-unit evaluation of the gate equations (independent oracle)."""
    H = len(w["bf"])
    s_new, c_new = [], []
    for j in range(H):
        pre = {}
        for gate in "figo":
            acc = w["b" + gate][j]
            for k in range(len(x)):
                acc += w["W" + gate][j][k] * x[k]
            for k in range(H):
                acc += w["V" + gate][j][k] * s_prev[k]
            pre[gate] = acc
        f = _sig(pre["f"])
        i = _sig(pre["i"])
        g = math.tanh(pre["g"])
        o = _sig(pre["o"])
        c = f * c_prev[j] + i * g
        s_new.append(o * math.tanh(c))
        c_new.append(c)
    return s_new, c_new


def random_lstm_weights(rng, hidden, n_in):
    w = {}
    for gate in "figo":
        w["W" + gate] = rng.normal(size=(hidden, n_in))
        w["V" + gate] = rng.normal(size=(hidden, hidden))
        w["b" + gate] = rng.normal(size=hidden)
    return w


def stacked(w):
    """Per-gate weights as the scans' W/V/b blocks, gate rows f, i, g, o."""
    return {"W": np.vstack([w["W" + g] for g in "figo"]),
            "V": np.vstack([w["V" + g] for g in "figo"]),
            "b": np.concatenate([w["b" + g] for g in "figo"])}


class TestLstmCell:
    def test_all_zero_weights(self):
        w = {k: np.zeros((2, 1)) if k.startswith("W") else
             np.zeros((2, 2)) if k.startswith("V") else np.zeros(2)
             for k in ("Wf", "Wi", "Wg", "Wo", "Vf", "Vi", "Vg", "Vo",
                       "bf", "bi", "bg", "bo")}
        out = lstm_cell_forward([1.0], LstmState(np.zeros(2), np.zeros(2)), w)
        assert np.allclose(out.c, 0.0)
        assert np.allclose(out.s, 0.0)

    def test_saturated_forget_preserves_cell(self):
        rng = np.random.default_rng(0)
        w = {k: np.zeros((3, 2)) if k.startswith("W") else
             np.zeros((3, 3)) if k.startswith("V") else np.zeros(3)
             for k in ("Wf", "Wi", "Wg", "Wo", "Vf", "Vi", "Vg", "Vo",
                       "bf", "bi", "bg", "bo")}
        w["bf"] = np.full(3, 50.0)
        v = rng.normal(size=3)
        out = lstm_cell_forward(rng.normal(size=2),
                                LstmState(np.zeros(3), v.copy()), w)
        assert np.allclose(out.c, v, atol=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(3)
        w = random_lstm_weights(rng, 2, 2)
        x = rng.normal(size=2)
        s_prev = rng.normal(size=2) * 0.5
        c_prev = rng.normal(size=2)
        out = lstm_cell_forward(x, LstmState(s_prev.copy(), c_prev.copy()), w)
        s_ref, c_ref = scalar_lstm_step(x, s_prev, c_prev,
                                        {k: v.tolist() for k, v in w.items()})
        assert np.allclose(out.s[0], s_ref, atol=1e-12)
        assert np.allclose(out.c[0], c_ref, atol=1e-12)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(0)
        w = random_lstm_weights(rng, 2, 3)
        with pytest.raises(ContractViolation):
            lstm_cell_forward([1.0], LstmState(np.zeros(2), np.zeros(2)), w)
        with pytest.raises(ContractViolation, match="rnn_cell_forward"):
            rnn_cell_forward([1.0], np.zeros(2), w["Wf"], w["Vf"], w["bf"])

    def test_state_boundedness(self):
        rng = np.random.default_rng(5)
        w = random_lstm_weights(rng, 4, 2)
        state = LstmState(np.zeros(4), np.zeros(4))
        for _ in range(50):
            state = lstm_cell_forward(rng.normal(size=2) * 100, state, w)
            assert np.all(np.abs(state.s) < 1.0)
            assert np.all(np.isfinite(state.c))


class TestRnnCell:
    def test_zero_weights(self):
        out = rnn_cell_forward([1.0], np.zeros(2),
                               np.zeros((2, 1)), np.zeros((2, 2)), np.zeros(2))
        assert np.allclose(out, 0.0)

    def test_identity_like(self):
        out = rnn_cell_forward([1.0], [0.0], np.array([[1.0]]),
                               np.array([[0.0]]), np.zeros(1))
        assert out[0, 0] == pytest.approx(0.7615941559557649, abs=1e-12)

    def test_determinism_and_bounds(self):
        rng = np.random.default_rng(1)
        W, V, b = rng.normal(size=(3, 2)), rng.normal(size=(3, 3)), rng.normal(size=3)
        x, s = rng.normal(size=2), rng.normal(size=3)
        a = rnn_cell_forward(x, s, W, V, b)
        b2 = rnn_cell_forward(x, s, W, V, b)
        assert np.array_equal(a, b2)
        assert np.all(np.abs(a) < 1.0)


class TestBilstm:
    def test_palindrome_symmetry(self):
        rng = np.random.default_rng(2)
        w = random_lstm_weights(rng, 2, 1)
        x = np.array([0.3, -0.8, 0.5, -0.8, 0.3])[None, :, None]
        Y, _ = bilstm_forward(x, stacked(w), stacked(w), "hadamard")
        assert np.allclose(Y[0], Y[0, ::-1, :], atol=1e-12)

    def test_saturated_backward_is_identity(self):
        rng = np.random.default_rng(4)
        wf = random_lstm_weights(rng, 2, 1)
        wb = {k: np.zeros_like(v) for k, v in wf.items()}
        # output gate and input-side biases pushed to saturation: s_bwd -> ~1
        wb["bf"] = np.full(2, 50.0)
        wb["bi"] = np.full(2, 50.0)
        wb["bg"] = np.full(2, 50.0)
        wb["bo"] = np.full(2, 50.0)
        x = rng.normal(size=(1, 6, 1)) * 0.1
        Y, (Sf, Sb, *_rest) = bilstm_forward(x, stacked(wf), stacked(wb),
                                             "hadamard")
        # backward states approach tanh(c) with c growing by ~1 per step;
        # after several steps each is 1 within a relaxed tolerance
        assert np.allclose(Y[0, :3, :], Sf[0, :3, :], atol=2e-3)

    def test_length_two_matches_scalar_oracle(self):
        rng = np.random.default_rng(6)
        wf = random_lstm_weights(rng, 1, 1)
        wb = random_lstm_weights(rng, 1, 1)
        x = rng.normal(size=(1, 2, 1))
        Y, _ = bilstm_forward(x, stacked(wf), stacked(wb), "hadamard")

        def run(w, seq):
            s, c = [0.0], [0.0]
            states = []
            for v in seq:
                s, c = scalar_lstm_step([v], s, c,
                                        {k: a.tolist() for k, a in w.items()})
                states.append(s[0])
            return states

        fwd = run(wf, [x[0, 0, 0], x[0, 1, 0]])
        bwd = run(wb, [x[0, 1, 0], x[0, 0, 0]])[::-1]
        expected = [fwd[0] * bwd[0], fwd[1] * bwd[1]]
        assert np.allclose(Y[0, :, 0], expected, atol=1e-12)

    def test_empty_sequence(self):
        rng = np.random.default_rng(0)
        w = random_lstm_weights(rng, 1, 1)
        with pytest.raises(ContractViolation):
            bilstm_forward(np.zeros((1, 0, 1)), stacked(w), stacked(w),
                           "hadamard")
        with pytest.raises(ContractViolation, match="combine mode 'sum'"):
            bilstm_forward(np.zeros((1, 2, 1)), stacked(w), stacked(w), "sum")


class TestStackedScans:
    """The stacked-gate scans against the per-gate cells, step by step."""

    def test_lstm_scan_matches_iterated_cell(self):
        rng = np.random.default_rng(7)
        H, n_in, T = 3, 2, 6
        p = {"W": rng.normal(size=(4 * H, n_in)), "V": rng.normal(size=(4 * H, H)),
             "b": rng.normal(size=4 * H)}
        w = {name + gate: p[name][k * H:(k + 1) * H]
             for name in "WVb" for k, gate in enumerate("figo")}
        x = rng.normal(size=(5, T, n_in))
        S, _ = _lstm_scan(x, p)
        state = LstmState(np.zeros((5, H)), np.zeros((5, H)))
        for t in range(T):
            state = lstm_cell_forward(x[:, t], state, w)
            assert np.allclose(S[t + 1], state.s, rtol=0, atol=1e-12)
        assert np.array_equal(S[0], np.zeros((5, H)))

    def test_rnn_scan_matches_iterated_cell(self):
        rng = np.random.default_rng(8)
        H, n_in, T = 4, 3, 6
        p = {"W": rng.normal(size=(H, n_in)), "V": rng.normal(size=(H, H)),
             "b": rng.normal(size=H)}
        x = rng.normal(size=(5, T, n_in))
        S, _ = _rnn_scan(x, p)
        s = np.zeros((5, H))
        for t in range(T):
            s = rnn_cell_forward(x[:, t], s, p["W"], p["V"], p["b"])
            assert np.allclose(S[t + 1], s, rtol=0, atol=1e-12)


class TestGradients:
    @pytest.mark.parametrize("arch", ["rnn", "lstm", "bilstm"])
    def test_bptt_matches_finite_differences(self, arch):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            model = RecurrentModel(arch, lag_depth=4, horizon=2, hidden_size=3,
                                   layers=2, config=TrainConfig(dropout=0.0),
                                   seed=seed)
            X = rng.normal(size=(3, 4))
            Y = rng.normal(size=(3, 2)) * 0.1
            _, grads = model.loss_and_grads(X, Y)
            analytic = model.flat_grads(grads)
            flat = model.get_flat()

            def f(v):
                model.set_flat(v)
                loss, _ = model.loss_and_grads(X, Y)
                return loss

            fd = finite_diff_grad(f, flat.copy())
            model.set_flat(flat)
            err = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-7)
            assert err.max() < 1e-4

    def test_concat_combine_gradients(self):
        rng = np.random.default_rng(11)
        model = RecurrentModel("bilstm", 3, 2, hidden_size=2, layers=2,
                               bilstm_combine="concat",
                               config=TrainConfig(dropout=0.0), seed=1)
        X = rng.normal(size=(2, 3))
        Y = rng.normal(size=(2, 2)) * 0.1
        _, grads = model.loss_and_grads(X, Y)
        flat = model.get_flat()

        def f(v):
            model.set_flat(v)
            loss, _ = model.loss_and_grads(X, Y)
            return loss

        fd = finite_diff_grad(f, flat.copy())
        model.set_flat(flat)
        assert np.max(np.abs(model.flat_grads(grads) - fd)
                      / np.maximum(np.abs(fd), 1e-7)) < 1e-4



class TestHoistedScans:
    """The whole-sequence GEMMs and in-place caches of the scans and BPTT."""

    @pytest.mark.parametrize("arch,combine", [("rnn", "hadamard"),
                                              ("lstm", "hadamard"),
                                              ("bilstm", "hadamard"),
                                              ("bilstm", "concat")])
    def test_dropout_gradients_match_finite_differences(self, arch, combine):
        rng = np.random.default_rng(12)
        model = RecurrentModel(arch, 4, 2, hidden_size=2, layers=3,
                               bilstm_combine=combine,
                               config=TrainConfig(dropout=0.2), seed=4)
        X = rng.normal(size=(5, 4))
        Y = rng.normal(size=(5, 2)) * 0.1

        def loss_and_grads():
            # the same seed every call, so every call draws the same masks
            return model.loss_and_grads(X, Y, training=True,
                                        rng=np.random.default_rng(7))

        loss, grads = loss_and_grads()
        assert loss != model.loss_and_grads(X, Y)[0]  # dropout is active
        analytic = model.flat_grads(grads)
        flat = model.get_flat()

        def f(v):
            model.set_flat(v)
            return loss_and_grads()[0]

        fd = finite_diff_grad(f, flat.copy())
        model.set_flat(flat)
        err = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-7)
        assert err.max() < 1e-4

    @pytest.mark.parametrize("arch", ["rnn", "lstm", "bilstm"])
    def test_repeated_loss_and_grads_are_identical(self, arch):
        rng = np.random.default_rng(13)
        model = RecurrentModel(arch, 6, 3, hidden_size=4, layers=2,
                               config=TrainConfig(dropout=0.2), seed=2)
        X = rng.normal(size=(7, 6))
        Y = rng.normal(size=(7, 3))
        runs = [model.loss_and_grads(X, Y, training=True,
                                     rng=np.random.default_rng(3))
                for _ in range(2)]
        assert runs[0][0] == runs[1][0]
        assert runs[0][1].keys() == runs[1][1].keys()
        for name in runs[0][1]:
            assert np.array_equal(runs[0][1][name], runs[1][1][name])

    @pytest.mark.parametrize("arch", ["rnn", "lstm", "bilstm"])
    @pytest.mark.parametrize("d", [1, 8])
    @pytest.mark.parametrize("B", [1, 3, 32])
    def test_batch_prediction_matches_single_windows(self, arch, d, B):
        rng = np.random.default_rng(14)
        model = RecurrentModel(arch, d, 3, hidden_size=5, layers=2, seed=6)
        model.trained = True
        X = rng.normal(size=(B, d))
        batch = predict_batch(model, X)
        for j in range(B):
            single = predict_batch(model, X[j:j + 1])[0]
            assert np.allclose(batch[j], single, rtol=0, atol=1e-12)


def _full_top_bilstm(model, X, Y):
    """The bilstm model's forecasts, loss and grads with every layer run in
    full, the top one too: both directions over all T steps, and a (B, T, H)
    head gradient that is zero before step T-1."""
    h, backs = X[..., None], []
    for k in range(model.layers):
        h, (_, _, back) = bilstm_forward(h, model._layer_params(k, "f_"),
                                         model._layer_params(k, "b_"),
                                         model.bilstm_combine)
        backs.append(back)
    last = h[..., -1, :]
    out_W, out_b = model.params["out_W"], model.params["out_b"]
    y = last @ mT(out_W) + out_b[..., None, :]
    stacked = isinstance(model.seed, list)
    beta = model.config.huber_beta
    dY = huber_grad(Y, y, beta, stacked)
    grads = {"out_W": mT(dY) @ last, "out_b": dY.sum(axis=-2)}
    d_seq = np.zeros(h.shape)
    d_seq[..., -1, :] = dY @ out_W
    for k in reversed(range(model.layers)):
        d_seq, g = backs[k](d_seq)
        grads.update({f"L{k}_{name}": val for name, val in g.items()})
    return y, huber_loss(Y, y, beta, stacked), grads


class TestTopLayer:
    """The top layer computes only the step the head reads."""

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("combine", ["hadamard", "concat"])
    @pytest.mark.parametrize("seed", [3, [3, 4, 5]], ids=["plain", "group3"])
    @pytest.mark.parametrize("B", [1, 2, 32])
    def test_bilstm_matches_full_top_layer(self, layers, combine, seed, B):
        model = RecurrentModel("bilstm", 6, 3, hidden_size=4, layers=layers,
                               bilstm_combine=combine,
                               config=TrainConfig(dropout=0.0), seed=seed)
        lead = (3,) if isinstance(seed, list) else ()
        rng = np.random.default_rng(15)
        X = rng.normal(size=(*lead, B, 6))
        Y = rng.normal(size=(*lead, B, 3))
        y_ref, loss_ref, grads_ref = _full_top_bilstm(model, X, Y)
        loss, grads = model.loss_and_grads(X, Y)
        np.testing.assert_allclose(loss, loss_ref, rtol=1e-12, atol=1e-15)
        for y in (model.forward(X)[0], model.forward(X, backward=False)[0]):
            np.testing.assert_allclose(y, y_ref, rtol=1e-12, atol=1e-15)
        assert grads.keys() == grads_ref.keys()
        for name, g in grads.items():
            np.testing.assert_allclose(g, grads_ref[name], rtol=1e-12,
                                       atol=1e-15, err_msg=name)

    @pytest.mark.parametrize("scan", [_rnn_scan, _lstm_scan])
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_last_step_state_gradient_is_bit_equal(self, scan, lead):
        rng = np.random.default_rng(16)
        H, n_in, B, T = 4, 2, 5, 7
        GH = H if scan is _rnn_scan else 4 * H
        p = {"W": rng.normal(size=(*lead, GH, n_in)),
             "V": rng.normal(size=(*lead, GH, H)) * 0.5,
             "b": rng.normal(size=(*lead, GH))}
        x = rng.normal(size=(*lead, B, T, n_in))
        d_last = rng.normal(size=(*lead, B, 1, H))
        padded = np.zeros((*lead, B, T, H))
        padded[..., -1:, :] = d_last
        dX, grads = _direction(x, p, scan)[1](d_last)
        dX_ref, grads_ref = _direction(x, p, scan)[1](padded)
        assert dX.tobytes() == dX_ref.tobytes()
        for name in ("W", "V", "b"):
            assert grads[name].tobytes() == grads_ref[name].tobytes()


class TestDropout:
    def test_drop_fraction(self):
        rng = np.random.default_rng(42)
        out = _dropout_mask(0.2, (100_000,), rng)
        frac = np.mean(out == 0.0)
        assert abs(frac - 0.2) < 0.01
        # survivors rescaled by 1/(1-p)
        assert np.allclose(out[out != 0], 1.0 / 0.8)


def _sinusoid_windows(n=3000, period=50.0, d=48, D=24, train_frac=0.9):
    sig = synthchan.generate_sinusoid(1.0, period, n)
    cut = int(train_frac * n)
    return (make_windows(sig[:cut], d, D),
            make_windows(sig[cut:], d, D, start_index=cut))


class TestTraining:
    def test_constant_series(self):
        w = make_windows(np.full(300, 0.5), 8, 4)
        model = RecurrentModel("rnn", 8, 4, hidden_size=8, layers=1,
                               config=TrainConfig(learning_rate=0.01, epochs=30,
                                                  dropout=0.0), seed=0)
        train_recurrent(model, w, seed=0)
        pred = predict_batch(model, w.X)
        nmse = np.mean(np.sum((pred - w.Y) ** 2, axis=1)
                       / np.sum(w.Y ** 2, axis=1))
        assert nmse < 1e-4
        one = predict_batch(model, w.X[0][None, :])[0]
        assert np.all(np.abs(one - 0.5) < 1e-2)

    def test_sinusoid(self):
        wtr, wte = _sinusoid_windows()
        model = RecurrentModel("rnn", 48, 24, hidden_size=32, layers=1,
                               config=TrainConfig(learning_rate=0.005,
                                                  epochs=30, dropout=0.0),
                               seed=0)
        hist = train_recurrent(model, wtr, seed=0)
        assert hist[-1] <= hist[0]
        pred = predict_batch(model, wte.X)
        nmse = np.mean(np.sum((pred - wte.Y) ** 2, axis=1)
                       / np.sum(wte.Y ** 2, axis=1))
        assert nmse < 1e-2
        # per-step error under 0.1 of unit amplitude
        assert np.max(np.abs(pred - wte.Y)) < 0.1

    def test_training_determinism(self):
        wtr, _ = _sinusoid_windows(n=500, d=8, D=4)
        runs = []
        for _ in range(2):
            model = RecurrentModel("lstm", 8, 4, hidden_size=4, layers=2,
                                   config=TrainConfig(epochs=3), seed=9)
            hist = train_recurrent(model, wtr, seed=9)
            runs.append((hist, model.get_flat()))
        assert runs[0][0] == runs[1][0]
        assert np.array_equal(runs[0][1], runs[1][1])

    def test_nan_window_diverges_at_its_batch(self):
        wtr, _ = _sinusoid_windows(n=400, d=8, D=4)
        wtr.X[5, 3] = np.nan
        model = RecurrentModel("rnn", 8, 4, hidden_size=4, layers=1,
                               config=TrainConfig(epochs=2, batch_size=16,
                                                  dropout=0.0), seed=0)
        with pytest.raises(DivergenceError) as exc:
            train_recurrent(model, wtr, seed=3)
        order = np.random.default_rng(3).permutation(len(wtr))
        assert exc.value.epoch == 0
        assert exc.value.batch == int(np.flatnonzero(order == 5)[0]) // 16
        assert not model.trained

    def test_empty_dataset(self):
        w = make_windows(np.zeros(20), 8, 4)
        w.t, w.X, w.Y = w.t[:0], w.X[:0], w.Y[:0]
        model = RecurrentModel("rnn", 8, 4, hidden_size=4, layers=1, seed=0)
        with pytest.raises(ContractViolation):
            train_recurrent(model, w, seed=0)

    def test_window_shape_mismatch(self):
        w = make_windows(np.linspace(0, 1, 40), 6, 4)
        model = RecurrentModel("rnn", 8, 4, hidden_size=4, layers=1, seed=0)
        with pytest.raises(ContractViolation):
            train_recurrent(model, w, seed=0)


class TestPredict:
    def test_unknown_architecture(self):
        with pytest.raises(ContractViolation, match="architecture 'gru'"):
            RecurrentModel("gru", 8, 4)

    def test_untrained_raises(self):
        model = RecurrentModel("rnn", 8, 4, hidden_size=4, layers=1, seed=0)
        with pytest.raises(ContractViolation):
            predict_batch(model, np.zeros((1, 8)))

    def test_identical_inputs_identical_outputs(self):
        wtr, _ = _sinusoid_windows(n=400, d=8, D=4)
        model = RecurrentModel("rnn", 8, 4, hidden_size=4, layers=1,
                               config=TrainConfig(epochs=2), seed=0)
        train_recurrent(model, wtr, seed=0)
        a = predict_batch(model, wtr.X[3][None, :])[0]
        b = predict_batch(model, wtr.X[3].copy()[None, :])[0]
        assert np.array_equal(a, b)
        assert a.shape == (4,)

    def test_bad_lag_length(self):
        wtr, _ = _sinusoid_windows(n=400, d=8, D=4)
        model = RecurrentModel("rnn", 8, 4, hidden_size=4, layers=1,
                               config=TrainConfig(epochs=1), seed=0)
        train_recurrent(model, wtr, seed=0)
        with pytest.raises(ContractViolation):
            predict_batch(model, np.zeros((1, 5)))


class TestInferenceMemory:
    @pytest.mark.parametrize("arch", ["rnn", "lstm", "bilstm"])
    def test_predict_peak_does_not_grow_with_depth(self, arch):
        # Inference keeps no layer's backward pass, so its scan caches are
        # freed layer by layer; with them kept the peak grows per layer.
        # Depths 3 and 4 both peak in a full middle layer (a top bilstm
        # layer's reverse direction scans one step, so depth 2 peaks lower).
        X = np.random.default_rng(0).normal(size=(32, 24))
        peaks = []
        for layers in (3, 4):
            model = RecurrentModel(arch, 24, 4, hidden_size=32, layers=layers,
                                   seed=0)
            model.trained = True
            tracemalloc.start()
            try:
                y = predict_batch(model, X)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert np.array_equal(y, model.forward(X)[0])
        assert peaks[1] < 1.05 * peaks[0]

class TestCheckpoint:
    @pytest.mark.parametrize("arch", ["rnn", "lstm", "bilstm"])
    def test_round_trip_bit_identical(self, arch):
        import json

        def build():
            return RecurrentModel(arch, 8, 4, hidden_size=3, layers=2,
                                  config=TrainConfig(epochs=2), seed=5)

        wtr, _ = _sinusoid_windows(n=400, d=8, D=4)
        model = build()
        train_recurrent(model, wtr, seed=5)
        payload = json.loads(json.dumps(model.to_dict()))
        clone = build()
        clone.params = load_params(clone.params, payload["params"])
        clone.trained = True
        assert json.loads(json.dumps(clone.to_dict())) == payload
        a = predict_batch(model, wtr.X[0][None, :])[0]
        b = predict_batch(clone, wtr.X[0][None, :])[0]
        assert np.array_equal(a, b)
        assert np.array_equal(model.get_flat(), clone.get_flat())

    def test_params_stored_as_base64_little_endian_f8(self):
        import base64

        model = RecurrentModel("lstm", 8, 4, hidden_size=3, seed=5)
        stored = model.to_dict()["params"]["L0_V"]
        by_hand = np.frombuffer(base64.b64decode(stored, validate=True),
                                dtype="<f8").reshape(12, 3)
        assert np.array_equal(by_hand, model.params["L0_V"])
