import base64
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from csipred.datapipe import make_windows
from csipred.errors import ContractViolation, DivergenceError, OracleError
from csipred.nprophet import NpConfig, np_train
from csipred.numcore import (ADAM_BLOCK, Adam, AdamState, adam_update,
                             clip_grad_norm, encode_params, finite_diff_grad,
                             fit, flatten, huber_grad, huber_loss, load_params,
                             relu, sigmoid)
from csipred.recurrent import RecurrentModel, TrainConfig, train_recurrent

# Frozen with a 40-digit arbitrary-precision evaluation of 1/(1+e^-1).
SIGMOID_AT_1 = 0.7310585786300049


class TestActivations:
    def test_sigmoid_symmetry_point(self):
        assert sigmoid(0.0) == 0.5

    def test_sigmoid_saturation(self):
        assert abs(sigmoid(50.0) - 1.0) < 1e-15

    def test_sigmoid_at_one(self):
        assert sigmoid(1.0) == pytest.approx(SIGMOID_AT_1, abs=1e-12)

    @given(st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_sigmoid_complement(self, x):
        assert sigmoid(x) + sigmoid(-x) == pytest.approx(1.0, abs=1e-12)

    def test_sigmoid_monotone(self):
        xs = np.linspace(-20, 20, 401)
        assert np.all(np.diff(sigmoid(xs)) > 0)

    def test_relu(self):
        assert relu(3.2) == 3.2
        assert relu(-3.2) == 0.0
        assert relu(0.0) == 0.0  # boundary belongs to the passthrough branch


class TestHuber:
    def test_quadratic_branch(self):
        assert huber_loss([0.5], [0.0], 1.0) == pytest.approx(0.125)

    def test_linear_branch(self):
        assert huber_loss([2.0], [0.0], 1.0) == pytest.approx(1.5)

    def test_branch_continuity(self):
        # both branches give 0.5 at |r| == beta
        assert huber_loss([1.0], [0.0], 1.0) == pytest.approx(0.5)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=10))
    def test_zero_at_equality(self, y):
        assert huber_loss(y, y, 1.0) == 0.0

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=8),
           st.lists(st.floats(-10, 10), min_size=1, max_size=8))
    def test_symmetry(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        assert huber_loss(a, b, 1.0) == huber_loss(b, a, 1.0)

    def test_length_mismatch(self):
        with pytest.raises(ContractViolation):
            huber_loss([1.0, 2.0], [1.0], 1.0)

    def test_bad_beta(self):
        with pytest.raises(ContractViolation):
            huber_loss([1.0], [1.0], 0.0)

    def test_grad_matches_finite_differences(self):
        beta = 1.0
        eps = 1e-6
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 100:
            truth = rng.uniform(-3, 3, size=5)
            pred = rng.uniform(-3, 3, size=5)
            r = truth - pred
            if np.any(np.abs(np.abs(r) - beta) < 10 * eps):
                continue  # skip residuals near the kink
            analytic = huber_grad(truth, pred, beta)
            fd = finite_diff_grad(lambda p: huber_loss(truth, p, beta),
                                  pred.copy(), eps=eps)
            assert np.allclose(analytic, fd, rtol=1e-5, atol=1e-9)
            checked += 1

    def test_linear_branch_slope(self):
        fd = finite_diff_grad(lambda p: huber_loss(np.array([2.0]), p, 1.0),
                              np.array([0.0]), eps=1e-5)
        assert fd[0] == pytest.approx(-1.0, abs=1e-6)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = np.array([1.0, -2.0, 3.0])
        state = AdamState.for_param(p)
        out = adam_update(p, np.zeros(3), state, 0.01)
        assert np.array_equal(out, p)

    def test_zero_gradient_many_steps(self):
        p = np.array([[0.5, -0.5]])
        state = AdamState.for_param(p)
        for _ in range(10):
            p = adam_update(p, np.zeros_like(p), state, 0.1)
        assert np.array_equal(p, np.array([[0.5, -0.5]]))

    def test_first_step_magnitude(self):
        # bias-corrected step at t=1 with grad 1: delta = lr * 1/(1 + eps) ~ lr
        lr = 0.01
        p = np.array([2.0])
        state = AdamState.for_param(p)
        out = adam_update(p, np.array([1.0]), state, lr)
        assert out[0] == pytest.approx(2.0 - lr, abs=1e-6)
        assert state.t == 1

    def test_determinism(self):
        rng = np.random.default_rng(0)
        p = rng.normal(size=(3, 2))
        g = rng.normal(size=(3, 2))
        s1 = AdamState.for_param(p)
        s2 = AdamState.for_param(p)
        a = adam_update(p, g, s1, 0.05)
        b = adam_update(p, g, s2, 0.05)
        assert np.array_equal(a, b)

    def test_shape_mismatch(self):
        p = np.zeros(3)
        with pytest.raises(ContractViolation):
            adam_update(p, np.zeros(4), AdamState.for_param(p), 0.01)
        for lr in (0.0, -0.01):
            with pytest.raises(ContractViolation, match="learning rate"):
                adam_update(p, np.zeros(3), AdamState.for_param(p), lr)

    def test_flat_step_is_bit_equal_to_adam_update_per_array(self):
        rng = np.random.default_rng(3)
        # "c" makes the vector span two blocks of Adam.step, the last partial
        arrays = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=4),
                  "c": rng.normal(size=(3, 1, ADAM_BLOCK // 2 + 1))}
        states = {k: AdamState.for_param(v) for k, v in arrays.items()}
        flat = flatten(arrays, arrays)
        opt = Adam(flat.size)
        for lr in (0.1, 0.05, 0.01):
            grads = {k: rng.normal(size=v.shape) for k, v in arrays.items()}
            arrays = {k: adam_update(v, grads[k], states[k], lr)
                      for k, v in arrays.items()}
            opt.step(flat, flatten(grads, arrays), lr)
            assert np.array_equal(flat, flatten(arrays, arrays))
            for acc in ("m", "v"):
                assert np.array_equal(getattr(opt, acc), flatten(
                    {k: getattr(s, acc) for k, s in states.items()}, arrays))
        assert opt.t == 3

    @pytest.mark.parametrize("kind", ["recurrent", "np"])
    def test_fit_leaves_params_as_views_of_one_vector(self, kind):
        ws = make_windows(np.sin(np.arange(120) / 5.0), 6, 2)
        if kind == "recurrent":
            model = RecurrentModel("lstm", 6, 2, hidden_size=3,
                                   config=TrainConfig(epochs=1), seed=0)
            train_recurrent(model, ws, seed=0)
        else:
            model, _ = np_train(ws, NpConfig(d=6, D=2, epochs=1, n_changepoints=2,
                                             seasonalities=((2, 1.0),)))
        bases = {id(p.base) for p in model.params.values()}
        assert len(bases) == 1
        vec = next(iter(model.params.values())).base
        assert vec.ndim == 1 and vec.flags.c_contiguous
        assert vec.size == model.param_count()
        assert all(np.shares_memory(p, vec) for p in model.params.values())


class TestClip:
    def test_within_norm_returns_the_same_object(self):
        g = np.array([3.0, 4.0])
        assert clip_grad_norm(g, 5.0) is g

    def test_over_norm_returns_a_scaled_copy(self):
        g = np.array([3.0, 4.0, 12.0])
        before = g.copy()
        out = clip_grad_norm(g, 5.0)
        assert out is not g
        assert abs(np.linalg.norm(out) - 5.0) < 1e-12
        assert np.array_equal(out, before * (5.0 / 13.0))
        assert np.array_equal(g, before)

    def test_finite_norm_whose_squares_overflow(self):
        # |g| = 5e200 is finite; its squares are not.
        out = clip_grad_norm(np.array([3e200, 4e200]), 5.0)
        assert np.allclose(out, [3.0, 4.0], rtol=1e-15, atol=0.0)


class TestFiniteDiff:
    def test_square(self):
        g = finite_diff_grad(lambda x: float(x[0] ** 2), np.array([3.0]), 1e-5)
        assert g[0] == pytest.approx(6.0, abs=1e-6)

    def test_constant(self):
        g = finite_diff_grad(lambda x: 1.0, np.array([1.0, 2.0]), 1e-5)
        assert np.array_equal(g, np.zeros(2))

    def test_bad_eps(self):
        with pytest.raises(ContractViolation):
            finite_diff_grad(lambda x: 0.0, np.zeros(1), 1.0)

    def test_non_finite_raises(self):
        with pytest.raises(OracleError):
            finite_diff_grad(lambda x: float("nan"), np.zeros(1), 1e-5)


class TestFit:
    def test_divergence_names_first_bad_batch_and_takes_no_step(self):
        model = SimpleNamespace(params={"w": np.ones(3)}, trained=False)
        seen = []

        def loss_and_grads(idx, grads):
            w = model.params["w"]
            seen.append(w.copy())
            loss = np.nan if len(seen) >= 6 else float(np.sum(w * w))
            np.multiply(2.0, w, out=grads["w"])
            return loss

        cfg = TrainConfig(learning_rate=0.1, epochs=3, batch_size=4)
        with pytest.raises(DivergenceError) as exc:
            fit(model, loss_and_grads, 10, cfg, np.random.default_rng(0))
        # 10 examples in batches of 4 make 3 batches per epoch: call 6 is
        # epoch 1, batch 2.
        assert (exc.value.epoch, exc.value.batch) == (1, 2)
        assert math.isnan(exc.value.loss)
        assert len(seen) == 6
        assert not np.array_equal(seen[-1], np.ones(3))  # earlier steps taken
        assert np.array_equal(model.params["w"], seen[-1])  # none for batch 2
        assert not model.trained

    def test_an_unwritten_gradient_raises_before_any_step(self):
        model = SimpleNamespace(params={"w": np.ones(3), "v": np.ones(2)},
                                trained=False)

        def loss_and_grads(idx, grads):
            grads["w"][...] = 1.0  # "v" left out
            return 1.0

        cfg = TrainConfig(learning_rate=0.1, epochs=1, batch_size=4)
        with pytest.raises(ContractViolation, match=r"\['v'\]"):
            fit(model, loss_and_grads, 10, cfg, np.random.default_rng(0))
        assert np.array_equal(model.params["w"], np.ones(3))


class TestParamCodec:
    def fresh(self):
        return {"a": np.zeros((2, 3)), "b": np.zeros(0)}

    def test_round_trip_fills_fresh_arrays(self):
        rng = np.random.default_rng(0)
        params = {"a": rng.normal(size=(2, 3)), "b": np.zeros(0)}
        fresh = self.fresh()
        a = fresh["a"]
        out = load_params(fresh, encode_params(params))
        assert out["a"] is a
        assert np.array_equal(out["a"], params["a"]) and out["b"].shape == (0,)

    def test_blob_is_base64_of_little_endian_f8(self):
        params = {"a": np.arange(6.0).reshape(2, 3) - 2.5}
        raw = base64.b64decode(encode_params(params)["a"], validate=True)
        assert raw == np.asarray(params["a"], "<f8").tobytes()

    @pytest.mark.parametrize("stored", [
        [], {"a": "", "b": ""}, {"a": encode_params({"a": np.zeros(6)})["a"]},
        {"a": [0.0] * 6, "b": ""}, {"a": None, "b": ""},
        {"a": encode_params({"a": np.zeros(5)})["a"], "b": ""},
        {"a": encode_params({"a": np.zeros(6)})["a"][:-1], "b": ""},
        {"a": "!" + encode_params({"a": np.zeros(6)})["a"][1:], "b": ""},
        {"a": encode_params({"a": np.zeros(6)})["a"] + "\n", "b": ""},
        {"a": encode_params({"a": np.full(6, np.nan)})["a"], "b": ""},
    ])
    def test_refusals(self, stored):
        with pytest.raises(ContractViolation):
            load_params(self.fresh(), stored)
