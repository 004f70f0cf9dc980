import json
import math

import numpy as np
import pytest

from csipred import synthchan
from csipred.datapipe import fit_scaler, make_windows
from csipred.errors import ContractViolation, DivergenceError
from csipred.numcore import finite_diff_grad
from csipred.nprophet import (NpConfig, NpModel, TrendParams, ar_net_forward,
                              changepoint_indicator, classic_ar_eval,
                              np_forecast, np_predict_batch, np_train,
                              seasonality_eval, trend_eval)


def get_flat(model):
    return np.concatenate([model.params[k].ravel()
                           for k in sorted(model.params)])


def set_flat(model, vec):
    pos = 0
    for k in sorted(model.params):
        n = model.params[k].size
        model.params[k] = np.asarray(
            vec[pos:pos + n], dtype=float).reshape(model.params[k].shape)
        pos += n


def flat_grads(model, grads):
    return np.concatenate([grads[k].ravel() for k in sorted(model.params)])


class TestTrendOracle:
    def test_indicator_boundary(self):
        assert changepoint_indicator(0.5, 0.5) == 1.0
        assert changepoint_indicator(0.49, 0.5) == 0.0

    def test_no_changepoints_is_a_line(self):
        p = TrendParams(growth=2.0, offset=1.0, growth_adj=np.zeros(0),
                        offset_adj=np.zeros(0), changepoints=np.zeros(0))
        for t in (0.0, 0.25, 1.0):
            assert trend_eval(t, p) == pytest.approx(2.0 * t + 1.0, abs=1e-15)

    def test_hand_computed_piecewise(self):
        p = TrendParams(growth=1.0, offset=0.0,
                        growth_adj=np.array([0.5, -2.0]),
                        offset_adj=np.array([0.1, 0.2]),
                        changepoints=np.array([0.3, 0.6]))
        # before any changepoint: 1*t
        assert trend_eval(0.2, p) == pytest.approx(0.2, abs=1e-15)
        # after first: (1+0.5)*t + 0.1
        assert trend_eval(0.5, p) == pytest.approx(1.5 * 0.5 + 0.1, abs=1e-15)
        # after both: (1+0.5-2)*t + 0.3
        assert trend_eval(0.9, p) == pytest.approx(-0.5 * 0.9 + 0.3, abs=1e-15)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = int(rng.integers(0, 6))
            cps = np.sort(rng.uniform(0, 1, size=m))
            p = TrendParams(growth=rng.normal(), offset=rng.normal(),
                            growth_adj=rng.normal(size=m),
                            offset_adj=rng.normal(size=m), changepoints=cps)
            t = float(rng.uniform(0, 1))
            slope, inter = p.growth, p.offset
            for j in range(m):
                if t >= cps[j]:
                    slope += p.growth_adj[j]
                    inter += p.offset_adj[j]
            assert abs(trend_eval(t, p) - (slope * t + inter)) < 1e-12


class TestSeasonalityOracle:
    def test_matches_term_summation(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            k = int(rng.integers(1, 7))
            a, b = rng.normal(size=k), rng.normal(size=k)
            period = float(rng.uniform(5, 500))
            t = float(rng.uniform(0, 1000))
            ref = sum(a[r - 1] * math.cos(2 * math.pi * r * t / period)
                      + b[r - 1] * math.sin(2 * math.pi * r * t / period)
                      for r in range(1, k + 1))
            assert abs(seasonality_eval(t, period, a, b) - ref) < 1e-12

    def test_periodicity(self):
        a, b = [0.4, -0.2], [0.1, 0.7]
        assert seasonality_eval(3.0, 10.0, a, b) == pytest.approx(
            seasonality_eval(13.0, 10.0, a, b), abs=1e-9)

    def test_invalid_parameters(self):
        with pytest.raises(ContractViolation):
            seasonality_eval(0.0, -1.0, [1.0], [1.0])
        with pytest.raises(ContractViolation):
            seasonality_eval(0.0, 10.0, [1.0, 2.0], [1.0])
        with pytest.raises(ContractViolation):
            seasonality_eval(0.0, 10.0, [], [])


class TestArOracles:
    def test_classic_ar_hand_value(self):
        # q + 0.5*z_{t-1} - 0.2*z_{t-2} with z_{t-1}=1, z_{t-2}=2
        assert classic_ar_eval([1.0, 2.0], [0.5, -0.2], q=0.3) == pytest.approx(
            0.3 + 0.5 - 0.4, abs=1e-15)

    def test_classic_ar_order_mismatch(self):
        with pytest.raises(ContractViolation):
            classic_ar_eval([1.0], [0.5, 0.1])

    def test_linear_passthrough_equals_classic_ar(self):
        rng = np.random.default_rng(2)
        theta = rng.normal(size=6)
        weights = [theta[None, :]]  # single linear output layer, no hidden
        for _ in range(100):
            lags = rng.normal(size=6)
            net = ar_net_forward(lags, weights, [], linear=True)
            assert abs(float(net[0]) - classic_ar_eval(lags, theta)) < 1e-12

    def test_relu_blocks_negative_paths(self):
        weights = [np.array([[-1.0]]), np.array([[1.0]])]
        biases = [np.zeros(1)]
        out = ar_net_forward(np.array([2.0]), weights, biases, linear=False)
        assert out[0] == 0.0  # hidden pre-activation is negative
        out_lin = ar_net_forward(np.array([2.0]), weights, biases, linear=True)
        assert out_lin[0] == -2.0

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        weights = [rng.normal(size=(4, 3)), rng.normal(size=(2, 4))]
        biases = [rng.normal(size=4)]
        batch = rng.normal(size=(5, 3))
        out = ar_net_forward(batch, weights, biases)
        for i in range(5):
            single = ar_net_forward(batch[i], weights, biases)
            assert np.allclose(out[i], single, atol=1e-14)

    def test_lag_count_mismatch(self):
        with pytest.raises(ContractViolation):
            ar_net_forward(np.zeros(2), [np.zeros((3, 4))], [])


def tiny_config(**kw):
    base = dict(d=5, D=3, n_changepoints=4, changepoint_range=0.9,
                seasonalities=((2, 0.01), (3, 0.004)), samples_per_day=1000.0,
                ar_layers=2, ar_hidden=4, regressor_enabled=True)
    base.update(kw)
    return NpConfig(**base)


def randomize(model, rng):
    set_flat(model, rng.normal(size=get_flat(model).size) * 0.5)


class TestModelForward:
    def test_additivity(self):
        rng = np.random.default_rng(4)
        model = NpModel(tiny_config(), seed=0, t0=0.0, t_span=100.0)
        randomize(model, rng)
        t = np.array([10.0, 40.0])
        lags = rng.normal(size=(2, 5))
        reg = rng.normal(size=(2, 3))
        comps, _ = model.forward_components(t, lags, reg)
        total, _ = model.forward(t, lags, reg)
        assert np.allclose(total, comps["trend"] + comps["seasonality"]
                           + comps["ar"] + comps["regressor"], atol=1e-14)

    def test_trend_component_matches_scalar_oracle(self):
        rng = np.random.default_rng(5)
        for discontinuous in (True, False):
            model = NpModel(tiny_config(discontinuous_growth=discontinuous),
                            seed=0, t0=0.0, t_span=100.0)
            randomize(model, rng)
            t = np.array([7.0, 55.0])
            comps, _ = model.forward_components(t, np.zeros((2, 5)),
                                                np.zeros((2, 3)))
            if discontinuous:
                offset_adj = model.params["trend_dr"]
            else:
                offset_adj = -model.changepoints * model.params["trend_dg"]
            p = TrendParams(growth=model.params["trend_g0"][0],
                            offset=model.params["trend_r0"][0],
                            growth_adj=model.params["trend_dg"],
                            offset_adj=offset_adj,
                            changepoints=model.changepoints)
            for b in range(2):
                for j in range(3):
                    tn = (t[b] + j + 1) / 100.0
                    assert comps["trend"][b, j] == pytest.approx(
                        trend_eval(tn, p), abs=1e-12)

    def test_continuous_mode_has_no_jumps(self):
        model = NpModel(NpConfig(d=2, D=1, n_changepoints=3,
                                 discontinuous_growth=False,
                                 seasonality_enabled=False, ar_enabled=False),
                        seed=0, t0=0.0, t_span=1.0)
        rng = np.random.default_rng(6)
        model.params["trend_g0"][:] = rng.normal()
        model.params["trend_r0"][:] = rng.normal()
        model.params["trend_dg"][:] = rng.normal(size=3)
        ts = np.linspace(-1.0, 0.0, 2001)  # origins so horizons span [0, 1]
        out, _ = model.forward(ts, np.zeros((ts.size, 2)))
        steps = np.abs(np.diff(out[:, 0]))
        assert steps.max() < 1e-2  # continuous: no O(1) jumps at changepoints

    def test_seasonality_component_matches_scalar_oracle(self):
        rng = np.random.default_rng(7)
        model = NpModel(tiny_config(), seed=0, t0=0.0, t_span=100.0)
        randomize(model, rng)
        t = np.array([3.0])
        comps, _ = model.forward_components(t, np.zeros((1, 5)),
                                            np.zeros((1, 3)))
        for j in range(3):
            ref = 0.0
            for i, (k, days) in enumerate(model.cfg.seasonalities):
                ref += seasonality_eval(t[0] + j + 1,
                                        days * model.cfg.samples_per_day,
                                        model.params[f"season{i}_a"],
                                        model.params[f"season{i}_b"])
            assert comps["seasonality"][0, j] == pytest.approx(ref, abs=1e-12)

    def test_disabled_components_are_zero(self):
        model = NpModel(NpConfig(d=3, D=2, trend_enabled=False,
                                 seasonality_enabled=False, ar_enabled=False),
                        seed=0)
        comps, _ = model.forward_components(np.array([5.0]), np.zeros((1, 3)))
        for name in ("trend", "seasonality", "ar", "regressor"):
            assert np.all(comps[name] == 0.0)

    def test_untrained_regressor_head_is_inert(self):
        rng = np.random.default_rng(8)
        model = NpModel(tiny_config(), seed=0, t0=0.0, t_span=100.0)
        comps, _ = model.forward_components(np.array([5.0]),
                                            rng.normal(size=(1, 5)),
                                            rng.normal(size=(1, 3)) * 100)
        assert np.all(comps["regressor"] == 0.0)  # zero-initialized head

    def test_missing_regressor_raises(self):
        model = NpModel(tiny_config(), seed=0)
        with pytest.raises(ContractViolation):
            model.forward(np.array([5.0]), np.zeros((1, 5)))

    def test_bad_lag_count_raises(self):
        model = NpModel(tiny_config(), seed=0)
        with pytest.raises(ContractViolation):
            model.forward(np.array([5.0]), np.zeros((1, 4)), np.zeros((1, 3)))


class TestGradients:
    @pytest.mark.parametrize("discontinuous,ar_linear",
                             [(True, False), (False, False), (True, True)])
    def test_joint_gradients_match_finite_differences(self, discontinuous,
                                                      ar_linear):
        from csipred.numcore import huber_grad, huber_loss

        rng = np.random.default_rng(9)
        model = NpModel(tiny_config(discontinuous_growth=discontinuous,
                                    ar_linear=ar_linear),
                        seed=0, t0=0.0, t_span=50.0)
        randomize(model, rng)
        t = rng.uniform(0, 40, size=4)
        lags = rng.normal(size=(4, 5))
        reg = rng.normal(size=(4, 3))
        Y = rng.normal(size=(4, 3))

        y_hat, cache = model.forward(t, lags, reg)
        analytic = flat_grads(model, model.grads(
            huber_grad(Y, y_hat, 1.0), cache))
        flat = get_flat(model)

        def f(v):
            set_flat(model, v)
            out, _ = model.forward(t, lags, reg)
            return huber_loss(Y, out, 1.0)

        fd = finite_diff_grad(f, flat.copy())
        set_flat(model, flat)
        err = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-7)
        assert err.max() < 1e-4


def _nmse(pred, truth):
    return float(np.mean(np.sum((pred - truth) ** 2, axis=1)
                         / np.sum(truth ** 2, axis=1)))


class TestRecovery:
    def test_trend_only_recovers_slope(self):
        y = synthchan.generate_line(2.0, 1.0, 400)
        scaler = fit_scaler(y)
        w = make_windows(scaler.transform(y), 4, 2)
        cfg = NpConfig(d=4, D=2, n_changepoints=0, seasonality_enabled=False,
                       ar_enabled=False, learning_rate=0.05, epochs=200,
                       batch_size=64)
        model, hist = np_train(w, cfg, seed=0)
        slope = (model.params["trend_g0"][0] / model.t_span) * scaler.half_range
        assert slope == pytest.approx(2.0, rel=0.05)
        assert hist[-1] < hist[0]

    def test_seasonality_only_recovers_sinusoid(self):
        n = 4000
        y = synthchan.generate_sinusoid(0.8, 200.0, n)
        cut = int(0.9 * n)
        wtr = make_windows(y[:cut], 4, 2)
        wte = make_windows(y[cut:], 4, 2, start_index=cut)
        cfg = NpConfig(d=4, D=2, trend_enabled=False, ar_enabled=False,
                       seasonalities=((3, 0.1),), samples_per_day=2000.0,
                       learning_rate=0.05, lr_decay=0.97, epochs=150,
                       batch_size=256)
        model, _ = np_train(wtr, cfg, seed=0)
        pred = np_predict_batch(model, wte.t, wte.X)
        assert _nmse(pred, wte.Y) < 1e-3


class TestTraining:
    def test_determinism(self):
        y = synthchan.generate_sinusoid(1.0, 50.0, 300)
        w = make_windows(y, 6, 3)
        cfg = NpConfig(d=6, D=3, epochs=3, ar_hidden=4, ar_layers=1,
                       n_changepoints=2)
        runs = []
        for _ in range(2):
            model, hist = np_train(w, cfg, seed=11)
            runs.append((hist, get_flat(model)))
        assert runs[0][0] == runs[1][0]
        assert np.array_equal(runs[0][1], runs[1][1])

    def test_nan_label_diverges_at_its_batch(self):
        w = make_windows(synthchan.generate_sinusoid(1.0, 50.0, 300), 6, 3)
        w.Y[7, 1] = np.nan
        cfg = NpConfig(d=6, D=3, epochs=2, batch_size=16, ar_hidden=4,
                       ar_layers=1, n_changepoints=2)
        with pytest.raises(DivergenceError) as exc:
            np_train(w, cfg, seed=4)
        order = np.random.default_rng(4).permutation(len(w))
        assert exc.value.epoch == 0
        assert exc.value.batch == int(np.flatnonzero(order == 7)[0]) // 16

    def test_window_shape_mismatch(self):
        w = make_windows(np.linspace(0, 1, 100), 6, 3)
        with pytest.raises(ContractViolation):
            np_train(w, NpConfig(d=8, D=3, epochs=1))

    def test_regressor_contract(self):
        w = make_windows(np.linspace(0, 1, 100), 6, 3)
        cfg = NpConfig(d=6, D=3, epochs=1, regressor_enabled=True)
        with pytest.raises(ContractViolation):
            np_train(w, cfg, seed=0)  # enabled but not provided
        with pytest.raises(ContractViolation):
            np_train(w, cfg, seed=0, regressors=np.zeros((len(w), 2)))

    def test_empty_dataset(self):
        w = make_windows(np.linspace(0, 1, 100), 6, 3)
        w.t, w.X, w.Y = w.t[:0], w.X[:0], w.Y[:0]
        with pytest.raises(ContractViolation):
            np_train(w, NpConfig(d=6, D=3, epochs=1))


class TestForecastAndCheckpoint:
    def _trained(self):
        y = synthchan.generate_sinusoid(1.0, 40.0, 300)
        w = make_windows(y, 6, 3)
        cfg = NpConfig(d=6, D=3, epochs=3, ar_hidden=4, ar_layers=1,
                       n_changepoints=2)
        model, _ = np_train(w, cfg, seed=1)
        return model, w

    def test_forecast_shape_and_determinism(self):
        model, w = self._trained()
        a = np_forecast(float(w.t[0]), w.X[0], model)
        b = np_forecast(float(w.t[0]), w.X[0].copy(), model)
        assert a.shape == (3,)
        assert np.array_equal(a, b)

    def test_forecast_bad_lags(self):
        model, _ = self._trained()
        with pytest.raises(ContractViolation):
            np_forecast(0.0, np.zeros(5), model)

    def test_round_trip_bit_identical(self):
        model, w = self._trained()
        clone = NpModel.from_dict(json.loads(json.dumps(model.to_dict())))
        a = np_predict_batch(model, w.t[:5], w.X[:5])
        b = np_predict_batch(clone, w.t[:5], w.X[:5])
        assert np.array_equal(a, b)
        assert np.array_equal(get_flat(model), get_flat(clone))

    def test_bad_format_rejected(self):
        with pytest.raises(ContractViolation):
            NpModel.from_dict({"format": "nope"})
