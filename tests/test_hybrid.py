import json
from dataclasses import replace

import numpy as np
import pytest

from csipred import synthchan
from csipred.datapipe import make_windows
from csipred.errors import ContractViolation
from csipred.hybrid import HybridModel, build_hybrid, hybrid_predict_batch
from csipred.nprophet import NpConfig, NpModel
from csipred.numcore import flatten, load_params, unstack
from csipred.recurrent import RecurrentModel, TrainConfig


def make_splits(n=1200, d=8, D=4):
    y = synthchan.generate_sinusoid(1.0, 40.0, n)
    cut = int(0.9 * n)
    return {"train": make_windows(y[:cut], d, D),
            "test": make_windows(y[cut:], d, D, start_index=cut)}


def small_rnn(d=8, D=4, seed=0):
    return RecurrentModel("rnn", d, D, hidden_size=16, layers=1,
                          config=TrainConfig(learning_rate=0.005, epochs=10,
                                             dropout=0.0), seed=seed)


def small_np_cfg():
    return NpConfig(d=8, D=4, epochs=10, learning_rate=0.01,
                    n_changepoints=2, seasonalities=((3, 0.02),),
                    samples_per_day=2000.0, ar_layers=1, ar_hidden=8)


def _nmse(pred, truth):
    return float(np.mean(np.sum((pred - truth) ** 2, axis=1)
                         / np.sum(truth ** 2, axis=1)))


@pytest.fixture(scope="module")
def built():
    splits = make_splits()
    model, rnn_hist, np_hist, regressors = build_hybrid(
        splits, small_rnn(), small_np_cfg(), seed=0, dataset_digest="d1gest")
    return splits, model, rnn_hist, np_hist, regressors


class TestBuild:
    def test_additive_config_of_other_windows_is_refused(self):
        with pytest.raises(ContractViolation, match="window shape"):
            build_hybrid(make_splits(n=200), small_rnn(),
                         NpConfig(d=6, D=4, epochs=1), seed=0)

    def test_additive_config_is_refused_before_stage_1_trains(self):
        rnn = small_rnn()
        with pytest.raises(ContractViolation, match=(
                r"window shape \(d=8, D=4\) does not match the model "
                r"\(d=6, D=4\)")):
            build_hybrid(make_splits(n=200), rnn, NpConfig(d=6, D=4, epochs=1),
                         seed=0)
        assert not rnn.trained

    def test_stage_outputs(self, built):
        splits, model, rnn_hist, np_hist, regressors = built
        assert model.rnn.trained and model.np_model.trained
        assert len(rnn_hist) == 10 and len(np_hist) == 10
        for name, ws in splits.items():
            assert regressors[name].shape == (len(ws), 4)

    def test_regressor_head_is_active(self, built):
        _, model, _, _, _ = built
        assert model.np_model.cfg.regressor_enabled
        assert model.np_model.cfg.d == 8 and model.np_model.cfg.D == 4
        # trained head moved off its zero initialization
        assert np.any(model.np_model.params["reg_W"] != 0.0)

    def test_provenance(self, built):
        _, model, _, _, _ = built
        prov = model.provenance
        assert prov["seed"] == 0
        assert prov["dataset_digest"] == "d1gest"
        assert prov["rnn_config"]["arch"] == "rnn"
        assert prov["np_config"]["regressor_enabled"] is True
        assert len(prov["rnn_weights_digest"]) == 64
        assert len(prov["digest"]) == 64

    def test_predictive_quality(self, built):
        splits, model, _, _, _ = built
        w = splits["test"]
        pred = hybrid_predict_batch(model, w.t, w.X)
        assert _nmse(pred, w.Y) < 0.05

    def test_missing_train_split(self):
        with pytest.raises(ContractViolation):
            build_hybrid({"test": make_splits()["test"]}, small_rnn(),
                         small_np_cfg())

    def test_window_mismatch(self):
        splits = make_splits(d=6, D=4)
        with pytest.raises(ContractViolation):
            build_hybrid(splits, small_rnn(d=8), small_np_cfg())


class TestPredict:
    def test_single_matches_batch(self, built):
        splits, model, _, _, _ = built
        w = splits["test"]
        batch = hybrid_predict_batch(model, w.t[:3], w.X[:3])
        for i in range(3):
            single = hybrid_predict_batch(model, w.t[i:i + 1], w.X[i:i + 1])[0]
            # batched and single forwards may differ by reduction order only
            assert np.allclose(single, batch[i], atol=1e-12, rtol=0)

    def test_bad_lag_shape(self, built):
        _, model, _, _, _ = built
        with pytest.raises(ContractViolation):
            hybrid_predict_batch(model, np.zeros(1), np.zeros((1, 5)))

    def test_determinism(self, built):
        splits, model, _, _, _ = built
        w = splits["test"]
        a = hybrid_predict_batch(model, w.t, w.X)
        b = hybrid_predict_batch(model, w.t, w.X.copy())
        assert np.array_equal(a, b)


class TestCheckpoint:
    def test_round_trip_bit_identical(self, built):
        splits, model, _, _, _ = built
        payload = json.loads(json.dumps(model.to_dict()))
        stages = (small_rnn(), NpModel(model.np_model.cfg, seed=0,
                                       t0=model.np_model.t0,
                                       t_span=model.np_model.t_span))
        for stage, stored in zip(stages, (payload["rnn"], payload["np"])):
            stage.params = load_params(stage.params, stored["params"])
            stage.trained = True
        clone = HybridModel(*stages, provenance=payload["provenance"])
        assert json.loads(json.dumps(clone.to_dict())) == payload
        w = splits["test"]
        a = hybrid_predict_batch(model, w.t[:5], w.X[:5])
        b = hybrid_predict_batch(clone, w.t[:5], w.X[:5])
        assert np.array_equal(a, b)
        for old, new in ((model.rnn, clone.rnn), (model.np_model, clone.np_model)):
            assert np.array_equal(flatten(old.params, old.params),
                                  flatten(new.params, old.params))


class TestRebuildDeterminism:
    def test_identical_seeds_identical_models(self):
        splits = make_splits(n=600)
        runs = []
        for _ in range(2):
            model, _, _, _ = build_hybrid(splits, small_rnn(seed=7),
                                          small_np_cfg(), seed=7)
            runs.append(model.to_dict())
        assert json.dumps(runs[0], sort_keys=True) == json.dumps(
            runs[1], sort_keys=True)


def stacked_splits(F, n=600, d=8, D=4):
    """Train, val and test window stacks of F sinusoids of other periods."""
    y = np.stack([synthchan.generate_sinusoid(1.0, 30.0 + 7 * f, n)
                  for f in range(F)])
    cuts = (0, int(0.7 * n), int(0.85 * n), n)
    return {name: make_windows(y[:, a:b], d, D, start_index=a, stride=2)
            for name, a, b in zip(("train", "val", "test"), cuts, cuts[1:])}


class TestStacks:
    @pytest.mark.parametrize("arch", ["rnn", "bilstm"])
    @pytest.mark.parametrize("F", [1, 2, 3])
    def test_a_stack_gives_each_stream_its_own_bytes(self, arch, F):
        """A stacked hybrid gives each stream the regressors, parameters,
        histories and provenance of the hybrid built on that stream alone."""
        splits = stacked_splits(F)
        seeds = list(range(5, 5 + F))

        def stage1(seed):
            return RecurrentModel(arch, 8, 4, hidden_size=6, layers=2,
                                  config=TrainConfig(epochs=2, batch_size=16,
                                                     dropout=0.2), seed=seed)

        np_cfg = replace(small_np_cfg(), epochs=2)
        model, rnn_hists, np_hists, regressors = build_hybrid(
            splits, stage1(seeds), np_cfg, seed=seeds, dataset_digest="dg")
        assert len(model.provenance) == len(rnn_hists) == len(np_hists) == F
        rows = zip(unstack(model.rnn), unstack(model.np_model), model.provenance,
                   rnn_hists, np_hists)
        for f, (rnn, np_model, provenance, rnn_hist, np_hist) in enumerate(rows):
            own = {name: replace(ws, X=ws.X[f], Y=ws.Y[f])
                   for name, ws in splits.items()}
            alone, rnn_alone, np_alone, reg_alone = build_hybrid(
                own, stage1(seeds[f]), np_cfg, seed=seeds[f],
                dataset_digest="dg")
            assert regressors.keys() == reg_alone.keys() == splits.keys()
            for name, reg in reg_alone.items():
                assert regressors[name][f].tobytes() == reg.tobytes(), name
            for stage, stage_alone in ((rnn, alone.rnn),
                                       (np_model, alone.np_model)):
                assert stage.params.keys() == stage_alone.params.keys()
                for name, value in stage_alone.params.items():
                    assert stage.params[name].tobytes() == value.tobytes(), name
            assert rnn_hist == rnn_alone and np_hist == np_alone
            assert provenance == alone.provenance
