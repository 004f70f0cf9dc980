import argparse
import base64
import contextlib
import csv
import io
import json
import os
import shutil
import signal
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csipred import datapipe, experiment, workers
from csipred.cli import build_parser, main
from csipred.config import (config_digest, format_config,
                            parse_config_file, parse_seasonalities,
                            resolve_config)
from csipred.errors import ConfigError

FAST = {
    "sample_count": "600",
    "d": "8",
    "D": "4",
    "window_stride": "4",
    "epochs": "2",
    "rnn_hidden": "8",
    "rnn_layers": "1",
    "dropout": "0.0",
    "np_hidden": "8",
    "np_layers": "1",
    "n_changepoints": "3",
    "seasonalities": "3:0.02",
    "batch_size": "64",
}


def write_config(tmp_path, extra=None, name="run.cfg"):
    cfg = dict(FAST)
    cfg.update(extra or {})
    path = tmp_path / name
    path.write_text("\n".join(f"{k}={v}" for k, v in cfg.items()) + "\n",
                    encoding="utf-8")
    return path


class TestConfig:
    def test_defaults_resolve(self):
        cfg = resolve_config()
        assert cfg["model"] == "rnn"
        assert cfg["d"] == 48 and cfg["D"] == 24

    def test_overrides_beat_file_values(self):
        cfg = resolve_config({"epochs": "5"}, {"epochs": "7"})
        assert cfg["epochs"] == 7

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config({"not_a_key": "1"})

    def test_type_coercion(self):
        cfg = resolve_config({"epochs": "3", "dropout": "0.1",
                              "discontinuous_growth": "false"})
        assert cfg["epochs"] == 3
        assert cfg["dropout"] == 0.1
        assert cfg["discontinuous_growth"] is False

    def test_bad_coercions(self):
        with pytest.raises(ConfigError):
            resolve_config({"epochs": "three"})
        with pytest.raises(ConfigError):
            resolve_config({"discontinuous_growth": "maybe"})

    def test_choice_validation(self):
        with pytest.raises(ConfigError):
            resolve_config({"model": "transformer"})

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            resolve_config({"train_frac": "0.9"})

    def test_seasonality_parsing(self):
        assert parse_seasonalities("6:365.25,3:7,6:1") == (
            (6, 365.25), (3, 7.0), (6, 1.0))
        assert parse_seasonalities("") == ()
        with pytest.raises(ConfigError):
            parse_seasonalities("6-365")

    def test_config_file_round_trip(self, tmp_path):
        cfg = resolve_config({"epochs": "9", "model": "np"})
        path = tmp_path / "echo.cfg"
        path.write_text(format_config(cfg), encoding="utf-8")
        assert resolve_config(parse_config_file(path)) == cfg

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\n\nepochs=4  # trailing\n", encoding="utf-8")
        assert parse_config_file(path) == {"epochs": "4"}

    def test_digest_is_stable_and_sensitive(self):
        a = resolve_config({"epochs": "3"})
        b = resolve_config({"epochs": "3"})
        c = resolve_config({"epochs": "4"})
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) != config_digest(c)
        assert len(config_digest(a)) == 16

    @pytest.mark.parametrize("key,value", [
        ("seed", "-1"), ("data_seed", "-1"), ("batch_size", "0"),
        ("dropout", "1.0"), ("dropout", "-0.1"), ("rnn_layers", "0"),
        ("window_stride", "0"), ("d", "0"), ("rnn_learning_rate", "0"),
        ("huber_beta", "0"), ("antenna_count", "0"), ("sample_interval", "0"),
        ("rnn_hidden", "0"), ("speed_kmph", "0"), ("val_frac", "0"),
        ("changepoint_range", "1.5"), ("np_learning_rate", "nan"),
        ("carrier_hz", "inf"), ("seasonalities", "-2:1"),
        ("seasonalities", "3:0"), ("seasonalities", "3:nan"),
        ("seasonalities", "0:1"), ("seasonalities", "3:-1"),
        ("seasonalities", "3:inf"), ("seasonalities", "1:1e-308"),
        ("compare_seeds", "0,x"), ("compare_seeds", ""), ("compare_seeds", "-1"),
        ("compare_seeds", "1.5")])
    def test_out_of_range_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            resolve_config({key: value})


class TestUsageErrors:
    def test_no_command(self):
        assert main([]) == 1

    def test_unknown_config_key_exits_1(self, tmp_path):
        cfg = write_config(tmp_path, {"bogus": "1"})
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_missing_checkpoint_exits_2(self, tmp_path):
        assert main(["evaluate", "--checkpoint", str(tmp_path / "no.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_corrupt_checkpoint_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["predict", "--checkpoint", str(bad),
                     "--out", str(tmp_path / "p.csv")]) == 2

    def test_config_line_without_equals_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=1\n# a comment\nmodel rnn\n", encoding="utf-8")
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.strip() == (
            f"config error: {cfg}: line 3: expected key=value")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, body, code, prefix", [
        ("--config", b"epochs=1\nmodel=\xffrnn\n", 1, "config error:"),
        ("--grid", b"rnn_hidden=4,\xff8\n", 1, "config error:"),
        ("--checkpoint", b'{"format": "\xff"}', 2, "data error:"),
        ("--checkpoint", b"[" * 100000 + b"]" * 100000, 2, "data error:"),
        ("--checkpoint", b"[" + b"1" * 5000 + b"]", 2, "data error:"),
    ], ids=["config-0xff", "grid-0xff", "checkpoint-0xff", "checkpoint-too-deep",
            "checkpoint-5000-digit-int"])
    def test_unreadable_input_file_exits_with_one_line(self, tmp_path, flag,
                                                       body, code, prefix):
        path = tmp_path / "input"
        path.write_bytes(body)
        out = str(tmp_path / "o")
        argv = {"--config": ["train", "--config", str(path), "--out", out],
                "--grid": ["tune", "--config", str(write_config(tmp_path)),
                           "--grid", str(path), "--out", out],
                "--checkpoint": ["evaluate", "--checkpoint", str(path),
                                 "--out", out]}[flag]
        rc, err = _run_quietly(argv)
        assert rc == code
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"{prefix} {path}: ")
        assert not (tmp_path / "o").exists()

    def test_csv_not_utf8_exits_2(self, tmp_path, capsys):
        data = tmp_path / "chan.csv"
        data.write_bytes(b"t,antenna,re,im\n0,0,1.0,0.0\n1,0,\xff,0.0\n")
        cfg = write_config(tmp_path, {"dataset": data})
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines[:-1] == ["training model=rnn seed=0"]
        assert lines[-1].startswith(f"data error: {data}: line 3: ")
        assert "can't decode byte 0xff" in lines[-1]


class TestGenData:
    def test_writes_loadable_csv(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "chan.csv"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
        from csipred.datapipe import load_csi

        series = load_csi(out)
        assert series.length == 600
        assert series.antenna_count == 1

    def test_seed_controls_content(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        main(["gen-data", "--config", str(cfg), "--out", str(a), "--seed", "1"])
        main(["gen-data", "--config", str(cfg), "--out", str(b), "--seed", "1"])
        main(["gen-data", "--config", str(cfg), "--out", str(c), "--seed", "2"])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_creates_the_directory_of_its_out_file(self, tmp_path):
        out = tmp_path / "no" / "dir" / "chan.csv"
        assert main(["gen-data", "--config", str(write_config(tmp_path)),
                     "--out", str(out)]) == 0
        from csipred.datapipe import load_csi

        assert load_csi(out).length == 600

    def test_overflowing_phase_creates_no_directory(self, tmp_path):
        cfg = write_config(tmp_path, {"carrier_hz": "1e308", "speed_kmph": "1e308"})
        out = tmp_path / "no" / "chan.csv"
        rc, _ = _run_quietly(["gen-data", "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        assert not out.parent.exists()


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("train")
    cfg = write_config(tmp)
    out = tmp / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    return tmp, cfg, out


class TestTrain:
    def test_artifacts(self, trained_dir):
        _, _, out = trained_dir
        payload = json.loads((out / "checkpoint.json").read_text())
        assert payload["format"] == "csipred-experiment-v1"
        assert payload["kind"] == "rnn"
        assert set(payload["features"]) == {"ant0_re", "ant0_im"}
        loss = (out / "loss.csv").read_text().splitlines()
        assert loss[0] == "feature,phase,epoch,loss"
        assert len(loss) == 1 + 2 * 2  # two features x two epochs
        resolved = parse_config_file(out / "resolved.cfg")
        assert resolved["d"] == "8"

    def test_rerun_is_bit_identical(self, trained_dir):
        tmp, cfg, out = trained_dir
        out2 = tmp / "run2"
        assert main(["train", "--config", str(cfg), "--out", str(out2)]) == 0
        assert ((out / "checkpoint.json").read_bytes()
                == (out2 / "checkpoint.json").read_bytes())
        assert (out / "loss.csv").read_bytes() == (out2 / "loss.csv").read_bytes()

    def test_np_divergence_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": "np",
                                      "np_learning_rate": "1e300"})
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [ln for ln in err.splitlines() if ln.startswith("divergence:")] == [
            "divergence: np model of feature ant0_re: the squared norm of the "
            "parameters overflows after the step of epoch 0, batch 0"]

    def test_divergence_raises_no_numpy_warning(self, tmp_path):
        cfg = write_config(tmp_path, {"model": "np",
                                      "np_learning_rate": "1e300"})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 3
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


# Checkpoint bodies that are valid JSON but not a usable experiment
# checkpoint, each built from a good trained checkpoint.
MALFORMED = {
    "list": lambda ckpt: [1, 2],
    "string": lambda ckpt: "x",
    "format-only": lambda ckpt: {"format": ckpt["format"]},
    "config-lacks-dataset": lambda ckpt: {
        **ckpt, "config": {k: v for k, v in ckpt["config"].items()
                           if k != "dataset"}},
    "unknown-kind": lambda ckpt: {**ckpt, "kind": "gru"},
    "features-string": lambda ckpt: {**ckpt, "features": "ant0_re ant0_im"},
    "entry-lacks-model": lambda ckpt: _edit_entries(ckpt, lambda e: e.pop("model")),
    "entry-lacks-scaler": lambda ckpt: _edit_entries(ckpt, lambda e: e.pop("scaler")),
    "model-of-other-kind": lambda ckpt: {**ckpt, "kind": "np"},
    "recurrent-v1": lambda ckpt: _edit_entries(
        ckpt, lambda e: e["model"].update(format="csipred-recurrent-v1")),
    "param-shape": lambda ckpt: _edit_entries(
        ckpt, lambda e: e["model"]["params"].update(
            L0_W=e["model"]["params"]["L0_W"][:-1])),
    "config-d-not-a-number": lambda ckpt: {
        **ckpt, "config": {**ckpt["config"], "d": "x"}},
    "config-zero-stride": lambda ckpt: {
        **ckpt, "config": {**ckpt["config"], "window_stride": 0}},
    "config-train-frac-2": lambda ckpt: {
        **ckpt, "config": {**ckpt["config"], "train_frac": 2.0}},
    "config-negative-samples": lambda ckpt: {
        **ckpt, "config": {**ckpt["config"], "sample_count": -5}},
    "blob-bad-char": lambda ckpt: _edit_params(
        ckpt, "L0_W", lambda blob: blob[:4] + "!" + blob[5:]),
    "blob-8-bytes-short": lambda ckpt: _edit_params(
        ckpt, "L0_W", lambda blob: base64.b64encode(
            base64.b64decode(blob)[:-8]).decode("ascii")),
    "param-list": lambda ckpt: _edit_params(
        ckpt, "L0_W", lambda blob: np.frombuffer(
            base64.b64decode(blob), "<f8").tolist()),
    "recurrent-v2": lambda ckpt: _edit_entries(
        ckpt, lambda e: e["model"].update(format="csipred-recurrent-v2")),
    "hidden-size-1e7": lambda ckpt: _edit_entries(
        ckpt, lambda e: e["model"].update(hidden_size=10**7)),
    "model-d-0": lambda ckpt: _edit_entries(
        ckpt, lambda e: e["model"].update(d=0)),
    "untrained": lambda ckpt: _edit_entries(
        ckpt, lambda e: e["model"].update(trained=False)),
    "scaler-zero-half-range": lambda ckpt: _edit_entries(
        ckpt, lambda e: e["scaler"].update(half_range=0.0)),
    "model-seed": lambda ckpt: _edit_entries(
        ckpt, lambda e: e["model"].update(seed=e["model"]["seed"] + 1)),
    "config-dropout": lambda ckpt: _edit_entries(
        ckpt, lambda e: e["model"]["config"].update(dropout=0.5)),
    "config-learning-rate": lambda ckpt: _edit_entries(
        ckpt, lambda e: e["model"]["config"].update(learning_rate=0.5)),
    "model-extra-key": lambda ckpt: _edit_entries(
        ckpt, lambda e: e["model"].update(note="x")),
    "forward-overflows": lambda ckpt: _edit_params(
        _edit_params(ckpt, "L0_b", _huge), "out_W", _huge),
    "extra-feature": lambda ckpt: {
        **ckpt, "features": {**ckpt["features"],
                             "ant7_re": ckpt["features"]["ant0_re"]}},
    "extra-top-level-key": lambda ckpt: {**ckpt, "note": "x"},
    "config-seed-string": lambda ckpt: {
        **ckpt, "config": {**ckpt["config"], "seed": str(ckpt["config"]["seed"])}},
    "config-trend-enabled-string": lambda ckpt: {
        **ckpt, "config": {**ckpt["config"], "trend_enabled": str(
            ckpt["config"]["trend_enabled"]).lower()}},
    "kind-not-config-model": lambda ckpt: {
        **ckpt, "config": {**ckpt["config"], "model": "lstm"}},
}

# Bodies that need a checkpoint of one other kind, made from a valid one.
MALFORMED_BY_KIND = {
    ("np", "npmodel-v1"): lambda ckpt: _edit_entries(
        ckpt, lambda e: e["model"].update(format="csipred-npmodel-v1")),
    ("np", "untrained"): lambda ckpt: _edit_entries(
        ckpt, lambda e: e["model"].update(trained=False)),
    ("np", "n-changepoints"): lambda ckpt: _edit_entries(
        ckpt, lambda e: e["model"]["config"].update(n_changepoints=4)),
    ("np", "blob-bad-char"): lambda ckpt: _edit_params(
        ckpt, "ar_U1", lambda blob: blob[:4] + "!" + blob[5:]),
    ("hybrid", "format"): lambda ckpt: _edit_entries(
        ckpt, lambda e: e["model"].update(format="csipred-hybrid-v0")),
    ("hybrid", "rnn-hidden-size"): lambda ckpt: _edit_entries(
        ckpt, lambda e: e["model"]["rnn"].update(hidden_size=9)),
    ("hybrid", "np-untrained"): lambda ckpt: _edit_entries(
        ckpt, lambda e: e["model"]["np"].update(trained=False)),
    ("np", "t0"): lambda ckpt: _edit_entries(
        ckpt, lambda e: e["model"].update(t0=e["model"]["t0"] + 100.0)),
    ("np", "t-span"): lambda ckpt: _edit_entries(
        ckpt, lambda e: e["model"].update(t_span=2 * e["model"]["t_span"])),
    ("np", "seed"): lambda ckpt: _edit_entries(
        ckpt, lambda e: e["model"].update(seed=e["model"]["seed"] + 1)),
    ("np", "extra-key"): lambda ckpt: _edit_entries(
        ckpt, lambda e: e["model"].update(note="x")),
    ("hybrid", "provenance-digest"): lambda ckpt: _edit_entries(
        ckpt, lambda e: e["model"]["provenance"].update(digest="0" * 64)),
    ("hybrid", "provenance-rnn-weights-digest"): lambda ckpt: _edit_entries(
        ckpt, lambda e: e["model"]["provenance"].update(
            rnn_weights_digest="0" * 64)),
    ("hybrid", "provenance-empty"): lambda ckpt: _edit_entries(
        ckpt, lambda e: e["model"].update(provenance={})),
    ("hybrid", "np-t0"): lambda ckpt: _edit_entries(
        ckpt, lambda e: e["model"]["np"].update(t0=e["model"]["np"]["t0"] + 100.0)),
    ("hybrid", "lacks-rnn"): lambda ckpt: _edit_entries(
        ckpt, lambda e: e["model"].pop("rnn")),
}


def _edit_entries(ckpt, edit):
    """A copy of ckpt with `edit` applied to every feature entry."""
    ckpt = json.loads(json.dumps(ckpt))
    for entry in ckpt["features"].values():
        edit(entry)
    return ckpt


def _huge(blob):
    """A blob of as many 1e308s as `blob` holds values: a saturated state
    through an output layer of them overflows."""
    return base64.b64encode(np.full(len(base64.b64decode(blob)) // 8, 1e308,
                                    "<f8")).decode("ascii")


def _edit_params(ckpt, name, edit):
    """A copy of ckpt whose stored parameter `name` is `edit(blob)` in every
    feature entry."""
    def apply(entry):
        params = entry["model"]["params"]
        params[name] = edit(params[name])
    return _edit_entries(ckpt, apply)


class TestPredictEvaluate:
    def test_predict_rows(self, trained_dir):
        tmp, _, out = trained_dir
        pred = tmp / "pred.csv"
        assert main(["predict", "--checkpoint", str(out / "checkpoint.json"),
                     "--split", "test", "--out", str(pred)]) == 0
        lines = pred.read_text().splitlines()
        assert lines[0] == "feature,t,horizon,prediction,truth"
        # 600 samples -> test split 60 -> 60-8-4=48 origins, stride 4 -> 12
        # windows x 4 horizon steps x 2 features
        assert len(lines) == 1 + 12 * 4 * 2

    def test_evaluate_reports(self, trained_dir):
        tmp, _, out = trained_dir
        metrics = tmp / "metrics"
        assert main(["evaluate", "--checkpoint", str(out / "checkpoint.json"),
                     "--split", "test", "--out", str(metrics)]) == 0
        rows = json.loads((metrics / "metrics.json").read_text())
        antennas = {r["antenna"] for r in rows}
        assert antennas == {"ant0", "all"}
        for r in rows:
            assert r["nmse"] >= 0.0
            assert 0.0 <= r["cosine_similarity"] <= 1.0
            assert r["nmse_db"] == pytest.approx(
                10.0 * __import__("math").log10(r["nmse"]), abs=1e-9)
        csv_lines = (metrics / "metrics.csv").read_text().splitlines()
        assert csv_lines[0].startswith("model,track,antenna,seed,nmse")
        assert len(csv_lines) == 1 + len(rows)

    def test_tampered_digest_detected(self, trained_dir, tmp_path):
        _, _, out = trained_dir
        payload = json.loads((out / "checkpoint.json").read_text())
        payload["dataset_digest"] = "0" * 64
        from csipred.errors import ContractViolation
        from csipred.experiment import evaluate_checkpoint

        with pytest.raises(ContractViolation):
            evaluate_checkpoint(payload, split="test")


    @pytest.mark.parametrize("command,out", [("evaluate", "metrics"),
                                             ("predict", "pred.csv")])
    def test_tampered_digest_exits_2(self, trained_dir, tmp_path, capsys,
                                     command, out):
        _, _, run = trained_dir
        payload = json.loads((run / "checkpoint.json").read_text())
        payload["dataset_digest"] = "0" * 64
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps(payload), encoding="utf-8")
        assert main([command, "--checkpoint", str(stale),
                     "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip() == ("data error: dataset digest mismatch: checkpoint "
                               "was trained on different windows")
        assert not (tmp_path / out).exists()

    @pytest.mark.parametrize("body", sorted(MALFORMED))
    @pytest.mark.parametrize("command,out", [("evaluate", "metrics"),
                                             ("predict", "pred.csv")])
    def test_malformed_checkpoint_exits_2(self, trained_dir, tmp_path, capsys,
                                          body, command, out):
        _, _, run = trained_dir
        payload = json.loads((run / "checkpoint.json").read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(MALFORMED[body](payload)), encoding="utf-8")
        assert main([command, "--checkpoint", str(bad),
                     "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("data error: ")
        assert not (tmp_path / out).exists()

    @pytest.mark.parametrize("kind,body", sorted(MALFORMED_BY_KIND))
    @pytest.mark.parametrize("command,out", [("evaluate", "metrics"),
                                             ("predict", "pred.csv")])
    def test_malformed_model_entry_exits_2(self, kind_checkpoints, tmp_path,
                                           capsys, kind, body, command, out):
        payload = json.loads(kind_checkpoints[kind])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(MALFORMED_BY_KIND[kind, body](payload)),
                       encoding="utf-8")
        assert main([command, "--checkpoint", str(bad),
                     "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("data error: ")
        assert not (tmp_path / out).exists()

    @pytest.mark.parametrize("kind,body,path", [
        ("rnn", "entry-lacks-model", "features.ant0_re.model"),
        ("hybrid", "lacks-rnn", "features.ant0_re.model.rnn")])
    @pytest.mark.parametrize("command,out", [("evaluate", "metrics"),
                                             ("predict", "pred.csv")])
    def test_missing_entry_is_named(self, kind_checkpoints, tmp_path, capsys,
                                    kind, body, path, command, out):
        # The missing key is named before any parameter is decoded.
        edit = MALFORMED_BY_KIND.get((kind, body)) or MALFORMED[body]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(json.loads(kind_checkpoints[kind]))),
                       encoding="utf-8")
        assert main([command, "--checkpoint", str(bad),
                     "--out", str(tmp_path / out)]) == 2
        assert capsys.readouterr().err.strip() == f"data error: {path} is missing"

    def test_evaluate_overflowing_metrics_exits_2(self, trained_dir, tmp_path,
                                                  capsys):
        # Finite parameters too large for the metrics' squares.
        _, _, run = trained_dir
        huge = _edit_params(
            json.loads((run / "checkpoint.json").read_text()), "out_b",
            lambda blob: base64.b64encode(np.full(
                len(base64.b64decode(blob)) // 8, 1e200, "<f8")).decode("ascii"))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(huge), encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["evaluate", "--checkpoint", str(bad),
                         "--out", str(tmp_path / "metrics")]) == 2
        assert caught == []
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("data error: antenna ant0: ")
        assert not (tmp_path / "metrics").exists()

    def test_split_of_zero_truth_power_exits_2(self, tmp_path):
        # ant0's last 20% is 0,0: the val and test splits. Each part spans
        # [-1, 1] on the train split, so its scaler maps 0 back to 0 exactly.
        cycle = [1.0, 0.5, 0.0, -0.5, -1.0, -0.5, 0.0, 0.5]
        data = tmp_path / "chan.csv"
        data.write_text("t,antenna,re,im\n" + "".join(
            f"{t},0,{cycle[t % 8] if t < 480 else 0.0},"
            f"{cycle[(t + 2) % 8] if t < 480 else 0.0}\n" for t in range(600)),
            encoding="utf-8")
        cfg = write_config(tmp_path, {"epochs": "1", "dataset": data})
        run, metrics, cmp = (tmp_path / name for name in ("run", "metrics", "cmp"))
        assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
        for argv in (["evaluate", "--checkpoint", str(run / "checkpoint.json"),
                      "--out", str(metrics)],
                     ["compare", "--config", str(cfg), "--out", str(cmp)]):
            rc, err = _run_quietly(argv)
            assert rc == 2
            assert "Traceback" not in err
            assert [ln for ln in err.splitlines() if ln.startswith(EXIT_LINES)] == [
                "data error: antenna ant0: all truth windows have zero norm"]
        assert not metrics.exists()
        assert list(cmp.iterdir()) == []


@pytest.fixture(scope="module")
def kind_checkpoints(trained_dir):
    """{kind: checkpoint.json text} of toy rnn, np and hybrid runs."""
    tmp, _, run = trained_dir
    texts = {"rnn": (run / "checkpoint.json").read_text()}
    for kind in ("np", "hybrid"):
        cfg = write_config(tmp, {"model": kind}, name=f"{kind}.cfg")
        assert main(["train", "--config", str(cfg), "--out", str(tmp / kind)]) == 0
        texts[kind] = (tmp / kind / "checkpoint.json").read_text()
    return texts


def _value_paths(obj, prefix=()):
    """Key paths to every value held, at any depth, in nested objects."""
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _value_paths(value, prefix + (key,))


# Values small enough that no config they land in can ask for a large array.
REPLACEMENTS = ([1.0, 2.0], -1, 0, 3, 2.5, 1e9, None, "", "x", "AAAA")


@st.composite
def corrupted(draw, text):
    """The checkpoint in `text` with one random corruption: a parameter blob
    truncated or with one character changed, or any value replaced or its key
    deleted. Blobs, the values of one feature entry (all entries are alike)
    and all values are drawn from equally often."""
    ckpt = json.loads(text)
    paths = sorted(_value_paths(ckpt))
    blobs = [p for p in paths if p[-2:-1] == ("params",)]
    entries = [p for p in paths if p[:2] == ("features", "ant0_re")]
    path = draw(st.sampled_from(draw(st.sampled_from([blobs, entries, paths]))))
    owner = ckpt
    for key in path[:-1]:
        owner = owner[key]
    key, value = path[-1], owner[path[-1]]
    ops = ["replace", "delete"]
    if isinstance(value, str) and value:
        ops += ["truncate", "flip"]
    op = draw(st.sampled_from(ops))
    if op == "replace":
        owner[key] = draw(st.sampled_from(REPLACEMENTS))
    elif op == "delete":
        del owner[key]
    elif op == "truncate":
        owner[key] = value[:draw(st.integers(0, len(value) - 1))]
    else:
        i = draw(st.integers(0, len(value) - 1))
        owner[key] = value[:i] + draw(st.sampled_from("A/+=!\u00e9 \n")) + value[i + 1:]
    return ckpt


class TestCheckpointFuzz:
    @pytest.mark.parametrize("kind", ["rnn", "np", "hybrid"])
    def test_corrupted_checkpoint_exits_0_or_2(self, kind_checkpoints,
                                               tmp_path_factory, kind):
        tmp = tmp_path_factory.mktemp(f"fuzz-{kind}")
        bad = tmp / "bad.json"

        @settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @given(st.data())
        def check(data):
            bad.write_text(json.dumps(data.draw(corrupted(kind_checkpoints[kind]))),
                           encoding="utf-8")
            for command, out in (("evaluate", "metrics"), ("predict", "pred.csv")):
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    rc = main([command, "--checkpoint", str(bad),
                               "--out", str(tmp / out)])
                assert rc in (0, 2)
                assert "Traceback" not in err.getvalue()
                if rc:
                    assert len(err.getvalue().strip().splitlines()) == 1

        check()


# Values per config key for the CLI fuzz: valid ones and malformed,
# out-of-range and non-finite strings. Every size stays toy (at most 600
# samples, 2 antennas and hidden size 8), so no config asks for a large array.
# Each example sets `model` and `seasonalities` and up to four other keys.
FUZZ_VALUES = {
    "model": ("rnn", "lstm", "bilstm", "np", "hybrid"),
    "seasonalities": ("3:0.02", "", "2:0.05,1:0.3", "-2:1", "3:0", "3:nan",
                      "0:1", "3:-1", "3:inf", "3", "x:1", "3:0.02:1", "1:1e-308"),
    "sample_count": ("600", "200", "40", "0", "-5", "x", "nan"),
    "d": ("8", "1", "0", "300", "2.5"),
    "D": ("4", "1", "0", "-1"),
    "antenna_count": ("1", "2", "0"),
    "window_stride": ("4", "0", "1000", "inf"),
    "rnn_hidden": ("8", "1", "0"),
    "dropout": ("0.0", "0.5", "1.0", "nan"),
    "np_learning_rate": ("0.01", "1e300", "0", "-1", "inf", "nan"),
    "rnn_learning_rate": ("0.001", "1e300", "nan"),
    "n_changepoints": ("3", "0", "-1"),
    "samples_per_day": ("2000.0", "1e-300", "0", "inf"),
    "huber_beta": ("1.0", "1e-300", "0", "nan"),
    "train_frac": ("0.8", "0.5", "1"),
}
EXIT_LINES = ("config error:", "data error:", "divergence:")


def _run_quietly(argv):
    """(exit code, stderr) of `main(argv)`, asserting it warned nothing."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main(argv)
    assert caught == []
    return rc, err.getvalue()


class TestConfigFuzz:
    def test_random_config_ends_in_a_documented_exit(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("config-fuzz")

        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(st.data())
        def check(data):
            always = ["model", "seasonalities"]
            keys = data.draw(st.lists(st.sampled_from(sorted(FUZZ_VALUES.keys()
                                                             - set(always))),
                                      max_size=4, unique=True))
            drawn = {k: data.draw(st.sampled_from(FUZZ_VALUES[k]))
                     for k in always + keys}
            cfg = write_config(tmp, {"epochs": "1", **drawn})
            run = tmp / "run"
            commands = [["train", "--config", str(cfg), "--out", str(run)]]
            for command, out in (("evaluate", "metrics"), ("predict", "pred.csv")):
                commands.append([command, "--checkpoint",
                                 str(run / "checkpoint.json"), "--out", str(tmp / out)])
            for argv in commands:
                rc, err = _run_quietly(argv)
                assert rc in (0, 1, 2, 3)
                assert "Traceback" not in err and "Warning" not in err
                if rc:
                    lines = err.strip().splitlines()
                    assert [ln for ln in lines if ln.startswith(EXIT_LINES)] == lines[-1:]
                    break

        check()


# One grid axis per `tune` example: cells that train, cells the config
# refuses, cells that fail to train, and list-valued keys, which the grid
# splits at commas into one entry per cell.
GRID_AXES = {
    "rnn_hidden": ("4,8", "0,8", "x"),
    "d": ("300,8", "300"),
    "model": ("rnn,np", "hybrid,bilstm", "lstm,x"),
    "epochs": ("1,2", "0"),
    "seasonalities": ("3:0.02,2:0.05", "3:0"),
    "compare_seeds": ("0,1", "-1"),
    "rnn_learning_rate": ("1e300,0.001", "nan"),
    "np_learning_rate": ("1e300",),
    "data_seed": ("0,1",),
}
COMPARE_SEEDS = ("0", "0,1", "1,1", "", "-1", "x")


class TestTuneCompareFuzz:
    def test_random_run_ends_in_a_documented_exit(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("tune-compare-fuzz")
        exit_lines = EXIT_LINES + ("worker error:",)

        @settings(max_examples=50, deadline=None, derandomize=True, database=None)
        @given(st.data())
        def check(data):
            keys = data.draw(st.lists(st.sampled_from(sorted(FUZZ_VALUES)),
                                      max_size=2, unique=True))
            drawn = {k: data.draw(st.sampled_from(FUZZ_VALUES[k])) for k in keys}
            command = data.draw(st.sampled_from(["tune", "compare"]))
            if command == "compare":
                drawn["compare_seeds"] = data.draw(st.sampled_from(COMPARE_SEEDS))
            cfg = write_config(tmp, {"epochs": "1", **drawn})
            argv = [command, "--config", str(cfg), "--out", str(tmp / "out")]
            if command == "tune":
                axis = data.draw(st.sampled_from(sorted(GRID_AXES)))
                grid = tmp / "grid.cfg"
                grid.write_text(f"{axis}={data.draw(st.sampled_from(GRID_AXES[axis]))}\n",
                                encoding="utf-8")
                argv[3:3] = ["--grid", str(grid)]
            rc, err = _run_quietly(argv)
            assert rc in (0, 1, 2, 3, 4)
            assert "Traceback" not in err and "Warning" not in err
            if rc:
                lines = err.strip().splitlines()
                assert [ln for ln in lines if ln.startswith(exit_lines)] == lines[-1:]

        check()


def _stored_floats(node, key=None):
    """The float64 values in every parameter blob under `node`."""
    if key == "params":
        return sum(len(base64.b64decode(blob)) // 8 for blob in node.values())
    if isinstance(node, dict):
        return sum(_stored_floats(value, k) for k, value in node.items())
    return 0


class TestTune:
    def test_grid_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, {"epochs": "1"})
        grid = tmp_path / "grid.cfg"
        grid.write_text("rnn_hidden=4,8\n", encoding="utf-8")
        out = tmp_path / "tuned"
        assert main(["tune", "--config", str(cfg), "--grid", str(grid),
                     "--out", str(out)]) == 0
        trials = (out / "trials.csv").read_text().splitlines()
        assert trials[0] == "rnn_hidden,status,nmse,param_count,error"
        assert len(trials) == 3
        best = parse_config_file(out / "best.cfg")
        assert best["rnn_hidden"] in ("4", "8")

    # param_count per kind at rnn_hidden=4 and 8 (np has no recurrent stage)
    PARAM_COUNTS = {"rnn": (88, 232), "lstm": (232, 712), "bilstm": (424, 1352),
                    "np": (268, 268), "hybrid": (356, 500)}

    @pytest.mark.parametrize("kind", sorted(PARAM_COUNTS))
    def test_param_count_is_what_training_stores(self, tmp_path, kind):
        cfg = write_config(tmp_path, {"epochs": "1", "model": kind})
        grid = tmp_path / "grid.cfg"
        grid.write_text("rnn_hidden=4,8\n", encoding="utf-8")
        out = tmp_path / "tuned"
        assert main(["tune", "--config", str(cfg), "--grid", str(grid),
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in
                (out / "trials.csv").read_text().splitlines()[1:]]
        assert [(row[0], int(row[3])) for row in rows] == list(
            zip(("'4'", "'8'"), self.PARAM_COUNTS[kind]))
        for hidden, count in zip(("4", "8"), self.PARAM_COUNTS[kind]):
            cell = write_config(tmp_path, {"epochs": "1", "model": kind,
                                           "rnn_hidden": hidden}, name="cell.cfg")
            run = tmp_path / f"run{hidden}"
            assert main(["train", "--config", str(cell), "--out", str(run)]) == 0
            ckpt = json.loads((run / "checkpoint.json").read_text())
            assert _stored_floats(ckpt["features"]) == count

    def test_each_cell_trains_on_its_own_data(self, tmp_path):
        cfg = write_config(tmp_path, {"epochs": "1"})
        grid = tmp_path / "grid.cfg"
        grid.write_text("data_seed=0,1\n", encoding="utf-8")
        out = tmp_path / "tuned"
        assert main(["tune", "--config", str(cfg), "--grid", str(grid),
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in
                (out / "trials.csv").read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["'0'", "'1'"]
        for seed, row in zip(("0", "1"), rows):
            cell = write_config(tmp_path, {"epochs": "1", "data_seed": seed},
                                name="cell.cfg")
            run, metrics = tmp_path / f"run{seed}", tmp_path / f"metrics{seed}"
            assert main(["train", "--config", str(cell), "--out", str(run)]) == 0
            assert main(["evaluate", "--checkpoint", str(run / "checkpoint.json"),
                         "--split", "val", "--out", str(metrics)]) == 0
            reports = json.loads((metrics / "metrics.json").read_text())
            overall = next(r for r in reports if r["antenna"] == "all")
            assert row[2] == repr(overall["nmse"])
        assert rows[0][2] != rows[1][2]

    def test_refused_grid_value_exits_1_before_training(self, tmp_path):
        cfg = write_config(tmp_path, {"epochs": "1"})
        grid = tmp_path / "grid.cfg"
        grid.write_text("rnn_hidden=4\ndropout=0.1,2\n", encoding="utf-8")
        out = tmp_path / "t"
        rc, err = _run_quietly(["tune", "--config", str(cfg), "--grid",
                                str(grid), "--out", str(out)])
        assert rc == 1
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:")
        assert "dropout" in lines[0]
        assert not out.exists()

    def test_no_cell_trains_exits_with_first_error(self, tmp_path):
        cfg = write_config(tmp_path, {"epochs": "1"})
        grid = tmp_path / "grid.cfg"
        grid.write_text("rnn_learning_rate=1e300,1e301\n", encoding="utf-8")
        rc, err = _run_quietly(["tune", "--config", str(cfg), "--grid",
                                str(grid), "--out", str(tmp_path / "t")])
        assert rc == 3
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("divergence:")

    def test_a_worker_that_dies_stops_tune_with_exit_4(self, tmp_path,
                                                        monkeypatch):
        # A training process that dies is not a failed cell: the ranking
        # would then depend on free memory, so tune stops. The first cell
        # trains; a worker of the second dies.
        monkeypatch.setattr(experiment, "GROUP_CACHE_BYTES", 1)
        monkeypatch.setattr(workers, "default_jobs", lambda: 2)
        parent = os.getpid()
        train_feature = experiment.train_feature

        def dying(cfg, *args, **kwargs):
            if os.getpid() != parent and cfg["rnn_hidden"] == 8:
                os.kill(os.getpid(), signal.SIGKILL)
            return train_feature(cfg, *args, **kwargs)

        monkeypatch.setattr(experiment, "train_feature", dying)
        cfg = write_config(tmp_path, {"epochs": "1"})
        grid = tmp_path / "grid.cfg"
        grid.write_text("rnn_hidden=4,8\n", encoding="utf-8")
        out = tmp_path / "t"
        rc, err = _run_quietly(["tune", "--config", str(cfg), "--grid",
                                str(grid), "--out", str(out)])
        assert rc == 4
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("worker error:")
        assert "killed by signal 9" in lines[0]
        assert not (out / "trials.csv").exists()
        assert not (out / "best.cfg").exists()

    def test_unknown_grid_key(self, tmp_path):
        cfg = write_config(tmp_path)
        grid = tmp_path / "grid.cfg"
        grid.write_text("bogus=1,2\n", encoding="utf-8")
        assert main(["tune", "--config", str(cfg), "--grid", str(grid),
                     "--out", str(tmp_path / "t")]) == 1

    def test_grid_axis_without_values_exits_1(self, tmp_path):
        cfg = write_config(tmp_path)
        grid = tmp_path / "grid.cfg"
        grid.write_text("rnn_hidden=,\n", encoding="utf-8")
        out = tmp_path / "t"
        rc, err = _run_quietly(["tune", "--config", str(cfg), "--grid",
                                str(grid), "--out", str(out)])
        assert rc == 1
        assert err.strip().splitlines() == [
            f"config error: {grid}: rnn_hidden has no values"]
        assert not out.exists()

    def test_empty_grid(self, tmp_path):
        cfg = write_config(tmp_path)
        grid = tmp_path / "grid.cfg"
        grid.write_text("# nothing\n", encoding="utf-8")
        assert main(["tune", "--config", str(cfg), "--grid", str(grid),
                     "--out", str(tmp_path / "t")]) == 1


class TestCompare:
    def test_four_models_one_seed(self, tmp_path):
        cfg = write_config(tmp_path, {"epochs": "1"})
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"np", "rnn", "bilstm", "hybrid"}
        for entry in summary.values():
            assert entry["seeds"] == 1
            assert entry["median_nmse"] >= 0.0
        rows = json.loads((out / "comparison.json").read_text())
        assert len(rows) == 4
        assert {r["model"] for r in rows} == set(summary)
        assert (out / "resolved.cfg").exists()


class TestPrepareOnce:
    """`compare` cuts its windows once, and `tune` once per cell; the
    checkpoint of each run is then checked and scored on those windows."""

    @pytest.fixture
    def prepares(self, monkeypatch):
        """The number of `prepare_dataset` calls so far, as a one-item list."""
        calls = [0]
        prepare_dataset = datapipe.prepare_dataset

        def counted(*args, **kwargs):
            calls[0] += 1
            return prepare_dataset(*args, **kwargs)

        monkeypatch.setattr(datapipe, "prepare_dataset", counted)
        return calls

    def test_compare_prepares_once(self, tmp_path, prepares):
        cfg = write_config(tmp_path, {"epochs": "1", "compare_seeds": "0,1"})
        assert main(["compare", "--config", str(cfg),
                     "--out", str(tmp_path / "cmp")]) == 0
        assert len(json.loads((tmp_path / "cmp" / "comparison.json").read_text())) == 8
        assert prepares == [1]

    def test_tune_prepares_once_per_cell(self, tmp_path, prepares):
        cfg = write_config(tmp_path, {"epochs": "1"})
        grid = tmp_path / "grid.cfg"
        grid.write_text("rnn_hidden=4,8\n", encoding="utf-8")
        assert main(["tune", "--config", str(cfg), "--grid", str(grid),
                     "--out", str(tmp_path / "tuned")]) == 0
        assert prepares == [2]

    @pytest.mark.parametrize("command,out", [("evaluate", "metrics"),
                                             ("predict", "pred.csv")])
    def test_evaluate_and_predict_prepare_once(self, trained_dir, tmp_path,
                                               prepares, command, out):
        _, _, run = trained_dir
        before = prepares[0]
        assert main([command, "--checkpoint", str(run / "checkpoint.json"),
                     "--out", str(tmp_path / out)]) == 0
        assert prepares[0] - before == 1


class TestParseCache:
    def test_outputs_do_not_depend_on_the_sidecar(self, tmp_path):
        """`train`, `evaluate` and `predict` write the same bytes and stderr
        lines with the CSV's sidecar absent, present, or not writable."""
        data = tmp_path / "data" / "chan.csv"
        assert main(["gen-data", "--config", str(write_config(tmp_path)),
                     "--out", str(data)]) == 0
        sidecar = data.parent / f"chan.csv{datapipe.CACHE_SUFFIX}"
        run = tmp_path / "run"
        ckpt = run / "checkpoint.json"
        commands = [
            ["train", "--config", str(write_config(tmp_path, {"dataset": data})),
             "--out", str(run)],
            ["evaluate", "--checkpoint", str(ckpt), "--out", str(run / "eval")],
            ["predict", "--checkpoint", str(ckpt), "--out", str(run / "pred.csv")]]

        def outputs(before_each):
            shutil.rmtree(run, ignore_errors=True)
            errs = []
            for argv in commands:
                before_each()
                rc, err = _run_quietly(argv)
                assert rc == 0
                errs.append(err.splitlines())
            return errs, {p.relative_to(run): p.read_bytes()
                          for p in sorted(run.rglob("*")) if p.is_file()}

        def cold():
            if sidecar.is_file():
                sidecar.unlink()

        def warm():
            assert sidecar.is_file()

        def blocked():  # a directory where the sidecar would go
            cold()
            sidecar.mkdir(exist_ok=True)

        expected = outputs(cold)
        assert len(expected[1]) == 6
        assert outputs(warm) == expected
        assert outputs(blocked) == expected
        sidecar.rmdir()
        if os.geteuid() != 0:  # root writes into a read-only directory
            data.parent.chmod(0o555)
            try:
                assert outputs(lambda: None) == expected
            finally:
                data.parent.chmod(0o755)
        assert sorted(p.name for p in data.parent.iterdir()) == ["chan.csv"]


class TestLineEnds:
    """A CSV with CRLF or CR line ends, the header's included, is the same
    data as its LF copy."""

    @pytest.fixture(scope="class")
    def copies(self, tmp_path_factory):
        """gen-data's LF CSV and its CRLF and CR copies, each `chan.csv` in
        a sibling directory."""
        tmp = tmp_path_factory.mktemp("ends")
        lf = tmp / "lf" / "chan.csv"
        assert main(["gen-data", "--config", str(write_config(tmp)),
                     "--out", str(lf)]) == 0
        text = lf.read_bytes()
        assert b"\r" not in text
        for name, end in (("crlf", b"\r\n"), ("cr", b"\r")):
            (tmp / name).mkdir()
            (tmp / name / "chan.csv").write_bytes(text.replace(b"\n", end))
        return {name: tmp / name for name in ("lf", "crlf", "cr")}

    def test_copies_load_to_the_lf_parse(self, copies):
        lf = datapipe.load_csi(copies["lf"] / "chan.csv")
        for name in ("crlf", "cr"):
            series = datapipe.load_csi(copies[name] / "chan.csv")
            assert series.start_index == lf.start_index
            assert series.values.tobytes() == lf.values.tobytes()
            assert series.duplicate_rows == lf.duplicate_rows == []

    @pytest.mark.parametrize("model", ["rnn", "lstm", "bilstm", "np", "hybrid"])
    def test_commands_write_the_same_bytes(self, copies, monkeypatch, model):
        commands = [
            ["train", "--config", f"{model}.cfg", "--out", model],
            ["evaluate", "--checkpoint", f"{model}/checkpoint.json",
             "--out", f"{model}/eval"],
            ["predict", "--checkpoint", f"{model}/checkpoint.json",
             "--out", f"{model}/pred.csv"]]
        runs = []
        for name in ("lf", "crlf", "cr"):
            monkeypatch.chdir(copies[name])
            write_config(copies[name], {"dataset": "chan.csv", "epochs": "1",
                                        "model": model}, name=f"{model}.cfg")
            errs = []
            for argv in commands:
                rc, err = _run_quietly(argv)
                assert rc == 0
                errs.append(err.splitlines())
            out = copies[name] / model
            runs.append((errs, {p.relative_to(out): p.read_bytes()
                                for p in sorted(out.rglob("*")) if p.is_file()}))
        assert len(runs[0][1]) == 6
        assert runs[1] == runs[0] and runs[2] == runs[0]


def test_report_of_a_dataset_path_with_a_comma(tmp_path):
    """metrics.csv quotes a track that holds a comma, so every row keeps
    the header's 9 fields."""
    data = tmp_path / "a,b" / "chan.csv"
    assert main(["gen-data", "--config", str(write_config(tmp_path)),
                 "--out", str(data)]) == 0
    run = tmp_path / "run"
    assert main(["train", "--config", str(write_config(
        tmp_path, {"dataset": data, "epochs": "1"})), "--out", str(run)]) == 0
    assert main(["evaluate", "--checkpoint", str(run / "checkpoint.json"),
                 "--out", str(run / "eval")]) == 0
    with open(run / "eval" / "metrics.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3  # the header, ant0 and all
    assert all(len(row) == 9 for row in rows)
    assert [row[1] for row in rows] == ["track", str(data), str(data)]


class TestFlags:
    """Each command declares only the flags it reads; any other flag is a
    usage error that writes nothing."""

    def test_each_command_declares_only_its_flags(self):
        commands = next(a for a in build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        flags = {name: [o for a in p._actions for o in a.option_strings
                        if o not in ("-h", "--help")]
                 for name, p in commands.items()}
        assert flags == {
            "gen-data": ["--config", "--seed", "--out"],
            "train": ["--config", "--seed", "--out"],
            "predict": ["--checkpoint", "--split", "--out"],
            "evaluate": ["--checkpoint", "--split", "--out"],
            "tune": ["--config", "--seed", "--grid", "--out"],
            "compare": ["--config", "--out"],
        }

    def test_gen_data_seed_sets_data_seed(self, tmp_path):
        flag, key = tmp_path / "flag.csv", tmp_path / "key.csv"
        assert main(["gen-data", "--config", str(write_config(tmp_path)),
                     "--seed", "3", "--out", str(flag)]) == 0
        cfg = write_config(tmp_path, {"data_seed": "3"}, name="key.cfg")
        assert main(["gen-data", "--config", str(cfg), "--out", str(key)]) == 0
        assert flag.read_bytes() == key.read_bytes()

    @pytest.mark.parametrize("flag", ["--config", "--seed"])
    @pytest.mark.parametrize("command,out", [("evaluate", "metrics"),
                                             ("predict", "pred.csv")])
    def test_evaluate_and_predict_refuse_config_and_seed(
            self, trained_dir, tmp_path, capsys, flag, command, out):
        _, _, run = trained_dir
        value = str(tmp_path / "absent.cfg") if flag == "--config" else "7"
        assert main([command, "--checkpoint", str(run / "checkpoint.json"),
                     flag, value, "--out", str(tmp_path / out)]) == 1
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag} {value}" in err
        assert not (tmp_path / out).exists()

    def test_compare_refuses_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"epochs": "1"})
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(cfg), "--seed", "5",
                     "--out", str(out)]) == 1
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
        assert not out.exists()


class TestOneLineConfigErrors:
    @pytest.fixture
    def trained(self, monkeypatch):
        """The `train_prepared` calls so far, as a list."""
        calls = []
        train_prepared = experiment.train_prepared

        def counted(*args, **kwargs):
            calls.append(args)
            return train_prepared(*args, **kwargs)

        monkeypatch.setattr(experiment, "train_prepared", counted)
        return calls

    def test_config_key_set_twice_exits_1(self, tmp_path, trained):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=1\n# a comment\nepochs = 3\n", encoding="utf-8")
        out = tmp_path / "o"
        rc, err = _run_quietly(["train", "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        assert err.splitlines() == [
            f"config error: {cfg}: line 3: epochs is already set on line 1"]
        assert trained == [] and not out.exists()

    def test_grid_key_set_twice_exits_1(self, tmp_path, trained):
        cfg = write_config(tmp_path, {"epochs": "1"})
        grid = tmp_path / "grid.cfg"
        grid.write_text("rnn_hidden=4\nrnn_hidden=8,16\n", encoding="utf-8")
        out = tmp_path / "t"
        rc, err = _run_quietly(["tune", "--config", str(cfg), "--grid",
                                str(grid), "--out", str(out)])
        assert rc == 1
        assert err.splitlines() == [
            f"config error: {grid}: line 2: rnn_hidden is already set on line 1"]
        assert trained == [] and not out.exists()

    @pytest.mark.parametrize("command", ["train", "tune"])
    def test_unknown_key_names_its_file_and_line(self, tmp_path, trained,
                                                 command):
        body = "epochs=1\nbogus=2\n" if command == "train" else \
            "rnn_hidden=4,8\nbogus=1,2\n"
        path = tmp_path / "keys.cfg"
        path.write_text(body, encoding="utf-8")
        out = tmp_path / "o"
        argv = {"train": ["train", "--config", str(path)],
                "tune": ["tune", "--config", str(write_config(tmp_path)),
                         "--grid", str(path)]}[command]
        rc, err = _run_quietly(argv + ["--out", str(out)])
        assert rc == 1
        assert err.splitlines() == [
            f"config error: {path}: line 2: unknown config key 'bogus'"]
        assert trained == [] and not out.exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_missing_dataset_leaves_no_out_dir(self, tmp_path, trained, command):
        cfg = write_config(tmp_path, {"dataset": tmp_path / "absent.csv"})
        out = tmp_path / "o"
        rc, err = _run_quietly([command, "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert err.splitlines()[-1].startswith("data error: ")
        assert trained == [] and not out.exists()

    def test_bad_out_path_fails_before_training(self, tmp_path, trained):
        out = tmp_path / "taken"
        out.write_text("a file, not a directory\n", encoding="utf-8")
        rc, err = _run_quietly(["train", "--config", str(write_config(tmp_path)),
                                "--out", str(out)])
        assert rc == 2
        assert err.splitlines()[-1].startswith("data error: ")
        assert trained == []

    def test_out_of_memory_exits_1(self, tmp_path, monkeypatch):
        message = "Unable to allocate 71.1 PiB for an array"

        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(experiment, "train_prepared", exhausted)
        out = tmp_path / "o"
        rc, err = _run_quietly(["train", "--config", str(write_config(tmp_path)),
                                "--out", str(out)])
        assert rc == 1
        assert err.splitlines() == ["training model=rnn seed=0",
                                    f"config error: out of memory: {message}"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command,out", [("gen-data", "chan.csv"),
                                             ("train", "run")])
    def test_synthetic_phase_that_overflows_exits_1(self, tmp_path, command, out):
        cfg = write_config(tmp_path, {"carrier_hz": "1e308", "speed_kmph": "1e308"})
        out = tmp_path / out
        rc, err = _run_quietly([command, "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        lines = err.splitlines()
        assert [ln for ln in lines if ln.startswith(EXIT_LINES)] == lines[-1:]
        assert lines[-1] == (
            "config error: speed_kmph=1e+308, carrier_hz=1e+308, "
            "sample_interval=0.0005 and sample_count=600 give a Doppler phase "
            "that overflows")
        assert not out.exists() or list(out.iterdir()) == []
