"""Stacked training groups: feature streams that train as one stacked model.

Grouping must not change a single byte of what training writes, each stream
keeps its own generator, batch order and clip norm, and a diverging stream is
named by the error.
"""
import json
import multiprocessing
import os
import pickle
import signal
import time

import numpy as np
import pytest

from csipred import datapipe, experiment, workers
from csipred.cli import main
from csipred.config import resolve_config
from csipred.errors import ContractViolation, DivergenceError, WorkerError
from csipred.numcore import fit, unflatten, unstack
from csipred.recurrent import RecurrentModel, TrainConfig, train_recurrent

from test_cli import _huge, write_config

FAMILIES = ("rnn", "lstm", "bilstm", "np", "hybrid")
# Five antennas: 10 streams, so that groups of 4 leave a last group of 2.
TOY = {"antenna_count": "5", "sample_count": "300", "d": "6", "D": "3",
       "window_stride": "3", "epochs": "2", "batch_size": "16",
       "rnn_hidden": "4", "rnn_layers": "2", "dropout": "0.2",
       "np_hidden": "4", "np_layers": "1", "n_changepoints": "3",
       "seasonalities": "2:0.02"}
# The shape keys of the benchmark's paper-shape workload: the recurrent
# defaults (H=200, L=3, d=48, D=24, batch 32) on one antenna.
PAPER = {"epochs": "1", "sample_count": "2680", "window_stride": "24"}


def _run(tmp_path, name, extra=None):
    """`train` at toy size; returns (exit code, output directory)."""
    cfg = write_config(tmp_path, {**TOY, **(extra or {})}, name=f"{name}.cfg")
    out = tmp_path / name
    return main(["train", "--config", str(cfg), "--out", str(out)]), out


def _train(tmp_path, name, extra=None):
    code, out = _run(tmp_path, name, extra)
    assert code == 0
    return [(out / f).read_bytes() for f in ("checkpoint.json", "loss.csv")]


def _use(tmp_path, name, run):
    """`evaluate` and `predict` of run's checkpoint; (exit codes, output
    directory)."""
    out = tmp_path / name
    checkpoint = str(run / "checkpoint.json")
    return [main(["evaluate", "--checkpoint", checkpoint,
                  "--out", str(out / "metrics")]),
            main(["predict", "--checkpoint", checkpoint,
                  "--out", str(out / "pred.csv")])], out


def _jobs(monkeypatch, jobs):
    """Train and predict in `jobs` processes, whatever the CPU count."""
    monkeypatch.setattr(workers, "default_jobs", lambda: jobs)


@pytest.mark.parametrize("kind", FAMILIES)
def test_grouped_training_is_byte_identical_to_groups_of_one(
        tmp_path, monkeypatch, kind):
    cfg = resolve_config({**TOY, "model": kind})
    sizes = []
    train_feature = experiment.train_feature

    def spy(cfg, kind, group, seeds, **kwargs):
        sizes.append(len(group))
        return train_feature(cfg, kind, group, seeds, **kwargs)

    monkeypatch.setattr(experiment, "train_feature", spy)
    monkeypatch.setattr(experiment, "GROUP_CACHE_BYTES", 1)
    _jobs(monkeypatch, 1)
    serial = _train(tmp_path, "serial", {"model": kind})
    assert sizes == [1] * 10
    sizes.clear()
    monkeypatch.setattr(experiment, "GROUP_CACHE_BYTES",
                        4 * experiment.stream_bytes(cfg, kind))
    grouped = _train(tmp_path, "grouped", {"model": kind})
    assert sizes == [4, 4, 2]
    assert grouped == serial


@pytest.mark.parametrize("kind", FAMILIES)
def test_groups_of_one_train_as_stacks(monkeypatch, kind):
    # Each training call that train_feature makes, as experiment looks it
    # up, gets a list of seeds: there is no plain training path.
    calls = []
    for name in ("train_recurrent", "np_train", "build_hybrid"):
        def spy(*args, _name=name, _call=getattr(experiment, name), **kwargs):
            calls.append((_name, kwargs["seed"]))
            return _call(*args, **kwargs)

        monkeypatch.setattr(experiment, name, spy)
    monkeypatch.setattr(experiment, "GROUP_CACHE_BYTES", 1)
    _jobs(monkeypatch, 1)
    experiment.train_experiment(resolve_config({**TOY, "model": kind}))
    name = {"np": "np_train", "hybrid": "build_hybrid"}.get(kind, "train_recurrent")
    assert calls == [(name, [experiment._feature_seed(0, index)])
                     for index in range(10)]


@pytest.mark.parametrize("kind", ["rnn", "lstm", "bilstm", "hybrid"])
def test_paper_shape_groups_hold_one_stream(kind):
    cfg = resolve_config({**PAPER, "model": kind})
    assert experiment.group_size(cfg, kind, 2) == 1


def test_mimo_shape_groups_hold_several_streams():
    cfg = resolve_config({"antenna_count": "16", "rnn_hidden": "16",
                          "rnn_layers": "1", "dropout": "0.0"})
    assert experiment.group_size(cfg, "rnn", 32) > 1
    assert experiment.group_size(cfg, "np", 32) > 1


@pytest.mark.parametrize("kind", ["rnn", "lstm", "bilstm", "hybrid"])
def test_parameters_that_overflow_exit_3(tmp_path, capsys, kind):
    # One Adam step at this rate moves the weights to about 1e300: the loss
    # stays finite (tanh saturates) but the squared norm overflows.
    cfg = write_config(tmp_path, {"model": kind, "epochs": "1",
                                  "rnn_learning_rate": "1e300"})
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 3
    lines = [ln for ln in capsys.readouterr().err.splitlines()
             if ln.startswith("divergence:")]
    assert len(lines) == 1
    assert f"{kind} model of feature ant0_re" in lines[0]
    assert "squared norm of the parameters overflows" in lines[0]
    assert not (out / "checkpoint.json").exists()


class _Quadratic:
    """loss = sum(w^2) per stream; a stream whose index is in `bad` from
    call `at` on returns a NaN loss."""

    def __init__(self, streams, bad=(), at=0):
        self.params = {"w": np.arange(1.0, 3 * streams + 1).reshape(streams, 3)}
        self.seed = list(range(streams))
        self.trained = False
        self.bad, self.at, self.seen = bad, at, []

    def loss_and_grads(self, idx):
        w = self.params["w"]
        loss = np.sum(w * w, axis=1)
        if len(self.seen) >= self.at:
            loss[list(self.bad)] = np.nan
        self.seen.append(w.copy())
        return loss, {"w": 2.0 * w}


class TestStackedFit:
    def test_rows_hold_the_streams_and_views_share_one_buffer(self):
        model = _Quadratic(3)
        start = model.params["w"].copy()
        rngs = [np.random.default_rng(s) for s in range(3)]
        histories = fit(model, model.loss_and_grads, 5, TrainConfig(epochs=2),
                        rngs)
        assert len(histories) == 3 and all(len(h) == 2 for h in histories)
        assert model.trained
        buf = model.params["w"].base
        assert buf.ndim == 1 and buf.size == 9
        for f, one in enumerate(unstack(model)):
            assert one.seed == f
            assert np.shares_memory(one.params["w"], buf)
            # each stream moved from its own start, by the same steps
            single = _Quadratic(1)
            single.params["w"] = start[f:f + 1]
            fit(single, single.loss_and_grads, 5, TrainConfig(epochs=2),
                [np.random.default_rng(f)])
            assert np.array_equal(one.params["w"], single.params["w"][0])

    def test_divergence_names_lowest_bad_stream_and_takes_no_step(self):
        model = _Quadratic(4, bad=(3, 1), at=2)
        rngs = [np.random.default_rng(s) for s in range(4)]
        with pytest.raises(DivergenceError) as exc:
            fit(model, model.loss_and_grads, 10, TrainConfig(epochs=1,
                                                             batch_size=4), rngs)
        assert (exc.value.epoch, exc.value.batch, exc.value.stream) == (0, 2, 1)
        assert len(model.seen) == 3
        assert not np.array_equal(model.seen[2], model.seen[0])  # steps taken
        assert np.array_equal(model.params["w"], model.seen[2])  # none for batch 2
        assert not model.trained


def test_divergence_message_names_feature_and_kind():
    exc = DivergenceError(1, 2, float("inf"), stream=3)
    assert str(exc) == "non-finite loss inf at epoch 1, batch 2"
    exc.feature, exc.kind = "ant1_im", "lstm"
    assert str(exc) == ("lstm model of feature ant1_im: non-finite loss inf "
                        "at epoch 1, batch 2")


def test_divergence_survives_pickling():
    # A worker process sends its divergence back to the parent.
    exc = DivergenceError(0, 1, float("nan"), 2, what="overflow at")
    exc.feature, exc.kind = "ant0_im", "bilstm"
    back = pickle.loads(pickle.dumps(exc))
    for attr in ("epoch", "batch", "stream", "what", "feature", "kind"):
        assert getattr(back, attr) == getattr(exc, attr)
    assert np.isnan(back.loss)
    assert str(back) == str(exc) == ("bilstm model of feature ant0_im: "
                                     "overflow at epoch 0, batch 1")


def test_unflatten_of_a_stack_gives_row_views():
    like = {"a": np.zeros((2, 3)), "b": np.zeros(4)}
    buf = np.arange(20.0).reshape(2, 10)
    views = unflatten(buf, like)
    assert views["a"].shape == (2, 2, 3) and views["b"].shape == (2, 4)
    assert all(np.shares_memory(v, buf) for v in views.values())
    assert np.array_equal(views["b"][1], buf[1, 6:])


def test_stacked_model_matches_its_streams():
    rng = np.random.default_rng(0)
    cfg = TrainConfig(epochs=2, batch_size=8, dropout=0.2)
    windows = [datapipe.make_windows(np.sin(np.arange(90) / (4.0 + f)), 5, 2)
               for f in range(3)]
    stack = RecurrentModel("lstm", 5, 2, hidden_size=3, layers=2, config=cfg,
                           seed=[4, 5, 6])
    hists = train_recurrent(stack, datapipe.stack_windows(windows), seed=[4, 5, 6])
    X = rng.normal(size=(3, 7, 5))
    y, _ = stack.forward(X, backward=False)
    for f, (one, ws) in enumerate(zip(unstack(stack), windows)):
        alone = RecurrentModel("lstm", 5, 2, hidden_size=3, layers=2, config=cfg,
                               seed=4 + f)
        assert train_recurrent(alone, ws, seed=4 + f) == hists[f]
        for name, value in alone.params.items():
            assert np.array_equal(one.params[name], value)
        assert np.array_equal(y[f], alone.forward(X[f], backward=False)[0])


def test_stack_windows_stacks_one_set():
    ws = datapipe.make_windows(np.arange(40.0), 4, 2)
    one = datapipe.stack_windows([ws])
    assert one.X.shape == (1, len(ws), 4) and one.Y.shape == (1, len(ws), 2)
    assert np.array_equal(one.X[0], ws.X) and np.array_equal(one.Y[0], ws.Y)
    assert np.array_equal(one.t, ws.t) and one.feature_id == ws.feature_id


def test_stack_windows_refuses_windows_cut_elsewhere():
    a = datapipe.make_windows(np.arange(40.0), 4, 2)
    b = datapipe.make_windows(np.arange(41.0), 4, 2)
    with pytest.raises(ContractViolation):
        datapipe.stack_windows([a, b])


class _NeedsArgs(Exception):
    def __init__(self, a, b):
        super().__init__()


class _GroupFailed(Exception):
    pass


def _outcome(call):
    """What `call()` returns, or the arguments of the `_GroupFailed` it raises."""
    try:
        return ("returned", call())
    except _GroupFailed as exc:
        return ("raised", exc.args)


def _assert_no_children():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestJobs:
    """Groups trained and predicted in forked workers: with two workers and
    groups of 4, 4 and 2 streams, this process runs groups 0 and 2 and a
    child group 1."""

    @staticmethod
    def three_groups(monkeypatch, kind):
        cfg = resolve_config({**TOY, "model": kind})
        monkeypatch.setattr(experiment, "GROUP_CACHE_BYTES",
                            4 * experiment.stream_bytes(cfg, kind))

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_outputs_do_not_depend_on_jobs(self, tmp_path, monkeypatch, kind):
        self.three_groups(monkeypatch, kind)
        _jobs(monkeypatch, 1)
        one = _train(tmp_path, "one", {"model": kind})
        _jobs(monkeypatch, 2)
        two = _train(tmp_path, "two", {"model": kind})
        assert two == one
        _assert_no_children()

    @pytest.mark.parametrize("bad", [("ant2_re", "ant4_re"),
                                     ("ant0_re", "ant2_re")],
                             ids=["groups-1-2", "groups-0-1"])
    def test_lowest_diverging_group_decides(self, tmp_path, monkeypatch, capsys,
                                            bad):
        # The groups that start at these features train at a rate whose first
        # step overflows the squared norm of the parameters. The child starts
        # late, so that this process fails first and must wait for group 1.
        self.three_groups(monkeypatch, "rnn")
        parent = os.getpid()
        train_feature = experiment.train_feature

        def diverging(cfg, kind, group, seeds, **kwargs):
            if os.getpid() != parent:
                time.sleep(0.2)
            if group[0].feature.feature_id in bad:
                cfg = {**cfg, "rnn_learning_rate": 1e300}
            return train_feature(cfg, kind, group, seeds, **kwargs)

        monkeypatch.setattr(experiment, "train_feature", diverging)
        lines = []
        for jobs in (1, 2):
            _jobs(monkeypatch, jobs)
            code, out = _run(tmp_path, f"jobs{jobs}", {"model": "rnn"})
            assert code == 3
            assert not (out / "checkpoint.json").exists()
            err = capsys.readouterr().err.splitlines()
            lines.append([ln for ln in err if ln.startswith("divergence:")])
            _assert_no_children()
        assert len(lines[0]) == 1 and lines[1] == lines[0]
        assert f"rnn model of feature {bad[0]}:" in lines[0][0]

    def test_a_worker_that_dies_exits_4(self, tmp_path, monkeypatch, capsys):
        self.three_groups(monkeypatch, "rnn")
        parent = os.getpid()
        train_feature = experiment.train_feature

        def dying(*args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return train_feature(*args, **kwargs)

        monkeypatch.setattr(experiment, "train_feature", dying)
        _jobs(monkeypatch, 2)
        code, out = _run(tmp_path, "dies", {"model": "rnn"})
        assert code == 4
        err = capsys.readouterr().err
        lines = [ln for ln in err.splitlines() if ln.startswith("worker error:")]
        assert len(lines) == 1 and "killed by signal 9" in lines[0]
        assert "Traceback" not in err
        assert not (out / "checkpoint.json").exists()
        _assert_no_children()

    def test_results_that_cannot_cross_the_pipe_raise_worker_error(self):
        def unsendable(index):  # a lambda does not pickle
            return (lambda: index) if index == 1 else index

        def unreadable(index):  # pickles, but does not unpickle
            if index == 1:
                raise _NeedsArgs(1, 2)
            return index

        with pytest.raises(WorkerError, match="group 1: the worker could not send"):
            workers.run_groups(unsendable, 3, 2)
        with pytest.raises(WorkerError, match="group 1: the worker's result could "
                                              "not be read"):
            workers.run_groups(unreadable, 3, 2)
        _assert_no_children()

    def test_workers_run_one_blas_thread_each(self):
        # N workers on N CPUs: each keeps OpenBLAS to one thread, and this
        # process gets its own count back after the call.
        calls = workers._openblas_calls()
        if calls is None:
            pytest.skip("numpy is not linked to an OpenBLAS this test can find")
        get, set_ = calls
        before = get()
        set_(2)
        try:
            assert workers.run_groups(lambda index: get(), 3, 2) == [1, 1, 1]
            assert get() == 2
        finally:
            set_(before)
        _assert_no_children()

    def test_one_process_runs_one_blas_thread_too(self):
        # So that a run's bytes do not depend on the caller's thread count.
        calls = workers._openblas_calls()
        if calls is None:
            pytest.skip("numpy is not linked to an OpenBLAS this test can find")
        get, set_ = calls
        before = get()
        set_(2)
        try:
            assert workers.run_groups(lambda index: get(), 3, 1) == [1, 1, 1]
            assert get() == 2
            assert workers.run_groups(lambda index: get(), 1, 4) == [1]
            assert get() == 2
        finally:
            set_(before)

    @pytest.mark.parametrize("failing", [(), (1, 2), (2, 3), (0, 5)],
                             ids=["none", "1-2", "2-3", "0-5"])
    @pytest.mark.parametrize("jobs", [3, 4])
    def test_two_or_three_children_act_as_the_serial_loop(self, jobs, failing):
        # Lower indices take longer, so that a higher failure is sent first.
        def train_group(index):
            time.sleep(0.002 * (7 - index))
            if index in failing:
                raise _GroupFailed(index)
            return index * index

        for count in range(1, 8):
            serial = _outcome(lambda: [train_group(i) for i in range(count)])
            assert _outcome(lambda: workers.run_groups(train_group, count, jobs)) \
                == serial, count
            _assert_no_children()

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_evaluation_does_not_depend_on_jobs(self, tmp_path, monkeypatch,
                                                kind):
        self.three_groups(monkeypatch, kind)
        code, run = _run(tmp_path, "run", {"model": kind})
        assert code == 0
        outputs = []
        for jobs in (1, 2, 3):
            _jobs(monkeypatch, jobs)
            codes, out = _use(tmp_path, f"jobs{jobs}", run)
            assert codes == [0, 0]
            outputs.append([(out / f).read_bytes() for f in (
                "metrics/metrics.csv", "metrics/metrics.json", "pred.csv")])
            _assert_no_children()
        assert outputs[2] == outputs[1] == outputs[0]

    def test_hybrid_on_a_bilstm_stage_round_trips(self, tmp_path, monkeypatch):
        """`hybrid_source=bilstm`: train, evaluate and predict exit 0, stage 1
        of every entry is a bilstm, and the outputs do not depend on jobs."""
        extra = {"model": "hybrid", "hybrid_source": "bilstm"}
        cfg = resolve_config({**TOY, **extra})
        monkeypatch.setattr(experiment, "GROUP_CACHE_BYTES",
                            4 * experiment.stream_bytes(cfg, "hybrid"))
        code, run = _run(tmp_path, "run", extra)
        assert code == 0
        entries = json.loads((run / "checkpoint.json").read_text())["features"]
        assert len(entries) == 10
        for entry in entries.values():
            assert entry["model"]["rnn"]["arch"] == "bilstm"
            assert entry["model"]["provenance"]["rnn_config"]["arch"] == "bilstm"
        outputs = []
        for jobs in (1, 2):
            _jobs(monkeypatch, jobs)
            codes, out = _use(tmp_path, f"jobs{jobs}", run)
            assert codes == [0, 0]
            outputs.append([(out / f).read_bytes() for f in (
                "metrics/metrics.csv", "metrics/metrics.json", "pred.csv")])
            _assert_no_children()
        assert outputs[1] == outputs[0]

    def test_a_prediction_worker_that_dies_exits_4(self, tmp_path, monkeypatch,
                                                   capsys):
        self.three_groups(monkeypatch, "rnn")
        code, run = _run(tmp_path, "run", {"model": "rnn"})
        assert code == 0
        parent = os.getpid()
        predict_windows = experiment.predict_windows

        def dying(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return predict_windows(*args)

        monkeypatch.setattr(experiment, "predict_windows", dying)
        _jobs(monkeypatch, 2)
        capsys.readouterr()
        codes, out = _use(tmp_path, "dies", run)
        assert codes == [4, 4]
        err = capsys.readouterr().err
        lines = [ln for ln in err.splitlines() if ln.startswith("worker error:")]
        assert len(lines) == 2
        for line in lines:
            assert "killed by signal 9 before it sent group 1" in line
        assert "Traceback" not in err
        assert not out.exists()
        _assert_no_children()

    def test_a_prediction_worker_out_of_memory_exits_1(self, tmp_path,
                                                       monkeypatch, capsys):
        # Only the child that predicts group 1 runs out; it sends the error.
        self.three_groups(monkeypatch, "rnn")
        code, run = _run(tmp_path, "run", {"model": "rnn"})
        assert code == 0
        parent = os.getpid()
        load_model = experiment._load_model

        def exhausted(*args):
            if os.getpid() != parent:
                raise MemoryError("Unable to allocate 8.00 EiB for an array")
            return load_model(*args)

        monkeypatch.setattr(experiment, "_load_model", exhausted)
        _jobs(monkeypatch, 2)
        capsys.readouterr()
        codes, out = _use(tmp_path, "exhausted", run)
        assert codes == [1, 1]
        assert capsys.readouterr().err.splitlines() == 2 * [
            "config error: out of memory: Unable to allocate 8.00 EiB for an array"]
        assert not out.exists()
        _assert_no_children()

    @pytest.mark.parametrize("lower", ["bad-blob", "overflow"])
    def test_lowest_failing_stream_decides_across_workers(
            self, tmp_path, monkeypatch, capsys, lower):
        # ant2_im is in group 1, which a child predicts, and ant4_re in group
        # 2. That child starts late: with two processes this process waits
        # for it before group 2, and with three the child of group 2 fails
        # first.
        self.three_groups(monkeypatch, "rnn")
        code, run = _run(tmp_path, "run", {"model": "rnn"})
        assert code == 0
        payload = json.loads((run / "checkpoint.json").read_text())

        def params(feat_id):
            return payload["features"][feat_id]["model"]["params"]

        def bad_char(blob):
            return blob[:4] + "!" + blob[5:]

        if lower == "overflow":
            # Saturated states through an output layer of 1e308s overflow.
            for name in params("ant2_im"):
                if name.endswith("_b") or name == "out_W":
                    params("ant2_im")[name] = _huge(params("ant2_im")[name])
        else:
            params("ant2_im")["L0_W"] = bad_char(params("ant2_im")["L0_W"])
        params("ant4_re")["L0_W"] = bad_char(params("ant4_re")["L0_W"])
        (run / "checkpoint.json").write_text(json.dumps(payload))
        parent = os.getpid()
        load_model = experiment._load_model

        def slow(cfg, train, *args):
            if os.getpid() != parent and train.feature_id == "ant2_re":
                time.sleep(0.3)
            return load_model(cfg, train, *args)

        monkeypatch.setattr(experiment, "_load_model", slow)
        capsys.readouterr()
        lines = []
        for jobs in (1, 2, 3):
            _jobs(monkeypatch, jobs)
            codes, out = _use(tmp_path, f"jobs{jobs}", run)
            assert codes == [2, 2]
            err = capsys.readouterr().err
            assert "Traceback" not in err
            lines.append(err.splitlines())
            assert not out.exists()
            _assert_no_children()
        assert lines[2] == lines[1] == lines[0]
        assert len(lines[0]) == 2 and lines[0][1] == lines[0][0]
        assert lines[0][0].startswith("data error: feature ant2_im: ")
        if lower == "overflow":
            assert "its predictions overflow" in lines[0][0]
