"""Stacked training groups: feature streams that train as one stacked model.

Grouping must not change a single byte of what training writes, each stream
keeps its own generator, batch order and clip norm, and a diverging stream is
named by the error.
"""
import json
import math
import multiprocessing
import os
import pickle
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from csipred import datapipe, experiment, nprophet, numcore, recurrent, workers
from csipred.cli import main
from csipred.config import resolve_config
from csipred.errors import DivergenceError, WorkerError
from csipred.numcore import PREDICT_WINDOWS, fit, unflatten, unstack
from csipred.recurrent import RecurrentModel, TrainConfig, train_recurrent

from test_cli import _huge, write_config

# The benchmark's workloads, from the checkout.
sys.path.append(str(Path(__file__).resolve().parent.parent))
from perfbench import workloads as bench  # noqa: E402

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
    """Train and predict in `jobs` processes, whatever the CPU count: a
    prediction forks at any work."""
    monkeypatch.setattr(workers, "default_jobs", lambda: jobs)
    monkeypatch.setattr(experiment, "FORK_WORK", 1)


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
    # At L=1 a bilstm stream weighs about what an lstm stream does.
    assert experiment.group_size(cfg, "lstm", 32) == 2
    assert experiment.group_size(cfg, "bilstm", 32) == 2


@pytest.mark.parametrize("H,L,d,B", [(16, 1, 48, 32), (200, 3, 48, 32),
                                     (4, 2, 6, 16)])
def test_bilstm_counts_its_top_reverse_scan_as_one_step(H, L, d, B):
    # The lstm count, plus the reverse directions of the lower layers, plus
    # the top layer's one-step reverse scan: 8 arrays of (2, B, H).
    lower_reverse = 8 * 8 * B * H * (d + 1) * (L - 1)
    top_reverse = 8 * 8 * B * H * 2
    assert recurrent.scan_cache_bytes("bilstm", H, L, d, B) == (
        recurrent.scan_cache_bytes("lstm", H, L, d, B) + lower_reverse
        + top_reverse)


def _dealt(sizes, jobs):
    """The streams that each process runs when `workers.run_groups` deals
    groups of these sizes round-robin to `jobs` processes."""
    procs = min(jobs, len(sizes))
    return [sum(sizes[k::procs]) for k in range(procs)]


@pytest.mark.parametrize("jobs", [1, 2, 3, 4])
def test_groups_fit_the_cap_and_load_no_process_more(monkeypatch, jobs):
    cfg = resolve_config({**TOY, "model": "rnn"})
    lighter = 0
    for cap in range(1, 13):
        monkeypatch.setattr(experiment, "GROUP_CACHE_BYTES",
                            cap * experiment.stream_bytes(cfg, "rnn"))
        for streams in range(1, 41):
            size = experiment.group_size(cfg, "rnn", streams)
            sizes = experiment.group_sizes(streams, size, jobs)
            fixed = [min(cap, streams - start) for start in range(0, streams, cap)]
            assert sum(sizes) == streams
            assert 1 <= min(sizes) and max(sizes) <= cap
            assert sizes == fixed or max(sizes) - min(sizes) <= 1
            if jobs == 1:
                assert sizes == fixed
            assert max(_dealt(sizes, jobs)) <= max(_dealt(fixed, jobs))
            lighter += max(_dealt(sizes, jobs)) < max(_dealt(fixed, jobs))
    assert (lighter > 0) == (jobs > 1)


@pytest.mark.parametrize("kind", FAMILIES)
def test_benchmark_layouts_on_two_processes(kind):
    # mimo-cli's 32 np streams fit 11 to a group: 11, 11 and 10 would load
    # this process with 21 and the child with 11. Every other layout of
    # both workloads deals evenly already.
    for overrides in (bench.MIMO, bench.PAPER):
        cfg = resolve_config({**overrides, "model": kind})
        streams = 2 * cfg["antenna_count"]
        size = experiment.group_size(cfg, kind, streams)
        fixed = [min(size, streams - start) for start in range(0, streams, size)]
        want = [8] * 4 if (overrides, kind) == (bench.MIMO, "np") else fixed
        assert experiment.group_sizes(streams, size, 2) == want


@pytest.mark.parametrize("kind", FAMILIES)
def test_even_groups_train_the_bytes_of_fixed_groups(tmp_path, monkeypatch,
                                                     kind):
    # A cap of 4 cuts TOY's 10 streams into 4, 4 and 2 in one process and
    # into 3, 3, 2 and 2 in two.
    cfg = resolve_config({**TOY, "model": kind})
    monkeypatch.setattr(experiment, "GROUP_CACHE_BYTES",
                        4 * experiment.stream_bytes(cfg, kind))
    assert experiment.group_sizes(10, 4, 1) == [4, 4, 2]
    assert experiment.group_sizes(10, 4, 2) == [3, 3, 2, 2]
    _jobs(monkeypatch, 1)
    one = _train(tmp_path, "one", {"model": kind})
    _jobs(monkeypatch, 2)
    assert _train(tmp_path, "two", {"model": kind}) == one
    _assert_no_children()


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

    def loss_and_grads(self, idx, grads):
        w = self.params["w"]
        loss = np.sum(w * w, axis=1)
        if len(self.seen) >= self.at:
            loss[list(self.bad)] = np.nan
        self.seen.append(w.copy())
        np.multiply(2.0, w, out=grads["w"])
        return loss


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
    series = np.sin(np.arange(90) / (4.0 + np.arange(3)[:, None]))
    stack = RecurrentModel("lstm", 5, 2, hidden_size=3, layers=2, config=cfg,
                           seed=[4, 5, 6])
    hists = train_recurrent(stack, datapipe.make_windows(series, 5, 2),
                            seed=[4, 5, 6])
    X = rng.normal(size=(3, 7, 5))
    y, _ = stack.forward(X, backward=False)
    for f, one in enumerate(unstack(stack)):
        alone = RecurrentModel("lstm", 5, 2, hidden_size=3, layers=2, config=cfg,
                               seed=4 + f)
        ws = datapipe.make_windows(series[f], 5, 2)
        assert train_recurrent(alone, ws, seed=4 + f) == hists[f]
        for name, value in alone.params.items():
            assert np.array_equal(one.params[name], value)
        assert np.array_equal(y[f], alone.forward(X[f], backward=False)[0])


@pytest.mark.parametrize("arch", ["rnn", "lstm", "bilstm"])
@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("F", [2, 3])
@pytest.mark.parametrize("B", [1, 2, 32])
def test_stacks_of_sixteen_units_give_each_stream_its_bytes(arch, layers, F, B):
    # B of 1 and 2 take OpenBLAS's small-matrix path, through the scans'
    # step buffers.
    seeds = list(range(3, 3 + F))
    rng = np.random.default_rng(100 * F + B)
    stack = RecurrentModel(arch, 8, 3, hidden_size=16, layers=layers,
                           config=TrainConfig(dropout=0.2), seed=seeds)
    X = rng.normal(size=(F, B, 8))
    Y = rng.normal(size=(F, B, 3))
    y = stack.forward(X, backward=False)[0]
    loss, grads = stack.loss_and_grads(X, Y, training=True,
                                       rng=numcore.generators(seeds))
    for f, one in enumerate(unstack(stack)):
        assert y[f].tobytes() == one.forward(X[f], backward=False)[0].tobytes()
        loss_f, grads_f = one.loss_and_grads(X[f], Y[f], training=True,
                                             rng=numcore.generators(seeds[f]))
        assert loss[f] == loss_f
        assert grads.keys() == grads_f.keys()
        for name, g in grads_f.items():
            assert grads[name][f].tobytes() == g.tobytes(), name


def _groups_of_four(monkeypatch, kind):
    """Train and predict in this process, in groups of 4 of TOY's 10 streams
    (the prediction stacks hold all 10); returns the resolved config."""
    cfg = resolve_config({**TOY, "model": kind})
    monkeypatch.setattr(experiment, "GROUP_CACHE_BYTES",
                        4 * experiment.stream_bytes(cfg, kind))
    _jobs(monkeypatch, 1)
    return cfg


@pytest.mark.parametrize("kind", FAMILIES)
def test_groups_and_stacks_are_views_of_the_split_stacks(monkeypatch, kind):
    cfg = _groups_of_four(monkeypatch, kind)
    trained, forecast = [], []
    for name in ("train_recurrent", "np_train", "build_hybrid"):
        def spy(*args, _call=getattr(experiment, name), **kwargs):
            data = next(a for a in args if isinstance(
                a, (dict, datapipe.SupervisedWindowSet)))
            trained.extend(data.items() if isinstance(data, dict)
                           else [("train", data)])
            return _call(*args, **kwargs)

        monkeypatch.setattr(experiment, name, spy)
    predict_windows = experiment.predict_windows

    def spy_predict(kind, model, ws):
        forecast.append(ws)
        return predict_windows(kind, model, ws)

    monkeypatch.setattr(experiment, "predict_windows", spy_predict)
    prepared, digest = experiment.prepare(cfg)
    experiment.train_and_score(cfg, prepared, digest, "test")
    want = {"hybrid": {"train", "val"}}.get(kind, {"train"})
    assert {name for name, _ in trained} == want
    assert len(trained) == 3 * len(want)
    for name, ws in trained:
        assert ws.X.shape[0] > 1
        stack = prepared.stacks[name]
        assert np.shares_memory(ws.X, stack.X) and np.shares_memory(ws.Y, stack.Y)
    assert [ws.X.shape[0] for ws in forecast] == [10]
    assert np.shares_memory(forecast[0].X, prepared.stacks["test"].X)


@pytest.mark.parametrize("kind", FAMILIES)
def test_train_and_score_leaves_the_split_stacks_unchanged(monkeypatch, kind):
    cfg = _groups_of_four(monkeypatch, kind)
    prepared, digest = experiment.prepare(cfg)

    def contents():
        return {name: [a.tobytes() for a in (ws.t, ws.X, ws.Y)]
                for name, ws in prepared.stacks.items()}

    before = contents()
    for split in ("val", "test"):
        experiment.train_and_score(cfg, prepared, digest, split)
        assert contents() == before


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
    groups of 3, 3, 3 and 1 streams, the same groups as in one process, this
    process runs groups 0 and 2 and a child groups 1 and 3."""

    @staticmethod
    def four_groups(monkeypatch, kind):
        cfg = resolve_config({**TOY, "model": kind})
        monkeypatch.setattr(experiment, "GROUP_CACHE_BYTES",
                            3 * experiment.stream_bytes(cfg, kind))

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_outputs_do_not_depend_on_jobs(self, tmp_path, monkeypatch, kind):
        self.four_groups(monkeypatch, kind)
        _jobs(monkeypatch, 1)
        one = _train(tmp_path, "one", {"model": kind})
        _jobs(monkeypatch, 2)
        two = _train(tmp_path, "two", {"model": kind})
        assert two == one
        _assert_no_children()

    @pytest.mark.parametrize("bad", [("ant1_im", "ant3_re"),
                                     ("ant0_re", "ant1_im")],
                             ids=["groups-1-2", "groups-0-1"])
    def test_lowest_diverging_group_decides(self, tmp_path, monkeypatch, capsys,
                                            bad):
        # The groups that start at these features train at a rate whose first
        # step overflows the squared norm of the parameters. The child starts
        # late, so that this process fails first and must wait for group 1.
        self.four_groups(monkeypatch, "rnn")
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
        self.four_groups(monkeypatch, "rnn")
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
        self.four_groups(monkeypatch, kind)
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
        self.four_groups(monkeypatch, "rnn")
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
        self.four_groups(monkeypatch, "rnn")
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
        self.four_groups(monkeypatch, "rnn")
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


def _outputs(out):
    return [(out / f).read_bytes() for f in (
        "metrics/metrics.csv", "metrics/metrics.json", "pred.csv")]


class TestPredictionStacks:
    """Prediction in stacks of `predict_size` streams: with TOY's 7 test
    windows per stream, one stack of 10 streams in one process, stacks of 5
    in two and of 4 in three."""

    def test_sizes(self):
        # paper-shape: two streams of 31 test windows in two processes;
        # mimo-cli: 32 streams of 11; a test split of 3,128 windows.
        assert experiment.predict_size(2, 31, 2) == 1
        assert experiment.predict_size(32, 11, 2) == 16
        assert experiment.predict_size(32, 3128, 2) == 1
        assert experiment.predict_size(10, 7, 3) == 4
        assert experiment.predict_size(10, 100, 1) == 2

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_stacks_predict_the_bytes_of_stacks_of_one(self, tmp_path,
                                                       monkeypatch, kind):
        code, run = _run(tmp_path, "run", {"model": kind})
        assert code == 0
        predict_size = experiment.predict_size
        monkeypatch.setattr(experiment, "predict_size", lambda *args: 1)
        _jobs(monkeypatch, 1)
        codes, out = _use(tmp_path, "ones", run)
        assert codes == [0, 0]
        want = _outputs(out)
        sizes = []

        def spy(*args):
            sizes.append(predict_size(*args))
            return sizes[-1]

        monkeypatch.setattr(experiment, "predict_size", spy)
        for jobs in (1, 2, 3):
            _jobs(monkeypatch, jobs)
            codes, out = _use(tmp_path, f"jobs{jobs}", run)
            assert codes == [0, 0]
            assert _outputs(out) == want
            _assert_no_children()
        assert sizes == [10, 10, 5, 5, 4, 4]

    @pytest.mark.parametrize("kind", FAMILIES)
    @pytest.mark.parametrize("samples,per_stack", [("1000", 2), ("4000", 1)],
                             ids=["91-windows", "391-windows"])
    def test_no_stacked_part_exceeds_the_bound(self, tmp_path, monkeypatch,
                                               kind, samples, per_stack):
        # 91 test windows per stream give stacks of two streams, one part
        # each; 391 give stacks of one, in two parts.
        extra = {"model": kind, "antenna_count": "2", "sample_count": samples,
                 "window_stride": "1", "epochs": "1"}
        code, run = _run(tmp_path, "run", extra)
        assert code == 0
        parts = []
        for owner in (recurrent.RecurrentModel, nprophet.NpModel):
            def spy(model, t_or_X, *args, _forward=owner.forward, **kwargs):
                X = t_or_X if isinstance(model, recurrent.RecurrentModel) else args[0]
                parts.append(X.shape[:-1])
                return _forward(model, t_or_X, *args, **kwargs)

            monkeypatch.setattr(owner, "forward", spy)
        _jobs(monkeypatch, 1)
        codes, _ = _use(tmp_path, "use", run)
        assert codes == [0, 0]
        assert {shape[0] for shape in parts} == {per_stack}
        assert max(math.prod(shape) for shape in parts) <= PREDICT_WINDOWS

    @pytest.mark.parametrize("malformed", [False, True],
                             ids=["stack-overflows", "stream-3-malformed"])
    def test_the_lowest_failing_stream_of_a_stack_decides(
            self, tmp_path, monkeypatch, capsys, malformed):
        # Stream 1 (ant0_im) overflows; stream 3 (ant1_im) may fail to load.
        # In one process all ten streams are one stack.
        code, run = _run(tmp_path, "run", {"model": "rnn"})
        assert code == 0
        payload = json.loads((run / "checkpoint.json").read_text())
        params = payload["features"]["ant0_im"]["model"]["params"]
        for name in params:
            if name.endswith("_b") or name == "out_W":
                params[name] = _huge(params[name])
        if malformed:
            blob = payload["features"]["ant1_im"]["model"]["params"]["L0_W"]
            payload["features"]["ant1_im"]["model"]["params"]["L0_W"] = (
                blob[:4] + "!" + blob[5:])
        (run / "checkpoint.json").write_text(json.dumps(payload))
        capsys.readouterr()
        for jobs in (1, 2, 3):
            _jobs(monkeypatch, jobs)
            codes, out = _use(tmp_path, f"jobs{jobs}", run)
            assert codes == [2, 2]
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert len(err.splitlines()) == 2
            for line in err.splitlines():
                assert line.startswith("data error: feature ant0_im: its "
                                       "predictions overflow")
            assert not out.exists()
            _assert_no_children()

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_loading_draws_no_random_numbers(self, tmp_path, monkeypatch, kind):
        code, run = _run(tmp_path, "run", {"model": kind})
        assert code == 0

        def refuse(*args, **kwargs):
            raise AssertionError("a checkpoint load drew random numbers")

        # Wherever a module binds the initializer, this one or an import.
        for module in (numcore, recurrent, nprophet):
            monkeypatch.setattr(module, "init_uniform", refuse, raising=False)
        for jobs in (1, 2):
            _jobs(monkeypatch, jobs)
            codes, _ = _use(tmp_path, f"jobs{jobs}", run)
            assert codes == [0, 0]
            _assert_no_children()


class TestPredictJobs:
    """Prediction forks only when the work outweighs the fork: the process
    count that `predict_jobs` gives at the benchmark's shapes, for hosts of
    two to four CPUs, and its estimate in multiply-adds."""

    @staticmethod
    def case(name, kind):
        """(config, streams, test windows per stream) of a named case."""
        overrides = {**(bench.MIMO if name.startswith("mimo") else bench.PAPER),
                     "model": kind}
        cfg = resolve_config(overrides)
        if name == "warm-up":
            # The benchmark's warm-up: one antenna, a split of 3 test windows.
            span = cfg["d"] + cfg["D"]
            cfg = resolve_config({**overrides, "antenna_count": "1",
                                  "sample_count": str(10 * (span + 4)),
                                  "window_stride": str(span)})
        windows = 15928 if name == "mimo-full" else bench.window_count(cfg, "test")
        return cfg, 2 * cfg["antenna_count"], windows

    def estimate(self, monkeypatch, name, kind):
        """The work of a case: its process count at one process per
        multiply-add and no CPU bound."""
        monkeypatch.setattr(experiment, "FORK_WORK", 1)
        cfg, streams, windows = self.case(name, kind)
        return experiment.predict_jobs(cfg, kind, streams, windows, 1 << 62)

    @pytest.mark.parametrize("name,kind,low,high", [
        *[("mimo", kind, 13.5e6, 55.5e6) for kind in FAMILIES],
        *[("paper", kind, 653e6, 5118e6) for kind in ("rnn", "lstm", "bilstm",
                                                       "hybrid")],
        ("paper", "np", 1.3e6, 1.4e6),
        ("warm-up", "lstm", 394e6, 395e6), ("warm-up", "bilstm", 786e6, 787e6),
        *[("mimo-full", kind, 2.6e9, 66.4e9) for kind in FAMILIES]])
    def test_estimates(self, monkeypatch, name, kind, low, high):
        assert low <= self.estimate(monkeypatch, name, kind) <= high

    def test_the_warm_up_split_holds_three_windows(self):
        assert self.case("warm-up", "lstm")[1:] == (2, 3)

    @pytest.mark.parametrize("jobs", [2, 3, 4])
    @pytest.mark.parametrize("name,kind,forks", [
        *[("mimo", kind, False) for kind in FAMILIES],
        *[("paper", kind, kind != "np") for kind in FAMILIES],
        ("warm-up", "lstm", True), ("warm-up", "bilstm", True),
        *[("mimo-full", kind, True) for kind in FAMILIES]])
    def test_processes(self, name, kind, forks, jobs):
        cfg, streams, windows = self.case(name, kind)
        assert experiment.predict_jobs(cfg, kind, streams, windows, jobs) == (
            jobs if forks else 1)

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_a_mimo_shaped_evaluate_and_predict_start_no_child(
            self, tmp_path, monkeypatch, kind):
        cfg = tmp_path / "mimo.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in
                               {**bench.MIMO, "model": kind}.items()),
                       encoding="utf-8")
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
        forks = []

        def refuse():
            forks.append(os.getpid())
            raise AssertionError("prediction forked")

        monkeypatch.setattr(workers, "default_jobs", lambda: 2)
        monkeypatch.setattr(os, "fork", refuse)
        codes, _ = _use(tmp_path, "use", run)
        assert codes == [0, 0]
        assert forks == []
        _assert_no_children()
