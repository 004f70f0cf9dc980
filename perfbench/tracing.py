"""Span tracing of csipred from outside the package.

`Tracer.install` replaces public functions of each csipred layer, in the
namespace where their callers look them up (for example
`recurrent.clip_grad_norm`, which `train_recurrent` calls), with wrappers that
record a span: name, start, end, the id of the enclosing span and a few
counts. `Tracer.uninstall` puts the originals back. Spans stay in memory;
`layer_metrics` turns them into the per-layer metrics of BENCHMARK.json.

Which end-to-end metric each layer should move, and where:

- numcore (Adam, clip, Huber): train_windows_per_s.* on paper-shape.
- recurrent (fwd_bwd, GEMM GFLOP): train_windows_per_s.{rnn,lstm,bilstm};
  FLOP-bound on paper-shape, overhead-bound on mimo-cli. recurrent predict
  time and memory per window: eval_windows_per_s and peak_rss_mb on
  paper-shape.
- nprophet: train_windows_per_s.{np,hybrid} on mimo-cli.
- hybrid (stages, regressor pass, stage-2 gain): train_windows_per_s.hybrid
  and test_nmse.hybrid on both workloads.
- datapipe, evalx, experiment and cli (CSV, prepare, reports, checkpoint
  JSON, commands): wall_s and eval_windows_per_s on mimo-cli. On the
  in-process paper-shape the CSV and CLI layers do no work and read 0.
- synthchan: setup_s on paper-shape, wall_s on mimo-cli.
"""
from __future__ import annotations

import functools
import math
import os
import statistics
import time
import tracemalloc
from pathlib import Path

from csipred import (cli, datapipe, evalx, experiment, hybrid, nprophet, numcore,
                     recurrent, synthchan)

ARCHS = ("rnn", "lstm", "bilstm")


def gemm_gflop_per_batch(arch, hidden, layers, d, D, batch, combine="hadamard"):
    """GEMM work of one forward+backward pass of a recurrent stack, in GFLOP.

    Per time step and layer, the forward pass does x@W.T and s@V.T per gate;
    backpropagation through time does the two weight gradients, ds@V and dx@W.
    That is 6*B*(n_in*H + H*H) per gate, with 1 gate for rnn, 4 for lstm and
    8 for bilstm. The dense head adds 6*B*H_out*D. Elementwise work is left out.
    """
    gates = {"rnn": 1, "lstm": 4, "bilstm": 8}[arch]
    out = 2 * hidden if arch == "bilstm" and combine == "concat" else hidden
    flop = 0
    for k in range(layers):
        n_in = 1 if k == 0 else out
        flop += 6 * gates * batch * d * (n_in * hidden + hidden * hidden)
    flop += 6 * batch * out * D
    return flop / 1e9


def _percentile(values, q):
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tracer:
    """Records spans while `enabled`; wrappers cost one flag test otherwise."""

    def __init__(self):
        self.spans = []
        self.enabled = False
        self.tag = None  # copied into each span; the runner sets the pass index
        self._stack = []
        self._patches = []

    def _wrap(self, owner, attr, name, after=None, memory=False, when=None):
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled or (when is not None and not when(args)):
                return original(*args, **kwargs)
            span = {"id": len(tracer.spans),
                    "parent": tracer._stack[-1] if tracer._stack else None,
                    "name": name, "tag": tracer.tag}
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            if memory:
                tracemalloc.start()
                base = tracemalloc.get_traced_memory()[0]
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
                if memory:
                    span["peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 1e6
                    tracemalloc.stop()
            if after is not None:
                tracer.enabled = False
                try:
                    after(span, args, result)
                finally:
                    tracer.enabled = True
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self):
        w = self._wrap
        w(numcore.Adam, "step", "numcore.adam_step")
        for mod in (recurrent, nprophet):
            w(mod, "clip_grad_norm", "numcore.clip", after=_note_clipped)
            w(mod, "huber_loss", "numcore.huber")
            w(mod, "huber_grad", "numcore.huber")
        w(recurrent.RecurrentModel, "loss_and_grads", "recurrent.fwd_bwd",
          after=_note_fwd_bwd)
        for mod in (experiment, hybrid):
            w(mod, "predict_batch", "recurrent.predict", after=_note_rnn_predict,
              memory=True)
            w(mod, "np_predict_batch", "nprophet.predict",
              after=lambda s, a, r: s.update(windows=len(a[2])))
        w(nprophet.NpModel, "forward", "nprophet.forward")
        w(nprophet.NpModel, "grads", "nprophet.grads")
        w(experiment, "build_hybrid", "hybrid.build", after=_note_stage2_gain)
        w(hybrid, "train_recurrent", "hybrid.stage1")
        w(hybrid, "np_train", "hybrid.stage2")
        w(datapipe, "prepare_dataset", "datapipe.prepare", after=_note_windows)
        w(datapipe, "load_csi", "datapipe.load_csi",
          after=lambda s, a, r: s.update(rows=r.length * r.antenna_count))
        w(cli, "save_csi", "datapipe.save_csi")
        w(synthchan, "generate_fading", "synthchan.generate",
          after=lambda s, a, r: s.update(samples=r.length * r.antenna_count))
        w(experiment, "nmse", "evalx.metrics")
        w(experiment, "cosine_similarity", "evalx.metrics")
        w(cli, "write_reports", "evalx.write_reports")
        w(evalx, "write_reports", "evalx.write_reports")
        w(experiment, "train_feature", "experiment.train_feature")
        w(experiment, "evaluate_checkpoint", "experiment.evaluate")
        w(experiment, "predictions_table", "experiment.predictions_table",
          after=lambda s, a, r: s.update(rows=len(r)))
        # The CLI's checkpoint I/O has no public name; these two private
        # helpers are where `train`, `evaluate` and `predict` do it.
        w(cli, "_write_json", "cli.ckpt_write",
          when=lambda a: Path(a[0]).name == "checkpoint.json",
          after=lambda s, a, r: s.update(bytes=os.path.getsize(a[0])))
        w(cli, "_load_checkpoint", "cli.ckpt_read")
        for command in ("gen_data", "train", "evaluate", "predict"):
            w(cli, f"cmd_{command}", f"cli.{command}")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _note_clipped(span, args, result):
    span["clipped"] = result is not args[0]


def _note_fwd_bwd(span, args, result):
    model, X = args[0], args[1]
    span["arch"] = model.arch
    span["gflop"] = gemm_gflop_per_batch(
        model.arch, model.hidden_size, model.layers, model.d, model.D, len(X),
        model.bilstm_combine)
    span["full_gflop"] = gemm_gflop_per_batch(
        model.arch, model.hidden_size, model.layers, model.d, model.D,
        model.config.batch_size, model.bilstm_combine)


def _note_rnn_predict(span, args, result):
    span["arch"] = args[0].arch
    span["windows"] = len(args[1])


def _note_windows(span, args, result):
    prepared, _ = result
    span["windows"] = sum(len(ws) for pf in prepared for ws in pf.windows.values())


def _note_stage2_gain(span, args, result):
    """Validation NMSE of stage 1 alone and of the hybrid, normalized domain."""
    splits = args[0]
    model, _, _, regressors = result
    val = splits["val"]
    stage2 = hybrid.hybrid_predict_batch(model, val.t, val.X)
    span["val_nmse_stage1"] = evalx.nmse(regressors["val"], val.Y)
    span["val_nmse_hybrid"] = evalx.nmse(stage2, val.Y)


def self_times(spans):
    """Per span name: (calls, total seconds, self seconds).

    Self time is a span's duration minus the time its child spans cover.
    """
    covered = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
    table = {}
    for s in spans:
        dur = s["end"] - s["start"]
        calls, total, own = table.get(s["name"], (0, 0.0, 0.0))
        table[s["name"]] = (calls + 1, total + dur, own + dur - covered.get(s["id"], 0.0))
    return table


def layer_metrics(spans):
    """Per-layer metrics of BENCHMARK.json from the spans of traced passes."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    out = {}

    def durations(name, scale=1.0):
        return [(s["end"] - s["start"]) * scale for s in by_name.get(name, ())]

    def timing(metric, values, unit):
        out[metric + ".p50"] = (statistics.median(values) if values else 0.0, unit)
        out[metric + ".p90"] = (_percentile(values, 0.9), unit)

    def count(metric, value):
        out[metric] = (value, "count")

    def rate(total, seconds):
        return total / seconds if seconds > 0 else 0.0

    timing("numcore.adam_step_ms", durations("numcore.adam_step", 1e3), "ms")
    timing("numcore.clip_ms", durations("numcore.clip", 1e3), "ms")
    timing("numcore.huber_ms", durations("numcore.huber", 1e3), "ms")
    count("numcore.adam_steps", len(by_name.get("numcore.adam_step", ())))
    clips = by_name.get("numcore.clip", ())
    out["numcore.clipped_frac"] = (
        sum(s["clipped"] for s in clips) / len(clips) if clips else 0.0, "ratio")

    fwd_bwd = by_name.get("recurrent.fwd_bwd", ())
    predicts = by_name.get("recurrent.predict", ())
    count("recurrent.batches", len(fwd_bwd))
    for arch in ARCHS:
        mine = [s for s in fwd_bwd if s["arch"] == arch]
        timing(f"recurrent.fwd_bwd_ms.{arch}",
               [(s["end"] - s["start"]) * 1e3 for s in mine], "ms")
        out[f"recurrent.gemm_gflop_per_batch.{arch}"] = (
            max((s["full_gflop"] for s in mine), default=0.0), "GFLOP")
        out[f"recurrent.achieved_gflops.{arch}"] = (
            rate(sum(s["gflop"] for s in mine),
                 sum(s["end"] - s["start"] for s in mine)), "GFLOP/s")
        mine = [s for s in predicts if s["arch"] == arch]
        windows = sum(s["windows"] for s in mine)
        out[f"recurrent.predict_ms_per_kwin.{arch}"] = (
            rate(sum(s["end"] - s["start"] for s in mine) * 1e6, windows), "ms/kwin")
        out[f"recurrent.predict_peak_mb_per_window.{arch}"] = (
            max((s["peak_mb"] / s["windows"] for s in mine if s["windows"]),
                default=0.0), "MB/window")

    timing("nprophet.forward_ms", durations("nprophet.forward", 1e3), "ms")
    timing("nprophet.grads_ms", durations("nprophet.grads", 1e3), "ms")
    np_predicts = by_name.get("nprophet.predict", ())
    out["nprophet.predict_ms_per_kwin"] = (
        rate(sum(s["end"] - s["start"] for s in np_predicts) * 1e6,
             sum(s["windows"] for s in np_predicts)), "ms/kwin")
    count("nprophet.batches", len(by_name.get("nprophet.grads", ())))

    builds = {s["id"]: s for s in by_name.get("hybrid.build", ())}
    timing("hybrid.stage1_s", durations("hybrid.stage1"), "s")
    regressor = {}
    for s in predicts:
        if s["parent"] in builds:
            regressor.setdefault(s["parent"], []).append(s)
    timing("hybrid.regressor_s",
           [sum(s["end"] - s["start"] for s in group) for group in regressor.values()],
           "s")
    out["hybrid.regressor_peak_mb"] = (
        max((s["peak_mb"] for group in regressor.values() for s in group),
            default=0.0), "MB")
    timing("hybrid.stage2_s", durations("hybrid.stage2"), "s")
    stage1 = sum(s["val_nmse_stage1"] for s in builds.values())
    both = sum(s["val_nmse_hybrid"] for s in builds.values())
    out["hybrid.stage2_gain"] = (stage1 / both if both > 0 else 0.0, "ratio")

    prepares = by_name.get("datapipe.prepare", ())
    timing("datapipe.prepare_s", durations("datapipe.prepare"), "s")
    count("datapipe.prepare_calls", len(prepares))
    loads = by_name.get("datapipe.load_csi", ())
    timing("datapipe.load_csi_s", durations("datapipe.load_csi"), "s")
    out["datapipe.load_csi_rows_per_s"] = (
        rate(sum(s["rows"] for s in loads),
             sum(s["end"] - s["start"] for s in loads)), "rows/s")
    timing("datapipe.save_csi_s", durations("datapipe.save_csi"), "s")
    count("datapipe.windows", sum(s["windows"] for s in prepares))

    generated = by_name.get("synthchan.generate", ())
    timing("synthchan.generate_s", durations("synthchan.generate"), "s")
    out["synthchan.samples_per_s"] = (
        rate(sum(s["samples"] for s in generated),
             sum(s["end"] - s["start"] for s in generated)), "samples/s")

    timing("evalx.metrics_ms", durations("evalx.metrics", 1e3), "ms")
    timing("evalx.write_reports_ms", durations("evalx.write_reports", 1e3), "ms")

    timing("experiment.train_feature_s", durations("experiment.train_feature"), "s")
    count("experiment.features", len(by_name.get("experiment.train_feature", ())))
    timing("experiment.evaluate_s", durations("experiment.evaluate"), "s")
    timing("experiment.predictions_table_s",
           durations("experiment.predictions_table"), "s")
    count("experiment.predict_rows",
          sum(s["rows"] for s in by_name.get("experiment.predictions_table", ())))

    writes = by_name.get("cli.ckpt_write", ())
    count("cli.ckpt_bytes", sum(s["bytes"] for s in writes))
    timing("cli.ckpt_write_s", durations("cli.ckpt_write"), "s")
    timing("cli.ckpt_read_s", durations("cli.ckpt_read"), "s")
    for command in ("gen_data", "train", "evaluate", "predict"):
        timing(f"cli.{command}_s", durations(f"cli.{command}"), "s")
    return out
