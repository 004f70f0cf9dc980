"""Every span the benchmark's tracer registers must still be recorded.

`perfbench/tracing.py` patches csipred names where their callers look them up,
for example `experiment.predict_batch`, which `experiment.predict_windows`
calls. A change that calls the function under another name leaves the wrapper
installed but never run, and its per-layer metrics read 0. This runs
`gen-data`, then `train`, `evaluate` and `predict` for every model family
through `cli.main` at a toy size with the tracer on. It checks that each span
name the tracer registers recorded at least one span, and that `evaluate` and
`predict` record the predict spans of the family's own model.
"""
from csipred.cli import main

from test_cli import write_config
from test_tracer_hooks import load_tracing

# `numcore.fit` calls `numcore.clip_grad_norm`, but the tracer patches that
# name in `recurrent` and `nprophet`, where nothing calls it (a FOUND item in
# CHANGES.md). The fix is to the benchmark, so it is exempt here.
UNREACHED = {"numcore.clip"}
PREDICT_SPANS = {"rnn": {"recurrent.predict"}, "lstm": {"recurrent.predict"},
                 "bilstm": {"recurrent.predict"}, "np": {"nprophet.predict"},
                 "hybrid": {"recurrent.predict", "nprophet.predict"}}


def test_every_registered_span_is_recorded(tmp_path):
    tracer = load_tracing().Tracer()
    names = set()
    wrap = tracer._wrap

    def register(owner, attr, name, **kwargs):
        names.add(name)
        wrap(owner, attr, name, **kwargs)

    def recorded(*argv):
        """The span names that one successful command records."""
        first = len(tracer.spans)
        assert main([str(a) for a in argv]) == 0
        return {s["name"] for s in tracer.spans[first:]}

    tracer._wrap = register
    tracer.install()
    tracer.enabled = True
    try:
        data = tmp_path / "chan.csv"
        recorded("gen-data", "--config", write_config(tmp_path), "--out", data)
        for kind, spans in PREDICT_SPANS.items():
            cfg = write_config(tmp_path, {"model": kind, "dataset": data},
                               name=f"{kind}.cfg")
            run = tmp_path / kind
            recorded("train", "--config", cfg, "--out", run)
            for command, out in (("evaluate", "metrics"), ("predict", "pred.csv")):
                assert spans <= recorded(command, "--checkpoint",
                                         run / "checkpoint.json", "--out", run / out)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    assert len(names) > len(UNREACHED)
    assert names - UNREACHED - {s["name"] for s in tracer.spans} == set()
