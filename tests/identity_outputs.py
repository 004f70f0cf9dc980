"""Byte-identity check of the `csipred` CLI across two versions of the code.

Runs a fixed list of commands in-process, in a new temporary directory, and
prints for each: its exit code, every line it wrote to stderr, and the sha256
of every file it wrote. Run it once against each version and compare the
two outputs:

    PYTHONPATH=/path/to/old/src python tests/identity_outputs.py --jobs 2 > old.txt
    PYTHONPATH=src python tests/identity_outputs.py --jobs 2 > new.txt
    diff old.txt new.txt

`--jobs N` trains and predicts in N processes, whatever the CPU count and
however small the prediction (`experiment.FORK_WORK` is lowered to 1). The
list: every model family at the benchmark's mimo-cli and paper-shape
overrides; every family on a test split of more than `PREDICT_WINDOWS`
windows per stream, and on five antennas of a few dozen windows each; the
hybrid with `hybrid_source=bilstm` at the mimo-cli overrides and on the five
antennas, whose stage 1 trains in stacks of two streams, a source that
neither benchmark workload runs; lstm and bilstm at two layers and no
dropout at the paper-shape overrides, where the layer above reads a lower
layer's states unmasked; `compare`; `tune` over a `dataset` axis;
and `evaluate` and `predict` of each malformed checkpoint body of
`test_cli.py`. It takes about ten seconds on two CPUs. pytest does not
collect it: its name does not start with `test_`.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from csipred import cli, experiment, workers  # noqa: E402
from perfbench.workloads import MIMO, PAPER  # noqa: E402
from test_cli import FAST, MALFORMED, MALFORMED_BY_KIND  # noqa: E402

FAMILIES = ("rnn", "lstm", "bilstm", "np", "hybrid")
TINY = {"epochs": "1", "d": "6", "D": "3", "rnn_hidden": "4", "rnn_layers": "1",
        "dropout": "0.0", "np_hidden": "4", "np_layers": "1",
        "n_changepoints": "3", "seasonalities": "2:0.02"}
# 3000 samples, stride 1: 291 test windows per stream.
LONG = {**TINY, "antenna_count": "2", "sample_count": "3000"}
# Ten streams of 31 test windows: stacks of several streams.
FIVE = {**TINY, "antenna_count": "5", "sample_count": "1000",
        "window_stride": "3"}
# Two layers without dropout: the top layer reads the lower one's states S
# unmasked, so they live until its backward pass, unlike under PAPER's
# three layers and dropout 0.2.
UNMASKED = {**PAPER, "rnn_layers": "2", "dropout": "0.0"}


def _write_config(name, values):
    Path(name).write_text("".join(f"{k}={v}\n" for k, v in values.items()),
                          encoding="utf-8")
    return name


def _files(out):
    """(relative path, sha256) of every file at or under `out`."""
    out = Path(out)
    paths = [out] if out.is_file() else sorted(p for p in out.rglob("*") if p.is_file())
    return [(str(p), hashlib.sha256(p.read_bytes()).hexdigest()) for p in paths]


def run(label, *argv):
    """One command: print its label, exit code, stderr and output files."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    print(f"== {label}: csipred {' '.join(map(str, argv))}")
    print(f"exit {code}")
    for line in err.getvalue().splitlines():
        print(f"stderr {line}")
    out = argv[argv.index("--out") + 1]
    if Path(out).exists():
        for path, digest in _files(out):
            print(f"file {path} {digest}")


def use(label, run_dir):
    """`evaluate` and `predict` of the checkpoint in `run_dir`."""
    checkpoint = f"{run_dir}/checkpoint.json"
    run(f"{label} evaluate", "evaluate", "--checkpoint", checkpoint,
        "--out", f"{label}-metrics")
    run(f"{label} predict", "predict", "--checkpoint", checkpoint,
        "--out", f"{label}-pred.csv")


def trained(name, values):
    """train under the config `values`, then `evaluate` and `predict`."""
    cfg = _write_config(f"{name}.cfg", values)
    run(f"{name} train", "train", "--config", cfg, "--out", name)
    use(name, name)


def families(label, overrides):
    """train, evaluate and predict of every family under `overrides`."""
    for family in FAMILIES:
        trained(f"{label}-{family}", {**overrides, "model": family})


def malformed():
    """`evaluate` and `predict` of each malformed body of `test_cli.py`."""
    valid = {}
    for kind in ("rnn", "np", "hybrid"):
        cfg = _write_config(f"fast-{kind}.cfg", {**FAST, "model": kind})
        run(f"fast-{kind} train", "train", "--config", cfg, "--out", f"fast-{kind}")
        valid[kind] = json.loads(Path(f"fast-{kind}/checkpoint.json").read_text())
    bodies = [(f"rnn-{name}", valid["rnn"], edit) for name, edit in MALFORMED.items()]
    bodies += [(f"{kind}-{name}", valid[kind], edit)
               for (kind, name), edit in MALFORMED_BY_KIND.items()]
    for label, checkpoint, edit in sorted(bodies, key=lambda b: b[0]):
        Path(label).mkdir()
        Path(label, "checkpoint.json").write_text(json.dumps(edit(checkpoint)),
                                                 encoding="utf-8")
        use(f"malformed-{label}", label)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1,
                        help="processes that train and predict")
    args = parser.parse_args(argv)
    workers.default_jobs = lambda: args.jobs
    experiment.FORK_WORK = 1
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        gen = _write_config("mimo-gen.cfg", {k: MIMO[k] for k in (
            "antenna_count", "sample_count")})
        run("mimo gen-data", "gen-data", "--config", gen, "--out", "mimo.csv")
        mimo = {**MIMO, "dataset": "mimo.csv"}
        families("mimo", mimo)
        families("paper", PAPER)
        families("long", LONG)
        families("five", FIVE)
        for label, overrides in (("mimo", mimo), ("five", FIVE)):
            trained(f"{label}-hybrid-bilstm", {**overrides, "model": "hybrid",
                                               "hybrid_source": "bilstm"})
        for family in ("lstm", "bilstm"):
            trained(f"unmasked-{family}", {**UNMASKED, "model": family})
        compare = _write_config("compare.cfg", {**FIVE, "compare_seeds": "0,1"})
        run("compare", "compare", "--config", compare, "--out", "compare")
        for name, seed in (("a'b.csv", 1), ("c.csv", 2)):
            run(f"gen-data {name}", "gen-data", "--seed", seed, "--out", name)
        Path("grid.cfg").write_text("dataset=a'b.csv,c.csv\nrnn_hidden=4,6\n",
                                    encoding="utf-8")
        tune = _write_config("tune.cfg", {**TINY, "window_stride": "8"})
        run("tune", "tune", "--config", tune, "--grid", "grid.cfg", "--out", "tune")
        malformed()
        os.chdir(ROOT)


if __name__ == "__main__":
    main()
