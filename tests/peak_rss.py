"""Peak RSS of `csipred train` and `csipred evaluate`, per model family.

Runs `train`, then `evaluate` of its checkpoint on the test split, for each
family at the paper-shape benchmark's overrides (`PAPER` in
perfbench/workloads.py: H=200, L=3, two streams of 64 training windows),
each command in a fresh Python process with one OpenBLAS thread. Prints, in
MB (`ru_maxrss` / 1024), the peak of that process and of its forked workers
(`RUSAGE_CHILDREN`, the largest of them); for `train` also the process's
peak just before it writes `checkpoint.json`. pytest does not collect it:
its name does not start with `test_`.

    PYTHONPATH=src python tests/peak_rss.py [--models bilstm,lstm]

The commands run the csipred that this script imports, so another
PYTHONPATH measures another copy of the code.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import csipred  # noqa: E402
from workloads import PAPER  # noqa: E402

MODELS = ("rnn", "lstm", "bilstm", "np", "hybrid")
# Run in the fresh process: the command, with `_write_json` wrapped to read
# the process's peak before the checkpoint is written.
CHILD = """
import json, resource, sys
from csipred import cli

def peak(who="SELF"):
    return resource.getrusage(getattr(resource, "RUSAGE_" + who)).ru_maxrss / 1024.0

before = []
write = cli._write_json

def traced(path, payload):
    if path.name == "checkpoint.json":
        before.append(peak())
    return write(path, payload)

cli._write_json = traced
rc = cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "self": peak(), "children": peak("CHILDREN"),
                  "before_write": before[0] if before else None}))
"""


def run(argv, cwd):
    # the csipred that this interpreter imports, whatever the working directory
    src = str(Path(csipred.__file__).resolve().parent.parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [
               src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, check=True)
    out = json.loads(done.stdout.splitlines()[-1])
    if out["rc"] != 0:
        raise SystemExit(f"{argv[0]} exited {out['rc']}: {done.stderr}")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--models", default=",".join(MODELS))
    args = parser.parse_args(argv)
    print("model    command   self_mb  children_mb  before_write_mb")
    with tempfile.TemporaryDirectory() as tmp:
        for model in args.models.split(","):
            cfg = Path(tmp) / f"{model}.cfg"
            cfg.write_text("".join(f"{k}={v}\n" for k, v in
                                   {**PAPER, "model": model}.items()),
                           encoding="utf-8")
            out = Path(tmp) / model
            for command, argv in (
                    ("train", ["train", "--config", str(cfg), "--out", str(out)]),
                    ("evaluate", ["evaluate", "--checkpoint",
                                  str(out / "checkpoint.json"),
                                  "--out", str(out / "eval")])):
                r = run(argv, tmp)
                before = ("" if r["before_write"] is None
                          else f"{r['before_write']:15.1f}")
                print(f"{model:8s} {command:8s} {r['self']:8.1f} "
                      f"{r['children']:12.1f}  {before}", flush=True)


if __name__ == "__main__":
    main()
