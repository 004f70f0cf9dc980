"""Benchmark of csipred: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-shape --seed 1 --seconds 35 --trace 0

Each run is one process that runs one workload as a closed loop with one
client: passes run back to back until `--seconds` have passed, and at least
two. OpenBLAS runs on one thread (see BLAS_THREADS). `workloads.py`
describes the workloads, the timing of each step and the correctness gate.
Every time below is scaled to a reference host speed, measured by a fixed
kernel just before and after each step (see `workloads.REFERENCE_S`); the
info line keeps the unscaled wall time of each pass. The
last line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the line before it records the machine, the seed,
exact-repeat counts and checkpoint digests.

With `--trace 0` the metrics are the end-to-end ones:

- setup_s: median of three fresh set-ups, each a new interpreter that imports
  csipred, generates the inputs and warms up with a tiny train+predict per
  family at the workload's shape.
- wall_s: median over passes of the time spent inside csipred calls.
- train_windows_per_s.<family>: training windows x epochs x feature streams
  over the wall time of `train_experiment` or `csipred train`; median.
- eval_windows_per_s: test windows x feature streams over the wall time of
  evaluate and predict calls; median over passes.
- test_nmse.<family>: the "all" row of the test split on the reference case,
  which does not depend on the seed, so that it moves only when the
  program's numerics do.
- peak_rss_mb: ru_maxrss of the run's process.

With `--trace 1` passes alternate untraced and traced on the same case, and
the metrics are per layer (see `tracing.py`). Counts come from the first
traced pass, which always runs the reference case, so they repeat exactly.
trace.overhead_s is the traced minus the untraced median of wall_s.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".perfbench-work")  # relative to ROOT, so checkpoints name no absolute path
SETUP_SAMPLES = 3
MIN_PASSES = 2
# One OpenBLAS thread. On a 2-vCPU machine the default of two made one
# repeated 0.35 s small-model training call spread 17-25% (IQR over median)
# against 5% with one thread; paper-shape training was about 25% faster with
# two, but its runs spread more than the bounds allow.
BLAS_THREADS = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True,
                   choices=("paper-shape", "mimo-cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="toy-size inputs, for the benchmark's smoke test")
    p.add_argument("--tamper", action="store_true",
                   help="corrupt every checkpoint after training; the gate must fail")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def machine_info(seed):
    import numpy as np

    def first(path, prefix):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
        return "unknown"

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": first("/proc/cpuinfo", "model name"),
        "mem_total": first("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Thread count of the loaded OpenBLAS, asked through its own C API."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return "unknown"


def measure_setup(args, workloads):
    """Wall time of one fresh set-up in a child interpreter, scaled like a step."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
            args.workload, "--seed", str(args.seed), "--seconds", "0",
            "--setup-only"] + (["--toy"] if args.toy else [])
    kernel = workloads.kernel_seconds()
    start = time.perf_counter()
    subprocess.run(argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=120)
    seconds = time.perf_counter() - start
    kernel = (kernel + workloads.kernel_seconds()) / 2
    return seconds * workloads.REFERENCE_S / kernel


def end_to_end(session, passes, setups, workloads):
    counts = session.counts()
    cfg = session.config("rnn", session.cases[0])
    trained = counts["train_windows_per_feature"] * cfg["epochs"] * counts["features"]
    metrics = {"setup_s": (statistics.median(setups), "s"),
               "wall_s": (statistics.median(p["wall_s"] for p in passes), "s")}
    for family in workloads.FAMILIES:
        rates = [trained / p["train_s"][family] for p in passes
                 if family in p["train_s"]]
        metrics[f"train_windows_per_s.{family}"] = (
            statistics.median(rates) if rates else 0.0, "windows/s")
    rates = [sum(w for w, _ in p["eval"]) / sum(s for _, s in p["eval"])
             for p in passes if p["eval"]]
    metrics["eval_windows_per_s"] = (
        statistics.median(rates) if rates else 0.0, "windows/s")
    for family in workloads.FAMILIES:
        metrics[f"test_nmse.{family}"] = (session.test_nmse.get(family, 0.0), "nmse")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def per_layer(tracer, tracing, passes):
    spans = tracer.spans
    metrics = tracing.layer_metrics(spans)
    first = tracing.layer_metrics(
        [s for s in spans if s["tag"] in ("setup", 1)])
    metrics.update({k: v for k, v in first.items() if v[1] == "count"})
    base = statistics.median(p["wall_s"] for p in passes[0::2])
    overhead = statistics.median(p["wall_s"] for p in passes[1::2]) - base
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / base if base > 0 else 0.0, "ratio")
    return metrics


def run(args, workdir):
    import tracing
    import workloads

    table = workloads.TOY_WORKLOADS if args.toy else workloads.WORKLOADS
    # Traced runs call each step once, so that span counts repeat exactly.
    session = workloads.Session(table[args.workload], args.seed, workdir,
                                tamper=args.tamper,
                                min_step_s=0.0 if args.trace else workloads.MIN_STEP_S)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.tag = "setup"
        tracer.enabled = True
    session.generate_inputs()
    if tracer:
        tracer.enabled = False
    session.warm_up()
    if args.setup_only:
        return 0
    setups = [] if args.trace else [measure_setup(args, workloads)
                                    for _ in range(SETUP_SAMPLES)]
    passes = []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < args.seconds:
        index = len(passes)
        if tracer:
            tracer.tag = index
            tracer.enabled = index % 2 == 1
            passes.append(session.run_pass(index // 2))
            tracer.enabled = False
        else:
            passes.append(session.run_pass(index))

    if tracer:
        tracer.uninstall()
        metrics = per_layer(tracer, tracing, passes)
        breakdown = {name: {"calls": c, "total_s": round(t, 6), "self_s": round(o, 6)}
                     for name, (c, t, o) in sorted(tracing.self_times(tracer.spans).items())}
    else:
        metrics = end_to_end(session, passes, setups, workloads)
        breakdown = None
    info = {"machine": machine_info(args.seed), "workload": args.workload,
            "passes": [{k: p[k] for k in ("case", "wall_s", "raw_wall_s", "train_s")}
                       for p in passes],
            "counts": session.counts(),
            "gemm_gflop_per_batch": _gflops(session, tracing),
            "checkpoint_sha256": {"/".join(k): v for k, v in sorted(session.digests.items())},
            "violations": session.violations}
    if breakdown is not None:
        info["spans"] = breakdown
    print(json.dumps(info, sort_keys=True))
    correct = session.failed == 0 and not session.violations
    print(json.dumps({
        "correct": correct, "attempted": session.attempted, "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def _gflops(session, tracing):
    out = {}
    for arch in tracing.ARCHS:
        cfg = session.config(arch, session.cases[0])
        out[arch] = tracing.gemm_gflop_per_batch(
            arch, cfg["rnn_hidden"], cfg["rnn_layers"], cfg["d"], cfg["D"],
            cfg["batch_size"], cfg["bilstm_combine"])
    return out


def main(argv=None):
    args = parse_args(argv)
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS  # before numpy loads
    if not (SRC / "csipred" / "__init__.py").is_file():
        print(f"perfbench: no csipred sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import csipred

    if Path(csipred.__file__).resolve().parent != (SRC / "csipred").resolve():
        print(f"perfbench: csipred imported from {csipred.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    # The CSV path is written into every mimo-cli checkpoint, so a run's work
    # directory is named by its seed alone: same seed, same checkpoint bytes.
    workdir = WORK / (f"{args.workload}-setup-{os.getpid()}" if args.setup_only
                      else f"{args.workload}-seed{args.seed}")
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
