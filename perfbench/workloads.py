"""The benchmark's workloads and the correctness gate around every call.

Every workload trains, evaluates and predicts with all five model families, so
that every end-to-end metric exists on every workload; the workloads differ in
shape, scale and entry point:

- paper-shape: the paper's recurrent shape (H=200, L=3, dropout 0.2, B=32,
  d=48, D=24) on a budget of 64 training and 31 test windows per feature
  stream, 1 epoch, in-process. The recurrent GEMMs are BLAS-bound here. The
  budget keeps inference memory small: prediction holds the whole BPTT cache.
- mimo-cli: 16 antennas (32 feature streams), 4k samples, H=16, L=1, through
  `csipred.cli.main` in the order a user types it: gen-data to CSV, then
  train, evaluate and predict per family. CSV parsing, `prepare_dataset`
  per command, checkpoint JSON and per-feature orchestration dominate.

A pass runs one case: the reference case (data seed 0, model seed 0) or the
seeded case, whose data and model seeds come from the benchmark seed. Passes alternate between the two, so a run that repeats
a case checks that the repeat gives the same checkpoint digests.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from csipred import cli, evalx, experiment
from csipred.config import format_config, resolve_config

FAMILIES = ("rnn", "lstm", "bilstm", "np", "hybrid")
# A step (one train, evaluate or predict) that takes less than MIN_STEP_S is
# repeated, up to MAX_REPEATS calls, and timed by the median call: a single
# call of a few milliseconds says little on a shared machine.
MIN_STEP_S = 0.3
MAX_REPEATS = 20

# The speed of a shared host drifts: a fixed pure-Python loop took 12.7 to
# 18.3 ms (10 s medians) within 90 s, and numpy GEMMs moved with it to within
# 3%. So every step is bracketed by a fixed kernel that calls no csipred code,
# and its time is scaled by REFERENCE_S over the kernel's time around it: the
# reported times are those of a host that runs the kernel in REFERENCE_S.
REFERENCE_S = 0.0045
_KERNEL_A = np.random.default_rng(0).uniform(-1.0, 1.0, (32, 64))
_KERNEL_B = np.random.default_rng(1).uniform(-0.2, 0.2, (64, 64))


def _kernel():
    total = 0
    for i in range(40000):
        total += i * i
    x = _KERNEL_A
    for _ in range(80):
        x = np.tanh(x @ _KERNEL_B)
    return total, x


def kernel_seconds():
    """Median of five runs of the fixed reference kernel."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclass(frozen=True)
class Workload:
    via_cli: bool
    overrides: dict

# 2680 samples split 0.6/0.1/0.3 give 64 train, 9 val and 31 test windows.
PAPER = {"epochs": "1", "sample_count": "2680", "train_frac": "0.6",
         "val_frac": "0.1", "test_frac": "0.3", "window_stride": "24"}
MIMO = {"epochs": "1", "antenna_count": "16", "sample_count": "4000",
        "window_stride": "32", "rnn_hidden": "16", "rnn_layers": "1",
        "dropout": "0.0"}
TOY = {"epochs": "1", "sample_count": "400", "d": "6", "D": "3",
       "window_stride": "3", "rnn_hidden": "6", "rnn_layers": "1",
       "dropout": "0.0", "np_hidden": "6", "np_layers": "1",
       "n_changepoints": "4"}

WORKLOADS = {
    "paper-shape": Workload(False, PAPER),
    "mimo-cli": Workload(True, MIMO),
}
# Toy-size variants for the benchmark's own smoke test.
TOY_WORKLOADS = {
    "paper-shape": Workload(False, {**TOY, "rnn_layers": "2", "dropout": "0.2"}),
    "mimo-cli": Workload(True, {**TOY, "antenna_count": "3"}),
}


def window_count(cfg, split):
    """Windows per feature stream in one split, as `prepare_dataset` cuts them."""
    n = cfg["sample_count"]
    n_val = int(n * cfg["val_frac"])
    n_test = int(n * cfg["test_frac"])
    seg = {"train": n - n_val - n_test, "val": n_val, "test": n_test}[split]
    return len(range(cfg["d"], seg - cfg["D"], cfg["window_stride"]))


def _digest(obj, h=None):
    """sha256 over a checkpoint dict, canonical in key order and float bits."""
    h = h or hashlib.sha256()
    if isinstance(obj, dict):
        for key in sorted(obj):
            h.update(key.encode())
            _digest(obj[key], h)
    elif isinstance(obj, list) and obj and isinstance(obj[0], (list, float)):
        h.update(np.asarray(obj, dtype=float).tobytes())
    else:
        h.update(json.dumps(obj).encode())
    return h


def _recomputed_nmse(rows):
    """Window-weighted NMSE over antennas from (feature, t, h, pred, truth) rows."""
    per = {}
    for feat, t, h, pred, truth in rows:
        per.setdefault(feat, {})[(int(t), int(h))] = (float(pred), float(truth))
    total, windows = 0.0, 0
    for ant in sorted({f.rsplit("_", 1)[0] for f in per}):
        re, im = per[f"{ant}_re"], per[f"{ant}_im"]
        keys = sorted(re)
        origins = sorted({t for t, _ in keys})
        shape = (len(origins), len(keys) // len(origins))
        pred = np.array([re[k][0] + 1j * im[k][0] for k in keys]).reshape(shape)
        truth = np.array([re[k][1] + 1j * im[k][1] for k in keys]).reshape(shape)
        err = np.sum(np.abs(pred - truth) ** 2, axis=1)
        power = np.sum(np.abs(truth) ** 2, axis=1)
        total += float(np.mean(err / power)) * shape[0]
        windows += shape[0]
    return total / windows


class Session:
    """One workload at one benchmark seed: inputs, passes and the gate.

    Every train, evaluate and predict call (and gen-data on mimo-cli) is one
    attempt; an exception or a nonzero exit code is a failure and skips the
    rest of that family in that pass. `violations` lists failed checks.
    """

    def __init__(self, workload: Workload, seed: int, workdir: Path, tamper=False,
                 min_step_s=MIN_STEP_S):
        self.workload = workload
        self.workdir = workdir
        self.tamper = tamper
        self.min_step_s = min_step_s
        self.cases = (("reference", 0), ("seeded", seed + 1))
        self.attempted = 0
        self.failed = 0
        self.violations = []
        self.digests = {}
        self.test_nmse = {}
        self.series = {}
        self.raw_wall_s = 0.0

    def config(self, family, case, **extra):
        _, seed = case
        return resolve_config(self.workload.overrides,
                              {"model": family, "seed": seed, "data_seed": seed,
                               **extra})

    def counts(self):
        """Exact-repeat counts of one pass, derived from the configs."""
        cfg = self.config("rnn", self.cases[0])
        features = 2 * cfg["antenna_count"]
        train = window_count(cfg, "train")
        return {
            "features": features,
            "train_windows_per_feature": train,
            "test_windows_per_feature": window_count(cfg, "test"),
            "batches_per_feature": cfg["epochs"] * math.ceil(train / cfg["batch_size"]),
            "prepare_calls": 3 * len(FAMILIES),
            "predict_rows": features * window_count(cfg, "test") * cfg["D"]
                            * len(FAMILIES),
        }

    # -- set-up ------------------------------------------------------------

    def generate_inputs(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        for case in self.cases:
            label = case[0]
            if not self.workload.via_cli:
                self.series[label] = experiment.get_series(self.config("rnn", case))
                continue
            csv_path = self.workdir / f"{label}.csv"
            gen = {k: v for k, v in self.workload.overrides.items()
                   if k in ("antenna_count", "sample_count")}
            (self.workdir / f"{label}-gen.cfg").write_text(
                "".join(f"{k}={v}\n" for k, v in gen.items()))
            for family in FAMILIES:
                cfg = self.config(family, case, dataset=str(csv_path))
                (self.workdir / f"{label}-{family}.cfg").write_text(format_config(cfg))

    def warm_up(self):
        """One tiny train+predict per family at the workload's shape.

        Ten times the shortest split `prepare_dataset` accepts leaves every
        split at least one window; the stride keeps the batches small.
        """
        for family in FAMILIES:
            cfg = self.config(family, self.cases[0])
            span = cfg["d"] + cfg["D"]
            cfg = self.config(family, self.cases[0], antenna_count=1,
                              sample_count=10 * (span + 4), window_stride=span)
            checkpoint, _ = experiment.train_experiment(cfg)
            experiment.predictions_table(checkpoint)

    # -- one pass ----------------------------------------------------------

    def _attempt(self, fn, *args, **kwargs):
        """Run one call; returns (result, seconds) or (None, None) on failure."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - a failed call is counted, not fatal
            self.failed += 1
            self.violations.append(f"{fn.__name__}: {type(exc).__name__}: {exc}")
            return None, None
        return result, time.perf_counter() - start

    def _step(self, fn, *args, after=None, **kwargs):
        """Time one step; returns (result, scaled seconds) or (None, None).

        The median call time is scaled to the reference host (REFERENCE_S)
        by the kernel timed just before and just after the step; the
        unscaled time is added to `raw_wall_s`.
        """
        kernel = kernel_seconds()
        times = []
        while not times or (sum(times) < self.min_step_s and len(times) < MAX_REPEATS):
            result, seconds = self._attempt(fn, *args, **kwargs)
            if result is None:
                return None, None
            if after is not None:
                after(result)
            times.append(seconds)
        kernel = (kernel + kernel_seconds()) / 2
        self.raw_wall_s += statistics.median(times)
        return result, statistics.median(times) * REFERENCE_S / kernel

    @staticmethod
    def _csipred(*argv):
        """One `csipred` command in-process; a nonzero exit code raises."""
        rc = cli.main([str(a) for a in argv])
        if rc != 0:
            raise RuntimeError(f"csipred {argv[0]} exited {rc}")
        return rc

    def _check_digest(self, key, digest):
        previous = self.digests.setdefault(key, digest)
        if previous != digest:
            self.violations.append(f"{key}: checkpoint digest changed on repeat")

    def _check_nmse(self, key, family, value, recomputed):
        if not math.isfinite(value):
            self.violations.append(f"{key}: test NMSE is not finite")
        if recomputed is not None and not math.isclose(value, recomputed, rel_tol=1e-9):
            self.violations.append(
                f"{key}: NMSE from predict rows {recomputed!r} != evaluate {value!r}")
        if key[0] == "reference":
            self.test_nmse[family] = value

    def run_pass(self, index):
        """One pass over all families; returns its scaled timings.

        `train_s` maps a family to its training step, `eval` lists (windows,
        seconds) for every evaluate and predict, and `wall_s` sums all steps.
        """
        case = self.cases[index % len(self.cases)]
        record = {"case": case[0], "train_s": {}, "eval": [], "wall_s": 0.0}
        self.raw_wall_s = 0.0
        if self.workload.via_cli:
            self._cli_pass(case, record)
        else:
            self._api_pass(case, record)
        record["raw_wall_s"] = self.raw_wall_s
        return record

    def _api_pass(self, case, record):
        label = case[0]
        series = self.series[label]
        for family in FAMILIES:
            key = (label, family)
            cfg = self.config(family, case)
            out, seconds = self._step(
                experiment.train_experiment, cfg, series=series,
                after=lambda out: self._check_digest(key, _digest(out[0]).hexdigest()))
            if out is None:
                self._skip(2)
                continue
            checkpoint = out[0]
            record["train_s"][family] = seconds
            record["wall_s"] += seconds
            if self.tamper:
                checkpoint["dataset_digest"] = "0" * 64
            eval_windows = window_count(cfg, "test") * 2 * cfg["antenna_count"]
            reports, seconds = self._step(self._evaluate, checkpoint, series,
                                          self.workdir / f"{label}-{family}")
            if reports is not None:
                record["eval"].append((eval_windows, seconds))
                record["wall_s"] += seconds
            rows, seconds = self._step(experiment.predictions_table, checkpoint,
                                       split="test", series=series)
            if rows is not None:
                record["eval"].append((eval_windows, seconds))
                record["wall_s"] += seconds
            if reports is not None:
                overall = next(r for r in reports if r.antenna == "all")
                self._check_nmse(key, family, overall.nmse,
                                 _recomputed_nmse(rows) if rows else None)

    @staticmethod
    def _evaluate(checkpoint, series, report_dir):
        """What `csipred evaluate` does after loading: metrics, then reports."""
        reports = experiment.evaluate_checkpoint(checkpoint, split="test", series=series)
        report_dir.mkdir(exist_ok=True)
        evalx.write_reports(reports, report_dir / "metrics.csv",
                            report_dir / "metrics.json")
        return reports

    def _cli_pass(self, case, record):
        label = case[0]
        csv_path = self.workdir / f"{label}.csv"
        rc, seconds = self._step(self._csipred, "gen-data", "--config",
                                 self.workdir / f"{label}-gen.cfg", "--seed", case[1],
                                 "--out", csv_path)
        if rc is None:
            self._skip(3 * len(FAMILIES))
            return
        record["wall_s"] += seconds
        for family in FAMILIES:
            key = (label, family)
            cfg = self.config(family, case)
            run_dir = self.workdir / f"{label}-{family}"
            checkpoint = run_dir / "checkpoint.json"
            rc, seconds = self._step(
                self._csipred, "train", "--config", self.workdir / f"{label}-{family}.cfg",
                "--out", run_dir,
                after=lambda rc: self._check_digest(
                    key, hashlib.sha256(checkpoint.read_bytes()).hexdigest()))
            if rc is None:
                self._skip(2)
                continue
            record["train_s"][family] = seconds
            record["wall_s"] += seconds
            if self.tamper:
                payload = json.loads(checkpoint.read_text())
                payload["dataset_digest"] = "0" * 64
                checkpoint.write_text(json.dumps(payload))
            eval_windows = window_count(cfg, "test") * 2 * cfg["antenna_count"]
            rc, seconds = self._step(self._csipred, "evaluate", "--checkpoint",
                                     checkpoint, "--out", run_dir / "eval")
            evaluated = rc is not None
            if evaluated:
                record["eval"].append((eval_windows, seconds))
                record["wall_s"] += seconds
            rc, seconds = self._step(self._csipred, "predict", "--checkpoint",
                                     checkpoint, "--out", run_dir / "pred.csv")
            rows = None
            if rc is not None:
                record["eval"].append((eval_windows, seconds))
                record["wall_s"] += seconds
                with open(run_dir / "pred.csv", newline="") as fh:
                    rows = list(csv.reader(fh))[1:]
            if evaluated:
                reports = json.loads((run_dir / "eval" / "metrics.json").read_text())
                overall = next(r for r in reports if r["antenna"] == "all")
                self._check_nmse(key, family, overall["nmse"],
                                 _recomputed_nmse(rows) if rows else None)

    def _skip(self, calls):
        """Calls that could not run because an earlier step failed."""
        self.attempted += calls
        self.failed += calls
