"""Evaluation metrics over complex channel vectors, reports, and grid search."""
from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .datapipe import write_text
from .errors import ContractViolation, WorkerError


def assemble_complex(re_part, im_part):
    """Recombine per-feature real/imag predictions into complex vectors."""
    re_part = np.asarray(re_part, dtype=float)
    im_part = np.asarray(im_part, dtype=float)
    if re_part.shape != im_part.shape:
        raise ContractViolation("real/imag shapes differ")
    return re_part + 1j * im_part


def _as_windows(x):
    x = np.asarray(x, dtype=complex)
    return x[None, :] if x.ndim == 1 else x


def nmse(predicted, truth):
    """Mean over windows of ||pred - truth||^2 / ||truth||^2, excluding
    zero-norm truth windows."""
    pred = _as_windows(predicted)
    tru = _as_windows(truth)
    if pred.shape != tru.shape:
        raise ContractViolation(f"shape mismatch {pred.shape} vs {tru.shape}")
    err = np.sum(np.abs(pred - tru) ** 2, axis=1)
    pw = np.sum(np.abs(tru) ** 2, axis=1)
    ok = pw > 0
    if not ok.any():
        raise ContractViolation("all truth windows have zero norm")
    return float(np.mean(err[ok] / pw[ok]))


def cosine_similarity(predicted, truth):
    """Mean over windows of |pred^H truth| / (||pred|| ||truth||), in [0, 1],
    excluding pairs with a zero-norm vector."""
    pred = _as_windows(predicted)
    tru = _as_windows(truth)
    if pred.shape != tru.shape:
        raise ContractViolation(f"shape mismatch {pred.shape} vs {tru.shape}")
    inner = np.abs(np.sum(np.conj(pred) * tru, axis=1))
    np_norm = np.sqrt(np.sum(np.abs(pred) ** 2, axis=1))
    nt_norm = np.sqrt(np.sum(np.abs(tru) ** 2, axis=1))
    ok = (np_norm > 0) & (nt_norm > 0)
    if not ok.any():
        raise ContractViolation("all window pairs have a zero-norm vector")
    return float(np.mean(inner[ok] / (np_norm[ok] * nt_norm[ok])))


def to_db(linear):
    return 10.0 * math.log10(linear) if linear > 0 else -math.inf


@dataclass
class MetricReport:
    model_id: str
    track: str
    seed: int
    nmse: float
    cosine: float
    window_count: int
    config_digest: str = ""
    antenna: str = "all"

    @property
    def nmse_db(self) -> float:
        return to_db(self.nmse)

    # (report field, attribute), in the order of the CSV columns.
    _FIELDS = (("model", "model_id"), ("track", "track"), ("antenna", "antenna"),
               ("seed", "seed"), ("nmse", "nmse"), ("nmse_db", "nmse_db"),
               ("cosine_similarity", "cosine"), ("windows", "window_count"),
               ("config_digest", "config_digest"))
    CSV_HEADER = ",".join(name for name, _ in _FIELDS)

    def csv_row(self) -> str:
        """The report's fields as one CSV line, quoted where a field needs it."""
        line = io.StringIO()
        csv.writer(line, lineterminator="").writerow(self.to_json_dict().values())
        return line.getvalue()

    def to_json_dict(self):
        return {name: getattr(self, attr) for name, attr in self._FIELDS}


def aggregate_nmse(parts):
    """Window-count-weighted mean of any per-antenna metric, NMSE or cosine
    similarity alike; `parts` is [(value, window count)]."""
    total = sum(c for _, c in parts)
    if total == 0:
        raise ContractViolation("no windows to aggregate")
    return sum(v * c for v, c in parts) / total


def write_reports(reports, csv_path, json_path):
    write_text(csv_path, [MetricReport.CSV_HEADER + "\n"]
               + [r.csv_row() + "\n" for r in reports])
    write_text(json_path, [json.dumps([r.to_json_dict() for r in reports],
                                      indent=2, sort_keys=True) + "\n"])


# ---------------------------------------------------------------------------
# Grid search


def _config_key(config: dict) -> str:
    return json.dumps(config, sort_keys=True)


def grid_cells(grid: dict):
    """The cells of `grid`, one config dict per point of the Cartesian
    product of its axes, taken in sorted axis order."""
    if not grid or any(len(v) == 0 for v in grid.values()):
        raise ContractViolation("grid must have non-empty axes")
    axes = sorted(grid)
    return [dict(zip(axes, combo))
            for combo in itertools.product(*(grid[a] for a in axes))]


def grid_search(grid: dict, evaluate):
    """Exhaustive search over the Cartesian product of `grid` axes.

    `evaluate(config)` must return a dict with a "nmse" entry (validation
    NMSE) and may include "param_count". Cells that raise are recorded as
    failed and excluded from selection, except for a `WorkerError`: a
    training process that died stops the search. Ties break by fewer
    parameters, then lexicographic config order; the result is independent
    of axis order. Returns (best config, trial table sorted by config). If
    every cell fails, raises the first cell's own exception.
    """
    trials = []
    first_error = None
    for config in grid_cells(grid):
        trial = {"config": config}
        try:
            result = evaluate(dict(config))
            trial.update(status="ok", nmse=float(result["nmse"]),
                         param_count=int(result.get("param_count", 0)))
        except WorkerError:
            raise
        except Exception as exc:  # noqa: BLE001 - failures become table rows
            trial.update(status="failed", error=f"{type(exc).__name__}: {exc}")
            first_error = first_error or exc
        trials.append(trial)
    trials.sort(key=lambda tr: _config_key(tr["config"]))
    ok = [tr for tr in trials if tr["status"] == "ok"]
    if not ok:
        raise first_error
    best = min(ok, key=lambda tr: (tr["nmse"], tr["param_count"],
                                   _config_key(tr["config"])))
    return dict(best["config"]), trials


def write_trials(trials, path):
    """One CSV line per trial: the `repr` of each config value, through the
    `csv` writer of `MetricReport.csv_row` so that a CSV reader gets each
    repr back, then status, NMSE, parameter count and the error, always
    quoted."""
    axes = sorted({k for tr in trials for k in tr["config"]})
    lines = [",".join(axes + ["status", "nmse", "param_count", "error"]) + "\n"]
    for tr in trials:
        config = io.StringIO()
        csv.writer(config, lineterminator="").writerow(
            [repr(tr["config"].get(a, "")) for a in axes])
        row = [config.getvalue(), tr["status"], str(tr.get("nmse", "")),
               str(tr.get("param_count", "")),
               '"' + tr.get("error", "").replace('"', '""') + '"']
        lines.append(",".join(row) + "\n")
    write_text(path, lines)
