"""Smoke test of the benchmark itself, at toy size.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/smoke.py

It runs `perfbench/run.py` as a child process, with the arguments that
BENCHMARK.json's command takes, and checks the output contract: every metric of BENCHMARK.json is
printed with its unit for each workload, the correctness gate holds on
untouched runs and fails on tampered checkpoints, a repeat with the same seed
gives the same checkpoint digests, and a directory without the csipred
sources gives a nonzero exit and no result.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, *extra, seed=7, cwd=ROOT, check=True):
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0.5", "--toy", *extra]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)
    if check:
        assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return proc, lines


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace, kind):
    _, lines = bench(workload, "--trace", trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name], name
        assert isinstance(metric["value"], (int, float)), name
        assert math.isfinite(metric["value"]), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gate_fails_on_tampered_checkpoint(workload):
    _, lines = bench(workload, "--trace", "0", "--tamper")
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_repeat_with_same_seed_gives_same_digests(workload):
    digests = [json.loads(bench(workload, "--trace", "0")[1][-2])["checkpoint_sha256"]
               for _ in range(2)]
    assert digests[0] == digests[1]
    assert len(digests[0]) == 10  # 5 families x (reference, seeded)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = bench(WORKLOADS[0], "--trace", "0", cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
