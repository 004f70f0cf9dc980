import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from csipred.errors import ContractViolation
from csipred.evalx import (MetricReport, aggregate_nmse, assemble_complex,
                           cosine_similarity, grid_search, nmse, to_db,
                           write_reports, write_trials)


def random_windows(rng, b=6, d=4):
    return rng.normal(size=(b, d)) + 1j * rng.normal(size=(b, d))


class TestMetricIdentities:
    def test_nmse_of_identical_vectors_is_zero(self):
        h = random_windows(np.random.default_rng(0))
        assert nmse(h, h) == 0.0

    def test_nmse_of_zero_prediction_is_one(self):
        h = random_windows(np.random.default_rng(1))
        assert nmse(np.zeros_like(h), h) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(0.1, 10.0), st.floats(0.0, 2 * math.pi))
    def test_cosine_invariant_under_complex_scaling(self, mag, phase):
        h = random_windows(np.random.default_rng(2))
        c = mag * np.exp(1j * phase)
        assert cosine_similarity(c * h, h) == pytest.approx(1.0, abs=1e-9)

    def test_db_linear_consistency(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = float(rng.uniform(1e-6, 10.0))
            assert abs(10 ** (to_db(v) / 10.0) - v) < 1e-9 * max(v, 1.0)

    def test_db_edge_cases(self):
        assert to_db(1.0) == 0.0
        assert to_db(0.1) == pytest.approx(-10.0, abs=1e-12)
        assert to_db(0.0) == -math.inf


class TestNmse:
    def test_hand_value(self):
        truth = np.array([[3.0 + 4.0j, 0.0 + 0.0j]])  # norm^2 = 25
        pred = np.array([[3.0 + 4.0j, 1.0 + 0.0j]])   # err^2 = 1
        assert nmse(pred, truth) == pytest.approx(1.0 / 25.0, abs=1e-15)

    def test_mean_over_windows(self):
        truth = np.array([[1.0 + 0j], [2.0 + 0j]])
        pred = np.array([[0.0 + 0j], [2.0 + 0j]])
        assert nmse(pred, truth) == pytest.approx(0.5, abs=1e-15)

    def test_zero_norm_windows_excluded(self):
        truth = np.array([[1.0 + 0j], [0.0 + 0j]])
        pred = np.array([[1.0 + 0j], [5.0 + 0j]])
        assert nmse(pred, truth) == 0.0

    def test_all_zero_truth_raises(self):
        with pytest.raises(ContractViolation):
            nmse(np.ones((2, 2), dtype=complex), np.zeros((2, 2), dtype=complex))

    def test_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            nmse(np.zeros((2, 3), dtype=complex), np.zeros((2, 2), dtype=complex))
        with pytest.raises(ContractViolation, match="shape mismatch"):
            cosine_similarity(np.ones((2, 3), dtype=complex),
                              np.ones((2, 2), dtype=complex))

    def test_one_dimensional_input_is_one_window(self):
        h = np.array([1.0 + 1j, 2.0 - 1j])
        assert nmse(h, h) == 0.0


class TestCosine:
    def test_range(self):
        rng = np.random.default_rng(4)
        a, b = random_windows(rng), random_windows(rng)
        v = cosine_similarity(a, b)
        assert 0.0 <= v <= 1.0

    def test_orthogonal_vectors(self):
        a = np.array([[1.0 + 0j, 0.0 + 0j]])
        b = np.array([[0.0 + 0j, 1.0 + 0j]])
        assert cosine_similarity(a, b) == 0.0

    def test_zero_pairs_excluded(self):
        a = np.array([[1.0 + 0j], [0.0 + 0j]])
        b = np.array([[2.0 + 0j], [1.0 + 0j]])
        assert cosine_similarity(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_raises(self):
        z = np.zeros((2, 2), dtype=complex)
        with pytest.raises(ContractViolation):
            cosine_similarity(z, z)


class TestAssembleAndAggregate:
    def test_assemble(self):
        out = assemble_complex([1.0, 2.0], [3.0, -1.0])
        assert np.array_equal(out, np.array([1 + 3j, 2 - 1j]))
        with pytest.raises(ContractViolation):
            assemble_complex([1.0], [1.0, 2.0])

    def test_weighted_aggregate(self):
        assert aggregate_nmse([(0.1, 3), (0.5, 1)]) == pytest.approx(0.2)

    def test_empty_aggregate(self):
        with pytest.raises(ContractViolation):
            aggregate_nmse([(0.1, 0)])


class TestReports:
    def test_csv_round_trip(self, tmp_path):
        r = MetricReport(model_id="rnn", track="synth", seed=3,
                         nmse=0.012345678901234567, cosine=0.999,
                         window_count=10, config_digest="abc123")
        csv_path = tmp_path / "m.csv"
        json_path = tmp_path / "m.json"
        write_reports([r], csv_path, json_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == MetricReport.CSV_HEADER
        fields = lines[1].split(",")
        assert float(fields[4]) == r.nmse  # repr floats survive the round trip
        assert float(fields[5]) == r.nmse_db
        payload = json.loads(json_path.read_text())
        assert payload[0]["nmse"] == r.nmse
        assert payload[0]["antenna"] == "all"

    def test_db_property(self):
        r = MetricReport("m", "t", 0, nmse=0.01, cosine=1.0, window_count=1)
        assert r.nmse_db == pytest.approx(-20.0, abs=1e-12)


class TestGridSearch:
    def test_finds_minimum_of_known_surface(self):
        grid = {"a": [1, 2, 3], "b": [10, 20]}

        def evaluate(cfg):
            return {"nmse": (cfg["a"] - 2) ** 2 + (cfg["b"] - 20) ** 2 / 100}

        best, trials = grid_search(grid, evaluate)
        assert best == {"a": 2, "b": 20}
        assert len(trials) == 6
        assert all(tr["status"] == "ok" for tr in trials)

    def test_axis_order_independence(self):
        def evaluate(cfg):
            return {"nmse": cfg["x"] + cfg["y"]}

        b1, t1 = grid_search({"x": [1, 2], "y": [3, 4]}, evaluate)
        b2, t2 = grid_search({"y": [3, 4], "x": [1, 2]}, evaluate)
        assert b1 == b2
        assert [tr["config"] for tr in t1] == [tr["config"] for tr in t2]

    def test_tie_breaks_by_param_count(self):
        def evaluate(cfg):
            return {"nmse": 1.0, "param_count": cfg["h"] * 10}

        best, _ = grid_search({"h": [4, 2, 8]}, evaluate)
        assert best == {"h": 2}

    def test_failed_cells_recorded_not_fatal(self):
        def evaluate(cfg):
            if cfg["a"] == 1:
                raise ValueError("boom")
            return {"nmse": cfg["a"]}

        best, trials = grid_search({"a": [1, 2]}, evaluate)
        assert best == {"a": 2}
        failed = [tr for tr in trials if tr["status"] == "failed"]
        assert len(failed) == 1
        assert "ValueError" in failed[0]["error"]

    def test_all_failed_raises(self):
        def evaluate(cfg):
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            grid_search({"a": [1, 2]}, evaluate)

    def test_empty_grid_rejected(self):
        with pytest.raises(ContractViolation):
            grid_search({}, lambda cfg: {"nmse": 0.0})
        with pytest.raises(ContractViolation):
            grid_search({"a": []}, lambda cfg: {"nmse": 0.0})

    def test_trials_file(self, tmp_path):
        def evaluate(cfg):
            return {"nmse": float(cfg["a"])}

        _, trials = grid_search({"a": [1, 2]}, evaluate)
        path = tmp_path / "trials.csv"
        write_trials(trials, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("a,")
        assert len(lines) == 3

    def test_failed_cell_message_with_quotes_reads_back(self, tmp_path):
        def evaluate(cfg):
            if cfg["a"] == 1:
                raise ValueError('no "x", y')
            return {"nmse": 0.5}

        _, trials = grid_search({"a": [1, 2]}, evaluate)
        path = tmp_path / "trials.csv"
        write_trials(trials, path)
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1] == ["1", "failed", "", "", 'ValueError: no "x", y']
        assert rows[2][-1] == ""

    def test_failed_cell_has_empty_nmse(self, tmp_path):
        def evaluate(cfg):
            if cfg["a"] == 1:
                raise ValueError("boom")
            return {"nmse": 0.1 + cfg["a"], "param_count": 5}

        _, trials = grid_search({"a": [1, 2]}, evaluate)
        path = tmp_path / "trials.csv"
        write_trials(trials, path)
        assert path.read_text().splitlines() == [
            "a,status,nmse,param_count,error",
            '1,failed,,,"ValueError: boom"',
            f'2,ok,{2.1!r},5,""']
