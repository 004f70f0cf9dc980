import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from csipred.datapipe import (CsiSeries, Scaler, clean, complex_to_features,
                              fit_scaler, load_csi, make_windows,
                              prepare_dataset, recombine_features, save_csi,
                              split_chronological)
from csipred.errors import (ContractViolation, DataError, DegenerateScaleError,
                            ParseError, UnrecoverableGapError)


def random_series(rng, antennas=2, n=50):
    values = rng.normal(size=(antennas, n)) + 1j * rng.normal(size=(antennas, n))
    return CsiSeries(sample_interval=5e-4, start_index=0, values=values)


class TestCsvRoundTrip:
    def test_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        series = random_series(rng)
        path = tmp_path / "chan.csv"
        save_csi(series, path)
        loaded = load_csi(path)
        assert loaded.start_index == series.start_index
        assert np.array_equal(loaded.values, series.values)
        # saving the reloaded series reproduces the file byte for byte
        path2 = tmp_path / "chan2.csv"
        save_csi(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_nonzero_start_index(self, tmp_path):
        series = CsiSeries(5e-4, 100, np.ones((1, 5), dtype=complex))
        path = tmp_path / "s.csv"
        save_csi(series, path)
        loaded = load_csi(path)
        assert loaded.start_index == 100
        assert loaded.length == 5


def reference_load_csi(path):
    """Line-by-line reference parser: the loader's contract, one row at a time
    (Python's int/float, with t and antenna inside int64).

    Returns (start_index, values, duplicate_rows) or raises ParseError.
    """
    per_antenna = {}
    duplicates = []
    with open(path, encoding="utf-8", newline="") as fh:
        header = fh.readline().rstrip("\n")
        if header != "t,antenna,re,im":
            raise ParseError(f"{path}: bad header {header!r}")
        for ln, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise ParseError(f"{path}: line {ln}: expected 4 fields")
            try:
                t, ant = int(parts[0]), int(parts[1])
                re, im = float(parts[2]), float(parts[3])
            except ValueError as exc:
                raise ParseError(f"{path}: line {ln}: {exc}") from None
            if not -2**63 <= min(t, ant) <= max(t, ant) < 2**63:
                raise ParseError(f"{path}: line {ln}: index beyond int64")
            if not (np.isfinite(re) and np.isfinite(im)):
                raise ParseError(f"{path}: line {ln}: non-finite value")
            row = per_antenna.setdefault(ant, {})
            if t not in row:
                row[t] = complex(re, im)
            elif row[t] == complex(re, im):
                duplicates.append((ant, t))
            else:
                raise ParseError(f"{path}: line {ln}: conflicting duplicate")
    if not per_antenna:
        raise ParseError(f"{path}: no data rows")
    t_min = min(min(r) for r in per_antenna.values())
    t_max = max(max(r) for r in per_antenna.values())
    if any(min(r) != t_min or max(r) != t_max for r in per_antenna.values()):
        raise ParseError(f"{path}: antennas cover different index ranges")
    values = np.full((len(per_antenna), t_max - t_min + 1), np.nan + 0j)
    for k, ant in enumerate(sorted(per_antenna)):
        for t, v in per_antenna[ant].items():
            values[k, t - t_min] = v
    return t_min, values, duplicates


def assert_loads_like_reference(path):
    try:
        expected = reference_load_csi(path)
    except ParseError:
        with pytest.raises(ParseError):
            load_csi(path)
        return
    series = load_csi(path)
    start, values, duplicates = expected
    assert series.start_index == start
    assert series.values.shape == values.shape
    # bit for bit, so NaN gaps and the sign of zeros must match too
    assert series.values.tobytes() == values.tobytes()
    assert series.duplicate_rows == duplicates


FIELD_FLOAT = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324])


@st.composite
def csv_texts(draw):
    """A multi-antenna series as CSV text: random start index and antenna
    ids, NaN gaps, exact duplicates and blank lines, rows in random order."""
    antennas = draw(st.lists(st.integers(-3, 20), min_size=1, max_size=4,
                             unique=True))
    n = draw(st.integers(1, 12))
    start = draw(st.integers(-10**6, 10**6))
    rows = []
    for ant in antennas:
        for t in range(start, start + n):
            # the first and last index stay, so every antenna covers the range
            if start < t < start + n - 1 and draw(st.booleans()):
                continue  # a gap, which loads as NaN
            rows.append(f"{t},{ant},{draw(FIELD_FLOAT)!r},{draw(FIELD_FLOAT)!r}")
    rows = draw(st.permutations(rows))
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))),
                    draw(st.sampled_from(rows)))  # exact duplicate
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), "")  # blank line
    return "t,antenna,re,im\n" + "\n".join(rows) + draw(st.sampled_from(["", "\n"]))


# Pieces whose spelling the two parsers could read differently: Python's
# int/float take underscores between digits, any Unicode decimal digit and
# Unicode spaces; line ends are LF, CR or CRLF.
JUNK = st.lists(st.sampled_from([
    "0", "1", "7", "-", "+", ".", "e", "_", ",", ",", ",", "\n", "\n", "\r",
    "\r\n", " ", "\t", "\x0b", "\x1c", "\xa0", "\u3000", "\u0661", "\u00b2",
    "inf", "nan", "#", "x", "0.5", "1_0", "2.5e-3"]), max_size=40).map("".join)


class TestLoaderMatchesReference:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(csv_texts())
    def test_valid_series(self, tmp_path, text):
        path = tmp_path / "chan.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert_loads_like_reference(path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.one_of(JUNK, st.sampled_from([
        "0,0,1.0,2.0", "1,0,1.0,2.0", "1,1,-0.0,0.5", "1,1,0.0,0.5",
        "0,1,0.0,0.5"])),
        max_size=6).map("\n".join))
    def test_arbitrary_text(self, tmp_path, body):
        path = tmp_path / "chan.csv"
        path.write_text("t,antenna,re,im\n" + body, encoding="utf-8", newline="")
        assert_loads_like_reference(path)

    @pytest.mark.parametrize("body", [
        "1_0,0,1_0.5,2.0\n11,0,1e1_0,2\n",  # digit-group underscores
        "\u0661,0,\u0661.\u0665,2.0\n2,0,1,\u30002\n",  # Arabic-Indic digits
        "0,0,1.0,2.0\r\n1,0,1.0,2.0\r2,0,1.0,2.0",  # CRLF, CR, no final LF
        "0,0,1.0,2.0\n\n\n1,0,1.0,2.0\n",  # blank lines
        "0,0,0.0,1.0\n0,0,-0.0,1.0\n1,0,1,1\n",  # equal repeat, first zero kept
    ])
    def test_edge_cases_accepted(self, tmp_path, body):
        path = tmp_path / "chan.csv"
        path.write_text("t,antenna,re,im\n" + body, encoding="utf-8", newline="")
        assert_loads_like_reference(path)
        assert load_csi(path).length >= 2


class TestLoadErrors:
    def write(self, tmp_path, text):
        p = tmp_path / "bad.csv"
        p.write_text(text, encoding="utf-8")
        return p

    def test_bad_header(self, tmp_path):
        with pytest.raises(ParseError):
            load_csi(self.write(tmp_path, "time,ant,re,im\n0,0,1.0,2.0\n"))

    def test_wrong_field_count(self, tmp_path):
        with pytest.raises(ParseError):
            load_csi(self.write(tmp_path, "t,antenna,re,im\n0,0,1.0\n"))

    def test_non_numeric(self, tmp_path):
        with pytest.raises(ParseError):
            load_csi(self.write(tmp_path, "t,antenna,re,im\n0,0,x,2.0\n"))

    def test_non_finite(self, tmp_path):
        with pytest.raises(ParseError):
            load_csi(self.write(tmp_path, "t,antenna,re,im\n0,0,nan,2.0\n"))

    def test_empty_body(self, tmp_path):
        with pytest.raises(ParseError):
            load_csi(self.write(tmp_path, "t,antenna,re,im\n"))

    def test_conflicting_duplicate(self, tmp_path):
        text = "t,antenna,re,im\n0,0,1.0,2.0\n0,0,1.0,3.0\n"
        with pytest.raises(ParseError):
            load_csi(self.write(tmp_path, text))

    def test_exact_duplicate_collapsed(self, tmp_path):
        text = "t,antenna,re,im\n0,0,1.0,2.0\n0,0,1.0,2.0\n1,0,1.0,2.0\n"
        series = load_csi(self.write(tmp_path, text))
        assert series.length == 2
        assert series.duplicate_rows == [(0, 0)]

    @pytest.mark.parametrize("body,line", [
        ("0,0,1.0,2.0\n# comment\n1,0,1.0,2.0\n", 3),
        ("0,0,1.0,2.0\n\n0.5,0,1.0,2.0\n", 4),
        ("0,0,1.0,2.0\n1,0,1.0,2.0,\n", 3),
        ("0,0,1.0,2.0\n1,0,1.0,2.0\n0,0,1.0,2.5\n", 4),
        ("0,0,1.0,2.0\n1,0,inf,2.0\n", 3),
        ("0,0,1.0,2.0\n\r\n1,0,1.0,2.0\n", 3),  # blank CRLF line
        ("\r\n0,0,1.0,2.0\n", 2),
        ("0,0,1.0,2.0\r\r1,0,1.0,2.0\n", 3),  # blank CR line
        ("0,0,1.0,2.0\r1,0,\x1c1.0,2.0\n", 3),  # not whitespace to Python
        ("0,0,1.0,2.0\n1,0,1__0,2.0\n", 3),
        ("0,0,1.0,2.0\n9223372036854775808,0,1.0,2.0\n", 3),  # beyond int64
    ])
    def test_rejection_names_path_and_line(self, tmp_path, body, line):
        path = tmp_path / "bad.csv"
        path.write_text("t,antenna,re,im\n" + body, encoding="utf-8", newline="")
        with pytest.raises(ParseError) as info:
            load_csi(path)
        assert str(info.value).startswith(f"{path}: line {line}: ")
        with pytest.raises(ParseError):
            reference_load_csi(path)

    def test_antenna_range_mismatch(self, tmp_path):
        text = ("t,antenna,re,im\n0,0,1.0,2.0\n1,0,1.0,2.0\n"
                "0,1,1.0,2.0\n")  # antenna 1 stops at t=0
        with pytest.raises(ParseError):
            load_csi(self.write(tmp_path, text))


class TestClean:
    def test_noop_on_complete_series(self):
        series = random_series(np.random.default_rng(1))
        out, report = clean(series)
        assert report.empty
        assert np.array_equal(out.values, series.values)

    def test_linear_interpolation_hand_value(self):
        v = np.array([[0.0 + 0j, np.nan + 0j, 4.0 + 8j]])
        out, report = clean(CsiSeries(5e-4, 0, v))
        assert out.values[0, 1] == pytest.approx(2.0 + 4.0j)
        assert report.samples_interpolated == 1

    def test_gap_at_limit_is_repaired(self):
        v = np.ones(30, dtype=complex)
        v[5:15] = np.nan  # exactly 10 missing
        out, report = clean(CsiSeries(5e-4, 0, v[None, :]))
        assert report.samples_interpolated == 10
        assert np.all(np.isfinite(out.values.real))

    def test_gap_over_limit_raises(self):
        v = np.ones(30, dtype=complex)
        v[5:16] = np.nan  # 11 missing
        with pytest.raises(UnrecoverableGapError):
            clean(CsiSeries(5e-4, 0, v[None, :]))

    def test_boundary_gap_raises(self):
        v = np.ones(10, dtype=complex)
        v[0] = np.nan
        with pytest.raises(UnrecoverableGapError):
            clean(CsiSeries(5e-4, 0, v[None, :]))

    def test_duplicates_reported(self):
        series = CsiSeries(5e-4, 0, np.ones((1, 5), dtype=complex),
                           duplicate_rows=[(0, 2), (0, 3)])
        out, report = clean(series)
        assert report.duplicates_collapsed == 2
        assert out.duplicate_rows == []


class TestSplit:
    def test_partition_property(self):
        series = random_series(np.random.default_rng(2), antennas=1, n=103)
        tr, va, te = split_chronological(series)
        assert va.length == int(103 * 0.1)
        assert te.length == int(103 * 0.1)
        assert tr.length == 103 - va.length - te.length
        rebuilt = np.concatenate([tr.values, va.values, te.values], axis=1)
        assert np.array_equal(rebuilt, series.values)

    def test_chronological_order(self):
        series = CsiSeries(5e-4, 7, np.arange(20, dtype=complex)[None, :])
        tr, va, te = split_chronological(series)
        assert tr.start_index == 7
        assert va.start_index == 7 + tr.length
        assert te.start_index == 7 + tr.length + va.length
        assert float(tr.values[0, -1].real) < float(va.values[0, 0].real)

    def test_bad_fractions(self):
        series = random_series(np.random.default_rng(3))
        with pytest.raises(ContractViolation):
            split_chronological(series, fractions=(0.8, 0.1, 0.2))

    def test_too_short(self):
        series = CsiSeries(5e-4, 0, np.ones((1, 5), dtype=complex))
        with pytest.raises(DataError):
            split_chronological(series)


class TestFeatureStreams:
    def test_bijection(self):
        series = random_series(np.random.default_rng(4), antennas=3)
        feats = complex_to_features(series)
        assert len(feats) == 6
        assert {f.feature_id for f in feats} == {
            f"ant{a}_{p}" for a in range(3) for p in ("re", "im")}
        assert np.array_equal(recombine_features(feats), series.values)

    def test_streams_are_real_views_of_parts(self):
        series = random_series(np.random.default_rng(5), antennas=1, n=10)
        feats = {f.feature_id: f for f in complex_to_features(series)}
        assert np.array_equal(feats["ant0_re"].values, series.values[0].real)
        assert np.array_equal(feats["ant0_im"].values, series.values[0].imag)


class TestScaler:
    def test_maps_extremes_to_unit_interval(self):
        v = np.array([2.0, 5.0, 11.0])
        s = fit_scaler(v)
        out = s.transform(v)
        assert out.min() == pytest.approx(-1.0)
        assert out.max() == pytest.approx(1.0)

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        v = rng.normal(size=100) * 3 + 7
        s = fit_scaler(v)
        assert np.allclose(s.inverse(s.transform(v)), v, atol=1e-12)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateScaleError):
            fit_scaler(np.full(10, 3.0))

    def test_out_of_range_values_extrapolate(self):
        s = Scaler(shift=0.0, half_range=1.0)
        assert s.transform([4.0])[0] == pytest.approx(3.0)
        assert s.inverse([3.0])[0] == pytest.approx(4.0)


class TestWindows:
    def test_brute_force_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(12, 40))
            d = int(rng.integers(1, 5))
            D = int(rng.integers(1, 4))
            if n < d + D + 1:
                continue
            v = rng.normal(size=n)
            w = make_windows(v, d, D)
            # independent enumeration: valid origins t satisfy
            # t-d >= 0 and t+D <= n-1 and label start t+1 <= n-D
            expected = [t for t in range(n) if t - d >= 0 and t + D < n]
            assert w.t.tolist() == expected
            assert len(w) == n - d - D
            for i, t in enumerate(expected):
                assert np.array_equal(w.X[i], v[t - d:t])
                assert np.array_equal(w.Y[i], v[t + 1:t + 1 + D])

    def test_origin_skips_current_sample(self):
        v = np.arange(10.0)
        w = make_windows(v, 3, 2)
        # first origin is t=3: lags 0,1,2 ascending; labels 4,5 (sample 3 unused)
        assert w.t[0] == 3
        assert w.X[0].tolist() == [0.0, 1.0, 2.0]
        assert w.Y[0].tolist() == [4.0, 5.0]

    def test_stride(self):
        v = np.arange(30.0)
        w = make_windows(v, 4, 2, stride=3)
        assert w.t.tolist() == list(range(4, 28, 3))

    def test_start_index_offsets_origins(self):
        w = make_windows(np.arange(10.0), 3, 2, start_index=100)
        assert w.t[0] == 103

    def test_too_short(self):
        with pytest.raises(ContractViolation):
            make_windows(np.zeros(6), 4, 2)

    def test_windows_are_copies(self):
        v = np.arange(20.0)
        w = make_windows(v, 4, 3, stride=2)
        assert not np.shares_memory(w.X, v) and not np.shares_memory(w.Y, v)


class TestPrepareDataset:
    def make(self, n=400):
        rng = np.random.default_rng(8)
        t = np.arange(n)
        values = (np.sin(2 * np.pi * t / 37.0)
                  + 1j * np.cos(2 * np.pi * t / 53.0))[None, :]
        values = values + 0.01 * (rng.normal(size=(1, n))
                                  + 1j * rng.normal(size=(1, n)))
        return CsiSeries(5e-4, 0, values)

    def test_scaler_fitted_on_training_split_only(self):
        series = self.make()
        prepared, _ = prepare_dataset(series, d=8, D=4)
        tr, _, _ = split_chronological(clean(series)[0])
        for pf in prepared:
            feat = next(f for f in complex_to_features(tr)
                        if f.feature_id == pf.feature.feature_id)
            ref = fit_scaler(feat.values)
            assert pf.scaler.shift == ref.shift
            assert pf.scaler.half_range == ref.half_range

    def test_windows_do_not_straddle_split_boundaries(self):
        series = self.make()
        prepared, _ = prepare_dataset(series, d=8, D=4)
        tr, va, te = split_chronological(clean(series)[0])
        bounds = {"train": (0, tr.length),
                  "val": (tr.length, tr.length + va.length),
                  "test": (tr.length + va.length, series.length)}
        for pf in prepared:
            for name, w in pf.windows.items():
                lo, hi = bounds[name]
                assert np.all(w.t - w.d >= lo)
                assert np.all(w.t + w.D <= hi - 1)

    def test_digest_is_stable_and_input_sensitive(self):
        series = self.make()
        _, d1 = prepare_dataset(series, d=8, D=4)
        _, d2 = prepare_dataset(series, d=8, D=4)
        assert d1 == d2
        other = self.make()
        other.values = other.values * 1.001
        _, d3 = prepare_dataset(other, d=8, D=4)
        assert d3 != d1

    def test_normalized_training_windows_lie_in_unit_box(self):
        prepared, _ = prepare_dataset(self.make(), d=8, D=4)
        for pf in prepared:
            w = pf.windows["train"]
            assert w.X.min() >= -1.0 - 1e-12
            assert w.X.max() <= 1.0 + 1e-12
