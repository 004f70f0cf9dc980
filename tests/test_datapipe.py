import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from csipred import datapipe
from csipred.datapipe import (CACHE_SUFFIX, CleaningReport, CsiSeries, Scaler,
                              clean, complex_to_features,
                              fit_scaler, load_csi, make_windows,
                              prepare_dataset, save_csi,
                              split_chronological, write_text)
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


class TestWriteText:
    def test_chunks_go_out_as_utf8_with_lf_ends(self, tmp_path):
        path = tmp_path / "out.txt"
        write_text(path, (chunk for chunk in ["a,\u00e9\n", "", "b\n"]))
        assert path.read_bytes() == b"a,\xc3\xa9\nb\n"

    def test_bare_str_refused(self, tmp_path):
        path = tmp_path / "out.txt"
        with pytest.raises(ContractViolation):
            write_text(path, "a whole text\n")
        assert not path.exists()


def reference_load_csi(path):
    """Line-by-line reference parser: the loader's contract, one row at a time
    (Python's int/float, with t and antenna inside int64).

    Returns (start_index, values, duplicate_rows) or raises ParseError.
    """
    per_antenna = {}
    duplicates = []
    with open(path, encoding="utf-8", newline="") as fh:
        header = fh.readline().rstrip("\r\n")
        if header != "t,antenna,re,im":
            raise ParseError(f"{path}: bad header {header!r}")
        for ln, line in enumerate(fh, start=2):
            line = line.rstrip("\r\n")
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


LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def with_line_ends(draw, lines):
    """`lines` as one text, each line ended by a drawn LF, CRLF or CR; the
    last line may have no end."""
    ends = [draw(LINE_ENDS) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""
    return "".join(map(str.__add__, lines, ends))


FIELD_FLOAT = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324])


@st.composite
def csv_texts(draw):
    """A multi-antenna series as CSV text: random start index and antenna
    ids, NaN gaps, exact duplicates and blank lines, rows in random order,
    every line ended by LF, CRLF or CR."""
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
    return draw(with_line_ends(["t,antenna,re,im", *rows]))


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
        max_size=6).flatmap(lambda body: with_line_ends(["t,antenna,re,im", *body])))
    def test_arbitrary_text(self, tmp_path, text):
        path = tmp_path / "chan.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert_loads_like_reference(path)

    @pytest.mark.parametrize("body", [
        "1_0,0,1_0.5,2.0\n11,0,1e1_0,2\n",  # digit-group underscores
        "\u0661,0,\u0661.\u0665,2.0\n2,0,1,\u30002\n",  # Arabic-Indic digits
        "0,0,1.0,2.0\r\n1,0,1.0,2.0\r2,0,1.0,2.0",  # CRLF, CR, no final LF
        "0,0,1.0,2.0\n\n\n1,0,1.0,2.0\n",  # blank lines
        "0,0,0.0,1.0\n0,0,-0.0,1.0\n1,0,1,1\n",  # equal repeat, first zero kept
        "0,0,1.0,2.0\n\r\n1,0,1.0,2.0\n",  # blank CRLF line
        "\r\n0,0,1.0,2.0\n1,0,1.0,2.0\n",
        "0,0,1.0,2.0\r\r1,0,1.0,2.0\n",  # blank CR line
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

    @pytest.mark.parametrize("body", ["\r\n", "\r\n\r\n", "\r\r", "\n\r\n\r"])
    def test_body_of_blank_lines_has_no_data_rows(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text("t,antenna,re,im\r\n" + body, encoding="utf-8",
                        newline="")
        with pytest.raises(ParseError) as info:
            load_csi(path)
        assert str(info.value) == f"{path}: no data rows"

    @pytest.mark.parametrize("text,shown", [
        ("t,antenna,re,im,extra\r\n0,0,1.0,2.0\n", "t,antenna,re,im,e"),
        ("time\r0,0,1.0,2.0\r", "time"),
        ("\ufefft,antenna,re,im\r\n0,0,1.0,2.0\r\n", "\ufefft,antenna,re,i"),
    ])
    def test_bad_header_shows_its_first_17_bytes(self, tmp_path, text, shown):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with pytest.raises(ParseError) as info:
            load_csi(path)
        assert str(info.value) == f"{path}: bad header {shown!r}"

    def test_antenna_range_mismatch(self, tmp_path):
        text = ("t,antenna,re,im\n0,0,1.0,2.0\n1,0,1.0,2.0\n"
                "0,1,1.0,2.0\n")  # antenna 1 stops at t=0
        with pytest.raises(ParseError):
            load_csi(self.write(tmp_path, text))


class TestParseCache:
    # Antenna 0 misses t=1 and t=3; each antenna has an exact duplicate.
    TEXT = ("t,antenna,re,im\n"
            "0,0,1.0,2.0\n2,0,-0.0,0.5\n0,0,1.0,2.0\n4,0,1e-300,3.0\n"
            "0,1,3.0,4.0\n1,1,5.0,6.0\n2,1,7.0,8.0\n3,1,1.5,2.5\n"
            "4,1,9.0,0.0\n2,1,7.0,8.0\n")

    @pytest.fixture
    def parses(self, monkeypatch):
        """The paths `load_csi` has parsed so far, not read from a sidecar."""
        calls = []
        parse = datapipe._parse

        def counted(path, raw):
            calls.append(path)
            return parse(path, raw)

        monkeypatch.setattr(datapipe, "_parse", counted)
        return calls

    def write(self, tmp_path, text=TEXT):
        path = tmp_path / "chan.csv"
        path.write_text(text, encoding="utf-8", newline="")
        return path, tmp_path / f"chan.csv{CACHE_SUFFIX}"

    def assert_same(self, a, b):
        assert a.values.tobytes() == b.values.tobytes()
        assert a.values.shape == b.values.shape
        assert a.start_index == b.start_index
        assert a.duplicate_rows == b.duplicate_rows

    def test_hit_equals_a_fresh_parse(self, tmp_path, parses):
        path, sidecar = self.write(tmp_path)
        fresh = load_csi(path)
        assert sidecar.exists() and len(parses) == 1
        hit = load_csi(path, sample_interval=0.25)
        assert len(parses) == 1
        self.assert_same(hit, fresh)
        assert hit.duplicate_rows == [(0, 0), (1, 2)]
        assert np.isnan(hit.values[0, [1, 3]].real).all()
        assert hit.sample_interval == 0.25
        start, values, duplicates = reference_load_csi(path)
        assert (hit.start_index, hit.values.tobytes(), hit.duplicate_rows) == (
            start, values.tobytes(), duplicates)

    def test_same_size_edit_misses(self, tmp_path, parses):
        path, _ = self.write(tmp_path)
        before = load_csi(path)
        stat = path.stat()
        self.write(tmp_path, self.TEXT.replace("3,1,1.5,2.5", "3,1,1.5,2.0"))
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size
        after = load_csi(path)
        assert len(parses) == 2
        assert after.values[1, 3] == 1.5 + 2.0j != before.values[1, 3]

    def _truncate(sidecar):
        sidecar.write_bytes(sidecar.read_bytes()[:200])

    def _flip_a_value_byte(sidecar):
        with np.load(sidecar, allow_pickle=False) as npz:
            stored = npz["values"].tobytes()
        data = bytearray(sidecar.read_bytes())
        data[data.index(stored) + 5] ^= 0x01  # members are stored uncompressed
        sidecar.write_bytes(bytes(data))

    def _tamper_values(sidecar):
        with np.load(sidecar, allow_pickle=False) as npz:
            arrays = dict(npz)
        arrays["values"] = arrays["values"] * 2
        np.savez(sidecar, **arrays)

    def _wrong_dtype(sidecar):
        with np.load(sidecar, allow_pickle=False) as npz:
            arrays = dict(npz)
        arrays["values"] = arrays["values"].astype(np.complex64)
        arrays["digest"] = np.array(datapipe._cache_digest(
            arrays["start"], arrays["values"], arrays["duplicates"]))
        np.savez(sidecar, **arrays)

    @pytest.mark.parametrize("damage", [_truncate, _flip_a_value_byte,
                                        _tamper_values, _wrong_dtype])
    def test_damaged_sidecar_is_ignored_and_rewritten(self, tmp_path, parses,
                                                       damage):
        path, sidecar = self.write(tmp_path)
        fresh = load_csi(path)
        damage(sidecar)
        self.assert_same(load_csi(path), fresh)
        assert len(parses) == 2
        self.assert_same(load_csi(path), fresh)
        assert len(parses) == 2  # the rewritten sidecar was read

    def test_sidecar_keyed_v1_is_ignored_and_rewritten(self, tmp_path, parses):
        """A sidecar of the same bytes under the v1 tag, whose parse refused
        CR and CRLF headers, is not read, even with arrays that pass their
        own checks."""
        path, sidecar = self.write(tmp_path)
        fresh = load_csi(path)
        with np.load(sidecar, allow_pickle=False) as npz:
            arrays = dict(npz)
        key = str(arrays["key"])
        assert key.startswith("csipred-csi-cache-v2 ")
        arrays["key"] = np.array(key.replace("-v2 ", "-v1 ", 1))
        arrays["values"] = arrays["values"] * 2
        arrays["digest"] = np.array(datapipe._cache_digest(
            arrays["start"], arrays["values"], arrays["duplicates"]))
        np.savez(sidecar, **arrays)
        self.assert_same(load_csi(path), fresh)
        assert len(parses) == 2
        with np.load(sidecar, allow_pickle=False) as npz:
            assert str(npz["key"]) == key
        self.assert_same(load_csi(path), fresh)
        assert len(parses) == 2

    def test_parse_error_writes_no_sidecar(self, tmp_path, parses):
        path, _ = self.write(tmp_path, self.TEXT + "2,1,7.0,8.5\n")
        messages = []
        for _ in range(2):
            with pytest.raises(ParseError) as info:
                load_csi(path)
            messages.append(str(info.value))
        assert messages[0] == messages[1] == (
            f"{path}: line 12: conflicting duplicate for t=2, antenna=1")
        assert len(parses) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["chan.csv"]

    @pytest.mark.skipif(os.geteuid() == 0,
                        reason="root writes into a read-only directory")
    def test_read_only_directory_loads_and_writes_nothing(self, tmp_path, parses):
        path, sidecar = self.write(tmp_path)
        fresh = load_csi(path)
        sidecar.unlink()
        tmp_path.chmod(0o555)
        try:
            self.assert_same(load_csi(path), fresh)
            self.assert_same(load_csi(path), fresh)
            assert sorted(p.name for p in tmp_path.iterdir()) == ["chan.csv"]
        finally:
            tmp_path.chmod(0o755)
        assert len(parses) == 3

    def test_sidecar_that_cannot_be_replaced_is_skipped(self, tmp_path, parses):
        path, sidecar = self.write(tmp_path)
        fresh = load_csi(path)
        sidecar.unlink()
        sidecar.mkdir()
        self.assert_same(load_csi(path), fresh)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "chan.csv", sidecar.name]
        assert sidecar.is_dir() and len(parses) == 2


class TestClean:
    def test_noop_on_complete_series(self):
        series = random_series(np.random.default_rng(1))
        out, report = clean(series)
        assert report == CleaningReport()
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
        by_id = {f.feature_id: f.values for f in feats}
        for a in range(3):
            assert np.array_equal(by_id[f"ant{a}_re"], series.values[a].real)
            assert np.array_equal(by_id[f"ant{a}_im"], series.values[a].imag)

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
