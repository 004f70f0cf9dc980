"""Dataset ingestion, cleaning, normalization, splitting, and window building.

CSV contract (bit-exact): header ``t,antenna,re,im``, one row per
(sample index, antenna), UTF-8. Every line, the header included, ends in LF,
CRLF or CR, and an empty line is skipped. Sample indices per antenna must
cover one contiguous range (gaps are repaired by `clean` up to a limit).

Parse cache: `load_csi` keeps what it parsed from ``<name>.csv`` in a sidecar
``<name>.csv.csipred-cache.npz`` in the same directory. Its key is the sha256
of the CSV's bytes, a cache-format tag and the numpy version, so a later load
of the same bytes reads the sidecar instead of parsing them again, and an
edited file misses. A sidecar is written after each parse that succeeds, by
a rename from a temporary file; one that is missing, unreadable, keyed to
other bytes or fails its own checks is ignored and rewritten, and a directory
that cannot be written to gets none. Deleting a sidecar is always safe.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import re
import stat
import zipfile
from dataclasses import dataclass, field, replace
from operator import itemgetter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import DEFAULTS
from .errors import (ContractViolation, DataError, DegenerateScaleError,
                     ParseError, UnrecoverableGapError)

MAX_INTERP_GAP = 10
CSV_HEADER = "t,antenna,re,im"
_CSV_ROW = np.dtype([("t", np.int64), ("antenna", np.int64),
                     ("re", np.float64), ("im", np.float64)])
_NEWLINE = re.compile(rb"\r\n|\r|\n")  # the line ends the CSV reader splits on
CACHE_SUFFIX = ".csipred-cache.npz"
# Bumped whenever the parse or the sidecar layout changes; v1 refused a CR
# or CRLF header and a blank CR or CRLF line.
_CACHE_FORMAT = "csipred-csi-cache-v2"
# The default train/validation/test split fractions.
FRACTIONS = tuple(DEFAULTS[f"{name}_frac"] for name in ("train", "val", "test"))


@dataclass
class CsiSeries:
    """Uniformly indexed complex channel gains, one row per antenna.

    `values` may contain NaN entries for missing samples until `clean` runs.
    `duplicate_rows` records exact duplicates collapsed at load time; `clean`
    moves them into its report.
    """

    sample_interval: float
    start_index: int
    values: np.ndarray  # complex128, shape (antennas, n)
    duplicate_rows: list = field(default_factory=list)

    @property
    def antenna_count(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]


@dataclass
class CleaningReport:
    duplicates_collapsed: int = 0
    samples_interpolated: int = 0


@dataclass
class FeatureSeries:
    """One real-valued stream: a single antenna's real or imaginary part."""

    feature_id: str
    values: np.ndarray
    start_index: int


@dataclass
class Scaler:
    """Invertible per-feature min-max map onto [-1, 1]."""

    shift: float
    half_range: float

    def transform(self, x):
        return (np.asarray(x, dtype=float) - self.shift) / self.half_range - 1.0

    def inverse(self, y):
        return (np.asarray(y, dtype=float) + 1.0) * self.half_range + self.shift


@dataclass
class SupervisedWindowSet:
    """Aligned (lag vector, horizon vector) pairs with absolute origins.

    For origin t, lags are samples t-d..t-1 (ascending time) and labels are
    t+1..t+D; sample t itself is not used.
    """

    d: int
    D: int
    feature_id: str
    t: np.ndarray  # (N,) int origins
    X: np.ndarray  # (N, d)
    Y: np.ndarray  # (N, D)

    def __len__(self):
        return self.t.shape[0]


def load_csi(path, sample_interval=DEFAULTS["sample_interval"]) -> CsiSeries:
    """Parse the CSI CSV format into a (possibly gap-containing) series.

    Every line, the header included, ends in LF, CRLF or CR, and an empty
    line is skipped whatever its end. Any other line after the header must
    hold four comma-separated fields that Python's `int` (t, antenna) and
    `float` (re, im) accept, with finite values, and t and antenna must fit
    in int64. There is no comment syntax.
    Exact duplicates of a (t, antenna) row are collapsed and recorded in
    `duplicate_rows` in file order; a duplicate with other values is an error.
    Every antenna must cover the same first and last index; missing samples
    in between become NaN. Each `ParseError` names the file and the line.

    The file is read once. A regular file's parse comes from its sidecar
    when that holds the parse of these bytes, and is stored there otherwise
    (see the module docstring).
    """
    with open(path, "rb") as fh:
        raw = fh.read()
        regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
    key = (f"{_CACHE_FORMAT} numpy-{np.__version__} "
           f"sha256-{hashlib.sha256(raw).hexdigest()}")
    sidecar = f"{os.fspath(path)}{CACHE_SUFFIX}"
    parsed = _read_sidecar(sidecar, key) if regular else None
    if parsed is None:
        parsed = _parse(path, raw)
        if regular:
            _write_sidecar(sidecar, key, *parsed)
    start, values, duplicates = parsed
    return CsiSeries(sample_interval=sample_interval, start_index=start,
                     values=values, duplicate_rows=duplicates)


def _parse(path, raw):
    """(start index, values, duplicate rows) of the CSV bytes `raw` read from
    `path`, which the error messages name."""
    rows = _read_rows(path, raw)
    t, ant, re_, im = rows["t"], rows["antenna"], rows["re"], rows["im"]
    # Rows sorted by (antenna, t); the stable sort keeps repeats in file order.
    order = np.lexsort((t, ant))
    s_t, s_ant = t[order], ant[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (s_t[1:] != s_t[:-1]) | (s_ant[1:] != s_ant[:-1])
    origin = np.empty_like(order)  # file row -> file row of its first occurrence
    origin[order] = order[np.maximum.accumulate(
        np.where(first, np.arange(len(rows)), 0))]
    repeat = origin != np.arange(len(rows))
    conflict = repeat & ((re_ != re_[origin]) | (im != im[origin]))
    finite = np.isfinite(re_) & np.isfinite(im)
    bad = np.flatnonzero(~finite | conflict)
    if bad.size:  # report the first bad row in file order, as a line number
        row = int(bad[0])
        col = next((c for c, v in (("re", re_), ("im", im))
                    if not np.isfinite(v[row])), None)
        raise ParseError(
            f"{path}: line {_data_line(raw, row)}: " + (
                f"non-finite value in column {col!r}" if col else
                f"conflicting duplicate for t={t[row]}, antenna={ant[row]}"))
    duplicates = list(zip(ant[repeat].tolist(), t[repeat].tolist()))

    u_t, u_ant = s_t[first], s_ant[first]
    ant_first = np.ones(len(u_ant), dtype=bool)
    ant_first[1:] = u_ant[1:] != u_ant[:-1]
    ant_last = np.roll(ant_first, -1)
    antennas = u_ant[ant_first]
    t_min, t_max = int(u_t.min()), int(u_t.max())
    uncovered = (u_t[ant_first] != t_min) | (u_t[ant_last] != t_max)
    if uncovered.any():
        raise ParseError(
            f"{path}: antenna {antennas[uncovered][0]} does not cover the common "
            f"index range [{t_min}, {t_max}]")
    values = np.full((len(antennas), t_max - t_min + 1), np.nan + 0j,
                     dtype=complex)
    ant_row = np.cumsum(ant_first) - 1
    kept = order[first]
    values.real[ant_row, u_t - t_min] = re_[kept]
    values.imag[ant_row, u_t - t_min] = im[kept]
    return t_min, values, duplicates


def _cache_digest(*arrays):
    """sha256 over each array's dtype, shape and bytes, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _read_sidecar(sidecar, key):
    """The (start index, values, duplicate rows) that `sidecar` stores for
    `key`; None if it is missing, unreadable, keyed otherwise or fails its
    dtype, shape or digest checks."""
    try:
        with (open(sidecar, "rb") as fh,
              np.lib.npyio.NpzFile(fh, allow_pickle=False) as npz):
            if str(npz["key"]) != key:
                return None
            start, values, dups = npz["start"], npz["values"], npz["duplicates"]
            digest = str(npz["digest"])
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
        return None
    if (start.dtype != np.int64 or start.shape != ()
            or values.dtype != np.complex128 or values.ndim != 2
            or dups.dtype != np.int64 or dups.ndim != 2 or dups.shape[1] != 2
            or digest != _cache_digest(start, values, dups)):
        return None
    return int(start), values, list(map(tuple, dups.tolist()))


def _write_sidecar(sidecar, key, start, values, duplicates):
    """Store a parse in `sidecar` by a rename from a temporary file beside it.
    Where that cannot be written, nothing is stored and nothing is said: the
    sidecar only saves a parse."""
    arrays = {"start": np.array(start, dtype=np.int64), "values": values,
              "duplicates": np.array(duplicates, dtype=np.int64).reshape(-1, 2)}
    tmp = f"{sidecar}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "xb")
    except OSError:  # a directory that cannot be written, or a stale name
        return
    try:
        with fh:
            np.savez(fh, key=np.array(key),
                     digest=np.array(_cache_digest(*arrays.values())), **arrays)
        os.replace(tmp, sidecar)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _read_rows(path, raw):
    """Check the header of the CSV bytes `raw` and parse every data line in
    one `np.loadtxt` call.

    Returns the rows as a structured array.
    """
    header, data = (_NEWLINE.split(raw, 1) + [b""])[:2]
    if header != CSV_HEADER.encode():
        header = header[:len(CSV_HEADER) + 2].decode("utf-8", "replace")
        raise ParseError(f"{path}: bad header {header!r}")
    _check_lines(path, data)
    if data.isascii() and b"_" not in data:
        # Decoded line by line: a whole-body str stream would hold 4 bytes
        # per character.
        lines = io.TextIOWrapper(io.BytesIO(data), encoding="ascii", newline="")
    else:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: line {_line_at(data, exc.start)}: "
                             f"{exc}") from None
        lines = io.StringIO(_python_number_syntax(text), newline="")
    # loadtxt pulls one line at a time, so after an error the counter has
    # passed every line up to the bad one.
    line_no = itertools.count(2)
    try:
        return np.loadtxt(map(itemgetter(1), zip(line_no, lines)),
                          dtype=_CSV_ROW, delimiter=",", comments=None, ndmin=1)
    except ValueError as exc:
        raise ParseError(f"{path}: line {next(line_no) - 1}: "
                         f"{str(exc).split(' at row ')[0]}") from None


def _check_lines(path, data):
    """Reject the lines np.loadtxt accepts and Python's int/float do not."""
    # U+001C..U+001F: whitespace to loadtxt, not to Python.
    control = min((i for i in map(data.find, (b"\x1c", b"\x1d", b"\x1e", b"\x1f"))
                   if i >= 0), default=None)
    if control is not None:
        raise ParseError(f"{path}: line {_line_at(data, control)}: control "
                         f"character U+{data[control]:04X} in a field")
    if re.fullmatch(rb"[\r\n]*", data):
        raise ParseError(f"{path}: no data rows")


def _python_number_syntax(text):
    """Rewrite the number spellings Python's int/float accept into ones
    `np.loadtxt` parses to the same value: non-ASCII decimal digits become
    ASCII, and underscores between two digits go. Any other underscore is
    kept, and both parsers reject the field that holds it."""
    text = text.translate({ord(c): str(int(c)) for c in set(text)
                           if c.isdecimal() and not c.isascii()})
    return re.sub(r"(?<=[0-9])_(?=[0-9])", "", text)


def _line_at(data, pos):
    """File line number of byte `pos` of the data after the header."""
    return len(_NEWLINE.split(data[:pos])) + 1


def _data_line(raw, row):
    """Line number of data row `row` in the file bytes `raw`; blank lines
    hold no row."""
    lines = _NEWLINE.split(raw)
    return [ln for ln, text in enumerate(lines[1:], start=2) if text][row]


def write_text(path, chunks) -> None:
    """Write an iterable of str chunks to `path` as UTF-8 with LF line ends,
    as csipred writes every text file. A bare str would go out a character
    at a time, so it is refused."""
    if isinstance(chunks, str):
        raise ContractViolation("write_text takes an iterable of str chunks")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(chunks)


def save_csi(series: CsiSeries, path) -> None:
    rows = zip(series.values.real.T.tolist(), series.values.imag.T.tolist())
    write_text(path, itertools.chain([CSV_HEADER + "\n"], (
        f"{series.start_index + t},{ant},{re!r},{im!r}\n"
        for t, row in enumerate(rows) for ant, (re, im) in enumerate(zip(*row)))))


def clean(series: CsiSeries, max_gap=MAX_INTERP_GAP):
    """Fill missing samples by linear interpolation; report every action."""
    report = CleaningReport(duplicates_collapsed=len(series.duplicate_rows))
    values = series.values.copy()
    for ant in range(values.shape[0]):
        row = values[ant]
        missing = np.isnan(row.real) | np.isnan(row.imag)
        if not missing.any():
            continue
        # Gap-length check before interpolating.
        idx = np.flatnonzero(missing)
        run = 1
        for i in range(1, len(idx)):
            run = run + 1 if idx[i] == idx[i - 1] + 1 else 1
            if run > max_gap:
                raise UnrecoverableGapError(
                    f"antenna {ant}: gap longer than {max_gap} samples "
                    f"around index {series.start_index + idx[i]}")
        good = ~missing
        if missing[0] or missing[-1]:
            raise UnrecoverableGapError(
                f"antenna {ant}: missing samples at the series boundary")
        xs = np.arange(len(row))
        row.real[missing] = np.interp(xs[missing], xs[good], row.real[good])
        row.imag[missing] = np.interp(xs[missing], xs[good], row.imag[good])
        report.samples_interpolated += int(missing.sum())
    return CsiSeries(sample_interval=series.sample_interval,
                     start_index=series.start_index, values=values,
                     duplicate_rows=[]), report


def split_chronological(series: CsiSeries, fractions=FRACTIONS,
                        min_segment=1):
    """Contiguous train/validation/test segments; remainder goes to training."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ContractViolation("split fractions must sum to 1")
    n = series.length
    n_val = int(n * fractions[1])
    n_test = int(n * fractions[2])
    n_train = n - n_val - n_test
    if min(n_train, n_val, n_test) < min_segment:
        raise DataError(
            f"series of length {n} too short for split {fractions} with "
            f"minimum segment {min_segment}")
    out = []
    pos = 0
    for seg in (n_train, n_val, n_test):
        out.append(CsiSeries(sample_interval=series.sample_interval,
                             start_index=series.start_index + pos,
                             values=series.values[:, pos:pos + seg].copy()))
        pos += seg
    return tuple(out)


def complex_to_features(series: CsiSeries):
    """Each antenna yields two real streams: ant{k}_re and ant{k}_im."""
    feats = []
    for ant in range(series.antenna_count):
        row = series.values[ant]
        feats.append(FeatureSeries(f"ant{ant}_re", row.real.copy(),
                                   series.start_index))
        feats.append(FeatureSeries(f"ant{ant}_im", row.imag.copy(),
                                   series.start_index))
    return feats


def fit_scaler(train_values) -> Scaler:
    v = np.asarray(train_values, dtype=float)
    lo, hi = float(v.min()), float(v.max())
    if hi - lo <= 0.0:
        raise DegenerateScaleError("constant feature: zero range on training split")
    return Scaler(shift=lo, half_range=(hi - lo) / 2.0)


def make_windows(values, d, D, start_index=0, feature_id="", stride=1
                 ) -> SupervisedWindowSet:
    """One window per valid origin t: lags t-d..t-1 predict labels t+1..t+D.

    `values` (n,) gives X (N, d) and Y (N, D); the streams of `values`
    (F, n), all cut at the same origins, give a stack, X (F, N, d) and Y
    (F, N, D)."""
    v = np.asarray(values, dtype=float)
    n = v.shape[-1]
    if n < d + D + 1:
        raise ContractViolation(
            f"series of length {n} too short for d={d}, D={D}")
    origins = np.arange(d, n - D, stride)
    # Copies in C order, so the windows share no memory with `values` and
    # each stream's rows of a stack are contiguous.
    X = sliding_window_view(v, d, axis=-1)[..., :n - D - d:stride, :].copy()
    Y = sliding_window_view(v, D, axis=-1)[..., d + 1:n - D + 1:stride, :].copy()
    return SupervisedWindowSet(d=d, D=D, feature_id=feature_id,
                               t=origins + start_index, X=X, Y=Y)


@dataclass
class PreparedFeature:
    feature: FeatureSeries
    scaler: Scaler
    windows: dict  # split name -> SupervisedWindowSet (normalized values)


@dataclass
class PreparedDataset:
    """F prepared feature streams: each split's windows of all of them as one
    stack, X (F, N, d) and Y (F, N, D), and each stream's series and scaler.
    `prepared[k]` is stream k's PreparedFeature and `prepared[a:b]` the
    PreparedDataset of streams a..b-1, both with row views of these stacks."""

    features: list  # FeatureSeries per stream
    scalers: list  # Scaler per stream
    stacks: dict  # split name -> SupervisedWindowSet of every stream

    def __len__(self):
        return len(self.features)

    def __getitem__(self, rows):
        if isinstance(rows, slice):
            return PreparedDataset(self.features[rows], self.scalers[rows], {
                name: replace(ws, X=ws.X[rows], Y=ws.Y[rows])
                for name, ws in self.stacks.items()})
        # An index past the last stream raises IndexError here, which ends
        # a `for pf in prepared` loop.
        feature = self.features[rows]
        return PreparedFeature(feature, self.scalers[rows], {
            name: replace(ws, feature_id=feature.feature_id, X=ws.X[rows],
                          Y=ws.Y[rows])
            for name, ws in self.stacks.items()})


def prepare_dataset(series: CsiSeries, d, D, fractions=FRACTIONS,
                    stride=1):
    """Full preprocessing: clean, split, separate re/im, normalize, window.

    Every feature's scaler is fitted by `fit_scaler` on its training split
    only; windows are built per split so none straddles a boundary. Each
    split is normalized stream by stream with those scalers and windowed for
    all feature streams at once, into the stacks of a PreparedDataset.
    Returns it plus a digest over all window arrays, stream by stream
    (fairness contract).
    """
    cleaned, _ = clean(series)
    min_seg = d + D + 3
    segments = split_chronological(cleaned, fractions, min_segment=min_seg)
    split_feats = [complex_to_features(seg) for seg in segments]
    scalers = [fit_scaler(feat.values) for feat in split_feats[0]]
    stacks = [make_windows(
        np.stack([sc.transform(feat.values) for sc, feat in zip(scalers, feats)]),
        d, D, start_index=seg.start_index, stride=stride)
        for feats, seg in zip(split_feats, segments)]
    digest = hashlib.sha256()
    for k, ws in itertools.product(range(len(scalers)), stacks):
        digest.update(ws.X[k])
        digest.update(ws.Y[k])
    return PreparedDataset(split_feats[0], scalers, dict(zip(
        ("train", "val", "test"), stacks))), digest.hexdigest()
