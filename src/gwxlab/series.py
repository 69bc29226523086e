"""Time-series container, windowing, Welch PSD, and every file format.

Every file the lab reads or writes goes through this module: gwx-text
strain, CSV tables (PSDs, reports, CLI outputs) and JSON (summaries,
PSD models, template metadata, scenario configs).

The text writers are column-wise.  A table is a list of equal-length
columns; a float64 array column is formatted in one pass of
``float.__repr__`` over its ``tolist()``, and any other column (ints,
booleans, ``None`` for a missing statistic) cell by cell.  Rows are
joined and written ``_WRITE_BLOCK_ROWS`` at a time, never as one string
for the whole file: a 32 s block has 131,072 samples, and formatting
each file at once raised the peak RSS of the benchmark's file-based
command chain (``perfbench`` workload ``cli-pipeline``) from 138 to
160 MiB, over its 10% bound.
gwx-text samples are written the same way, and read back the same way:
``_WRITE_BLOCK_ROWS`` lines at a time from the open file, each block in
one ``np.fromiter`` pass that falls back to a line-by-line loop only to
name the line of a non-numeric sample.  The blocks are joined once their
count matches the header's ``n``, so reading a 32 s file peaks at about
2 MiB of heap, where reading it whole and splitting it into 131,072
line strings took 12.6 MiB.

Everything downstream (conditioning, templates, detection, simulation)
moves data around as :class:`TimeSeries` and :class:`PowerSpectrum`
values.  All operations are pure: values are immutable after
construction and safe to share across threads.

PSDs are one-sided densities in strain^2/Hz, so unit-variance white
noise at sample rate fs sits at the level 2/fs.
"""

from __future__ import annotations

import csv as _csv
import io
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegeneracyError, ParseError, ValidationError

__all__ = [
    "TimeSeries",
    "PowerSpectrum",
    "load_strain",
    "save_strain",
    "load_psd_csv",
    "save_psd_csv",
    "slice_window",
    "welch_psd",
]

GWX_MAGIC = "# gwx-strain v1"

# PSD bins are floored at this fraction of a median PSD level before
# anything divides by them
PSD_FLOOR_RATIO = 1e-12
# rows formatted and written per block by the text writers
_WRITE_BLOCK_ROWS = 8192
# Welch segments per batched rfft, so the scratch does not grow with the
# series: 16 segments of the default 4 s at 4096 Hz take 2 MiB
_WELCH_ROWS = 16


def _readonly_f64(values, name: str) -> np.ndarray:
    """A read-only 1-D float64 array owning its data is adopted, anything else copied."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.flags.writeable or arr.base is not None:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


def _median(values: np.ndarray) -> float:
    """``np.median`` of a non-empty NaN-free 1-D float array, bit for bit:
    the mean, as ``np.median`` takes it, of the middle element of an odd
    count or the two middle elements of an even one, found by
    ``np.partition``.  Unlike the first ``np.median`` of a process, it does
    not import ``numpy.ma``."""
    h, odd = divmod(values.size, 2)
    part = np.partition(values, h if odd else (h - 1, h))
    return float(np.mean(part[h - 1 + odd:h + 1]))


def _check_rate(fs_a: float, fs_b: float, what: str) -> None:
    """Refuse two sample rates further apart than 1e-9 of ``fs_a``; ``what`` names the pair."""
    if abs(fs_a - fs_b) > 1e-9 * fs_a:
        raise ValidationError(f"sample-rate mismatch ({what}): {fs_a} vs {fs_b} Hz")


def _finite(x) -> bool:
    """True for a finite real number that is not a bool."""
    try:
        return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an integer too large for a float
        return False


def _samples(seconds: float, fs: float, what: str) -> int:
    """``round(seconds * fs)`` samples; refused, naming ``what``, past any array's reach."""
    count = seconds * fs
    if not abs(count) <= np.iinfo(np.intp).max // 16:
        raise ValidationError(f"{what} of {seconds!r} s at {fs!r} Hz is {count!r} samples, "
                              "more than an array can hold; shorten it or lower the rate")
    return int(round(count))


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Uniformly sampled real sequence with sample rate and start time.

    Parameters
    ----------
    fs : float
        Sample rate in Hz, > 0.
    t0 : float
        Time of the first sample in seconds.
    samples : array_like
        Finite real samples (dimensionless strain).
    """

    fs: float
    t0: float
    samples: np.ndarray

    def __post_init__(self):
        fs = float(self.fs)
        if not np.isfinite(fs) or fs <= 0:
            raise ValidationError(f"sample rate must be positive and finite, got {fs}")
        t0 = float(self.t0)
        if not np.isfinite(t0):
            raise ValidationError(f"start time must be finite, got {t0}")
        samples = _readonly_f64(self.samples, "samples")
        if samples.size < 1:
            raise ValidationError("series must hold at least one sample")
        if not np.all(np.isfinite(samples)):
            raise ValidationError("samples must be finite (no NaN/Inf)")
        object.__setattr__(self, "fs", fs)
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "samples", samples)

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.fs

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.samples.size) / self.fs

    def with_samples(self, samples) -> "TimeSeries":
        """Same fs/t0, new data."""
        return TimeSeries(self.fs, self.t0, samples)


@dataclass(frozen=True, eq=False)
class PowerSpectrum:
    """One-sided PSD on a uniform grid starting at 0 Hz, strain^2/Hz."""

    df: float
    values: np.ndarray

    def __post_init__(self):
        df = float(self.df)
        if not np.isfinite(df) or df <= 0:
            raise ValidationError(f"bin spacing must be positive, got {df}")
        values = _readonly_f64(self.values, "values")
        if values.size < 2:
            raise ValidationError("PSD needs at least two bins")
        if not np.all(values >= 0):
            raise ValidationError("PSD values must be nonnegative")
        object.__setattr__(self, "df", df)
        object.__setattr__(self, "values", values)

    def frequencies(self) -> np.ndarray:
        return np.arange(self.values.size) * self.df

    def interpolated(self, df: float, n_bins: int) -> np.ndarray:
        """Resample onto a grid ``k*df, k=0..n_bins-1``.

        Linear in log-power, clamped at both grid edges; exact zeros stay
        (numerically) zero.
        """
        if df <= 0 or n_bins < 1:
            raise ValidationError("interpolation grid must have df > 0 and n_bins >= 1")
        tiny = 1e-300
        logv = np.log(np.maximum(self.values, tiny))
        f_new = np.arange(n_bins) * df
        out = np.exp(np.interp(f_new, self.frequencies(), logv))
        out[out <= 10 * tiny] = 0.0
        return out

    def floored(self, df: float, n_bins: int) -> np.ndarray:
        """:meth:`interpolated`, with bins below ``PSD_FLOOR_RATIO`` times
        the median positive bin raised to that floor, ready to divide by."""
        values = self.interpolated(df, n_bins)
        positive = values[values > 0]
        if positive.size == 0:
            raise DegeneracyError("PSD is zero everywhere")
        values = np.maximum(values, PSD_FLOOR_RATIO * _median(positive))
        if not np.all(values > 0):
            raise DegeneracyError("PSD still holds zero or NaN bins after flooring")
        return values


# ---------------------------------------------------------------------------
# file formats: every file the lab reads or writes goes through these helpers


def _read_text(path) -> str:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{os.fspath(path)}: not an ASCII text file: {exc}") from exc


def _parse_header_line(line: str, lineno: int, key: str) -> str:
    prefix = f"# {key}="
    if not line.startswith(prefix):
        raise ParseError(f"line {lineno}: expected '{prefix}<value>', got {line!r}")
    return line[len(prefix):]


def load_strain(path: str | os.PathLike) -> TimeSeries:
    """Read a gwx-text strain file written by :func:`save_strain`; any
    number of blank lines may follow the last sample, and nothing else."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            head = [line.rstrip("\n") for _, line in zip(range(4), fh)]
            if not head or head[0] != GWX_MAGIC:
                raise ParseError(f"line 1: expected {GWX_MAGIC!r}")
            if len(head) < 4:
                raise ParseError(f"line {len(head) + 1}: truncated header")
            try:
                fs = float(_parse_header_line(head[1], 2, "fs_hz"))
                t0 = float(_parse_header_line(head[2], 3, "t0_s"))
                n = int(_parse_header_line(head[3], 4, "n"))
            except ValueError as exc:
                raise ParseError(f"malformed header value: {exc}") from exc
            blocks, lineno = [], 5
            while lines := [line for _, line in zip(range(_WRITE_BLOCK_ROWS), fh)]:
                try:
                    blocks.append(np.fromiter(map(float, lines), np.float64, len(lines)))
                except ValueError:
                    for k, text in enumerate(lines):
                        try:
                            float(text)
                        except ValueError:
                            break
                    if any(t != "\n" for t in lines[k:]) or any(t != "\n" for t in fh):
                        text = text.rstrip("\n")
                        raise ParseError(f"line {lineno + k}: non-numeric sample "
                                         f"{text!r}") from None
                    blocks.append(np.fromiter(map(float, lines[:k]), np.float64, k))
                lineno += len(lines)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{os.fspath(path)}: not an ASCII text file: {exc}") from exc
    count = sum(map(len, blocks))
    if count != n:
        raise ParseError(
            f"sample count mismatch: header says n={n}, file holds {count} samples"
        )
    samples = np.concatenate(blocks) if blocks else np.empty(0)
    samples.setflags(write=False)  # frozen, so the series adopts it, not a copy
    return TimeSeries(fs=fs, t0=t0, samples=samples)


def save_strain(ts: TimeSeries, path: str | os.PathLike) -> None:
    """Write a gwx-text strain file; it round-trips bit-exactly through repr."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{GWX_MAGIC}\n# fs_hz={ts.fs!r}\n# t0_s={ts.t0!r}\n# n={ts.n}\n")
        _write_rows(fh, [ts.samples])


def load_psd_csv(path) -> PowerSpectrum:
    """Read a PSD table written by :func:`save_psd_csv`."""
    reader = _csv.reader(io.StringIO(_read_text(path)))
    header = next(reader, None)
    if header != ["f_hz", "psd"]:
        raise ParseError(f"line 1: expected header 'f_hz,psd', got {header!r}")
    f, v = [], []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise ParseError(f"line {lineno}: expected two columns 'f_hz,psd', got {len(row)}")
        try:
            f.append(float(row[0]))
            v.append(float(row[1]))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad row: {exc}") from exc
    if len(f) < 2:
        raise ParseError("PSD csv needs at least two rows")
    f_arr = np.asarray(f)
    df = float(f_arr[1] - f_arr[0])
    if df <= 0 or np.max(np.abs(np.diff(f_arr) - df)) > 1e-6 * df:
        raise ParseError("frequency column must be a uniform grid")
    if abs(f_arr[0]) > 1e-9 * df:
        raise ParseError("frequency grid must start at 0 Hz")
    return PowerSpectrum(df=df, values=np.asarray(v))


def save_psd_csv(psd: PowerSpectrum, path) -> None:
    _write_csv(path, ["f_hz", "psd"], [psd.frequencies(), psd.values])


def _format_cell(value) -> str:
    if isinstance(value, float):  # numpy float64 included
        return repr(float(value))
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _format_column(column):
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        return map(float.__repr__, column.tolist())
    return map(_format_cell, column)


def _write_rows(fh, columns) -> None:
    """Write equal-length columns as comma-separated rows, block by block."""
    n = min(map(len, columns), default=0)
    for start in range(0, n, _WRITE_BLOCK_ROWS):
        stop = start + _WRITE_BLOCK_ROWS
        # a column passed twice (``rho_reweighted`` is ``rho`` when nothing
        # reweights) is formatted once
        formatted = {}
        for col in columns:
            if id(col) not in formatted:
                formatted[id(col)] = list(_format_column(col[start:stop]))
        cells = [formatted[id(col)] for col in columns]
        rows = cells[0] if len(cells) == 1 else map(",".join, zip(*cells))
        fh.write("\n".join(rows) + "\n")


def _write_csv(path, header, columns) -> None:
    """Write one CSV table, given as a list of columns: PSD tables, report
    tables and CLI tables.

    Nothing needs CSV quoting: headers are identifiers, and cells are
    numbers, booleans or empty.
    """
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        _write_rows(fh, columns)


def _non_finite_keys(obj, path: str = ""):
    """Paths (``a.b[2]``) of the NaN and infinite floats in a JSON-like value."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _non_finite_keys(v, f"{path}.{k}" if path else str(k))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from _non_finite_keys(v, f"{path}[{i}]")
    elif isinstance(obj, float) and not math.isfinite(obj):
        yield path


def _json_text(obj) -> str:
    """The lab's JSON layout: sorted keys, 2-space indent, ASCII, finite numbers."""
    bad = sorted(_non_finite_keys(obj))
    if bad:
        raise ValidationError(
            f"values must be finite to be written as JSON; "
            f"not finite: {', '.join(map(repr, bad))}"
        )
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


def _write_json(path, text: str) -> None:
    """Write :func:`_json_text` output plus a final LF."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text + "\n")


def _read_json(path) -> dict:
    """Read a JSON object; malformed JSON or another top-level value is a ParseError."""
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{os.fspath(path)}: line {exc.lineno} column {exc.colno}: "
            f"invalid JSON: {exc.msg}"
        ) from None
    except ValueError:  # json's int() refuses integers this long
        raise ParseError(
            f"{os.fspath(path)}: invalid JSON: an integer has more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None
    if not isinstance(data, dict):
        raise ParseError(
            f"{os.fspath(path)}: expected a JSON object, got {type(data).__name__}"
        )
    return data


# ---------------------------------------------------------------------------
# windowing and Welch PSD


def slice_window(ts: TimeSeries, t_start: float, duration: float) -> TimeSeries:
    """Extract ``[t_start, t_start + duration]``, snapped to the sample grid.

    The returned series starts at the snapped time and holds
    ``round(duration * fs)`` samples.
    """
    if duration <= 0:
        raise ValidationError(f"window duration must be positive, got {duration}")
    i0 = _samples(t_start - ts.t0, ts.fs, "window start")
    n = _samples(duration, ts.fs, "window duration")
    if n < 1:
        raise ValidationError("window shorter than one sample")
    if i0 < 0 or i0 + n > ts.n:
        raise ValidationError(
            f"window [{t_start}, {t_start + duration}] s falls outside the series "
            f"[{ts.t0}, {ts.t0 + ts.duration}] s"
        )
    return TimeSeries(ts.fs, ts.t0 + i0 / ts.fs, ts.samples[i0:i0 + n])


def welch_psd(ts: TimeSeries, segment_len: int | None = None) -> PowerSpectrum:
    """One-sided Welch PSD estimate with a Blackman window and 50% overlap,
    as in LIGO's GW150914 tutorial processing.

    ``segment_len`` defaults to ``4 * fs`` samples, capped at the series
    length.  For unit-variance white noise the band-averaged level is 2/fs.

    The estimate is ``scipy.signal.welch`` (no detrend, mean average) on
    numpy, in scipy's order of operations, so it gives scipy 1.17's bytes:
    scipy's periodic Blackman window ``0.42 - 0.5 cos(2 pi k/N) + 0.08
    cos(4 pi k/N)``, scaled by ``1 / sqrt(dt * sum w**2)`` (the density
    scaling), segments ``N - round(N/2)`` samples apart, a batched rfft of
    ``_WELCH_ROWS`` segments at a time, ``|X|**2`` doubled at every bin but
    DC (and Nyquist for even N), then the mean over segments.
    """
    if segment_len is None:
        segment_len = min(_samples(4.0, ts.fs, "default Welch segment"), ts.n)
    n = int(segment_len)
    if n < 2:
        raise ValidationError("segment_len must be at least 2 samples")
    if n > ts.n:
        raise ValidationError(
            f"segment_len {n} exceeds series length {ts.n}"
        )
    phase = np.linspace(-np.pi, np.pi, n + 1)[:n]
    window = 0.42 + 0.5 * np.cos(phase) + 0.08 * np.cos(2.0 * phase)
    # cumsum's last entry is the left-to-right sum that scipy takes
    window *= 1.0 / np.sqrt(np.cumsum(window * window)[-1] / (1.0 / ts.fs))
    segments = sliding_window_view(ts.samples, n)[::n - int(round(0.5 * n))]
    # (frequency, segment), as scipy lays it out, so that the mean adds
    # each bin's segments in scipy's order
    power = np.empty((n // 2 + 1, segments.shape[0]))
    for r in range(0, segments.shape[0], _WELCH_ROWS):
        spec = np.fft.rfft(segments[r:r + _WELCH_ROWS] * window, n)
        power[:, r:r + _WELCH_ROWS] = (spec.real ** 2 + spec.imag ** 2).T
    power[1:None if n % 2 else -1] *= 2.0
    return PowerSpectrum(df=ts.fs / n, values=power.mean(axis=-1))
