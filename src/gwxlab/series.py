"""Time-series container, windowing, strain and PSD files, and Welch PSD.

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
import os
from dataclasses import dataclass

import numpy as np
import scipy.signal

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


def _readonly_f64(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


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
    def dt(self) -> float:
        return 1.0 / self.fs

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
        values = np.maximum(values, PSD_FLOOR_RATIO * float(np.median(positive)))
        if not np.all(values > 0):
            raise DegeneracyError("PSD still holds zero or NaN bins after flooring")
        return values

    def band_mean(self, f_lo: float, f_hi: float) -> float:
        f = self.frequencies()
        mask = (f >= f_lo) & (f <= f_hi)
        if not np.any(mask):
            raise ValidationError(f"band {f_lo}..{f_hi} Hz covers no PSD bins")
        return float(np.mean(self.values[mask]))


# ---------------------------------------------------------------------------
# strain file formats


def _parse_header_line(line: str, lineno: int, key: str) -> str:
    prefix = f"# {key}="
    if not line.startswith(prefix):
        raise ParseError(f"line {lineno}: expected '{prefix}<value>', got {line!r}")
    return line[len(prefix):]


def load_strain(path: str | os.PathLike, format: str = "gwx-text") -> TimeSeries:
    """Read a strain file.

    ``gwx-text`` is the native header-plus-samples format written by
    :func:`save_strain`; ``csv`` expects a ``t_s,strain`` table with a
    uniform time column.
    """
    if format == "gwx-text":
        return _load_gwx(path)
    if format == "csv":
        return _load_csv(path)
    raise ValidationError(f"unknown strain format {format!r}")


def _read_text(path) -> str:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not a text strain file: {exc}") from exc


def _load_gwx(path) -> TimeSeries:
    lines = _read_text(path).splitlines()
    if not lines or lines[0] != GWX_MAGIC:
        raise ParseError(f"line 1: expected {GWX_MAGIC!r}")
    if len(lines) < 4:
        raise ParseError(f"line {len(lines) + 1}: truncated header")
    try:
        fs = float(_parse_header_line(lines[1], 2, "fs_hz"))
        t0 = float(_parse_header_line(lines[2], 3, "t0_s"))
        n = int(_parse_header_line(lines[3], 4, "n"))
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(f"malformed header value: {exc}") from exc
    body = lines[4:]
    # allow one trailing blank line from the final newline
    while body and body[-1] == "":
        body.pop()
    if len(body) != n:
        raise ParseError(
            f"sample count mismatch: header says n={n}, file holds {len(body)} samples"
        )
    samples = np.empty(n, dtype=np.float64)
    for k, text in enumerate(body):
        try:
            samples[k] = float(text)
        except ValueError as exc:
            raise ParseError(f"line {k + 5}: non-numeric sample {text!r}") from exc
    return TimeSeries(fs=fs, t0=t0, samples=samples)


def _load_csv(path) -> TimeSeries:
    reader = _csv.reader(io.StringIO(_read_text(path)))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("line 1: empty file") from None
    if header != ["t_s", "strain"]:
        raise ParseError(f"line 1: expected header 't_s,strain', got {header!r}")
    t, x = [], []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise ParseError(f"line {lineno}: expected two columns, got {len(row)}")
        try:
            t.append(float(row[0]))
            x.append(float(row[1]))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-numeric value: {exc}") from exc
    if len(t) < 2:
        raise ParseError("csv strain needs at least two rows to define a sample rate")
    t_arr = np.asarray(t)
    steps = np.diff(t_arr)
    if np.any(steps <= 0):
        raise ParseError("time column must be strictly increasing")
    mean_step = float(np.mean(steps))
    if np.max(np.abs(steps - mean_step)) > 1e-6 * mean_step:
        raise ParseError("time column is not uniformly sampled")
    return TimeSeries(fs=1.0 / mean_step, t0=float(t_arr[0]), samples=np.asarray(x))


def save_strain(ts: TimeSeries, path: str | os.PathLike, format: str = "gwx-text") -> None:
    """Write a strain file; gwx-text round-trips bit-exactly through repr."""
    if format == "gwx-text":
        buf = io.StringIO()
        buf.write(f"{GWX_MAGIC}\n")
        buf.write(f"# fs_hz={ts.fs!r}\n")
        buf.write(f"# t0_s={ts.t0!r}\n")
        buf.write(f"# n={ts.n}\n")
        for v in ts.samples:
            buf.write(f"{float(v)!r}\n")
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(buf.getvalue())
        return
    if format == "csv":
        times = ts.times()
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("t_s,strain\n")
            for tv, xv in zip(times, ts.samples):
                fh.write(f"{float(tv)!r},{float(xv)!r}\n")
        return
    raise ValidationError(f"unknown strain format {format!r}")


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
        try:
            f.append(float(row[0]))
            v.append(float(row[1]))
        except (ValueError, IndexError) as exc:
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
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("f_hz,psd\n")
        for fv, pv in zip(psd.frequencies(), psd.values):
            fh.write(f"{float(fv)!r},{float(pv)!r}\n")


# ---------------------------------------------------------------------------
# windowing and Welch PSD


def slice_window(ts: TimeSeries, t_start: float, duration: float) -> TimeSeries:
    """Extract ``[t_start, t_start + duration]``, snapped to the sample grid.

    The returned series starts at the snapped time and holds
    ``round(duration * fs)`` samples.
    """
    if duration <= 0:
        raise ValidationError(f"window duration must be positive, got {duration}")
    i0 = int(round((t_start - ts.t0) * ts.fs))
    n = int(round(duration * ts.fs))
    if n < 1:
        raise ValidationError("window shorter than one sample")
    if i0 < 0 or i0 + n > ts.n:
        raise ValidationError(
            f"window [{t_start}, {t_start + duration}] s falls outside the series "
            f"[{ts.t0}, {ts.t0 + ts.duration}] s"
        )
    return TimeSeries(ts.fs, ts.t0 + i0 / ts.fs, ts.samples[i0:i0 + n])


_WELCH_WINDOWS = {"blackman": "blackman", "hann": "hann", "rect": "boxcar"}


def welch_psd(
    ts: TimeSeries,
    segment_len: int | None = None,
    overlap: float = 0.5,
    window: str = "blackman",
) -> PowerSpectrum:
    """One-sided Welch PSD estimate.

    Defaults: ``segment_len = 4 * fs`` samples (capped at the series
    length), 50% overlap, Blackman window.  For unit-variance white noise
    the band-averaged level is 2/fs.
    """
    if segment_len is None:
        segment_len = min(int(round(4 * ts.fs)), ts.n)
    segment_len = int(segment_len)
    if segment_len < 2:
        raise ValidationError("segment_len must be at least 2 samples")
    if segment_len > ts.n:
        raise ValidationError(
            f"segment_len {segment_len} exceeds series length {ts.n}"
        )
    if not 0.0 <= overlap < 1.0:
        raise ValidationError(f"overlap must lie in [0, 1), got {overlap}")
    if window not in _WELCH_WINDOWS:
        raise ValidationError(
            f"unknown window {window!r}; pick one of {sorted(_WELCH_WINDOWS)}"
        )
    _, pxx = scipy.signal.welch(
        ts.samples,
        fs=ts.fs,
        window=_WELCH_WINDOWS[window],
        nperseg=segment_len,
        noverlap=int(round(overlap * segment_len)),
        detrend=False,
        return_onesided=True,
        scaling="density",
    )
    return PowerSpectrum(df=ts.fs / segment_len, values=pxx)
