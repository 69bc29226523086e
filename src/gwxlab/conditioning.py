"""Band-pass filtering, spectral whitening, and spectral-line handling.

Two whitening variants are provided. ``whiten_full`` divides the strain
spectrum by the noise amplitude spectral density across all frequencies,
which flattens the output but reshapes (distorts) any embedded waveform.
``whiten_localized`` suppresses only detected line bands, dividing by the
PSD excess over the local continuum inside each band, so everything
outside the bands passes through untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.ndimage
import scipy.signal

from .errors import ValidationError
from .series import PSD_FLOOR_RATIO, PowerSpectrum, TimeSeries

__all__ = [
    "LineBand",
    "butterworth_bandpass",
    "whiten_full",
    "whiten_localized",
    "detect_lines",
    "merge_bands",
]


@dataclass(frozen=True)
class LineBand:
    """Narrowband interference region: center, half width, PSD excess."""

    f_center: float
    half_width: float
    peak_ratio: float

    def __post_init__(self):
        if self.f_center <= 0:
            raise ValidationError(f"line center must be > 0 Hz, got {self.f_center}")
        if self.half_width <= 0:
            raise ValidationError(f"half width must be > 0 Hz, got {self.half_width}")
        if not self.peak_ratio > 1:
            raise ValidationError(f"peak ratio must exceed 1, got {self.peak_ratio}")

    @property
    def f_lo(self) -> float:
        return self.f_center - self.half_width

    @property
    def f_hi(self) -> float:
        return self.f_center + self.half_width


def merge_bands(bands) -> tuple[LineBand, ...]:
    """Merge overlapping bands and sort by center frequency."""
    todo = sorted(bands, key=lambda b: b.f_lo)
    merged: list[LineBand] = []
    for band in todo:
        if merged and band.f_lo <= merged[-1].f_hi:
            last = merged.pop()
            lo = min(last.f_lo, band.f_lo)
            hi = max(last.f_hi, band.f_hi)
            merged.append(
                LineBand(
                    f_center=0.5 * (lo + hi),
                    half_width=0.5 * (hi - lo),
                    peak_ratio=max(last.peak_ratio, band.peak_ratio),
                )
            )
        else:
            merged.append(band)
    return tuple(sorted(merged, key=lambda b: b.f_center))


def butterworth_bandpass(
    ts: TimeSeries,
    f_lo: float,
    f_hi: float,
    order: int = 4,
    zero_phase: bool = True,
) -> TimeSeries:
    """Butterworth band-pass, forward-backward (zero phase) by default.

    ``zero_phase=False`` runs a single causal pass instead.  Output keeps
    the input length; discard roughly twice the filter settling time at
    each edge before making quantitative use of the result.
    """
    if not (0.0 < f_lo < f_hi < ts.fs / 2):
        raise ValidationError(
            f"band edges must satisfy 0 < f_lo < f_hi < fs/2; "
            f"got {f_lo}..{f_hi} Hz at fs={ts.fs} Hz"
        )
    if order < 1:
        raise ValidationError(f"filter order must be >= 1, got {order}")
    sos = scipy.signal.butter(order, [f_lo, f_hi], btype="bandpass", fs=ts.fs, output="sos")
    try:
        if zero_phase:
            y = scipy.signal.sosfiltfilt(sos, ts.samples)
        else:
            y = scipy.signal.sosfilt(sos, ts.samples)
    except ValueError as exc:
        raise ValidationError(f"series too short for this filter: {exc}") from exc
    return ts.with_samples(y)


def whiten_full(ts: TimeSeries, psd: PowerSpectrum) -> TimeSeries:
    """Divide the spectrum by the noise amplitude spectral density.

    For noise drawn from ``psd`` the output is unit-variance white: each
    bin is scaled by ``sqrt(2 * dt / psd(f))``.
    """
    n = ts.n
    if n < 2:
        raise ValidationError("whitening needs at least two samples")
    grid = psd.floored(ts.fs / n, n // 2 + 1)
    spec = np.fft.rfft(ts.samples)
    white = spec / np.sqrt(grid) * np.sqrt(2.0 / ts.fs)
    return ts.with_samples(np.fft.irfft(white, n=n))


def detect_lines(
    psd: PowerSpectrum,
    threshold_ratio: float = 10.0,
    median_window_hz: float = 8.0,
) -> list[LineBand]:
    """Find narrowband PSD peaks relative to a running median.

    Returns maximal bands where ``psd > threshold_ratio * running_median``,
    merged and sorted by center frequency.  Band centers sit on the peak
    bin of each run.
    """
    if threshold_ratio <= 1:
        raise ValidationError(f"threshold_ratio must exceed 1, got {threshold_ratio}")
    if median_window_hz <= 0:
        raise ValidationError("median_window_hz must be positive")
    values = psd.values
    k = max(3, int(round(median_window_hz / psd.df)) | 1)
    baseline = scipy.ndimage.median_filter(values, size=min(k, values.size | 1), mode="nearest")
    mask = values > threshold_ratio * baseline
    mask &= baseline > 0
    bands: list[LineBand] = []
    freqs = psd.frequencies()
    in_run = False
    start = 0
    for i in range(mask.size + 1):
        if i < mask.size and mask[i]:
            if not in_run:
                in_run, start = True, i
            continue
        if in_run:
            in_run = False
            stop = i - 1
            peak = start + int(np.argmax(values[start:stop + 1]))
            if freqs[peak] <= 0:
                continue
            half = 0.5 * (freqs[stop] - freqs[start]) + 0.5 * psd.df
            ratio = values[peak] / baseline[peak]
            bands.append(
                LineBand(f_center=float(freqs[peak]), half_width=float(half),
                         peak_ratio=float(ratio))
            )
    return list(merge_bands(bands))


def _band_weights(freqs: np.ndarray, bands) -> np.ndarray:
    """0 outside bands, 1 in band cores, raised-cosine ramps over the
    outer quarter of each half width."""
    w = np.zeros_like(freqs)
    for band in bands:
        ramp = band.half_width / 4.0
        lo, hi = band.f_lo, band.f_hi
        inside = (freqs > lo) & (freqs < hi)
        wb = np.ones(np.count_nonzero(inside))
        f_in = freqs[inside]
        rising = f_in < lo + ramp
        wb[rising] = 0.5 * (1.0 - np.cos(np.pi * (f_in[rising] - lo) / ramp))
        falling = f_in > hi - ramp
        wb[falling] = 0.5 * (1.0 - np.cos(np.pi * (hi - f_in[falling]) / ramp))
        w[inside] = np.maximum(w[inside], wb)
    return w


def whiten_localized(
    ts: TimeSeries,
    psd: PowerSpectrum,
    lines,
    median_window_hz: float = 8.0,
) -> TimeSeries:
    """Suppress spectral lines in place, leaving the rest of the spectrum alone.

    Inside each band the spectrum is divided by the amplitude excess of
    the PSD over its running-median continuum, raised to a tapered weight
    (raised-cosine ramps of half_width/4 at the band edges).  With an
    empty band list this is the identity; with bands covering the whole
    grid over a flat continuum it matches full-band whitening up to an
    overall scale and the taper edges.
    """
    n = ts.n
    if n < 2:
        raise ValidationError("whitening needs at least two samples")
    bands = merge_bands(lines)
    if not bands:
        return ts.with_samples(ts.samples.copy())
    grid = psd.floored(ts.fs / n, n // 2 + 1)
    if median_window_hz <= 0:
        raise ValidationError("median_window_hz must be positive")
    k = max(3, int(round(median_window_hz / (ts.fs / n))) | 1)
    k = min(k, grid.size | 1)
    baseline = scipy.ndimage.median_filter(grid, size=k, mode="nearest")
    baseline = np.maximum(baseline, PSD_FLOOR_RATIO * float(np.median(grid)))
    excess = np.sqrt(np.maximum(grid / baseline, 1.0))
    freqs = np.arange(n // 2 + 1) * (ts.fs / n)
    weight = _band_weights(freqs, bands)
    divisor = excess ** weight
    spec = np.fft.rfft(ts.samples) / divisor
    return ts.with_samples(np.fft.irfft(spec, n=n))
