"""Band-pass filtering, spectral whitening, and spectral-line handling.

Two whitening variants are provided. ``whiten_full`` divides the strain
spectrum by the noise amplitude spectral density across all frequencies,
which flattens the output but reshapes (distorts) any embedded waveform.
``whiten_localized`` suppresses only detected line bands, dividing by the
PSD excess over the local continuum inside each band, so everything
outside the bands passes through untouched.

The band-pass is the zero-phase Butterworth filter of LIGO's GW150914
tutorial, ``scipy.signal.sosfiltfilt`` of ``butter(order, band)``, on
numpy's FFT.  The design is scipy's: the analog prototype's poles,
moved to the band, then the bilinear transform with prewarped edges.
Its response H is sampled on a grid of M >= 4K points, where the
slowest pole's envelope falls below 2**-60 after K taps.  The filter
itself is the same linear map as ``sosfiltfilt``: an odd extension of
``3 * (2 * n_sections + 1)`` samples at each end, then a forward and a
backward pass, each started from the steady state of a step of its
first input.  Away from the far end, the two passes are one
convolution of the extension with the zero-phase kernel irfft(|H|^2),
run as overlap-save blocks of M points, plus the forward pass's start-up
``ext[0] * sum_j h[j] r[n + j]``, where ``r = H(1) - cumsum(h)`` is the
step response's distance from its steady state.  The last K outputs,
whose backward pass starts inside the kernel's reach, are computed by
two causal passes over the last 2K inputs, each on the smallest
power-of-two grid of at least its length plus K points.  Only FFTs and
elementwise products run, so the bits do not depend on the CPU or on
BLAS threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ValidationError
from .series import PSD_FLOOR_RATIO, PowerSpectrum, TimeSeries, _median

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


# taps of the filter's impulse response are kept until the slowest pole's
# envelope falls below 2**-60 of its start
_TAIL_BITS = 60
# a design that needs more taps is refused: its response grid alone would
# take 4 * 2**20 complex points
_MAX_TAPS = 2 ** 20
# overlap-save blocks per rfft/irfft pair, so the scratch does not grow with
# the series: on the stock band's 16,384-point grid four blocks a call ran
# 1.5x faster per block than one, and as fast as eight
_BLOCK_ROWS = 4
# elements of the windows partitioned at once by the running median
# (512 KiB), so its scratch does not grow with the grid; 65,537 bins at
# k = 257 took 52-67 ms, with 16 to 1,024 windows a chunk alike
_MEDIAN_CHUNK = 1 << 16
# line detection's defaults: a bin is in a line where the PSD exceeds this
# ratio times its running median over this window
_LINE_THRESHOLD = 10.0
_LINE_WINDOW_HZ = 8.0


def _too_long(kind: str, order: int, edges: tuple[float, ...], fs: float) -> ValidationError:
    return ValidationError(
        f"a {kind} of order {order} at {'..'.join(f'{f:g}' for f in edges)} Hz and "
        f"fs={fs:g} Hz needs more than {_MAX_TAPS} samples of impulse response to "
        f"decay; raise the lower edge (--band) or lower the order (--order)"
    )


class _ZeroPhasePlan:
    """``sosfiltfilt`` of a digital Butterworth filter; see the module notes.

    ``kind`` is ``"bandpass"`` with ``edges = (f_lo, f_hi)`` or
    ``"lowpass"`` with ``edges = (f_c,)``, as for ``scipy.signal.butter``.
    """

    def __init__(self, kind: str, order: int, edges: tuple[float, ...], fs: float):
        # every design needs more than 16 taps per order (23 was the least
        # seen), so a steeper one is refused before its poles take memory
        if 16 * order > _MAX_TAPS:
            raise _too_long(kind, order, edges, fs)
        proto = -np.exp(1j * np.pi * np.arange(1 - order, order, 2) / (2 * order))
        warped = [4.0 * math.tan(math.pi * f / fs) for f in edges]  # at fs = 2
        if kind == "bandpass":
            bw = warped[1] - warped[0]
            half = proto * (bw / 2.0)
            root = np.sqrt(half * half - warped[0] * warped[1])
            analog = np.concatenate((half + root, half - root))
            zeros = np.concatenate((np.ones(order), -np.ones(order)))
            gain = (4.0 * bw) ** order  # the prototype's gain, its zeros at s = 0
        else:
            analog = warped[0] * proto
            zeros = -np.ones(order)
            gain = warped[0] ** order
        poles = (4.0 + analog) / (4.0 - analog)
        gain /= np.prod(4.0 - analog).real
        decay = -math.log(float(np.max(np.abs(poles))))
        taps = math.ceil(_TAIL_BITS * math.log(2.0) / decay) + 1 if decay > 0 else math.inf
        if taps > _MAX_TAPS:
            raise _too_long(kind, order, edges, fs)
        size = 1 << (4 * taps - 1).bit_length()
        z = np.exp(2j * np.pi * np.arange(size // 2 + 1) / size)
        response = np.full(z.size, gain, dtype=np.complex128)
        for zero, pole in zip(zeros, poles):
            response *= (z - zero) / (z - pole)
        h = np.fft.irfft(response, size)[:taps]
        self.taps, self.size, self.response = taps, size, response
        self.power = response.real ** 2 + response.imag ** 2
        self.padlen = 3 * (2 * (poles.size // 2) + 1)  # every design has even poles
        self.settle = response[0].real - np.cumsum(h)
        self.startup = np.fft.irfft(response.conj() * np.fft.rfft(self.settle, size),
                                    size)[:taps]

    def _causal(self, x: np.ndarray) -> np.ndarray:
        """The filter run forward over ``x`` from rest, on the smallest grid
        of ``2**j >= x.size + taps`` points (at most ``size``): there the
        response's wrap-around reaches ``x`` only past the taps.  That grid
        divides ``size``, so every ``size // m``-th entry of the response
        is the response on it, to the bit."""
        m = min(1 << (x.size + self.taps - 1).bit_length(), self.size)
        response = self.response[::self.size // m]
        return np.fft.irfft(np.fft.rfft(x, m) * response, m)[:x.size]

    def _zero_phase(self, padded: np.ndarray, out: np.ndarray) -> None:
        """``out[i]`` = the kernel irfft(|H|^2) convolved with ``padded``,
        at ``padded[i + taps - 1]``; ``padded`` reaches ``size`` past it."""
        reach, size = self.taps - 1, self.size
        step = size - 2 * reach
        blocks = sliding_window_view(padded, size)[::step]
        rows = -(-out.size // step)
        spec = np.empty((min(rows, _BLOCK_ROWS), size // 2 + 1), dtype=np.complex128)
        kept = np.empty((spec.shape[0], size))
        for r in range(0, rows, _BLOCK_ROWS):
            k = min(rows - r, _BLOCK_ROWS)
            np.fft.rfft(blocks[r:r + k], axis=-1, out=spec[:k])
            spec[:k] *= self.power
            np.fft.irfft(spec[:k], size, axis=-1, out=kept[:k])
            dst = out[r * step:(r + k) * step]
            dst[:] = kept[:k, reach:reach + step].reshape(-1)[:dst.size]

    def filtfilt(self, x: np.ndarray) -> np.ndarray:
        edge, taps, n = self.padlen, self.taps, x.size
        if n <= edge:
            raise ValidationError(
                f"series too short for this filter: it needs more than {edge} "
                f"samples, got {n}"
            )
        # the odd extension, inside the zeros that the kernel's blocks read
        padded = np.zeros(n + 2 * edge + taps - 1 + self.size)
        ext = padded[taps - 1:taps - 1 + n + 2 * edge]
        ext[:edge] = 2.0 * x[0] - x[edge:0:-1]
        ext[edge:edge + n] = x
        ext[edge + n:] = 2.0 * x[-1] - x[-2:-edge - 2:-1]
        y = np.empty(n)
        split = max(ext.size - taps, edge)  # the backward pass reaches the end after it
        if split > edge:
            self._zero_phase(padded[edge:], y[:split - edge])
            head = min(split, taps)
            if head > edge:
                y[:head - edge] += ext[0] * self.startup[edge:head]
        a = max(split - taps + 1, 0)
        forward = self._causal(ext[a:])
        head = min(forward.size, taps - a)
        if head > 0:
            forward[:head] += ext[0] * self.settle[a:a + head]
        backward = self._causal(forward[split - a:][::-1])
        head = min(backward.size, taps)
        backward[:head] += forward[-1] * self.settle[:head]
        y[split - edge:] = backward[edge:][::-1]
        return y


@functools.lru_cache(maxsize=4)
def _zero_phase_plan(kind: str, order: int, edges: tuple[float, ...],
                     fs: float) -> _ZeroPhasePlan:
    """The plan for this design; the last four are kept, so a band-pass
    and the bogus phase's low-pass can alternate."""
    return _ZeroPhasePlan(kind, order, edges, fs)


def butterworth_bandpass(
    ts: TimeSeries,
    f_lo: float,
    f_hi: float,
    order: int = 4,
) -> TimeSeries:
    """Zero-phase Butterworth band-pass, one pass forward and one backward,
    as in LIGO's GW150914 tutorial.  Output keeps the input length; discard
    roughly twice the filter settling time at each edge before making
    quantitative use of the result.
    """
    if not (0.0 < f_lo < f_hi < ts.fs / 2):
        raise ValidationError(
            f"band edges must satisfy 0 < f_lo < f_hi < fs/2; "
            f"got {f_lo}..{f_hi} Hz at fs={ts.fs} Hz"
        )
    if order < 1:
        raise ValidationError(f"filter order must be >= 1, got {order}")
    plan = _zero_phase_plan("bandpass", order, (float(f_lo), float(f_hi)), ts.fs)
    y = plan.filtfilt(ts.samples)
    y.setflags(write=False)  # frozen, so the series adopts it, not a copy
    return ts.with_samples(y)


def whiten_full(ts: TimeSeries, psd: PowerSpectrum) -> TimeSeries:
    """Divide the spectrum by the noise amplitude spectral density.

    For noise drawn from ``psd`` the output is unit-variance white: each
    bin is scaled by ``sqrt(2 * dt / psd(f))``.  numpy divides a complex by
    a real through the real's reciprocal, so scaling both parts in place by
    ``1 / sqrt(psd)``, then ``sqrt(2 * dt)``, gives the out-of-place bits.
    """
    n = ts.n
    if n < 2:
        raise ValidationError("whitening needs at least two samples")
    grid = psd.floored(ts.fs / n, n // 2 + 1)
    inv = np.divide(1.0, np.sqrt(grid, out=grid), out=grid)
    spec = np.fft.rfft(ts.samples)
    for part in (spec.real, spec.imag):
        part *= inv
        part *= np.sqrt(2.0 / ts.fs)
    white = np.fft.irfft(spec, n=n)
    white.setflags(write=False)  # frozen, so the series adopts it, not a copy
    return ts.with_samples(white)


def _running_median(values: np.ndarray, df: float, median_window_hz: float,
                    at: np.ndarray | None = None) -> np.ndarray:
    """Running median over an odd kernel of ~``median_window_hz`` (>= 3 bins, <= the grid),
    at the bins ``at`` (every bin when ``None``).

    This is ``scipy.ndimage.median_filter(values, size=k, mode="nearest")``
    on numpy, bit for bit: the grid is edge-padded by ``k // 2`` bins and
    each bin's ``k``-bin window from ``sliding_window_view`` is
    partitioned, ``_MEDIAN_CHUNK // k`` windows at a time, at its middle
    rank.  The median of an odd count is one of the values, so any exact
    selection gives the same bits.
    """
    if not median_window_hz > 0:
        raise ValidationError("median_window_hz must be positive")
    k = max(3, int(round(median_window_hz / df)) | 1)
    k = min(k, values.size | 1)
    h = k // 2
    windows = sliding_window_view(np.pad(values, h, mode="edge"), k)
    out = np.empty(values.size if at is None else at.size)
    rows = max(1, _MEDIAN_CHUNK // k)
    for r in range(0, out.size, rows):
        chunk = windows[r:r + rows] if at is None else windows[at[r:r + rows]]
        out[r:r + rows] = np.partition(chunk, h, axis=1)[:, h]
    return out


def detect_lines(
    psd: PowerSpectrum,
    threshold_ratio: float = _LINE_THRESHOLD,
    median_window_hz: float = _LINE_WINDOW_HZ,
) -> list[LineBand]:
    """Find narrowband PSD peaks relative to a running median.

    Returns maximal bands where ``psd > threshold_ratio * running_median``,
    merged and sorted by center frequency.  Band centers sit on the peak
    bin of each run.  The median's edge padding makes the first and last
    bins their own medians, so they are never flagged, nor is a short run
    within half a window of either edge; symmetric or reflecting padding
    would flag the seismic wall of a 4 s Welch PSD as a line at 0.5 Hz.
    """
    if not threshold_ratio > 1:
        raise ValidationError(f"threshold_ratio must exceed 1, got {threshold_ratio}")
    values = psd.values
    baseline = _running_median(values, psd.df, median_window_hz)
    mask = values > threshold_ratio * baseline
    mask &= baseline > 0
    bands: list[LineBand] = []
    freqs = psd.frequencies()
    # the mask flips at each run's first bin and one past its last
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    for start, stop in zip(edges[::2].tolist(), (edges[1::2] - 1).tolist()):
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
    median_window_hz: float = _LINE_WINDOW_HZ,
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
    df = ts.fs / n
    grid = psd.floored(df, n // 2 + 1)
    weight = _band_weights(np.arange(n // 2 + 1) * df, bands)
    # outside the bands the weight is 0 and excess ** 0 is 1.0, so the
    # running median is needed at the in-band bins only
    inside = np.flatnonzero(weight > 0)
    baseline = np.maximum(_running_median(grid, df, median_window_hz, inside),
                          PSD_FLOOR_RATIO * _median(grid))
    excess = np.sqrt(np.maximum(grid[inside] / baseline, 1.0))
    divisor = np.ones(n // 2 + 1)
    divisor[inside] = excess ** weight[inside]
    spec = np.fft.rfft(ts.samples) / divisor
    return ts.with_samples(np.fft.irfft(spec, n=n))
