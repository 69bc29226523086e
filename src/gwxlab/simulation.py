"""Synthetic data: detector-like colored noise, bursts, and injections.

The noise model is a piecewise power-law continuum plus narrow spectral
lines (mains harmonics, a violin-mode cluster).  Noise is synthesized by
shaping white Gaussian draws in the frequency domain with sqrt(PSD),
which gives exact spectral control and bit-reproducible output per seed.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, ParseError, ValidationError
from .rng import rng_for
from .series import PowerSpectrum, TimeSeries, _check_rate, _finite, _read_json, _samples

__all__ = [
    "PsdSegment",
    "PsdLine",
    "PsdModel",
    "BurstSpec",
    "default_detector_model",
    "colored_noise",
    "burst",
    "line_interference",
    "inject",
]


# a line's reach in Gaussian widths: exp(-x**2 / 2) underflows to exactly
# 0.0 beyond x of about 38.6
_LINE_REACH = 40.0


def _check_fields(obj, rule: str, positive: tuple[str, ...], finite: tuple[str, ...] = ()):
    """Raise ``rule`` naming the first field not finite, or not positive if it must be."""
    for name in positive + finite:
        v = getattr(obj, name)
        if not (_finite(v) and (v > 0 or name in finite)):
            raise ValidationError(f"{rule}; got {name}={v!r}")


@dataclass(frozen=True)
class PsdSegment:
    """Power law ``level * (f / f_hz)**slope`` valid from ``f_hz`` upward."""

    f_hz: float
    level: float
    slope: float

    def __post_init__(self):
        _check_fields(self, "segment needs positive finite f_hz and level, finite slope",
                      positive=("f_hz", "level"), finite=("slope",))


@dataclass(frozen=True)
class PsdLine:
    """Gaussian spectral line: continuum multiplied up by ``ratio`` at ``f_hz``."""

    f_hz: float
    ratio: float
    width_hz: float

    def __post_init__(self):
        _check_fields(self, "line needs positive finite f_hz, ratio, width_hz",
                      positive=("f_hz", "ratio", "width_hz"))


@dataclass(frozen=True)
class PsdModel:
    """Piecewise power-law continuum with additive spectral lines.

    Below the first segment the first power law extrapolates, clipped at
    ``f_floor_hz`` so the low-frequency wall stays finite; the value at
    0 Hz equals the value at the clip frequency.
    """

    segments: tuple[PsdSegment, ...]
    lines: tuple[PsdLine, ...] = ()
    f_floor_hz: float = 1.0

    def __post_init__(self):
        segments = tuple(
            s if isinstance(s, PsdSegment) else PsdSegment(**s) for s in self.segments
        )
        lines = tuple(l if isinstance(l, PsdLine) else PsdLine(**l) for l in self.lines)
        if not segments:
            raise ValidationError("model needs at least one segment")
        starts = [s.f_hz for s in segments]
        if sorted(starts) != starts:
            raise ValidationError("segments must be sorted by f_hz")
        _check_fields(self, "model needs a positive finite f_floor_hz", positive=("f_floor_hz",))
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "lines", lines)

    def continuum(self, f) -> np.ndarray:
        f = np.maximum(np.asarray(f, dtype=np.float64), self.f_floor_hz)
        starts = np.array([s.f_hz for s in self.segments])
        idx = np.clip(np.searchsorted(starts, f, side="right") - 1, 0, len(starts) - 1)
        out = np.empty_like(f)
        for k, seg in enumerate(self.segments):
            mask = idx == k
            if np.any(mask):
                out[mask] = seg.level * (f[mask] / seg.f_hz) ** seg.slope
        return out

    def evaluate(self, f) -> np.ndarray:
        """PSD values at frequencies ``f`` (Hz), lines included.

        Each line is added only within ``_LINE_REACH`` widths sigma of its
        centre: farther out its Gaussian is exactly 0.0, so the sum is the
        one over every bin, bit for bit.
        """
        f = np.asarray(f, dtype=np.float64)
        out = self.continuum(f)
        at_centres = self.continuum([line.f_hz for line in self.lines])
        dist = np.empty_like(f)
        for line, level in zip(self.lines, at_centres):
            sigma = line.width_hz / 2.0
            np.abs(np.subtract(f, line.f_hz, out=dist), out=dist)
            # nan frequencies stay in, and so does every bin when the
            # continuum overflows at the centre: inf * 0.0 is nan
            near = ~(dist >= _LINE_REACH * sigma) | (not math.isfinite(level))
            bump = (line.ratio - 1.0) * np.exp(-0.5 * ((f[near] - line.f_hz) / sigma) ** 2)
            out[near] += level * bump
        return out

    def to_power_spectrum(self, df: float, n_bins: int) -> PowerSpectrum:
        return PowerSpectrum(df=df, values=self.evaluate(np.arange(n_bins) * df))

    @classmethod
    def from_dict(cls, data: dict) -> "PsdModel":
        try:
            unknown = sorted(set(data) - {"segments", "lines", "f_floor_hz"})
            if unknown:
                raise ValidationError(f"bad PSD model config: unknown key {unknown[0]!r}; "
                                      f"the keys are 'segments', 'lines' and 'f_floor_hz'")
            return cls(
                segments=tuple(PsdSegment(**s) for s in data["segments"]),
                lines=tuple(PsdLine(**l) for l in data.get("lines", [])),
                f_floor_hz=data.get("f_floor_hz", 1.0),
            )
        except KeyError as exc:
            raise ValidationError(f"bad PSD model config: missing {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"bad PSD model config: {exc}") from exc

    @classmethod
    def load(cls, path: str | os.PathLike) -> "PsdModel":
        data = _read_json(path)
        try:
            return cls.from_dict(data)
        except ValidationError as exc:
            raise ParseError(f"{os.fspath(path)}: {exc}") from None


def default_detector_model() -> PsdModel:
    """Stock detector-like PSD, version 1.

    Steep seismic-style wall below 20 Hz (dominates the raw sample
    variance, as in real interferometer strain), a flat floor at
    100-300 Hz, a gentle high-frequency rise, 60*n Hz mains lines, and a
    violin-mode cluster near 500 Hz.
    """
    return PsdModel(
        segments=(
            PsdSegment(f_hz=20.0, level=625.0, slope=-6.0),
            PsdSegment(f_hz=100.0, level=1.0, slope=0.0),
            PsdSegment(f_hz=300.0, level=1.0, slope=1.5),
        ),
        lines=(
            PsdLine(f_hz=60.0, ratio=100.0, width_hz=0.5),
            PsdLine(f_hz=120.0, ratio=100.0, width_hz=0.5),
            PsdLine(f_hz=180.0, ratio=100.0, width_hz=0.5),
            PsdLine(f_hz=497.0, ratio=30.0, width_hz=1.0),
            PsdLine(f_hz=503.0, ratio=30.0, width_hz=1.0),
        ),
        f_floor_hz=1.0,
    )


@functools.lru_cache(maxsize=1)
def _model_psd(model: PsdModel, n: int, fs: float) -> PowerSpectrum:
    """``model`` on the rfft grid of ``n`` samples at ``fs``; the last one is kept.

    Exact reuse: a PsdModel is frozen and built from frozen parts, so an
    equal model always evaluates to the same grid.
    """
    return model.to_power_spectrum(fs / n, n // 2 + 1)


def colored_noise(model: PsdModel, duration: float, fs: float, seed: int) -> TimeSeries:
    """Gaussian noise whose one-sided PSD follows ``model``.

    Frequency-domain synthesis: independent complex-normal draws per bin
    scaled by sqrt(PSD * n * fs / 2), inverse-transformed to time.  The
    DC bin is zeroed.  Deterministic per seed.
    """
    n = _samples(duration, fs, "noise duration")
    if n < 2:
        raise ValidationError("duration * fs must be at least 2 samples")
    rng = rng_for(seed)
    n_f = n // 2 + 1
    # sqrt(psd * n * fs / 2), one operation at a time in one buffer
    scale = _model_psd(model, n, fs).values * n
    scale *= fs
    scale /= 2.0
    np.sqrt(scale, out=scale)
    re = rng.standard_normal(n_f)
    im = rng.standard_normal(n_f)
    # real Nyquist bin; one-sided density there has no factor 2
    nyquist = re[-1] * scale[-1] * math.sqrt(2.0)
    # (re + 1j * im) / sqrt(2) * scale, bit for bit: numpy divides a complex
    # by a real by multiplying with the reciprocal
    for draws in (re, im):
        draws *= 1.0 / math.sqrt(2.0)
        draws *= scale
    bins = np.empty(n_f, dtype=np.complex128)
    bins.real = re
    bins.imag = im
    del re, im, scale  # only the bins stay alive through the transform
    bins[0] = 0.0
    if n % 2 == 0:
        bins[-1] = nyquist
    samples = np.fft.irfft(bins, n=n)
    del bins
    samples.setflags(write=False)  # adopted by the series, not copied
    return TimeSeries(fs=fs, t0=0.0, samples=samples)


@dataclass(frozen=True)
class BurstSpec:
    """Short burst description.

    ``sigma_ratio`` is the target standard deviation relative to the
    standard deviation of a reference series (the host noise).  For
    ``sine_decay`` the envelope is exp(-t / decay_tau); ``decay_tau=None``
    means constant envelope.
    """

    kind: str
    duration: float
    sigma_ratio: float
    f0: float = 0.0
    decay_tau: float | None = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("sine_decay", "awgn"):
            raise ValidationError(f"unknown burst kind {self.kind!r}")
        _check_fields(self, "burst needs positive finite duration and sigma_ratio, finite f0",
                      positive=("duration", "sigma_ratio"), finite=("f0",))
        if self.kind == "sine_decay":
            _check_fields(self, "sine burst needs a positive f0", positive=("f0",))
        if self.decay_tau is not None:
            _check_fields(self, "decay_tau must be positive and finite, or None",
                          positive=("decay_tau",))


def burst(spec: BurstSpec, ref: TimeSeries) -> TimeSeries:
    """``spec``'s burst scaled to ``sigma_ratio * std(ref)`` exactly: a sine
    under its envelope for ``sine_decay``, white Gaussian draws for ``awgn``."""
    fs = ref.fs
    n = _samples(spec.duration, fs, "burst duration")
    if n < 2:
        raise ValidationError("burst shorter than two samples")
    if spec.kind == "awgn":
        x = rng_for(spec.seed).standard_normal(n)
    else:
        t = np.arange(n) / fs
        x = np.sin(2.0 * np.pi * spec.f0 * t)
        if spec.decay_tau is not None:
            x = x * np.exp(-t / spec.decay_tau)
    std = float(np.std(x))
    if std <= 0.0:
        raise DegeneracyError(f"{spec.kind} burst has zero standard deviation")
    ref_std = float(np.std(ref.samples))
    if ref_std <= 0.0:
        raise DegeneracyError("reference series has zero standard deviation")
    x *= spec.sigma_ratio * ref_std / std
    return TimeSeries(fs=fs, t0=0.0, samples=x)


def line_interference(
    amplitude: float,
    f0: float = 60.0,
    delta: float = 0.015625,
    duration: float = 32.0,
    fs: float = 4096.0,
) -> TimeSeries:
    """Pure cosine at ``f0 + delta`` Hz.

    The default offset is half a frequency bin of a 32 s analysis block,
    which parks the tone between FFT bins and forces spectral leakage
    into the neighbours.
    """
    f = f0 + delta
    if f >= fs / 2:
        raise ValidationError(f"tone frequency {f} Hz is at or above Nyquist {fs / 2} Hz")
    n = _samples(duration, fs, "tone duration")
    if n < 2:
        raise ValidationError("duration * fs must be at least 2 samples")
    t = np.arange(n) / fs
    return TimeSeries(fs=fs, t0=0.0, samples=amplitude * np.cos(2.0 * np.pi * f * t))


def inject(host: TimeSeries, signal: TimeSeries, t_at: float) -> TimeSeries:
    """Add ``signal`` into ``host`` starting at time ``t_at`` (sample-snapped)."""
    _check_rate(host.fs, signal.fs, "host, signal")
    j = _samples(t_at - host.t0, host.fs, "injection offset")
    if j < 0 or j + signal.n > host.n:
        raise ValidationError(
            f"injection at {t_at} s (+{signal.duration} s) overflows the host span "
            f"[{host.t0}, {host.t0 + host.duration}] s"
        )
    out = host.samples.copy()
    out[j:j + signal.n] += signal.samples
    out.setflags(write=False)  # adopted by the series, not copied
    return TimeSeries(host.fs, host.t0, out)
