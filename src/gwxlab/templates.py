"""Chirp templates: phase/envelope extraction, stock chirps, and bogus variants.

A template is carried as instantaneous phase ``m(t)`` and envelope
``a(t)`` around an optional carrier ``f0``, reconstructing as
``a(t) * cos(2*pi*f0*t + m(t))``.  Bogus templates add band-limited
Gaussian noise to the phase and keep the envelope, producing chirp-like
frequency-modulated waveforms that differ substantially from the original.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass

import numpy as np

from .conditioning import _zero_phase_plan
from .errors import DegeneracyError, ParseError, ValidationError
from .rng import rng_for
from .series import (TimeSeries, _check_rate, _finite, _json_text, _read_json, _samples,
                     _write_json, load_strain, save_strain)

__all__ = [
    "Template",
    "BogusSpec",
    "extract_phase_amplitude",
    "make_bogus",
    "template_error",
    "stock_template",
    "save_template",
    "load_template",
]

# bogus phase noise is low-passed at this frequency
_SMOOTHING_HZ = 64.0


@dataclass(frozen=True, eq=False)
class Template:
    """Chirp reference decomposed into phase and envelope.

    ``base`` holds the waveform the decomposition came from; on the same
    time grid it equals ``envelope * cos(2*pi*f0*t + phase)`` up to the
    accuracy of the decomposition.
    """

    base: TimeSeries
    phase: np.ndarray
    envelope: np.ndarray
    f0: float = 0.0

    def __post_init__(self):
        phase = np.asarray(self.phase, dtype=np.float64).copy()
        envelope = np.asarray(self.envelope, dtype=np.float64).copy()
        if phase.shape != (self.base.n,) or envelope.shape != (self.base.n,):
            raise ValidationError(
                f"phase/envelope lengths {phase.size}/{envelope.size} must match "
                f"the base series length {self.base.n}"
            )
        if not (np.all(np.isfinite(phase)) and np.all(np.isfinite(envelope))):
            raise ValidationError("phase and envelope must be finite")
        if np.any(envelope < 0):
            raise ValidationError("envelope must be nonnegative")
        if phase.size > 1 and np.max(np.abs(np.diff(phase))) >= np.pi:
            raise ValidationError("phase must be unwrapped: |m[k+1]-m[k]| < pi")
        if self.f0 < 0:
            raise ValidationError(f"carrier must be >= 0 Hz, got {self.f0}")
        phase.setflags(write=False)
        envelope.setflags(write=False)
        object.__setattr__(self, "phase", phase)
        object.__setattr__(self, "envelope", envelope)
        object.__setattr__(self, "f0", float(self.f0))

    @property
    def fs(self) -> float:
        return self.base.fs


@dataclass(frozen=True)
class BogusSpec:
    """Noise recipe for a pure-FM bogus template.

    ``sigma_phase`` is the standard deviation of the additive phase noise
    in radians.  The raw white noise is low-passed at 64 Hz and rescaled
    to the exact target deviation, so bogus templates stay chirp-like
    instead of turning into broadband hash; at or above fs/2 the smoothing
    is skipped.
    """

    sigma_phase: float
    seed: int = 0

    def __post_init__(self):
        if self.sigma_phase < 0:
            raise ValidationError("sigma_phase must be nonnegative")


def extract_phase_amplitude(h: TimeSeries, carrier_f0: float = 0.0) -> Template:
    """Analytic-signal decomposition into envelope and unwrapped phase.

    The phase returned excludes the carrier: ``m(t) = arg(z(t)) -
    2*pi*carrier_f0*t``.  Raises when the envelope is near zero over more
    than 10% of the samples or the input holds fewer than four cycles.
    """
    if carrier_f0 < 0:
        raise ValidationError(f"carrier must be >= 0 Hz, got {carrier_f0}")
    z = _analytic_signal(h.samples)
    envelope = np.abs(z)
    peak = float(np.max(envelope)) if envelope.size else 0.0
    if peak <= 0.0 or np.mean(envelope < 0.01 * peak) > 0.10:
        raise DegeneracyError(
            "phase extraction unreliable: envelope near zero over more than "
            "10% of the samples"
        )
    total = np.unwrap(np.angle(z))
    if abs(total[-1] - total[0]) < 8.0 * np.pi:
        raise DegeneracyError(
            "phase extraction unreliable: input holds fewer than four cycles"
        )
    t = np.arange(h.n) / h.fs
    phase = total - 2.0 * np.pi * carrier_f0 * t
    return Template(base=h, phase=phase, envelope=envelope, f0=carrier_f0)


def _analytic_signal(x: np.ndarray) -> np.ndarray:
    """``x + i H[x]``: the spectrum with doubled positive and zeroed
    negative frequencies (``scipy.signal.hilbert``'s weights)."""
    n = x.size
    spec = np.zeros(n, dtype=np.complex128)
    spec[:n // 2 + 1] = np.fft.rfft(x)
    spec[1:(n + 1) // 2] *= 2.0
    return np.fft.ifft(spec)


def _synthesize(fs: float, t0: float, phase, envelope, f0: float) -> TimeSeries:
    t = np.arange(len(phase)) / fs
    return TimeSeries(fs, t0, envelope * np.cos(2.0 * np.pi * f0 * t + phase))


def _shaped_noise(rng, n: int, fs: float) -> np.ndarray:
    """Unit-std Gaussian noise, low-passed below fs/2, then re-normalized."""
    w = rng.standard_normal(n)
    if _SMOOTHING_HZ < fs / 2:
        w = _zero_phase_plan("lowpass", 4, (_SMOOTHING_HZ,), fs).filtfilt(w)
    std = float(np.std(w))
    if std > 0:
        w = w / std
    return w


def make_bogus(tpl: Template, spec: BogusSpec) -> TimeSeries:
    """Synthesize a bogus template: the template's envelope with noisy phase.

    Deterministic for a fixed seed; with ``sigma_phase`` zero the output
    is ``envelope * cos(2*pi*f0*t + phase)`` on the base grid exactly.
    """
    w_phase = _shaped_noise(rng_for(spec.seed), tpl.base.n, tpl.fs) * spec.sigma_phase
    return _synthesize(tpl.fs, tpl.base.t0, tpl.phase + w_phase, tpl.envelope, tpl.f0)


def template_error(ideal: TimeSeries, candidate: TimeSeries) -> tuple[TimeSeries, float]:
    """Difference series and relative L2 error ``||ideal-candidate|| / ||ideal||``."""
    if ideal.n != candidate.n:
        raise ValidationError(
            f"length mismatch: {ideal.n} vs {candidate.n} samples"
        )
    _check_rate(ideal.fs, candidate.fs, "ideal, candidate")
    err = ideal.samples - candidate.samples
    denom = float(np.linalg.norm(ideal.samples))
    if denom <= 0.0:
        raise DegeneracyError("ideal series has zero energy")
    return ideal.with_samples(err), float(np.linalg.norm(err) / denom)


# ---------------------------------------------------------------------------
# stock chirp generators


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of ``y`` over ``x``, starting at 0."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def _tukey(n: int, alpha: float) -> np.ndarray:
    """Symmetric Tukey window of ``n >= 2`` samples, ``0 < alpha < 1``:
    cosine ramps over ``alpha * (n - 1) / 2`` samples at each end."""
    k = np.arange(n, dtype=np.float64)
    width = int(np.floor(alpha * (n - 1) / 2.0))
    w = np.ones(n)
    head, tail = k[:width + 1], k[n - width - 1:]
    w[:width + 1] = 0.5 * (1 + np.cos(np.pi * (-1 + 2.0 * head / alpha / (n - 1))))
    w[n - width - 1:] = 0.5 * (1 + np.cos(np.pi * (-2.0 / alpha + 1 + 2.0 * tail / alpha
                                                   / (n - 1))))
    return w


def _inspiral_chirp(
    fs: float,
    duration: float,
    f_start: float,
    f_end: float,
    carrier_f0: float = 0.0,
) -> Template:
    """Monotone upward frequency sweep with rising envelope.

    Frequency follows the inspiral-style law
    ``f(t) = (f_start**(-8/3) + (f_end**(-8/3) - f_start**(-8/3)) * t/T)**(-3/8)``
    and the envelope grows as ``f(t)`` under a cosine edge taper over 10%
    of the samples, 5% per edge.
    """
    n = _samples(duration, fs, "chirp duration")
    if n < 8:
        raise ValidationError("chirp too short for its sample rate")
    t = np.arange(n) / fs
    tau = t / (n / fs)
    a, b = f_start ** (-8.0 / 3.0), f_end ** (-8.0 / 3.0)
    freq = (a + (b - a) * tau) ** (-3.0 / 8.0)
    total_phase = 2.0 * np.pi * _cumulative_trapezoid(freq, t)
    envelope = freq / f_end * _tukey(n, 0.10)
    phase = total_phase - 2.0 * np.pi * carrier_f0 * t
    base = _synthesize(fs, 0.0, phase, envelope, carrier_f0)
    return Template(base=base, phase=phase, envelope=envelope, f0=carrier_f0)


# the ``_inspiral_chirp`` arguments after ``fs`` of each stand-in chirp
STOCK_TEMPLATES = {
    "gw150914": dict(duration=0.2, f_start=35.0, f_end=250.0),
    # AM+FM form around a 56 Hz carrier
    "gw151226": dict(duration=1.0, f_start=35.0, f_end=350.0, carrier_f0=56.0),
    "gw170104": dict(duration=0.12, f_start=35.0, f_end=300.0),
}


def stock_template(name: str, fs: float = 4096.0) -> Template:
    """Parameterized stand-in chirp ``name`` for one of the three reference
    events, from its row of ``STOCK_TEMPLATES``.

    Real template files can be substituted via the strain file formats.
    """
    try:
        chirp = STOCK_TEMPLATES[name]
    except KeyError:
        raise ValidationError(
            f"unknown stock template {name!r}; pick one of {sorted(STOCK_TEMPLATES)}"
        ) from None
    return _inspiral_chirp(float(fs), **chirp)


def save_template(tpl: Template, basename: str | os.PathLike) -> tuple[str, str]:
    """Write ``<basename>.gwx`` (waveform) and ``<basename>.json`` (metadata)."""
    wav = f"{basename}.gwx"
    meta = f"{basename}.json"
    save_strain(tpl.base, wav)
    info = {
        "f0_hz": tpl.f0,
        "fs_hz": tpl.fs,
        "duration_s": tpl.base.duration,
        "waveform": os.path.basename(wav),
    }
    _write_json(meta, _json_text(info))
    return wav, meta


def load_template(basename: str | os.PathLike) -> Template:
    """Read a template saved by :func:`save_template`, re-extracting phase.

    Each metadata field is optional, but one that is present must fit the
    waveform: ``f0_hz`` finite, ``waveform`` the name of ``<basename>.gwx``,
    and ``fs_hz`` and ``duration_s`` equal to what its header gives.
    """
    meta = f"{basename}.json"
    wav = f"{basename}.gwx"
    info = _read_json(meta)
    f0 = info.get("f0_hz", 0.0)
    if not isinstance(f0, numbers.Real) or isinstance(f0, bool):
        raise ParseError(f"{meta}: f0_hz must be a number, got {f0!r}")
    if not _finite(f0):
        raise ParseError(f"{meta}: f0_hz must be finite, got {f0!r}")
    name = os.path.basename(wav)
    if info.get("waveform", name) != name:
        raise ParseError(f"{meta}: waveform is {info['waveform']!r}, but the waveform "
                         f"file is {name!r}")
    base = load_strain(wav)
    for key, value in (("fs_hz", base.fs), ("duration_s", base.duration)):
        if key in info and not (_finite(info[key]) and info[key] == value):
            raise ParseError(f"{meta}: {key} is {info[key]!r}, but {wav} holds {value!r}")
    return extract_phase_amplitude(base, carrier_f0=float(f0))
