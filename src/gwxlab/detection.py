"""Detection engines: frequency-domain matched filter and short-window CCF.

The matched filter computes the noise-weighted correlation

    z(t) = 4 * integral_0^inf  s~(f) h~*(f) / S_n(f) * exp(i 2 pi f t) df
    rho(t) = |z(t)| / sqrt(<h|h>),   <h|h> = 4 * integral |h~|^2 / S_n df

in one of two block modes.  ``circular`` multiplies block-grid spectra
and inverse-transforms, wrap-around artifacts included, which is what a
naive finite-block implementation does.  ``cyclic_prefix`` prepends the
last template-length samples of the strain before transforming and
discards the prefixed region afterwards, which makes the output equal a
direct time-domain linear correlation of the strain with the whitened
template kernel.

The chi-squared veto (Allen, gr-qc/0405045) splits the filtered bins into
N bands of equal template power, whose SNR series z_i sum to z, and
measures sum_i |z_i - z/N|^2.  Because the bands partition the bins,

    sum_i |z_i - z/N|^2 = sum_i |z_i|^2 - |z|^2 / N,

and in ``circular`` mode sum_i |z_i(t)|^2 is the Fourier series of the
summed spectral autocorrelations of each band's slice of
4 s~ h~* / S_n.  Each autocorrelation costs two FFTs of about twice the
band width, and the sum one real inverse transform of length n, so a
filtered block costs three length-n transforms (strain, z, band power)
instead of the N + 2 that one inverse transform per band needs.  The
subtraction makes the round-off absolute, of order eps * rho^2; it can
only show where the reduced chi-squared is far below 1, which leaves the
reweighted SNR unchanged.  ``cyclic_prefix`` keeps one filter per band,
since its bands sit on the template grid.  The template-side work is
planned once and reused while template, PSD, configuration and block
shape stay the same.

The short-window path is a normalized time-domain cross-correlation:
both windows are scaled to unit energy so self-correlation is exactly 1
at zero lag, and peakiness is judged by the ratio R3 of the largest
|CCF| beyond three decorrelation times to the global |CCF| maximum,
against the threshold 1/e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.signal
from scipy.fft import next_fast_len

from .errors import DegeneracyError, ValidationError
from .series import PowerSpectrum, TimeSeries, slice_window

__all__ = [
    "MfConfig",
    "SnrSeries",
    "CcfResult",
    "Peak",
    "RunningWindowStat",
    "R3_THRESHOLD",
    "SNR_THRESHOLD",
    "matched_filter",
    "sigma_norm",
    "normalized_ccf",
    "decorrelation_time",
    "ccf_decorrelation_time",
    "running_window_ccf",
]

R3_THRESHOLD = 1.0 / math.e
SNR_THRESHOLD = 5.0
# decorrelation envelopes take their running maximum over a half period here
MIN_FREQ_HZ = 30.0


class Peak(NamedTuple):
    time: float
    value: float


@dataclass(frozen=True)
class MfConfig:
    """Matched-filter block configuration.

    ``block_len`` pins the analysis block in seconds (the strain must be
    exactly one block); ``None`` accepts any strain length.  ``mode`` is
    ``circular`` or ``cyclic_prefix``.  ``reweight_bins`` enables the
    chi-squared consistency reweighting with that many equal-template-
    power bands; ``None`` disables it.  ``band`` restricts the filter to
    ``(f_lo, f_hi)`` Hz.
    """

    block_len: float | None = 32.0
    mode: str = "circular"
    reweight_bins: int | None = 16
    band: tuple[float, float] | None = None

    def __post_init__(self):
        if self.mode not in ("circular", "cyclic_prefix"):
            raise ValidationError(f"unknown matched-filter mode {self.mode!r}")
        if self.block_len is not None and self.block_len <= 0:
            raise ValidationError("block_len must be positive or None")
        if self.reweight_bins is not None and self.reweight_bins < 2:
            raise ValidationError("reweight_bins must be >= 2 or None")
        if self.band is not None:
            f_lo, f_hi = self.band
            if not (0 <= f_lo < f_hi):
                raise ValidationError(f"band must satisfy 0 <= f_lo < f_hi, got {self.band}")


@dataclass(frozen=True, eq=False)
class SnrSeries:
    """Matched-filter output |rho(t)| plus its reweighted variant."""

    fs: float
    t0: float
    rho: np.ndarray
    rho_reweighted: np.ndarray
    sigma: float
    mode: str
    band: tuple[float, float] | None = None
    chi2_reduced: np.ndarray | None = None

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=np.float64)
        rho_rw = np.asarray(self.rho_reweighted, dtype=np.float64)
        if rho.shape != rho_rw.shape:
            raise ValidationError("rho and rho_reweighted must share a shape")
        if np.any(rho < 0):
            raise ValidationError("rho must be nonnegative")
        if not self.sigma > 0:
            raise ValidationError("sigma must be positive")
        rho.setflags(write=False)
        rho_rw.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "rho_reweighted", rho_rw)

    @property
    def peak(self) -> Peak:
        k = int(np.argmax(self.rho_reweighted))
        return Peak(time=self.t0 + k / self.fs, value=float(self.rho_reweighted[k]))

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.rho.size) / self.fs


@dataclass(frozen=True, eq=False)
class CcfResult:
    """Normalized cross-correlation over symmetric integer-sample lags."""

    lags: np.ndarray
    values: np.ndarray
    tau0: float
    r3: float
    peaky: bool
    window_T: float

    def __post_init__(self):
        lags = np.asarray(self.lags, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if lags.shape != values.shape:
            raise ValidationError("lags and values must share a shape")
        lags.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "lags", lags)
        object.__setattr__(self, "values", values)

    @property
    def peak_index(self) -> int:
        return int(np.argmax(np.abs(self.values)))

    @property
    def peak_lag(self) -> float:
        return float(self.lags[self.peak_index])

    @property
    def peak_value(self) -> float:
        """Signed value at the |CCF| maximum (negative peaks stay negative)."""
        return float(self.values[self.peak_index])

    @property
    def peak_abs(self) -> float:
        return abs(self.peak_value)


class RunningWindowStat(NamedTuple):
    t_start: float
    peak_abs_ccf: float
    r3: float


# ---------------------------------------------------------------------------
# matched filter


def _band_mask(n_onesided: int, df: float, band) -> np.ndarray:
    mask = np.ones(n_onesided, dtype=bool)
    mask[0] = False  # DC carries no template information
    if band is not None:
        f = np.arange(n_onesided) * df
        mask &= (f >= band[0]) & (f <= band[1])
    return mask


def _check_block(strain: TimeSeries, template: TimeSeries, cfg: MfConfig) -> None:
    if abs(strain.fs - template.fs) > 1e-9 * strain.fs:
        raise ValidationError(
            f"sample-rate mismatch: strain {strain.fs} Hz, template {template.fs} Hz"
        )
    n, nt = strain.n, template.n
    if nt > n:
        raise ValidationError(f"template ({nt} samples) longer than strain ({n})")
    if cfg.block_len is not None:
        block_samples = cfg.block_len * strain.fs
        if abs(block_samples - round(block_samples)) > 1e-6:
            raise ValidationError(
                f"block_len * fs must be an integer sample count, got {block_samples}"
            )
        if int(round(block_samples)) != n:
            raise ValidationError(
                f"strain holds {n} samples but block_len asks for "
                f"{int(round(block_samples))}"
            )
    if n < 2 * nt:
        raise ValidationError(
            f"block must be at least twice the template length ({n} < {2 * nt})"
        )


class _MfPlan:
    """Strain-independent state of the matched filter for one block shape.

    Template spectrum, PSD on the filter grid, band mask, <h|h> weights,
    the in-band conjugate template and PSD and, when reweighting, the
    chi-squared band bounds.  Depends only on (template, PSD, cfg, block
    length, rate).
    """

    def __init__(self, template: TimeSeries, psd: PowerSpectrum, cfg: MfConfig,
                 n: int, fs: float):
        self.cfg = cfg
        self.fs = fs
        self.dt = 1.0 / fs
        self.n = n
        self.nt = nt = template.n

        if cfg.mode == "circular":
            self.grid_n = n
        else:
            self.grid_n = nt
        self.grid_df = self.fs / self.grid_n
        nf = self.grid_n // 2 + 1
        h = np.zeros(self.grid_n)
        h[:nt] = template.samples
        self.htilde = np.fft.rfft(h) * self.dt
        self.psd_grid = psd.floored(self.grid_df, nf)
        self.mask = _band_mask(nf, self.grid_df, cfg.band)
        # <h|h> integrand per one-sided bin
        self.weights = np.where(
            self.mask, 4.0 * np.abs(self.htilde) ** 2 / self.psd_grid * self.grid_df, 0.0
        )
        self.hh = float(np.sum(self.weights))
        if self.hh <= 0.0:
            raise DegeneracyError("template has no in-band power; <h|h> is zero")
        self.sel = np.where(self.mask)[0]
        if cfg.mode == "circular":
            self.hconj_sel = np.conj(self.htilde[self.sel])
            self.psd_sel = self.psd_grid[self.sel]
            self.out_len = n
        else:
            self.out_len = n - nt + 1

        if cfg.reweight_bins is not None:
            n_bins = cfg.reweight_bins
            cum = np.cumsum(self.weights) / self.hh
            edges = np.searchsorted(cum, np.arange(1, n_bins) / n_bins, side="left")
            self.bounds = np.concatenate([[0], edges + 1, [self.weights.size]])
            if np.any(np.diff(self.bounds) < 1):
                raise DegeneracyError(
                    f"template power too concentrated to build {n_bins} chi-squared bands"
                )
            # (first in-mask bin, width to the last one, autocorrelation FFT
            # length) per band; q is zero outside the mask
            self.band_spans = []
            for lo, hi in zip(self.bounds[:-1], self.bounds[1:]):
                inside = self.sel[(self.sel >= lo) & (self.sel < hi)]
                if inside.size:
                    w = int(inside[-1] - inside[0]) + 1
                    self.band_spans.append((int(inside[0]), w, next_fast_len(2 * w - 1)))

    def snr_complex(self, strain: TimeSeries) -> tuple[np.ndarray, np.ndarray]:
        """Complex matched-filter series over the output lags, plus the
        strain-side spectrum that :meth:`chi2_reduced` needs."""
        n, nt = self.n, self.nt
        if self.cfg.mode == "circular":
            strain_fft = np.fft.rfft(strain.samples) * self.dt
            q = np.zeros(n, dtype=np.complex128)
            q[self.sel] = 4.0 * strain_fft[self.sel] * self.hconj_sel / self.psd_sel
            return np.fft.ifft(q) * (n * self.grid_df), q
        prefixed = np.concatenate([strain.samples[n - nt:], strain.samples])
        block_fft = np.fft.fft(prefixed)
        return self._prefixed_snr(block_fft, self.mask), block_fft

    def _prefixed_snr(self, block_fft: np.ndarray, mask: np.ndarray) -> np.ndarray:
        # cyclic prefix: correlate against the whitened-template kernel,
        # whose support is exactly the template length
        g_freq = np.zeros(self.nt, dtype=np.complex128)
        sel = np.where(mask)[0]
        g_freq[sel] = self.htilde[sel] / self.psd_grid[sel]
        kernel = np.fft.ifft(g_freq) * (self.nt * self.grid_df)
        padded = np.zeros(self.n + self.nt, dtype=np.complex128)
        padded[:self.nt] = kernel
        corr = np.fft.ifft(block_fft * np.conj(np.fft.fft(padded)))
        return 4.0 * self.dt * corr[self.nt:self.nt + self.out_len]

    def chi2_reduced(self, z: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
        """Power chi-squared over equal-template-power bands, per output lag."""
        n_bins = self.cfg.reweight_bins
        if self.cfg.mode == "circular":
            dev2 = self._band_power(spectrum) - (z.real ** 2 + z.imag ** 2) / n_bins
            chi2 = np.maximum(dev2, 0.0)  # clamp round-off below zero
        else:
            chi2 = np.zeros(self.out_len)
            expected = z / n_bins
            for lo, hi in zip(self.bounds[:-1], self.bounds[1:]):
                bin_mask = np.zeros(self.weights.size, dtype=bool)
                bin_mask[lo:hi] = True
                z_i = self._prefixed_snr(spectrum, self.mask & bin_mask)
                chi2 += np.abs(z_i - expected) ** 2
        chi2 *= n_bins / self.hh
        return chi2 / (2 * n_bins - 2)

    def _band_power(self, q: np.ndarray) -> np.ndarray:
        """sum_i |z_i(t)|^2 over the chi-squared bands, from one length-n iFFT.

        |z_i|^2 is the Fourier series of band i's spectral autocorrelation;
        each band is narrower than n/2 bins, so its lags fit the one-sided
        half-spectrum of a real length-n transform without aliasing.
        """
        acf = np.zeros(self.n // 2 + 1, dtype=np.complex128)
        for lo, w, size in self.band_spans:
            spec = np.fft.fft(q[lo:lo + w], size)
            # ihfft of a real sequence is its ifft at lags 0..size//2
            acf[:w] += np.fft.ihfft(spec.real ** 2 + spec.imag ** 2)[:w]
        scale = self.n * self.grid_df
        return np.fft.irfft(acf, self.n) * (scale * scale / self.n)


_last_plan: tuple | None = None


def _plan_for(template: TimeSeries, psd: PowerSpectrum, cfg: MfConfig,
              n: int, fs: float) -> _MfPlan:
    """The last plan if it was built from these inputs, else a new one.

    Exact reuse: the template and PSD are frozen and own read-only copies
    of their arrays, so the same objects always hold the same values.  The
    entry is an immutable tuple swapped whole, so threads at worst rebuild.
    """
    global _last_plan
    last = _last_plan
    if last is not None:
        last_tpl, last_psd, last_cfg, last_n, last_fs, plan = last
        if (last_tpl is template and last_psd is psd and last_cfg == cfg
                and last_n == n and last_fs == fs):
            return plan
    plan = _MfPlan(template, psd, cfg, n, fs)
    _last_plan = (template, psd, cfg, n, fs, plan)
    return plan


def sigma_norm(template: TimeSeries, psd: PowerSpectrum,
               band: tuple[float, float] | None = None) -> float:
    """Normalization quadratic form <h|h> = 4 * sum |h~|^2 / S_n * df.

    Evaluated on the template's own frequency grid; scales as a**2 when
    the template is scaled by a.
    """
    if template.n < 2:
        raise ValidationError("template needs at least two samples")
    htilde = np.fft.rfft(template.samples) / template.fs
    df = template.fs / template.n
    grid = psd.floored(df, htilde.size)
    mask = _band_mask(htilde.size, df, band)
    hh = float(np.sum(4.0 * np.abs(htilde[mask]) ** 2 / grid[mask] * df))
    if hh <= 0.0:
        raise DegeneracyError("template has no in-band power; <h|h> is zero")
    return hh


def _reweight_factor(chi2_r: np.ndarray) -> np.ndarray:
    factor = ((1.0 + np.maximum(chi2_r, 1.0) ** 3) / 2.0) ** (-1.0 / 6.0)
    return np.where(chi2_r <= 1.0, 1.0, factor)


def matched_filter(
    strain: TimeSeries,
    template: TimeSeries,
    psd: PowerSpectrum,
    cfg: MfConfig = MfConfig(),
) -> SnrSeries:
    """Matched-filter SNR of a strain block against a template.

    Output sample k corresponds to the template aligned at strain time
    ``t0 + k/fs``.  ``circular`` mode covers every lag of the block,
    wrap-around included; ``cyclic_prefix`` mode covers the lags where
    the template fully overlaps the strain and equals direct time-domain
    linear correlation there.
    """
    _check_block(strain, template, cfg)
    plan = _plan_for(template, psd, cfg, strain.n, strain.fs)
    z, spectrum = plan.snr_complex(strain)
    sigma = math.sqrt(plan.hh)
    rho = np.abs(z) / sigma
    chi2_r = None
    if cfg.reweight_bins is not None:
        chi2_r = plan.chi2_reduced(z, spectrum)
        rho_rw = rho * _reweight_factor(chi2_r)
    else:
        rho_rw = rho
    return SnrSeries(
        fs=strain.fs, t0=strain.t0, rho=rho, rho_reweighted=rho_rw,
        sigma=sigma, mode=cfg.mode, band=cfg.band, chi2_reduced=chi2_r,
    )


# ---------------------------------------------------------------------------
# normalized short-window cross-correlation


def _unit_energy(x: np.ndarray, what: str) -> np.ndarray:
    energy = float(np.dot(x, x))
    if energy <= 0.0:
        raise DegeneracyError(f"{what} window has zero energy")
    return x / math.sqrt(energy)


def _envelope_crossing(r: np.ndarray, fs: float, what: str) -> float:
    """First lag at which the running-maximum envelope of ``r`` (1 at lag
    0, sampled at ``fs``) falls below 1/e."""
    w = max(int(round(fs / (2.0 * MIN_FREQ_HZ))), 1) + 1
    if r.size - w < 2:
        raise ValidationError(f"{what} too short to assess its decay at {MIN_FREQ_HZ} Hz")
    window_max = np.max(np.lib.stride_tricks.sliding_window_view(r, w), axis=1)
    below = np.nonzero(window_max[1:] < R3_THRESHOLD)[0]
    if below.size == 0:
        raise DegeneracyError(f"{what} envelope never falls below 1/e of its peak")
    return float((below[0] + 1) / fs)


def decorrelation_time(template: TimeSeries) -> float:
    """First lag where the autocorrelation envelope falls below 1/e.

    The overlap-corrected (unbiased) autocorrelation is normalized to 1
    at zero lag; its envelope is a running maximum of |r| over a
    half-period window at ``MIN_FREQ_HZ``, so oscillations of in-band
    content do not count as decay.  Raises when the envelope never
    crosses 1/e (a constant-envelope tone never decorrelates).
    """
    x = template.samples
    n = x.size
    energy = float(np.dot(x, x))
    if energy <= 0.0:
        raise DegeneracyError("zero-energy series has no decorrelation time")
    corr = scipy.signal.correlate(x, x, mode="full", method="fft")[n - 1:]
    counts = n - np.arange(n)
    r = np.abs(corr / counts * (n / energy))
    return _envelope_crossing(r, template.fs, "autocorrelation")


def normalized_ccf(
    a: TimeSeries,
    b: TimeSeries,
    max_lag: float,
    tau0: float | None = None,
) -> CcfResult:
    """Normalized cross-correlation of two equal-duration windows.

    Both windows are scaled to unit energy, so every value is bounded by
    1 (Cauchy-Schwarz) and self-correlation gives exactly 1 at zero lag.
    Lag ell is the shift of ``a`` relative to ``b``:
    ``CCF(ell) = sum_m a[m + ell] * b[m]``.  The peak is the maximum of
    |CCF| with its sign preserved in ``peak_value``.

    ``tau0`` defaults to the decorrelation time of ``b`` (the reference
    side); R3 and the peakiness verdict derive from it.
    """
    if abs(a.fs - b.fs) > 1e-9 * a.fs:
        raise ValidationError(f"sample-rate mismatch: {a.fs} vs {b.fs} Hz")
    if a.n != b.n:
        raise ValidationError(
            f"windows must have equal duration: {a.n} vs {b.n} samples"
        )
    n = a.n
    lag_samples = int(round(max_lag * a.fs))
    if lag_samples < 1:
        raise ValidationError("max_lag shorter than one sample")
    if lag_samples > n - 1:
        raise ValidationError(
            f"max_lag {max_lag} s exceeds the window duration {n / a.fs} s"
        )
    na = _unit_energy(a.samples, "first")
    nb = _unit_energy(b.samples, "second")
    full = scipy.signal.correlate(na, nb, mode="full", method="fft")
    center = n - 1
    values = full[center - lag_samples:center + lag_samples + 1]
    lags = np.arange(-lag_samples, lag_samples + 1) / a.fs
    if tau0 is None:
        tau0 = decorrelation_time(b)
    r3, peaky = _r3(lags, values, tau0)
    return CcfResult(lags=lags, values=values, tau0=float(tau0), r3=r3,
                     peaky=peaky, window_T=n / a.fs)


def _r3(lags: np.ndarray, values: np.ndarray, tau0: float) -> tuple[float, bool]:
    if tau0 <= 0:
        raise ValidationError(f"tau0 must be positive, got {tau0}")
    max_lag = float(lags[-1])
    if 3.0 * tau0 >= max_lag:
        raise ValidationError(
            f"lag range {max_lag} s too short for R3 at tau0={tau0} s "
            f"(needs 3*tau0 < max_lag)"
        )
    mag = np.abs(values)
    peak = float(np.max(mag))
    if peak <= 0.0:
        raise DegeneracyError("flat zero CCF has no peak ratio")
    outer = np.abs(lags) > 3.0 * tau0
    r3 = float(np.max(mag[outer]) / peak)
    return r3, bool(r3 < R3_THRESHOLD)


def ccf_decorrelation_time(ccf: CcfResult) -> float:
    """Lag distance at which the |CCF| envelope drops below 1/e of its peak.

    Both sides of the global peak are folded together and tracked with
    the same running-maximum envelope as :func:`decorrelation_time`.
    """
    fs = 1.0 / float(ccf.lags[1] - ccf.lags[0])
    mag = np.abs(ccf.values)
    p = int(np.argmax(mag))
    peak = mag[p]
    if peak <= 0.0:
        raise DegeneracyError("flat zero CCF has no decorrelation time")
    left = mag[:p + 1][::-1]
    right = mag[p:]
    folded = np.zeros(max(left.size, right.size))
    folded[:left.size] = left
    folded[:right.size] = np.maximum(folded[:right.size], right)
    return _envelope_crossing(folded / peak, fs, "CCF")


def running_window_ccf(
    long_ts: TimeSeries,
    template: TimeSeries,
    hop: float,
    exclusions=(),
    tau0: float | None = None,
) -> list[RunningWindowStat]:
    """Slide template-duration windows over a long series and summarize each.

    Each window is correlated with the template over every lag it holds.
    Windows intersecting an exclusion range ``(t_a, t_b)`` are skipped,
    as are zero-energy windows.  Results are ordered by window start no
    matter how they were evaluated.
    """
    if hop <= 0:
        raise ValidationError(f"hop must be positive, got {hop}")
    if template.n >= long_ts.n:
        raise ValidationError("template must be shorter than the long series")
    max_lag = (template.n - 1) / template.fs
    if tau0 is None:
        tau0 = decorrelation_time(template)
    duration = template.duration
    out: list[RunningWindowStat] = []
    t = long_ts.t0
    end = long_ts.t0 + long_ts.duration
    while t + duration <= end + 0.5 / long_ts.fs:
        excluded = any(t < t_b and t + duration > t_a for (t_a, t_b) in exclusions)
        if not excluded:
            try:
                window = slice_window(long_ts, t, duration)
            except ValidationError:
                break  # the last hop's window runs past the end of the series
            if float(np.dot(window.samples, window.samples)) > 0.0:
                ccf = normalized_ccf(window, template, max_lag=max_lag, tau0=tau0)
                out.append(RunningWindowStat(t_start=t, peak_abs_ccf=ccf.peak_abs, r3=ccf.r3))
        t += hop
    if not out:
        raise ValidationError("no usable windows: exclusions cover the whole span")
    return out
