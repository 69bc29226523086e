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
since its bands sit on the template grid: the plan holds the conjugate
spectrum of the whitened kernel and of each band's kernel at a fast
length of at least n + nt, so a filtered block costs one forward
transform plus one inverse transform per kernel.  The template-side work
is planned once and reused while template, PSD, configuration and block
shape stay the same.

The short-window path is a normalized time-domain cross-correlation:
both windows are scaled to unit energy so self-correlation is exactly 1
at zero lag, and peakiness is judged by the ratio R3 of the largest
|CCF| beyond three decorrelation times to the global |CCF| maximum,
against the threshold 1/e.  Its reference side is planned once per
window length: the conjugated spectrum of the unit-energy reference at a
fast length of at least 2n - 1 (so the circular correlation of the FFT
never wraps), the lag grid and the |lag| > 3 tau0 mask.  A single CCF
uses a one-shot plan; the running-window CCF keeps one plan for the
whole scan, gathers its windows as strided views of the long series and
correlates them 64 rows at a time, one batched real FFT pair per chunk,
with the energies, |CCF| peaks and R3 computed as vectors.  Batching
changes values by round-off only, about 1e-16 on values bounded by 1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.signal
from scipy.fft import next_fast_len

from .errors import DegeneracyError, ValidationError
from .series import PowerSpectrum, TimeSeries

__all__ = [
    "MfConfig",
    "SnrSeries",
    "CcfResult",
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
# windows per batched rfft/irfft pair of the running-window CCF: at the
# stock template's 819 samples a chunk's spectrum and output take 0.9 MB
# each and stay in a 2 MB L2 cache; 128 rows measured 1.5x slower
_CCF_CHUNK_ROWS = 64


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
    chi-squared band bounds.  In ``cyclic_prefix`` mode it also holds the
    conjugate spectrum of the whitened-template kernel, and of one kernel
    per chi-squared band, at the fast length ``fft_len >= n + nt``; the
    prefixed correlation never wraps, so the zero padding is exact.
    Depends only on (template, PSD, cfg, block length, rate).
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
            self.fft_len = next_fast_len(n + nt)
            self.kernel_spec = self._kernel_spectrum(self.mask)

        if cfg.reweight_bins is not None:
            n_bins = cfg.reweight_bins
            cum = np.cumsum(self.weights) / self.hh
            edges = np.searchsorted(cum, np.arange(1, n_bins) / n_bins, side="left")
            self.bounds = np.concatenate([[0], edges + 1, [self.weights.size]])
            if np.any(np.diff(self.bounds) < 1):
                raise DegeneracyError(
                    f"template power too concentrated to build {n_bins} chi-squared bands"
                )
            bands = list(zip(self.bounds[:-1], self.bounds[1:]))
            if cfg.mode == "cyclic_prefix":
                k = np.arange(self.weights.size)
                self.band_kernel_specs = [self._kernel_spectrum(self.mask & (k >= lo) & (k < hi))
                                          for lo, hi in bands]
            else:
                # (first in-mask bin, width to the last one, autocorrelation
                # FFT length) per band; q is zero outside the mask
                self.band_spans = []
                for lo, hi in bands:
                    inside = self.sel[(self.sel >= lo) & (self.sel < hi)]
                    if inside.size:
                        w = int(inside[-1] - inside[0]) + 1
                        self.band_spans.append((int(inside[0]), w, next_fast_len(2 * w - 1)))

    def _kernel_spectrum(self, mask: np.ndarray) -> np.ndarray:
        """Conjugate length-``fft_len`` spectrum of the whitened-template
        kernel restricted to ``mask``; the kernel's support is exactly the
        template length."""
        g_freq = np.zeros(self.nt, dtype=np.complex128)
        sel = np.where(mask)[0]
        g_freq[sel] = self.htilde[sel] / self.psd_grid[sel]
        kernel = np.fft.ifft(g_freq) * (self.nt * self.grid_df)
        return np.conj(np.fft.fft(kernel, self.fft_len))

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
        block_fft = np.fft.fft(prefixed, self.fft_len)
        return self._prefixed_snr(block_fft, self.kernel_spec), block_fft

    def _prefixed_snr(self, block_fft: np.ndarray, kernel_spec: np.ndarray) -> np.ndarray:
        # cyclic prefix: correlate against a planned kernel spectrum
        corr = np.fft.ifft(block_fft * kernel_spec)
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
            for kernel_spec in self.band_kernel_specs:
                z_i = self._prefixed_snr(spectrum, kernel_spec)
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
        sigma=sigma, mode=cfg.mode, chi2_reduced=chi2_r,
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


def _lag_samples(fs: float, n: int, reference: TimeSeries, max_lag: float) -> int:
    """Half-width in samples of the lag grid for an ``n``-sample window at
    ``fs`` against ``reference``, once the pair and the range are checked."""
    if abs(fs - reference.fs) > 1e-9 * fs:
        raise ValidationError(f"sample-rate mismatch: {fs} vs {reference.fs} Hz")
    if n != reference.n:
        raise ValidationError(
            f"windows must have equal duration: {n} vs {reference.n} samples"
        )
    lag_samples = int(round(max_lag * fs))
    if lag_samples < 1:
        raise ValidationError("max_lag shorter than one sample")
    if lag_samples > n - 1:
        raise ValidationError(
            f"max_lag {max_lag} s exceeds the window duration {n / fs} s"
        )
    return lag_samples


def _outer_mask(lags: np.ndarray, tau0: float) -> np.ndarray:
    """The lags beyond three decorrelation times, which must exist."""
    if not tau0 > 0:
        raise ValidationError(f"tau0 must be positive, got {tau0}")
    max_lag = float(lags[-1])
    if 3.0 * tau0 >= max_lag:
        raise ValidationError(
            f"lag range {max_lag} s too short for R3 at tau0={tau0} s "
            f"(needs 3*tau0 < max_lag)"
        )
    return np.abs(lags) > 3.0 * tau0


def _peak_r3(values: np.ndarray, outer: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|CCF| peak and R3 of each CCF along the last axis."""
    mag = np.abs(values)
    peak = np.max(mag, axis=-1)
    if np.any(peak <= 0.0):
        raise DegeneracyError("flat zero CCF has no peak ratio")
    return peak, np.max(mag[..., outer], axis=-1) / peak


def _r3(lags: np.ndarray, values: np.ndarray, tau0: float) -> tuple[float, bool]:
    r3 = float(_peak_r3(values, _outer_mask(lags, tau0))[1])
    return r3, r3 < R3_THRESHOLD


class _CcfPlan:
    """Reference-side state of the normalized CCF for one window length.

    The conjugated spectrum of the unit-energy reference at a fast length
    of at least 2n - 1, so the circular correlation never wraps; the lag
    grid; and the |lag| > 3 tau0 mask that R3 reads.  ``tau0`` defaults
    to the decorrelation time of the reference.
    """

    def __init__(self, reference: TimeSeries, fs: float, lag_samples: int,
                 tau0: float | None):
        unit = _unit_energy(reference.samples, "second")
        self.size = next_fast_len(2 * reference.n - 1, real=True)
        self.ref_conj = np.conj(np.fft.rfft(unit, self.size))
        self.lag_samples = lag_samples
        self.lags = np.arange(-lag_samples, lag_samples + 1) / fs
        if tau0 is None:
            tau0 = decorrelation_time(reference)
        self.outer = _outer_mask(self.lags, tau0)
        self.tau0 = float(tau0)

    def ccf(self, unit_rows: np.ndarray) -> np.ndarray:
        """CCF over the lag grid of each unit-energy row (last axis)."""
        spec = np.fft.rfft(unit_rows, self.size)
        spec *= self.ref_conj
        full = np.fft.irfft(spec, self.size)
        m = self.lag_samples
        return np.concatenate([full[..., self.size - m:], full[..., :m + 1]], axis=-1)


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
    lag_samples = _lag_samples(a.fs, a.n, b, max_lag)
    na = _unit_energy(a.samples, "first")
    plan = _CcfPlan(b, a.fs, lag_samples, tau0)
    values = plan.ccf(na)
    r3 = float(_peak_r3(values, plan.outer)[1])
    return CcfResult(lags=plan.lags, values=values, tau0=plan.tau0, r3=r3,
                     peaky=r3 < R3_THRESHOLD, window_T=a.n / a.fs)


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


def _finite(x) -> bool:
    """True for a finite real number that is not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def running_window_ccf(
    long_ts: TimeSeries,
    template: TimeSeries,
    hop: float,
    exclusions=(),
    tau0: float | None = None,
) -> list[RunningWindowStat]:
    """Slide template-duration windows over a long series and summarize each.

    Each window is correlated with the template over every lag it holds.
    Windows start at ``t0``, ``t0 + hop``, ... (summed hop by hop) and are
    snapped to the sample grid; the scan stops at the first one that runs
    past the end.  Windows intersecting an exclusion range ``(t_a, t_b)``
    are skipped, as are zero-energy windows.  The kept windows are
    correlated ``_CCF_CHUNK_ROWS`` at a time through one :class:`_CcfPlan`;
    results are ordered by window start.
    """
    if not (_finite(hop) and hop > 0):
        raise ValidationError(f"hop must be a positive finite number, got {hop!r}")
    spans = []
    for pair in exclusions:
        try:
            t_a, t_b = pair
        except (TypeError, ValueError):
            t_a = t_b = None
        if not (_finite(t_a) and _finite(t_b)):
            raise ValidationError(
                f"an exclusion must be a (start, end) pair of finite numbers, got {pair!r}"
            )
        spans.append((t_a, t_b))
    if template.n >= long_ts.n:
        raise ValidationError("template must be shorter than the long series")
    max_lag = (template.n - 1) / template.fs
    if tau0 is None:
        tau0 = decorrelation_time(template)
    fs = long_ts.fs
    duration = template.duration
    n_win = int(round(duration * fs))  # snapped as slice_window snaps
    starts: list[float] = []
    first: list[int] = []
    t = long_ts.t0
    end = long_ts.t0 + long_ts.duration
    while t + duration <= end + 0.5 / fs:
        if not any(t < t_b and t + duration > t_a for (t_a, t_b) in spans):
            i0 = int(round((t - long_ts.t0) * fs))
            if i0 + n_win > long_ts.n:
                break  # the last hop's window runs past the end of the series
            starts.append(t)
            first.append(i0)
        t += hop

    if first:  # else the window may be longer than the series
        view = np.lib.stride_tricks.sliding_window_view(long_ts.samples, n_win)
    plan = None
    out: list[RunningWindowStat] = []
    for c in range(0, len(first), _CCF_CHUNK_ROWS):
        rows = view[first[c:c + _CCF_CHUNK_ROWS]]
        energy = np.einsum("ij,ij->i", rows, rows)
        kept = np.flatnonzero(energy > 0.0)
        if kept.size == 0:
            continue
        if plan is None:  # lazily, so a scan with no usable window says so first
            plan = _CcfPlan(template, fs, _lag_samples(fs, n_win, template, max_lag), tau0)
            # rows zero-padded to the FFT length, so the FFT pads nothing
            unit = np.zeros((_CCF_CHUNK_ROWS, plan.size))
        np.divide(rows[kept], np.sqrt(energy[kept])[:, None], out=unit[:kept.size, :n_win])
        peaks, r3s = _peak_r3(plan.ccf(unit[:kept.size]), plan.outer)
        out.extend(map(RunningWindowStat, [starts[c + k] for k in kept],
                       peaks.tolist(), r3s.tolist()))
    if not out:
        raise ValidationError("no usable windows: exclusions cover the whole span")
    return out
