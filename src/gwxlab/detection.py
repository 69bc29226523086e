"""Detection engines: frequency-domain matched filter and short-window CCF.

The matched filter computes the noise-weighted correlation

    z(t) = 4 * integral_0^inf  s~(f) h~*(f) / S_n(f) * exp(i 2 pi f t) df
    rho(t) = |z(t)| / sqrt(<h|h>),   <h|h> = 4 * integral |h~|^2 / S_n df

in one of two block modes.  ``circular`` multiplies block-grid spectra
and inverse-transforms, wrap-around artifacts included, which is what a
naive finite-block implementation does.  ``cyclic_prefix`` is the linear
correlation of the strain with the whitened template kernel over the
full-overlap lags, which is all a cyclic prefix buys: the kept lags of a
prefixed circular correlation never read the prefix, so the bare strain
is transformed, zero-padded so that no kept lag wraps.

The chi-squared veto (Allen, gr-qc/0405045) splits the filtered bins into
N bands of equal template power, whose SNR series z_i sum to z, and
measures sum_i |z_i - z/N|^2.  Because the bands partition the bins,

    sum_i |z_i - z/N|^2 = sum_i |z_i|^2 - |z|^2 / N,

and in ``circular`` mode sum_i |z_i(t)|^2 is the Fourier series of the
summed spectral autocorrelations of each band's slice of
4 s~ h~* / S_n.  So a filtered block costs one rfft (strain), one complex
ifft (z) and one irfft (band power) of length n, plus one FFT and one
ihfft per band, each about twice the band's width, instead of the N + 2
length-n transforms of one inverse transform per band.  The widest band
can hold most of the grid: for gw150914 on the 32 s stock grid it holds
62,362 of 65,536 bins, so its FFT has 124,740 points.  The band power is
taken from q = 4 s~ h~* / S_n before q becomes z in place
(``np.fft.ifft(q, out=q)``), and |z|^2 / N is then formed in z's own
storage, so each stage of a filtered block keeps one full-length buffer
alive besides its outputs; each in-place step performs the operations of
its out-of-place form in the same order, so it gives the same bits.  The
subtraction makes the round-off absolute, of order eps * rho^2; it can
only show where the reduced chi-squared is far below 1, which leaves the
reweighted SNR unchanged.  ``cyclic_prefix`` keeps one filter per band,
since its bands sit on the template grid: the plan holds the conjugate
spectrum of the whitened kernel and of each band's kernel at a fast
length of at least n, so a filtered block costs one forward transform
plus one inverse transform per kernel.  The template-side work is
planned once and reused while template, PSD, configuration and block
shape stay the same.

The short-window path is a normalized time-domain cross-correlation:
both windows are scaled to unit energy so self-correlation is exactly 1
at zero lag, and peakiness is judged by the ratio R3 of the largest
|CCF| beyond three decorrelation times to the global |CCF| maximum,
against the threshold 1/e.  Its reference side is planned once per
window length: the conjugated spectrum of the unit-energy reference at a
fast length of at least 2n - 1 (so the circular correlation of the FFT
never wraps) and the first lag k0 beyond 3 tau0, tau0 defaulting to the
reference's decorrelation time.  That autocorrelation goes through the
same real FFT at the same length, as |rfft|^2.  One kernel serves every
CCF: a real FFT pair gives the circular CCF of each row, lags 0..m at
its head and -m..-1 at its tail, and the |CCF| peak and R3 are maxima
over slices of its magnitude.  A single CCF uses a one-shot plan and
reads its signed lag grid from the same two slices.  The running-window
CCF keeps one plan for the whole scan.  Its window starts are the sums of
a ``t += hop`` loop; from there it works on arrays: the exclusions are
vector masks, the windows are gathered from a strided view of the long
series, one gather per 64-row chunk, and divided by their norms straight
into a zero-padded row buffer; the chunk's FFT pair writes into that lane's
spectrum and output buffers, and the magnitude is taken in place.
Batching changes values by round-off only, about 1e-16 on values
bounded by 1.  The scan returns columns, not one object per window.
The chunks run on the CPUs no other lane holds (:mod:`gwxlab.lanes`): a
scan in a one-trial run uses the idle CPU, one inside a trial that
shares the CPUs with other trials runs inline.  Each lane owns its
buffers and the chunk boundaries do not move, so the output is
byte-identical whatever the CPU count.  Fast FFT lengths follow scipy's
``next_fast_len`` rule, memoized in ``_next_fast_len`` without scipy.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegeneracyError, ValidationError
from .lanes import run_lanes
from .series import PowerSpectrum, TimeSeries, _check_rate, _finite, _readonly_f64

__all__ = [
    "MfConfig",
    "SnrSeries",
    "CcfResult",
    "RunningCcf",
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
# the matched filter's block modes, described in the module docstring
_MF_MODES = ("circular", "cyclic_prefix")


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
        if self.mode not in _MF_MODES:
            raise ValidationError(f"unknown matched-filter mode {self.mode!r}")
        if self.block_len is not None and self.block_len <= 0:
            raise ValidationError("block_len must be positive or None")
        if self.reweight_bins is not None and self.reweight_bins < 2:
            raise ValidationError("reweight_bins must be >= 2 or None")
        if self.band is not None:
            object.__setattr__(self, "band", tuple(self.band))  # hashable: plans are cached
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
        rho = _readonly_f64(self.rho, "rho")
        # one array for both when nothing reweights, so writers format it once
        rho_rw = (rho if self.rho_reweighted is self.rho
                  else _readonly_f64(self.rho_reweighted, "rho_reweighted"))
        if rho.shape != rho_rw.shape:
            raise ValidationError("rho and rho_reweighted must share a shape")
        if np.any(rho < 0):
            raise ValidationError("rho must be nonnegative")
        if not self.sigma > 0:
            raise ValidationError("sigma must be positive")
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
        lags = _readonly_f64(self.lags, "lags")
        values = _readonly_f64(self.values, "values")
        if lags.shape != values.shape:
            raise ValidationError("lags and values must share a shape")
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


@dataclass(frozen=True, eq=False)
class RunningCcf:
    """Running-window CCF scan: the start time, |CCF| peak and R3 of each
    kept window, as read-only columns ordered by start."""

    t_start: np.ndarray
    peak_abs_ccf: np.ndarray
    r3: np.ndarray

    def __post_init__(self):
        for name in ("t_start", "peak_abs_ccf", "r3"):
            object.__setattr__(self, name, _readonly_f64(getattr(self, name), name))

    def __len__(self) -> int:
        return self.t_start.size


@functools.cache
def _next_fast_len(target: int, real: bool = False) -> int:
    """Smallest length >= ``target`` whose prime factors are all <= 11, or
    <= 5 when ``real``; a target of at most 6 is its own answer."""
    if target <= 6:
        return target
    best = 1 << (target - 1).bit_length()
    odd = [1]  # the odd smooth numbers below best
    for prime in (3, 5) if real else (3, 5, 7, 11):
        for p in list(odd):
            while (p := p * prime) < best:
                odd.append(p)
    # each odd number times the smallest power of two that reaches target
    return min(p << (-(-target // p) - 1).bit_length() for p in odd)


# ---------------------------------------------------------------------------
# matched filter


def _band_slice(n_onesided: int, df: float, band) -> slice:
    """The filtered bins k of a one-sided grid: k >= 1, as DC carries no
    template information, and ``band[0] <= k * df <= band[1]`` given a
    band.  ``k * df`` never decreases with k, so the bins at or above
    ``band[0]`` are a tail and those at or below ``band[1]`` a head."""
    if band is None:
        return slice(1, n_onesided)
    f = np.arange(n_onesided) * df
    return slice(max(1, n_onesided - int(np.count_nonzero(f >= band[0]))),
                 int(np.count_nonzero(f <= band[1])))


def _check_block(strain: TimeSeries, template: TimeSeries, cfg: MfConfig) -> None:
    _check_rate(strain.fs, template.fs, "strain, template")
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
            raise ValidationError(f"strain holds {n} samples but block_len asks for "
                                  f"{int(round(block_samples))}")
    if n < 2 * nt:
        raise ValidationError(f"block must be at least twice the template length ({n} < {2 * nt})")


class _MfPlan:
    """Strain-independent state of the matched filter for one block shape.

    The filtered band, a slice of the one-sided filter grid, <h|h> and,
    when reweighting, the chi-squared bands.  In ``circular`` mode it
    holds the conjugate template spectrum and the PSD over the band only;
    in ``cyclic_prefix`` mode the conjugate spectrum of the whitened-
    template kernel, and of one kernel per chi-squared band, at the fast
    length ``fft_len >= n``; the kept lags 0..n - nt read strain samples
    up to n - 1 only, so the zero padding is exact.
    Depends only on (template, PSD, cfg, block length, rate).
    """

    def __init__(self, template: TimeSeries, psd: PowerSpectrum, cfg: MfConfig,
                 n: int, fs: float):
        self.cfg = cfg
        self.dt = 1.0 / fs
        self.n = n
        self.nt = nt = template.n

        grid_n = n if cfg.mode == "circular" else nt
        self.grid_df = fs / grid_n
        nf = grid_n // 2 + 1
        h = np.zeros(grid_n)
        h[:nt] = template.samples
        htilde = np.fft.rfft(h) * self.dt
        psd_grid = psd.floored(self.grid_df, nf)
        self.band = band = _band_slice(nf, self.grid_df, cfg.band)
        # <h|h> integrand per one-sided bin, summed over the whole grid
        weights = np.zeros(nf)
        weights[band] = 4.0 * np.abs(htilde[band]) ** 2 / psd_grid[band] * self.grid_df
        self.hh = float(np.sum(weights))
        if self.hh <= 0.0:
            raise DegeneracyError("template has no in-band power; <h|h> is zero")
        if cfg.mode == "circular":
            self.hconj = np.conj(htilde[band])
            self.psd_band = psd_grid[band].copy()
            self.out_len = n
        else:
            self.out_len = n - nt + 1
            self.fft_len = _next_fast_len(n)
            self.kernel_spec = self._kernel_spectrum(htilde, psd_grid, band)

        if cfg.reweight_bins is not None:
            n_bins, width = cfg.reweight_bins, band.stop - band.start
            if n_bins > width:
                raise ValidationError(f"cannot build {n_bins} chi-squared bands from "
                                      f"{width} in-band bins; ask for at most that many")
            cum = np.cumsum(weights) / self.hh
            edges = np.searchsorted(cum, np.arange(1, n_bins) / n_bins, side="left")
            bounds = [0, *(edges + 1).tolist(), nf]
            if any(hi <= lo for lo, hi in zip(bounds, bounds[1:])):
                raise DegeneracyError(
                    f"template power too concentrated to build {n_bins} chi-squared bands"
                )
            # each chi-squared band's run of filtered bins, empty or not
            runs = [slice(max(lo, band.start), min(hi, band.stop))
                    for lo, hi in zip(bounds, bounds[1:])]
            if cfg.mode == "cyclic_prefix":
                self.band_kernel_specs = [self._kernel_spectrum(htilde, psd_grid, run)
                                          for run in runs]
            else:
                # q is zero outside the band, so an empty run adds nothing
                self.band_spans = [(run.start, w, _next_fast_len(2 * w - 1))
                                   for run in runs if (w := run.stop - run.start) > 0]

    def _kernel_spectrum(self, htilde: np.ndarray, psd_grid: np.ndarray,
                         bins: slice) -> np.ndarray:
        """Conjugate length-``fft_len`` spectrum of the whitened-template
        kernel restricted to ``bins``; the kernel's support is exactly the
        template length."""
        g_freq = np.zeros(self.nt, dtype=np.complex128)
        g_freq[bins] = htilde[bins] / psd_grid[bins]
        kernel = np.fft.ifft(g_freq) * (self.nt * self.grid_df)
        return np.conj(np.fft.fft(kernel, self.fft_len))

    def snr_complex(self, strain: TimeSeries) -> tuple[np.ndarray, np.ndarray | None]:
        """Complex matched-filter series over the output lags, plus, when
        reweighting, the strain-side power that :meth:`chi2_reduced` takes:
        sum_i |z_i|^2 in ``circular`` mode, sum_i |z_i - z/N|^2 in
        ``cyclic_prefix`` mode."""
        n = self.n
        n_bins = self.cfg.reweight_bins
        if self.cfg.mode == "circular":
            strain_fft = np.fft.rfft(strain.samples)
            q = np.zeros(n, dtype=np.complex128)
            # dt * 4 * X * conj(h) / S, in that order, straight into the band
            q_band = np.multiply(strain_fft[self.band], self.dt, out=q[self.band])
            del strain_fft
            q_band *= 4.0
            q_band *= self.hconj
            q_band /= self.psd_band
            power = None if n_bins is None else self._band_power(q)
            z = np.fft.ifft(q, out=q)  # q becomes z in place
            z *= n * self.grid_df
            return z, power
        block_fft = np.fft.fft(strain.samples, self.fft_len)
        z = self._linear_snr(block_fft, self.kernel_spec)
        if n_bins is None:
            return z, None
        power = np.zeros(self.out_len)
        expected = z / n_bins
        for kernel_spec in self.band_kernel_specs:
            z_i = self._linear_snr(block_fft, kernel_spec)
            power += np.abs(z_i - expected) ** 2
        return z, power

    def _linear_snr(self, block_fft: np.ndarray, kernel_spec: np.ndarray) -> np.ndarray:
        # linear correlation against a planned kernel spectrum, full-overlap lags
        corr = np.fft.ifft(block_fft * kernel_spec)
        return 4.0 * self.dt * corr[:self.out_len]

    def chi2_reduced(self, z: np.ndarray, power: np.ndarray) -> np.ndarray:
        """Power chi-squared over equal-template-power bands, per output lag,
        in ``power``'s buffer; in ``circular`` mode ``z`` is the scratch."""
        n_bins = self.cfg.reweight_bins
        if self.cfg.mode == "circular":
            # sum_i |z_i|^2 - |z|^2 / N, with |z|^2 / N formed in z's real part
            z2 = np.square(z.real, out=z.real)
            z2 += np.square(z.imag, out=z.imag)
            z2 /= n_bins
            power -= z2
            np.maximum(power, 0.0, out=power)  # clamp round-off below zero
        power *= n_bins / self.hh
        power /= 2 * n_bins - 2
        return power

    def _band_power(self, q: np.ndarray) -> np.ndarray:
        """sum_i |z_i(t)|^2 over the chi-squared bands, from one length-n iFFT.

        |z_i|^2 is the Fourier series of band i's spectral autocorrelation;
        each band is narrower than n/2 bins, so its lags fit the one-sided
        half-spectrum of a real length-n transform without aliasing.
        """
        acf = np.zeros(self.n // 2 + 1, dtype=np.complex128)
        for lo, w, size in self.band_spans:
            spec = np.fft.fft(q[lo:lo + w], size)
            power = np.square(spec.real)
            power += np.square(spec.imag, out=spec.imag)
            del spec  # the widest band's spectrum is the largest buffer here
            # ihfft of a real sequence is its ifft at lags 0..size//2
            acf[:w] += np.fft.ihfft(power)[:w]
        scale = self.n * self.grid_df
        out = np.fft.irfft(acf, self.n)
        out *= scale * scale / self.n
        return out


@functools.lru_cache(maxsize=1)
def _plan_for(template: TimeSeries, psd: PowerSpectrum, cfg: MfConfig,
              n: int, fs: float) -> _MfPlan:
    """The plan for these inputs; the last one is kept and reused.

    Exact reuse: the template and PSD are frozen, compare by identity and
    own read-only copies of their arrays, so the same objects always hold
    the same values.  Callers hold ``_PLAN_LOCK``, so lanes that miss
    together build the plan once.
    """
    return _MfPlan(template, psd, cfg, n, fs)


_PLAN_LOCK = threading.Lock()


def sigma_norm(template: TimeSeries, psd: PowerSpectrum) -> float:
    """Normalization quadratic form <h|h> = 4 * sum |h~|^2 / S_n * df.

    Evaluated on the template's own frequency grid, DC excluded; scales as
    a**2 when the template is scaled by a.
    """
    if template.n < 2:
        raise ValidationError("template needs at least two samples")
    htilde = np.fft.rfft(template.samples) / template.fs
    df = template.fs / template.n
    grid = psd.floored(df, htilde.size)
    hh = float(np.sum(4.0 * np.abs(htilde[1:]) ** 2 / grid[1:] * df))
    if hh <= 0.0:
        raise DegeneracyError("template has no in-band power; <h|h> is zero")
    return hh


def _reweight_factor(chi2_r: np.ndarray) -> np.ndarray:
    factor = np.ones_like(chi2_r)
    high = ~(chi2_r <= 1.0)  # NaN included, as the power of it gives NaN
    # ((1 + chi2_r**3) / 2) ** (-1/6) on one gathered copy of the high lags
    high_chi2 = chi2_r[high]
    high_chi2 **= 3
    high_chi2 += 1.0
    high_chi2 /= 2.0
    high_chi2 **= -1.0 / 6.0
    factor[high] = high_chi2
    return factor


def matched_filter(
    strain: TimeSeries,
    template: TimeSeries,
    psd: PowerSpectrum,
    cfg: MfConfig = MfConfig(),
) -> SnrSeries:
    """Matched-filter SNR of a strain block against a template.

    Output sample k corresponds to the template aligned at strain time
    ``t0 + k/fs``.  ``circular`` mode covers every lag of the block,
    wrap-around included; ``cyclic_prefix`` mode is direct time-domain
    linear correlation over the lags where the template fully overlaps the
    strain, which is all a cyclic prefix buys.
    """
    _check_block(strain, template, cfg)
    with _PLAN_LOCK:
        plan = _plan_for(template, psd, cfg, strain.n, strain.fs)
    z, power = plan.snr_complex(strain)
    sigma = math.sqrt(plan.hh)
    rho = np.abs(z)
    rho /= sigma
    chi2_r = None
    rho_rw = rho
    if power is not None:
        chi2_r = plan.chi2_reduced(z, power)
        del z
        rho_rw = _reweight_factor(chi2_r)
        rho_rw *= rho
    rho.setflags(write=False)  # frozen, so the record adopts both, not copies
    rho_rw.setflags(write=False)
    return SnrSeries(
        fs=strain.fs, t0=strain.t0, rho=rho, rho_reweighted=rho_rw,
        sigma=sigma, mode=cfg.mode, chi2_reduced=chi2_r,
    )


# ---------------------------------------------------------------------------
# normalized short-window cross-correlation


def _energy(x: np.ndarray) -> float:
    # einsum, not np.dot: BLAS splits a long dot across its threads, which
    # moves the last bit with the thread count
    return float(np.einsum("i,i->", x, x))


def _unit_energy(x: np.ndarray, what: str) -> np.ndarray:
    energy = _energy(x)
    if energy <= 0.0:
        raise DegeneracyError(f"{what} window has zero energy")
    return x / math.sqrt(energy)


def _ccf_size(n: int) -> int:
    """Real-FFT length at which two length-``n`` series correlate without wrap-around."""
    return _next_fast_len(2 * n - 1, real=True)


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
    energy = _energy(x)
    if energy <= 0.0:
        raise DegeneracyError("zero-energy series has no decorrelation time")
    size = _ccf_size(n)
    spec = np.fft.rfft(x, size)
    corr = np.fft.irfft(spec.real ** 2 + spec.imag ** 2, size)[:n]
    counts = n - np.arange(n)
    r = np.abs(corr / counts * (n / energy))
    return _envelope_crossing(r, template.fs, "autocorrelation")


def _lag_samples(fs: float, n: int, reference: TimeSeries, max_lag: float) -> int:
    """Half-width in samples of the lag grid for an ``n``-sample window at
    ``fs`` against ``reference``, once the pair and the range are checked."""
    _check_rate(fs, reference.fs, "window, reference")
    if n != reference.n:
        raise ValidationError(f"windows must have equal duration: {n} vs {reference.n} samples")
    lag_samples = int(round(max_lag * fs))
    if lag_samples < 1:
        raise ValidationError("max_lag shorter than one sample")
    if lag_samples > n - 1:
        raise ValidationError(f"max_lag {max_lag} s exceeds the window duration {n / fs} s")
    return lag_samples


def _outer_start(lag_samples: int, fs: float, tau0: float) -> int:
    """The first lag, in samples, beyond three decorrelation times; the lag
    grid up to ``lag_samples`` must reach past it."""
    if not tau0 > 0:
        raise ValidationError(f"tau0 must be positive, got {tau0}")
    max_lag = lag_samples / fs
    if 3.0 * tau0 >= max_lag:
        raise ValidationError(
            f"lag range {max_lag} s too short for R3 at tau0={tau0} s "
            f"(needs 3*tau0 < max_lag)"
        )
    return int(np.argmax(np.arange(lag_samples + 1) / fs > 3.0 * tau0))


class _CcfPlan:
    """Reference-side state of the normalized CCF for one window length.

    The conjugated spectrum of the unit-energy reference at a fast length
    of at least 2n - 1, so the circular correlation never wraps; the lag
    range m; and the first lag k0 beyond three decorrelation times, which
    R3 reads.  ``tau0`` defaults to the decorrelation time of the
    reference.
    """

    def __init__(self, reference: TimeSeries, fs: float, lag_samples: int,
                 tau0: float | None):
        unit = _unit_energy(reference.samples, "second")
        self.size = _ccf_size(reference.n)
        self.ref_conj = np.conj(np.fft.rfft(unit, self.size))
        self.lag_samples = lag_samples
        if tau0 is None:
            tau0 = decorrelation_time(reference)
        self.k0 = _outer_start(lag_samples, fs, tau0)
        self.tau0 = float(tau0)

    def correlate(self, rows: np.ndarray, spec: np.ndarray | None = None,
                  full: np.ndarray | None = None) -> np.ndarray:
        """Circular CCF of each unit-energy row (last axis) with the
        reference: lags 0..m at its head, -m..-1 at its tail.  The spectrum
        and the output go into the caller's ``spec`` and ``full`` if given."""
        spec = np.fft.rfft(rows, self.size, out=spec)
        spec *= self.ref_conj
        return np.fft.irfft(spec, self.size, out=full)

    def peak_r3(self, mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """|CCF| peak and R3 of each circular |CCF| ``mag`` (last axis): the
        maxima over its head and tail slices, which hold lags 0..m and
        -m..-1; the outer lags are k0..m and -m..-k0."""
        m, k0, n = self.lag_samples, self.k0, self.size  # lag -k sits at n - k
        outer = np.maximum(mag[..., k0:m + 1].max(axis=-1),
                           mag[..., n - m:n - k0 + 1].max(axis=-1))
        peak = np.maximum(outer, mag[..., :k0].max(axis=-1))
        if k0 > 1:
            peak = np.maximum(peak, mag[..., n - k0 + 1:].max(axis=-1))
        if np.any(peak <= 0.0):
            raise DegeneracyError("flat zero CCF has no peak ratio")
        return peak, outer / peak


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
    m = _lag_samples(a.fs, a.n, b, max_lag)
    na = _unit_energy(a.samples, "first")
    plan = _CcfPlan(b, a.fs, m, tau0)
    full = plan.correlate(na)
    r3 = float(plan.peak_r3(np.abs(full))[1])
    return CcfResult(lags=np.arange(-m, m + 1) / a.fs,
                     values=np.concatenate([full[plan.size - m:], full[:m + 1]]),
                     tau0=plan.tau0, r3=r3, peaky=r3 < R3_THRESHOLD, window_T=a.n / a.fs)


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


def _check_hop(hop, fs: float) -> None:
    """Refuse a scan hop that is not a finite number of at least one sample."""
    if not (_finite(hop) and hop > 0):
        raise ValidationError(f"hop must be a positive finite number, got {hop!r}")
    if hop < 1.0 / fs:
        raise ValidationError(
            f"hop must be at least one sample (1/fs = {1.0 / fs!r} s), got {hop!r}: "
            "windows snap to the sample grid, so a shorter hop only repeats them"
        )


def running_window_ccf(
    long_ts: TimeSeries,
    template: TimeSeries,
    hop: float,
    exclusions=(),
    tau0: float | None = None,
) -> RunningCcf:
    """Slide template-duration windows over a long series and summarize each.

    Each window is correlated with the template over every lag it holds;
    ``tau0`` defaults to the template's decorrelation time.  Windows start
    at ``t0``, ``t0 + hop``, ... (summed hop by hop) and are snapped to the
    sample grid; the scan stops at the first one that runs past the end.
    ``hop`` must be at least one sample, as a shorter one only repeats
    windows.  Windows intersecting an exclusion range ``(t_a, t_b)``,
    ``t_a <= t_b``, are skipped, as are zero-energy windows.  The kept
    windows are correlated ``_CCF_CHUNK_ROWS`` at a time through one
    :class:`_CcfPlan`, the chunks spread over the idle CPUs by
    :func:`gwxlab.lanes.run_lanes`, each lane with its own row and FFT
    buffers.  The columns returned are ordered by window start and do not
    depend on the CPU count.
    """
    fs = long_ts.fs
    _check_hop(hop, fs)
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
        if t_b < t_a:
            raise ValidationError(f"exclusion {pair!r} ends before it starts; "
                                  f"give it as (start, end)")
        spans.append((float(t_a), float(t_b)))
    if template.n >= long_ts.n:
        raise ValidationError("template must be shorter than the long series")
    # windows hold template.n samples once the rates match
    n_win = template.n
    lag_samples = _lag_samples(fs, n_win, template, (n_win - 1) / fs)
    duration = template.duration
    t0 = long_ts.t0
    reach = t0 + long_ts.duration + 0.5 / fs
    starts, t, hop = [], t0, float(hop)  # float64 sums, whatever the hop's type
    while t + duration <= reach:
        starts.append(t)
        if t + hop == t:
            raise ValidationError(f"hop {hop!r} s is below the time resolution at t = {t!r} s")
        t += hop
    starts = np.array(starts)
    usable = np.ones(starts.size, dtype=bool)
    for t_a, t_b in spans:
        usable &= ~((starts < t_b) & (starts + duration > t_a))
    first = np.rint((starts - t0) * fs).astype(np.intp)  # halves to even, as round does
    # start indices only grow, so this drops the windows from the first
    # one that runs past the end of the series
    usable &= first + n_win <= long_ts.n
    kept = np.flatnonzero(usable)
    starts, first = starts[kept], first[kept]

    view = np.lib.stride_tricks.sliding_window_view(long_ts.samples, n_win)
    rows_per = _CCF_CHUNK_ROWS
    chunks = range(0, first.size, rows_per)

    def gather(c: int):
        rows = view[first[c:c + rows_per]]
        return rows, np.einsum("ij,ij->i", rows, rows)

    # the plan is built after the first chunk with a usable window, so a
    # scan with none says so first
    lead = next((i for i, c in enumerate(chunks) if np.any(gather(c)[1] > 0.0)), None)
    if lead is None:
        raise ValidationError("no usable windows: exclusions cover the whole span")
    plan = _CcfPlan(template, fs, lag_samples, tau0)
    chunks = chunks[lead:]
    peak = np.empty(first.size)
    r3 = np.empty(first.size)
    live = np.zeros(first.size, dtype=bool)
    buffers = threading.local()

    def correlate(i: int) -> None:
        c = chunks[i]
        rows, energy = gather(c)
        ok = energy > 0.0
        at = slice(c, c + ok.size)
        live[at] = ok
        if not ok.all():  # compact the windows with energy
            keep = np.flatnonzero(ok)
            if keep.size == 0:
                return
            rows, energy, at = rows[keep], energy[keep], c + keep
        if not hasattr(buffers, "unit"):
            # rows zero-padded to the FFT length, so the FFT pads nothing
            buffers.unit = np.zeros((rows_per, plan.size))
            buffers.spec = np.empty((rows_per, plan.size // 2 + 1), dtype=np.complex128)
            buffers.full = np.empty((rows_per, plan.size))
        k = energy.size
        unit = buffers.unit[:k]
        np.divide(rows, np.sqrt(energy)[:, None], out=unit[:, :n_win])
        full = plan.correlate(unit, buffers.spec[:k], buffers.full[:k])
        peak[at], r3[at] = plan.peak_r3(np.abs(full, out=full))

    run_lanes(correlate, len(chunks))
    done = np.flatnonzero(live)
    return RunningCcf(t_start=starts[done], peak_abs_ccf=peak[done], r3=r3[done])
