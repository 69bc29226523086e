import math
import tracemalloc

import numpy as np
import pytest

from gwxlab import (
    DegeneracyError,
    LineBand,
    PowerSpectrum,
    PsdLine,
    PsdModel,
    PsdSegment,
    TimeSeries,
    ValidationError,
    butterworth_bandpass,
    colored_noise,
    default_detector_model,
    detect_lines,
    merge_bands,
    welch_psd,
    whiten_full,
    whiten_localized,
)
from gwxlab import conditioning
from gwxlab.series import PSD_FLOOR_RATIO

FS = 4096.0


def tone(freq, duration=4.0, fs=FS, amp=1.0):
    t = np.arange(int(duration * fs)) / fs
    return TimeSeries(fs, 0.0, amp * np.sin(2 * np.pi * freq * t))


def interior(x, fs=FS, settle=0.5):
    k = int(settle * fs)
    return x[k:-k]


class TestButterworthBandpass:
    def test_passband_amplitude_preserved(self):
        y = butterworth_bandpass(tone(150.0), 43.0, 300.0, order=4)
        amp = np.max(np.abs(interior(y.samples)))
        assert 0.95 <= amp <= 1.05

    def test_stopband_attenuation(self):
        y = butterworth_bandpass(tone(1200.0), 43.0, 300.0, order=4)
        assert np.max(np.abs(interior(y.samples))) <= 0.01

    def test_zero_input(self):
        y = butterworth_bandpass(TimeSeries(FS, 0.0, np.zeros(4096)), 43.0, 300.0)
        assert np.all(y.samples == 0.0)

    def test_output_length_preserved(self):
        ts = tone(100.0, duration=1.0)
        y = butterworth_bandpass(ts, 43.0, 300.0)
        assert y.n == ts.n

    def test_time_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(16384)
        shift = 257
        a = butterworth_bandpass(TimeSeries(FS, 0.0, x), 43.0, 300.0).samples
        b = butterworth_bandpass(TimeSeries(FS, 0.0, np.roll(x, shift)), 43.0, 300.0).samples
        core = slice(4096, 12288)
        np.testing.assert_allclose(
            np.roll(a, shift)[core], b[core], atol=1e-6 * np.max(np.abs(a))
        )

    def test_bad_band(self):
        with pytest.raises(ValidationError):
            butterworth_bandpass(tone(100.0), 300.0, 43.0)
        with pytest.raises(ValidationError):
            butterworth_bandpass(tone(100.0), 43.0, 3000.0)

    def test_series_too_short_names_the_needed_length(self):
        # order 4: padlen 3 * (2 * 4 + 1) = 27 samples
        with pytest.raises(ValidationError, match="needs more than 27 samples, got 27"):
            butterworth_bandpass(TimeSeries(FS, 0.0, np.ones(27)), 43.0, 300.0)
        assert butterworth_bandpass(TimeSeries(FS, 0.0, np.ones(28)), 43.0, 300.0).n == 28

    def test_design_that_never_decays_is_refused(self):
        # at order 4 and 4096 Hz, 0.07 Hz needs about 2**20 taps
        with pytest.raises(ValidationError, match=r"--band.*--order"):
            butterworth_bandpass(tone(100.0), 0.05, 300.0)
        # refused before its 10**9 poles are built
        with pytest.raises(ValidationError, match=r"--band.*--order"):
            butterworth_bandpass(tone(100.0), 43.0, 300.0, order=10 ** 9)


BANDS = [(43.0, 300.0), (10.0, 30.0), (500.0, 2000.0), (1.0, 2040.0)]


def scipy_filtfilt(x, order, edges, btype):
    import scipy.signal

    sos = scipy.signal.butter(order, edges, btype=btype, fs=FS, output="sos")
    return scipy.signal.sosfiltfilt(sos, x)


def assert_matches_scipy(got, want):
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


class TestZeroPhaseOracle:
    """The numpy kernel against ``scipy.signal.sosfiltfilt``."""

    @pytest.mark.parametrize("band", BANDS, ids=lambda b: f"{b[0]:g}-{b[1]:g}")
    @pytest.mark.parametrize("order", range(1, 9))
    def test_bandpass(self, order, band):
        plan = conditioning._zero_phase_plan("bandpass", order, band, FS)
        # just past the odd extension, the 0.2 s window, both sides of the
        # kernel's reach, and 1 s and 64 s
        for n in (plan.padlen + 1, 819, plan.taps + plan.padlen, int(FS), int(64 * FS)):
            x = np.random.default_rng([order, n]).standard_normal(n)
            for offset in (0.0, 10.0):
                got = butterworth_bandpass(TimeSeries(FS, 0.0, x + offset), *band, order=order)
                assert_matches_scipy(got.samples, scipy_filtfilt(x + offset, order, band,
                                                                 "bandpass"))

    def test_window_shorter_than_the_kernel(self):
        # h1l1-ccf conditions 0.2 s windows, shorter than the stock band's taps
        plan = conditioning._zero_phase_plan("bandpass", 4, (43.0, 300.0), FS)
        assert plan.taps == 2095
        x = np.random.default_rng(7).standard_normal(819)
        got = butterworth_bandpass(TimeSeries(FS, 0.0, x), 43.0, 300.0)
        assert_matches_scipy(got.samples, scipy_filtfilt(x, 4, (43.0, 300.0), "bandpass"))

    def test_bogus_phase_lowpass(self):
        x = np.random.default_rng(8).standard_normal(819)
        got = conditioning._zero_phase_plan("lowpass", 4, (64.0,), FS).filtfilt(x)
        assert_matches_scipy(got, scipy_filtfilt(x, 4, 64.0, "lowpass"))

    def test_closer_to_exact_arithmetic_than_scipy(self):
        """Where the output is 1e-3 of the input, the oracle's 1e-10 is
        scipy's rounding: against the same map in 30-digit arithmetic the
        kernel's error is far smaller."""
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        order, (lo, hi) = 6, (10.0, 30.0)
        plan = conditioning._zero_phase_plan("bandpass", order, (lo, hi), FS)
        x = np.random.default_rng(9).standard_normal(plan.padlen + 1)
        # scipy's design in mpmath: prototype poles, lp2bp, bilinear at fs = 2
        w_lo, w_hi = (4 * mp.tan(mp.pi * f / FS) for f in (lo, hi))
        bw, analog = w_hi - w_lo, []
        for m in range(1 - order, order, 2):
            half = -mp.exp(1j * mp.pi * m / (2 * order)) * bw / 2
            root = mp.sqrt(half * half - w_lo * w_hi)
            analog += [half + root, half - root]
        gain = (4 * bw) ** order
        for s_pole in analog:
            gain /= 4 - s_pole

        def poly(roots):
            c = [mp.mpc(1)]
            for r in roots:
                c = [a - r * b for a, b in zip(c + [0], [0] + c)]
            return c

        b = [mp.re(gain * v) for v in poly([1] * order + [-1] * order)]
        a = [mp.re(v) for v in poly([(4 + s) / (4 - s) for s in analog])]

        def run(u):  # direct form II transposed from the step's steady state
            dc = sum(b) / sum(a)
            state = [sum(b[j] - a[j] * dc for j in range(k + 1, len(a))) * u[0]
                     for k in range(len(a) - 1)]
            out = []
            for v in u:
                y = b[0] * v + state[0]
                state = [b[k + 1] * v - a[k + 1] * y + nxt
                         for k, nxt in enumerate(state[1:] + [0])]
                out.append(y)
            return out

        edge = plan.padlen
        u = [mp.mpf(float(v)) for v in x]
        ext = [2 * u[0] - v for v in u[edge:0:-1]] + u + [2 * u[-1] - v for v in u[-2:-edge - 2:-1]]
        exact = np.array([float(v) for v in run(run(ext)[::-1])[::-1][edge:-edge]])
        scale = np.max(np.abs(exact))
        ours = np.max(np.abs(plan.filtfilt(x) - exact)) / scale
        theirs = np.max(np.abs(scipy_filtfilt(x, order, (lo, hi), "bandpass") - exact)) / scale
        assert ours < 1e-12 and ours < theirs / 10


class TestWhitenFull:
    def test_white_input_passes_through(self):
        rng = np.random.default_rng(1)
        ts = TimeSeries(FS, 0.0, rng.standard_normal(16384))
        flat = PowerSpectrum(df=1.0, values=np.full(2049, 2.0 / FS))
        out = whiten_full(ts, flat)
        corr = np.corrcoef(out.samples, ts.samples)[0, 1]
        assert corr > 0.999

    def test_colored_noise_flattened(self):
        model = default_detector_model()
        noise = colored_noise(model, 64.0, FS, seed=3)
        psd = model.to_power_spectrum(0.25, 8192)
        white = whiten_full(noise, psd)
        est = welch_psd(white, segment_len=4 * int(FS))
        f = est.frequencies()
        levels = [
            float(np.mean(est.values[(f >= lo) & (f < hi)]))
            for lo, hi in [(43, 80), (80, 140), (140, 220), (220, 300)]
        ]
        assert max(levels) / min(levels) <= 2.0

    def test_zero_input(self):
        flat = PowerSpectrum(df=1.0, values=np.full(2049, 1.0))
        out = whiten_full(TimeSeries(FS, 0.0, np.zeros(4096)), flat)
        assert np.all(out.samples == 0.0)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        x = TimeSeries(FS, 0.0, rng.standard_normal(4096))
        y = TimeSeries(FS, 0.0, rng.standard_normal(4096))
        psd = default_detector_model().to_power_spectrum(1.0, 2049)
        a, b = 2.5, -1.25
        combo = whiten_full(x.with_samples(a * x.samples + b * y.samples), psd)
        parts = a * whiten_full(x, psd).samples + b * whiten_full(y, psd).samples
        np.testing.assert_allclose(combo.samples, parts,
                                   atol=1e-10 * np.max(np.abs(parts)))

    def test_all_zero_psd(self):
        psd = PowerSpectrum(df=1.0, values=np.zeros(128))
        with pytest.raises(DegeneracyError):
            whiten_full(TimeSeries(FS, 0.0, np.ones(256)), psd)

    @pytest.mark.parametrize("seed", range(3))
    def test_bits_of_the_complex_division(self, seed):
        ts = colored_noise(default_detector_model(), 8.0, FS, seed=seed)
        psd = default_detector_model().to_power_spectrum(0.25, 8192)
        grid = psd.floored(FS / ts.n, ts.n // 2 + 1)
        white = np.fft.rfft(ts.samples) / np.sqrt(grid) * np.sqrt(2.0 / FS)
        want = np.fft.irfft(white, n=ts.n)
        assert whiten_full(ts, psd).samples.tobytes() == want.tobytes()

    def test_64s_whitening_peaks_below_6_mib(self):
        # dividing and scaling the complex spectrum out of place peaked at 9.25 MiB
        ts = TimeSeries(FS, 0.0, np.random.default_rng(5).standard_normal(int(64 * FS)))
        psd = default_detector_model().to_power_spectrum(1.0 / 64, int(32 * FS) + 1)
        whiten_full(ts, psd)
        tracemalloc.start()
        try:
            whiten_full(ts, psd)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


class TestDetectLines:
    def test_flat_psd_empty(self):
        psd = PowerSpectrum(df=0.5, values=np.full(4096, 3.3))
        assert detect_lines(psd) == []

    def test_single_spike(self):
        values = np.full(4096, 1.0)
        values[120] = 100.0  # 60 Hz at df=0.5
        bands = detect_lines(PowerSpectrum(df=0.5, values=values))
        assert len(bands) == 1
        assert bands[0].f_lo <= 60.0 <= bands[0].f_hi

    def test_model_lines_recovered(self):
        model = default_detector_model()
        psd = model.to_power_spectrum(0.125, 16385)
        bands = detect_lines(psd, threshold_ratio=10.0, median_window_hz=8.0)
        centers = [b.f_center for b in bands]
        assert len(bands) >= 3
        for f_line in (60.0, 120.0, 180.0):
            assert min(abs(c - f_line) for c in centers) <= 1.0

    def test_scale_invariance(self):
        model = default_detector_model()
        psd = model.to_power_spectrum(0.25, 8192)
        scaled = PowerSpectrum(df=psd.df, values=psd.values * 1e-42)
        a = detect_lines(psd)
        b = detect_lines(scaled)
        assert [x.f_center for x in a] == [x.f_center for x in b]
        np.testing.assert_allclose([x.peak_ratio for x in a],
                                   [x.peak_ratio for x in b], rtol=1e-9)

    def test_threshold_validation(self):
        psd = PowerSpectrum(df=1.0, values=np.ones(64))
        with pytest.raises(ValidationError):
            detect_lines(psd, threshold_ratio=0.5)
        with pytest.raises(ValidationError, match="threshold_ratio must exceed 1, got nan"):
            detect_lines(psd, threshold_ratio=math.nan)
        # the running median both line steps share checks its window
        ts = TimeSeries(128.0, 0.0, np.ones(128))
        band = LineBand(f_center=20.0, half_width=2.0, peak_ratio=10.0)
        for window in (0.0, math.nan):
            with pytest.raises(ValidationError, match="median_window_hz must be positive"):
                detect_lines(psd, median_window_hz=window)
            with pytest.raises(ValidationError, match="median_window_hz must be positive"):
                whiten_localized(ts, psd, [band], median_window_hz=window)


def scipy_running_median(values, df, median_window_hz):
    """The running median as it was, through ``scipy.ndimage``."""
    import scipy.ndimage

    k = max(3, int(round(median_window_hz / df)) | 1)
    return scipy.ndimage.median_filter(values, size=min(k, values.size | 1), mode="nearest")


class TestRunningMedianOracle:
    """The numpy running median against ``scipy.ndimage.median_filter``,
    bit for bit, on every bin and on a subset of bins."""

    @pytest.mark.parametrize("size", [2, 3, 4, 6, 33, 100, 256, 257, 258, 1001])
    def test_matches_median_filter(self, size):
        rng = np.random.default_rng(size)
        values = np.exp(rng.standard_normal(size))
        values[rng.integers(0, size, size // 4)] = values[0]  # ties
        subset = np.sort(rng.choice(size, size=max(1, size // 3), replace=False))
        for k in range(3, 258, 2):
            want = scipy_running_median(values, 1.0, float(k))
            got = conditioning._running_median(values, 1.0, float(k))
            assert got.tobytes() == want.tobytes(), k
            got = conditioning._running_median(values, 1.0, float(k), subset)
            assert got.tobytes() == want[subset].tobytes(), k

    def test_window_rounding_on_a_psd_grid(self):
        # 8 Hz on the 4 s Welch grid (k = 33) and on a 32 s model grid (k = 257)
        model = default_detector_model()
        for df, n_bins in ((0.25, 8193), (1 / 32, 65537)):
            values = model.to_power_spectrum(df, n_bins).values
            want = scipy_running_median(values, df, 8.0)
            assert conditioning._running_median(values, df, 8.0).tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [1, 7, 11])
    def test_whiten_localized_matches_the_full_grid_median(self, seed):
        """The median taken at in-band bins only gives the bytes of the
        divisor built from the median on every bin."""
        ts = colored_noise(default_detector_model(), 8.0, FS, seed=seed)
        psd = welch_psd(ts, segment_len=int(2 * FS))
        bands = detect_lines(psd)
        assert bands
        n, df = ts.n, FS / ts.n
        grid = psd.floored(df, n // 2 + 1)
        baseline = np.maximum(scipy_running_median(grid, df, 8.0),
                              PSD_FLOOR_RATIO * float(np.median(grid)))
        excess = np.sqrt(np.maximum(grid / baseline, 1.0))
        weight = conditioning._band_weights(np.arange(n // 2 + 1) * df, bands)
        want = np.fft.irfft(np.fft.rfft(ts.samples) / excess ** weight, n=n)
        assert whiten_localized(ts, psd, bands).samples.tobytes() == want.tobytes()


class TestMergeBands:
    def test_overlapping_merged(self):
        bands = [
            LineBand(f_center=60.0, half_width=2.0, peak_ratio=10.0),
            LineBand(f_center=61.0, half_width=2.0, peak_ratio=20.0),
            LineBand(f_center=120.0, half_width=1.0, peak_ratio=5.0),
        ]
        merged = merge_bands(bands)
        assert len(merged) == 2
        assert merged[0].f_lo == pytest.approx(58.0)
        assert merged[0].f_hi == pytest.approx(63.0)
        assert merged[0].peak_ratio == 20.0

class TestWhitenLocalized:
    def setup_method(self):
        self.model = PsdModel(
            segments=(PsdSegment(1.0, 1.0, 0.0),),
            lines=(PsdLine(60.0, 10000.0, 1.0),),
        )
        self.psd = self.model.to_power_spectrum(0.25, 8192)

    def test_empty_lines_is_identity(self):
        rng = np.random.default_rng(5)
        ts = TimeSeries(FS, 0.0, rng.standard_normal(8192))
        out = whiten_localized(ts, self.psd, [])
        np.testing.assert_allclose(out.samples, ts.samples, atol=1e-10)

    def test_line_energy_cut(self):
        # pure 60 Hz tone inside a declared band drops by >= 20 dB
        ts = tone(60.0, duration=4.0)
        bands = detect_lines(self.psd)
        out = whiten_localized(ts, self.psd, bands)
        e_in = np.sum(ts.samples**2)
        e_out = np.sum(out.samples**2)
        assert 10 * np.log10(e_in / e_out) >= 20.0

    def test_outside_band_untouched(self):
        ts = tone(150.0, duration=4.0)
        bands = detect_lines(self.psd)
        out = whiten_localized(ts, self.psd, bands)
        np.testing.assert_allclose(out.samples, ts.samples,
                                   atol=1e-6 * np.max(np.abs(ts.samples)))

    def test_full_coverage_matches_full_band(self):
        # flat continuum: dividing by the excess equals full whitening up to scale
        rng = np.random.default_rng(6)
        ts = TimeSeries(FS, 0.0, rng.standard_normal(8192))
        wide = [LineBand(f_center=FS / 4, half_width=FS / 4, peak_ratio=2.0)]
        loc = whiten_localized(ts, self.psd, wide)
        full = whiten_full(ts, self.psd)
        spec_loc = np.fft.rfft(loc.samples)
        spec_full = np.fft.rfft(full.samples)
        freqs = np.arange(spec_loc.size) * (FS / ts.n)
        ramp = (FS / 4) / 4
        core = (freqs > ramp * 1.5) & (freqs < FS / 2 - ramp * 1.5) & (np.abs(spec_full) > 1e-9)
        ratio = np.abs(spec_loc[core] / spec_full[core])
        assert np.std(ratio) / np.mean(ratio) < 1e-6

    def test_distortion_ordering_vs_full(self, gw150914_distortion_case):
        err_full, err_localized = gw150914_distortion_case
        assert err_localized < err_full
