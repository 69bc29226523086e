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
        for zero_phase in (True, False):
            y = butterworth_bandpass(ts, 43.0, 300.0, zero_phase=zero_phase)
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
