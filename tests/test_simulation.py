import dataclasses
import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwxlab import (
    BurstSpec,
    DegeneracyError,
    ParseError,
    PsdLine,
    PsdModel,
    PsdSegment,
    TimeSeries,
    ValidationError,
    burst,
    colored_noise,
    default_detector_model,
    derive_seed,
    inject,
    line_interference,
    rng_for,
    welch_psd,
)
from gwxlab import simulation

FLAT = PsdModel(segments=(PsdSegment(f_hz=1.0, level=1.0, slope=0.0),))


def unit_ref(n=4096, fs=4096.0, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    return TimeSeries(fs, 0.0, x / np.std(x))


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(123, 5) == derive_seed(123, 5)

    def test_spreads_nearby_indices(self):
        seeds = {derive_seed(0, i) for i in range(1000)}
        assert len(seeds) == 1000


def _evaluate_everywhere(model, f):
    """PsdModel.evaluate's formula with every line summed over every bin."""
    f = np.asarray(f, dtype=np.float64)
    out = model.continuum(f)
    for line, level in zip(model.lines, model.continuum([l.f_hz for l in model.lines])):
        sigma = line.width_hz / 2.0
        out = out + level * ((line.ratio - 1.0) * np.exp(-0.5 * ((f - line.f_hz) / sigma) ** 2))
    return out


class TestPsdModel:
    def test_evaluate_lines(self):
        model = default_detector_model()
        cont = model.continuum(np.array([60.0]))[0]
        val = model.evaluate(np.array([60.0]))[0]
        assert val == pytest.approx(100.0 * cont, rel=0.01)

    @pytest.mark.parametrize("n_bins, df", [(16385, 0.125), (65537, 1 / 32), (131073, 1 / 64)])
    def test_evaluate_matches_the_sum_over_every_bin(self, n_bins, df):
        # the PSD grids the scenarios use: 0.125 Hz, and 32 s and 64 s blocks at 4096 Hz
        model = default_detector_model()
        f = np.arange(n_bins) * df
        assert model.evaluate(f).tobytes() == _evaluate_everywhere(model, f).tobytes()

    def test_evaluate_scalar_and_unsorted(self):
        model = default_detector_model()
        for f0 in (60.0, 60.1, 119.9, 497.5, 0.0, 5000.0):
            assert np.asarray(model.evaluate(f0)).tobytes() == np.asarray(
                _evaluate_everywhere(model, f0)).tobytes()
        f = np.random.default_rng(3).uniform(0.0, 2048.0, 5000).reshape(50, 100)
        assert model.evaluate(f).tobytes() == _evaluate_everywhere(model, f).tobytes()

    def test_evaluate_matches_the_sum_over_every_bin_where_it_overflows(self):
        # the continuum overflows to inf at the line centres, and inf * 0.0 is
        # nan in every bin; nan and inf frequencies come out as they go in
        model = PsdModel(segments=(PsdSegment(f_hz=20.0, level=1e300, slope=10.0),),
                         lines=(PsdLine(60.0, 100.0, 0.5), PsdLine(1000.0, 1e300, 0.5)))
        f = np.array([0.0, 59.9, 60.0, 999.9, 1000.0, 2000.0, np.inf, -np.inf, np.nan])
        with np.errstate(invalid="ignore", over="ignore"):
            assert model.evaluate(f).tobytes() == _evaluate_everywhere(model, f).tobytes()

    @pytest.mark.parametrize("values", [(np.inf, 100.0, 0.5), (60.0, np.nan, 0.5),
                                        (60.0, 100.0, np.inf), (60.0, 100.0, 0.0),
                                        (60.0, 10**400, 0.5)])
    def test_line_refuses_non_finite_parameters(self, values):
        with pytest.raises(ValidationError, match="line needs positive finite"):
            PsdLine(*values)

    @settings(max_examples=40, deadline=None)
    @given(lines=st.lists(st.builds(PsdLine, st.floats(1.0, 2000.0), st.floats(1e-3, 1e4),
                                    st.floats(1e-3, 50.0)), max_size=6),
           slopes=st.lists(st.floats(-8.0, 3.0), min_size=1, max_size=3),
           df=st.floats(1e-3, 2.0))
    def test_evaluate_matches_the_sum_over_every_bin_for_any_model(self, lines, slopes, df):
        segments = tuple(PsdSegment(f_hz=20.0 * (k + 1), level=10.0 ** k, slope=slope)
                         for k, slope in enumerate(slopes))
        model = PsdModel(segments=segments, lines=tuple(lines))
        f = np.arange(4097) * df
        assert model.evaluate(f).tobytes() == _evaluate_everywhere(model, f).tobytes()

    def test_json_round_trip(self, tmp_path):
        model = default_detector_model()
        path = tmp_path / "psd_model.json"
        path.write_text(json.dumps(dataclasses.asdict(model)))
        back = PsdModel.load(path)
        assert back == model
        f = np.linspace(1.0, 2000.0, 500)
        np.testing.assert_allclose(back.evaluate(f), model.evaluate(f), rtol=1e-12)

    def test_bad_config(self):
        with pytest.raises(ValidationError):
            PsdModel.from_dict({"lines": []})

    def test_segment_refuses_non_finite_values(self):
        for values in [(np.inf, 1.0, 0.0), (np.nan, 1.0, 0.0), (0.0, 1.0, 0.0),
                       (1.0, np.inf, 0.0), (1.0, np.nan, 0.0), (1.0, -1.0, 0.0),
                       (1.0, 1.0, np.inf), (1.0, 1.0, -np.inf), (1.0, 1.0, np.nan),
                       (1.0, 10**400, 0.0), (1.0, 1.0, -10**400)]:
            with pytest.raises(ValidationError, match="segment needs positive finite f_hz "
                                                      "and level, finite slope"):
                PsdSegment(*values)

    @pytest.mark.parametrize("n, fs", [(8192, 2048.0), (131_072, 4096.0), (819, 4096.0),
                                       (4097, 8192.0)])
    def test_model_psd_is_the_rfft_grid(self, n, fs):
        # the grid of every model consumer: the rfft bins of its own series,
        # up to fs / 2 at even n and half a bin short of it at odd n
        model = default_detector_model()
        psd = simulation._model_psd(model, n, fs)
        assert psd.df == fs / n and psd.values.size == n // 2 + 1
        np.testing.assert_allclose(psd.frequencies(), np.fft.rfftfreq(n, 1.0 / fs), rtol=1e-15)
        assert (psd.frequencies()[-1] == fs / 2) == (n % 2 == 0)
        want = model.evaluate(np.arange(n // 2 + 1) * (fs / n))
        assert psd.values.tobytes() == want.tobytes()
        assert simulation._model_psd(model, n, fs) is psd

    def test_threads_on_alternating_grids_each_get_their_own(self):
        # the lanes share the last evaluation; none may read another grid's
        model = default_detector_model()
        sizes = (2048, 2049, 4096, 4097)
        want = {n: model.to_power_spectrum(4096.0 / n, n // 2 + 1).values.tobytes()
                for n in sizes}
        wrong = []

        def lane(k):
            for i in range(200):
                n = sizes[(k + i) % len(sizes)]
                if simulation._model_psd(model, n, 4096.0).values.tobytes() != want[n]:
                    wrong.append(n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lane, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and wrong == []

    def test_load_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"segments": [')
        with pytest.raises(ParseError, match="m.json: line 1 column 15"):
            PsdModel.load(path)

    def test_segments_sorted(self):
        with pytest.raises(ValidationError):
            PsdModel(segments=(PsdSegment(100.0, 1.0, 0.0), PsdSegment(20.0, 1.0, 0.0)))


class TestColoredNoise:
    def test_flat_model_variance(self):
        fs = 4096.0
        x = colored_noise(FLAT, 64.0, fs, seed=7)
        assert np.var(x.samples) == pytest.approx(fs / 2.0, rel=0.10)

    def test_line_visible_in_welch(self):
        model = PsdModel(
            segments=(PsdSegment(1.0, 1.0, 0.0),),
            lines=(PsdLine(60.0, 100.0, 1.0),),
        )
        x = colored_noise(model, 64.0, 4096.0, seed=8)
        psd = welch_psd(x, segment_len=16384)
        f = psd.frequencies()
        peak = np.mean(psd.values[(f >= 59.0) & (f <= 61.0)])
        neighbors = np.mean(psd.values[(f >= 63.0) & (f <= 70.0)])
        assert peak >= 10.0 * neighbors

    def test_deterministic(self):
        a = colored_noise(default_detector_model(), 2.0, 4096.0, seed=42)
        b = colored_noise(default_detector_model(), 2.0, 4096.0, seed=42)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_alternating_models_match_fresh_models(self):
        # the reused PSD grid must follow the model object, n and fs
        a, b = default_detector_model(), FLAT
        calls = [(a, 2.0, 4096.0), (a, 2.0, 4096.0), (b, 2.0, 4096.0), (b, 3.0, 4096.0),
                 (b, 6.0, 2048.0), (a, 6.0, 2048.0), (b, 6.0, 2048.0), (a, 2.0, 4096.0)]

        def uncached(model, duration, fs, seed):
            simulation._model_psd.cache_clear()
            fresh = PsdModel.from_dict(dataclasses.asdict(model))
            return colored_noise(fresh, duration, fs, seed=seed)

        expected = [uncached(*call, seed=k) for k, call in enumerate(calls)]
        for k, ((model, duration, fs), want) in enumerate(zip(calls, expected)):
            got = colored_noise(model, duration, fs, seed=k)
            np.testing.assert_array_equal(got.samples, want.samples)

    @pytest.mark.parametrize("n", [131_072, 12_288, 2048, 4097, 2049])
    def test_spectrum_matches_the_complex_expression(self, n):
        # oracle: the bins built from complex temporaries, as before the
        # draws were scaled in place, with the model evaluated afresh; an
        # odd n has no Nyquist bin
        def oracle(model, duration, fs, seed):
            n = int(round(duration * fs))
            rng = rng_for(seed)
            scale = np.sqrt(model.evaluate(np.arange(n // 2 + 1) * (fs / n)) * n * fs / 2.0)
            re = rng.standard_normal(n // 2 + 1)
            im = rng.standard_normal(n // 2 + 1)
            bins = (re + 1j * im) / math.sqrt(2.0) * scale
            bins[0] = 0.0
            if n % 2 == 0:
                bins[-1] = re[-1] * scale[-1] * math.sqrt(2.0)
            return np.fft.irfft(bins, n=n)

        model = default_detector_model()
        for seed in range(3):
            got = colored_noise(model, n / 4096.0, 4096.0, seed=seed).samples
            assert got.size == n
            np.testing.assert_array_equal(got, oracle(model, n / 4096.0, 4096.0, seed))

    @pytest.mark.parametrize("n", [131_072, 4097])
    def test_matches_the_out_of_place_synthesis(self, n):
        # oracle: the synthesis with every full-length temporary kept, as
        # before ``scale`` was built in place and the draws freed early
        def oracle(model, duration, fs, seed):
            n = int(round(duration * fs))
            rng = rng_for(seed)
            n_f = n // 2 + 1
            scale = np.sqrt(simulation._model_psd(model, n, fs).values * n * fs / 2.0)
            re = rng.standard_normal(n_f)
            im = rng.standard_normal(n_f)
            nyquist = re[-1] * scale[-1] * math.sqrt(2.0)
            for draws in (re, im):
                draws *= 1.0 / math.sqrt(2.0)
                draws *= scale
            bins = np.empty(n_f, dtype=np.complex128)
            bins.real = re
            bins.imag = im
            bins[0] = 0.0
            if n % 2 == 0:
                bins[-1] = nyquist
            return np.fft.irfft(bins, n=n)

        for model in (default_detector_model(), FLAT):
            for seed in range(3):
                got = colored_noise(model, n / 4096.0, 4096.0, seed=seed).samples
                assert got.tobytes() == oracle(model, n / 4096.0, 4096.0, seed).tobytes()

    def test_32s_synthesis_keeps_its_traced_peak_below_3_5_mib(self):
        # 4.6 MiB when the scale temporaries, the draws and a copy of the
        # transform were alive together
        model = default_detector_model()
        colored_noise(model, 32.0, 4096.0, seed=1)  # evaluates the PSD grid
        tracemalloc.start()
        try:
            noise = colored_noise(model, 32.0, 4096.0, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert noise.n == 131_072
        assert peak < 3.5 * 2**20

    def test_distinct_seeds_uncorrelated(self):
        a = colored_noise(FLAT, 16.0, 4096.0, seed=1)
        b = colored_noise(FLAT, 16.0, 4096.0, seed=2)
        corr = np.corrcoef(a.samples, b.samples)[0, 1]
        assert abs(corr) < 0.05

    def test_spectral_fidelity_per_band(self):
        # band-averaged re-estimate within a factor 2 of the model above 20 Hz
        model = default_detector_model()
        x = colored_noise(model, 256.0, 4096.0, seed=11)
        psd = welch_psd(x, segment_len=4 * 4096)
        edges = [20, 40, 60, 100, 180, 300, 500, 1000, 2000]
        f = psd.frequencies()
        for lo, hi in zip(edges[:-1], edges[1:]):
            sel = (f >= lo) & (f < hi)
            est = float(np.mean(psd.values[sel]))
            truth = float(np.mean(model.evaluate(f[sel])))
            assert est / truth == pytest.approx(1.0, abs=1.0), f"band {lo}-{hi} Hz"


class TestBursts:
    def test_sine_std_exact(self):
        ref = unit_ref()
        spec = BurstSpec(kind="sine_decay", duration=1.0, sigma_ratio=0.01, f0=64.0)
        out = burst(spec, ref)
        assert np.std(out.samples) == pytest.approx(0.01 * np.std(ref.samples), rel=1e-6)
        assert out.duration == pytest.approx(1.0)

    def test_sine_constant_envelope_limit(self):
        ref = unit_ref()
        spec = BurstSpec(kind="sine_decay", duration=0.5, sigma_ratio=1.0, f0=64.0,
                         decay_tau=None)
        out = burst(spec, ref)
        env_start = np.max(np.abs(out.samples[:256]))
        env_end = np.max(np.abs(out.samples[-256:]))
        assert env_end == pytest.approx(env_start, rel=0.01)

    def test_sine_spectral_peak(self):
        ref = unit_ref()
        out = burst(BurstSpec(kind="sine_decay", duration=1.0, sigma_ratio=1.0, f0=64.0), ref)
        spec = np.abs(np.fft.rfft(out.samples))
        assert np.argmax(spec) == pytest.approx(64, abs=2)

    def test_awgn_std_exact(self):
        ref = unit_ref()
        spec = BurstSpec(kind="awgn", duration=1.0, sigma_ratio=1 / 500, seed=5)
        out = burst(spec, ref)
        assert np.std(out.samples) == pytest.approx(0.002 * np.std(ref.samples), rel=1e-6)

    def test_awgn_deterministic(self):
        ref = unit_ref()
        spec = BurstSpec(kind="awgn", duration=0.5, sigma_ratio=0.5, seed=17)
        np.testing.assert_array_equal(burst(spec, ref).samples, burst(spec, ref).samples)

    def test_awgn_moments(self):
        ref = TimeSeries(1e6, 0.0, np.ones(2) * 0.0 + [1.0, -1.0])
        spec = BurstSpec(kind="awgn", duration=1.0, sigma_ratio=1.0, seed=23)
        x = burst(spec, ref).samples
        z = (x - x.mean()) / x.std()
        skew = float(np.mean(z**3))
        kurt = float(np.mean(z**4) - 3.0)
        assert abs(skew) < 0.2
        assert abs(kurt) < 0.2

    def test_zero_reference(self):
        ref = TimeSeries(4096.0, 0.0, np.zeros(128))
        with pytest.raises(DegeneracyError):
            burst(BurstSpec(kind="sine_decay", duration=0.1, sigma_ratio=1.0, f0=64.0), ref)

    @pytest.mark.parametrize("kind, field, value", [
        ("awgn", "duration", math.inf),
        ("awgn", "sigma_ratio", math.nan),
        ("awgn", "sigma_ratio", math.inf),
        ("sine_decay", "duration", math.nan),
        ("sine_decay", "duration", 10 ** 400),
        ("sine_decay", "f0", math.inf),
        ("sine_decay", "f0", math.nan),
        ("awgn", "f0", math.inf),
        ("sine_decay", "decay_tau", math.inf),
        ("sine_decay", "decay_tau", math.nan),
        ("awgn", "decay_tau", math.nan),
    ])
    def test_non_finite_field_is_refused_by_name(self, kind, field, value):
        fields = dict(kind=kind, duration=0.5, sigma_ratio=1.0, f0=64.0, seed=3)
        fields[field] = value
        with pytest.raises(ValidationError, match=f"got {field}="):
            burst(BurstSpec(**fields), unit_ref())

    @staticmethod
    def _parent_sine(spec, ref):
        # the sine generator as it was before one ``burst`` drew both kinds
        fs = ref.fs
        n = int(round(spec.duration * fs))
        t = np.arange(n) / fs
        x = np.sin(2.0 * np.pi * spec.f0 * t)
        if spec.decay_tau is not None:
            x = x * np.exp(-t / spec.decay_tau)
        x *= spec.sigma_ratio * float(np.std(ref.samples)) / float(np.std(x))
        return x

    @staticmethod
    def _parent_awgn(spec, ref):
        # the white-noise generator as it was before one ``burst`` drew both kinds
        n = int(round(spec.duration * ref.fs))
        x = rng_for(spec.seed).standard_normal(n)
        x *= spec.sigma_ratio * float(np.std(ref.samples)) / float(np.std(x))
        return x

    @pytest.mark.parametrize("decay_tau", [0.25, None], ids=["decaying", "constant"])
    def test_sine_bits_match_the_separate_generator(self, decay_tau):
        ref = unit_ref(seed=3)
        spec = BurstSpec(kind="sine_decay", duration=1.0, sigma_ratio=0.01, f0=64.0,
                         decay_tau=decay_tau)
        assert np.array_equal(burst(spec, ref).samples, self._parent_sine(spec, ref))

    @pytest.mark.parametrize("seed", [0, 17, 2**63 + 5])
    def test_awgn_bits_match_the_separate_generator(self, seed):
        ref = unit_ref(seed=4)
        spec = BurstSpec(kind="awgn", duration=1025 / 4096.0, sigma_ratio=0.002, seed=seed)
        got = burst(spec, ref).samples
        assert got.size == 1025 and np.array_equal(got, self._parent_awgn(spec, ref))


class TestLineInterference:
    def test_on_bin_energy_confined(self):
        # 60 Hz lands exactly on a bin of the 32 s grid
        tone = line_interference(1.0, f0=60.0, delta=0.0, duration=32.0, fs=4096.0)
        power = np.abs(np.fft.rfft(tone.samples)) ** 2
        k = np.argmax(power)
        assert k == 60 * 32
        assert power[k] / np.sum(power) > 0.999

    def test_half_bin_leakage(self):
        tone = line_interference(1.0, f0=60.0, delta=0.015625, duration=32.0, fs=4096.0)
        power = np.abs(np.fft.rfft(tone.samples)) ** 2
        order = np.argsort(power)[::-1]
        top = power[order[0]]
        assert power[order[1]] >= 0.05 * top
        assert power[order[2]] >= 0.05 * top

    def test_zero_amplitude(self):
        tone = line_interference(0.0, duration=1.0, fs=1024.0)
        assert np.all(tone.samples == 0.0)

    def test_nyquist_guard(self):
        with pytest.raises(ValidationError):
            line_interference(1.0, f0=600.0, delta=0.0, duration=1.0, fs=1024.0)


class TestInject:
    def test_inject_zeros_is_identity(self):
        host = unit_ref(seed=2)
        sig = TimeSeries(host.fs, 0.0, np.zeros(128))
        out = inject(host, sig, 0.25)
        np.testing.assert_array_equal(out.samples, host.samples)

    def test_cancellation(self):
        host = unit_ref(seed=3)
        piece = TimeSeries(host.fs, 0.0, -host.samples[512:1024].copy())
        out = inject(host, piece, 512 / host.fs)
        assert np.max(np.abs(out.samples[512:1024])) == 0.0

    def test_energy_additivity_for_independent_noise(self):
        rng = np.random.default_rng(8)
        fs = 4096.0
        host = TimeSeries(fs, 0.0, rng.standard_normal(8192))
        sig = TimeSeries(fs, 0.0, rng.standard_normal(4096))
        out = inject(host, sig, 0.5)
        e_out = np.sum(out.samples**2)
        e_sum = np.sum(host.samples**2) + np.sum(sig.samples**2)
        # cross term is +-2<h,s>; 3 sigma of its spread
        cross_sigma = 2.0 * np.sqrt(np.sum(host.samples[2048:6144] ** 2 * 1.0))
        assert abs(e_out - e_sum) < 3.0 * cross_sigma

    def test_out_of_bounds(self):
        host = unit_ref()
        sig = TimeSeries(host.fs, 0.0, np.ones(512))
        with pytest.raises(ValidationError):
            inject(host, sig, host.duration - 0.01)

    def test_linear_and_order_independent(self):
        host = unit_ref(seed=9)
        a = TimeSeries(host.fs, 0.0, np.full(64, 0.5))
        b = TimeSeries(host.fs, 0.0, np.full(64, -1.5))
        ab = inject(inject(host, a, 0.1), b, 0.5)
        ba = inject(inject(host, b, 0.5), a, 0.1)
        np.testing.assert_array_equal(ab.samples, ba.samples)
