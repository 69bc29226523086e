import math
import re
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.fft import next_fast_len

from gwxlab import (
    DegeneracyError,
    MfConfig,
    PowerSpectrum,
    TimeSeries,
    ValidationError,
    ccf_decorrelation_time,
    colored_noise,
    decorrelation_time,
    default_detector_model,
    derive_seed,
    inject,
    matched_filter,
    normalized_ccf,
    rng_for,
    running_window_ccf,
    sigma_norm,
    slice_window,
    stock_template,
    template_error,
)
from gwxlab import detection, lanes
from gwxlab.conditioning import butterworth_bandpass, whiten_full
from gwxlab.simulation import PsdModel, PsdSegment

FS = 4096.0
E_INV = 1.0 / np.e


def _with_cpus(cpus: int):
    """Run as if the process had ``cpus`` CPUs: the lane budget's CPU count."""
    return mock.patch.object(lanes, "_cpu_count", lambda: cpus)


def flat_psd(level=1.0, fs=FS):
    return PowerSpectrum(df=1.0, values=np.full(int(fs / 2) + 1, level))


# property-test inputs: nonzero amplitudes over 24 decades, either sign
amplitudes = st.builds(lambda e, sign: sign * 10.0 ** e,
                       st.integers(-12, 12), st.sampled_from([-1.0, 1.0]))
unit_samples = st.floats(-1.0, 1.0, allow_subnormal=False)


def windows(n):
    return arrays(np.float64, n, elements=unit_samples).filter(
        lambda x: np.max(np.abs(x)) > 1e-3)


def _mf_case(seed, nt, extra, fs=1024.0):
    """Random strain, template and PSD; the strain is at least two templates long."""
    rng = rng_for(seed)
    strain = TimeSeries(fs, 0.0, rng.standard_normal(2 * nt + extra))
    template = TimeSeries(fs, 0.0, rng.standard_normal(nt))
    psd = PowerSpectrum(df=fs / 64, values=np.exp(rng.standard_normal(33)))
    return strain, template, psd


mf_cases = st.builds(_mf_case, st.integers(0, 2**32 - 1), st.integers(8, 64),
                     st.integers(0, 256))
mf_modes = st.sampled_from(["circular", "cyclic_prefix"])


def whitened_template_kernel(template, psd):
    """Independent construction of the cyclic-prefix detection kernel."""
    nt = template.n
    dt = 1.0 / template.fs
    htilde = np.fft.rfft(template.samples) * dt
    df = template.fs / nt
    grid = psd.interpolated(df, nt // 2 + 1)
    grid = np.maximum(grid, 1e-12 * np.median(grid[grid > 0]))
    g_freq = np.zeros(nt, dtype=complex)
    g_freq[1:nt // 2 + 1] = (htilde / grid)[1:]
    return np.fft.ifft(g_freq) * template.fs


def direct_linear_mf(strain, template, psd):
    """Brute-force oracle: per-lag dot products against the whitened kernel."""
    kernel = whitened_template_kernel(template, psd)
    n, nt = strain.n, template.n
    dt = 1.0 / strain.fs
    z = np.empty(n - nt + 1, dtype=complex)
    conj_kernel = np.conj(kernel)
    for lag in range(n - nt + 1):
        z[lag] = np.dot(strain.samples[lag:lag + nt], conj_kernel)
    z *= 4.0 * dt
    return np.abs(z) / np.sqrt(sigma_norm(template, psd))


class TestSigmaNorm:
    def test_quadratic_scaling(self):
        tpl = stock_template("gw150914", FS)
        psd = flat_psd()
        base = sigma_norm(tpl.base, psd)
        scaled = sigma_norm(tpl.base.with_samples(2.0 * tpl.base.samples), psd)
        assert scaled == pytest.approx(4.0 * base, rel=1e-10)

    def test_flat_psd_closed_form(self):
        # direct one-sided sum oracle, and the energy/level proportionality
        tpl = stock_template("gw150914", FS)
        level = 0.37
        psd = flat_psd(level)
        hh = sigma_norm(tpl.base, psd)
        htilde = np.fft.rfft(tpl.base.samples) / FS
        df = FS / tpl.base.n
        oracle = 4.0 * np.sum(np.abs(htilde[1:]) ** 2) / level * df
        assert hh == pytest.approx(oracle, rel=1e-10)
        assert sigma_norm(tpl.base, flat_psd(2 * level)) == pytest.approx(hh / 2, rel=1e-10)

    def test_zero_template(self):
        with pytest.raises(DegeneracyError):
            sigma_norm(TimeSeries(FS, 0.0, np.zeros(1024)), flat_psd())


class TestMatchedFilter:
    def test_self_match_peak(self):
        tpl = stock_template("gw150914", FS)
        psd = flat_psd()
        host = TimeSeries(FS, 0.0, np.zeros(int(2 * FS)))
        strain = inject(host, tpl.base, 0.0)
        snr = matched_filter(strain, tpl.base, psd,
                             MfConfig(block_len=2.0, mode="circular", reweight_bins=None))
        assert snr.peak.time == 0.0
        # substitution identity against the filter's own normalization
        assert snr.peak.value == pytest.approx(snr.sigma, rel=1e-6)
        # template-grid norm agrees with the block-grid one up to discretization
        assert snr.peak.value == pytest.approx(
            np.sqrt(sigma_norm(tpl.base, psd)), rel=1e-3
        )

    def test_injection_into_white_noise_at_rho20(self):
        psd = flat_psd(2.0 / FS)
        tpl = stock_template("gw150914", FS)
        amp = 20.0 / np.sqrt(sigma_norm(tpl.base, psd))
        noise = TimeSeries(FS, 0.0, rng_for(404).standard_normal(int(16 * FS)))
        strain = inject(noise, tpl.base.with_samples(amp * tpl.base.samples), 10.0)
        snr = matched_filter(strain, tpl.base, psd,
                             MfConfig(block_len=16.0, mode="circular",
                                      reweight_bins=None))
        assert abs(snr.peak.time - 10.0) <= 1.0 / FS + 1e-12
        assert snr.peak.value == pytest.approx(20.0, rel=0.2)

    def test_injection_recovery_time(self):
        model = default_detector_model()
        psd = model.to_power_spectrum(0.25, int(4 * FS) // 2 + 1)
        tpl = stock_template("gw150914", FS)
        amp = 20.0 / np.sqrt(sigma_norm(tpl.base, psd))
        noise = colored_noise(model, 4.0, FS, seed=77)
        strain = inject(noise, tpl.base.with_samples(amp * tpl.base.samples), 2.0)
        snr = matched_filter(strain, tpl.base, psd,
                             MfConfig(block_len=4.0, mode="circular", reweight_bins=None))
        assert abs(snr.peak.time - 2.0) <= 3.0 / FS
        assert snr.peak.value == pytest.approx(20.0, rel=0.25)

    def test_cyclic_prefix_equals_direct_correlation(self):
        rng = rng_for(2)
        strain = TimeSeries(FS, 0.0, rng.standard_normal(int(1.0 * FS)))
        template = TimeSeries(FS, 0.0, rng.standard_normal(int(0.25 * FS)))
        values = np.exp(0.5 * rng.standard_normal(65))
        psd = PowerSpectrum(df=32.0, values=values)
        snr = matched_filter(strain, template, psd,
                             MfConfig(block_len=1.0, mode="cyclic_prefix",
                                      reweight_bins=None))
        oracle = direct_linear_mf(strain, template, psd)
        assert snr.rho.size == oracle.size
        dev = np.max(np.abs(snr.rho - oracle)) / np.max(oracle)
        assert dev < 1e-6

    def test_circular_artifact_witness(self):
        tpl = stock_template("gw150914", FS)
        psd = flat_psd()
        n, nt = int(8 * FS), tpl.base.n
        x = rng_for(99).standard_normal(n) * 1e-3
        half = nt // 2
        x[n - half:] += tpl.base.samples[:half]
        x[:nt - half] += tpl.base.samples[half:]
        strain = TimeSeries(FS, 0.0, x)
        circ = matched_filter(strain, tpl.base, psd,
                              MfConfig(block_len=8.0, mode="circular", reweight_bins=None))
        cyc = matched_filter(strain, tpl.base, psd,
                             MfConfig(block_len=8.0, mode="cyclic_prefix",
                                      reweight_bins=None))
        wrap_time = (n - half) / FS
        assert abs(circ.peak.time - wrap_time) < 2.0 / FS
        assert abs(circ.peak.time - cyc.peak.time) > tpl.base.duration / 2

    def test_time_shift_equivariance(self):
        tpl = stock_template("gw170104", FS)
        psd = flat_psd()
        noise = rng_for(5).standard_normal(int(2 * FS)) * 1e-3
        cfg = MfConfig(block_len=2.0, mode="cyclic_prefix", reweight_bins=None)
        peaks = []
        for k in (1000, 1000 + 357):
            x = noise.copy()
            x[k:k + tpl.base.n] += tpl.base.samples
            snr = matched_filter(TimeSeries(FS, 0.0, x), tpl.base, psd, cfg)
            peaks.append(int(round(snr.peak.time * FS)))
        assert peaks[1] - peaks[0] == 357

    @settings(max_examples=50, deadline=None)
    @given(case=mf_cases, c=amplitudes, mode=mf_modes)
    def test_template_scale_invariance(self, case, c, mode):
        strain, template, psd = case
        cfg = MfConfig(block_len=None, mode=mode, reweight_bins=None)
        a = matched_filter(strain, template, psd, cfg)
        b = matched_filter(strain, template.with_samples(c * template.samples), psd, cfg)
        np.testing.assert_allclose(b.rho, a.rho, rtol=1e-9, atol=1e-12 * a.rho.max())

    @settings(max_examples=50, deadline=None)
    @given(case=mf_cases, c=amplitudes, mode=mf_modes)
    def test_strain_scale_scales_rho(self, case, c, mode):
        # rho(c * s) = |c| * rho(s)
        strain, template, psd = case
        cfg = MfConfig(block_len=None, mode=mode, reweight_bins=None)
        a = matched_filter(strain, template, psd, cfg)
        b = matched_filter(strain.with_samples(c * strain.samples), template, psd, cfg)
        np.testing.assert_allclose(b.rho, abs(c) * a.rho, rtol=1e-9,
                                   atol=1e-12 * abs(c) * a.rho.max())

    @settings(max_examples=50, deadline=None)
    @given(case=mf_cases, shift=st.integers(0, 2**16))
    def test_circular_roll_rolls_rho(self, case, shift):
        # a circular block has no edges: rolling the strain by m rolls rho by m
        strain, template, psd = case
        m = shift % strain.n
        cfg = MfConfig(block_len=None, mode="circular", reweight_bins=None)
        a = matched_filter(strain, template, psd, cfg)
        b = matched_filter(strain.with_samples(np.roll(strain.samples, m)), template, psd, cfg)
        assert b.rho.size == strain.n
        np.testing.assert_allclose(b.rho, np.roll(a.rho, m), rtol=1e-9,
                                   atol=1e-12 * a.rho.max())

    def test_oracle_equivalence_many_triples(self):
        # 20 seeded (strain, template, psd) triples at machine-level agreement
        for seed in range(20):
            rng = rng_for(derive_seed(1000, seed))
            fs = 2048.0
            strain = TimeSeries(fs, 0.0, rng.standard_normal(2048))
            template = TimeSeries(fs, 0.0, rng.standard_normal(512))
            psd = PowerSpectrum(df=16.0, values=np.exp(rng.standard_normal(65)))
            snr = matched_filter(strain, template, psd,
                                 MfConfig(block_len=None, mode="cyclic_prefix",
                                          reweight_bins=None))
            oracle = direct_linear_mf(strain, template, psd)
            assert np.max(np.abs(snr.rho - oracle)) / np.max(oracle) < 1e-6

    def test_template_longer_than_strain(self):
        tpl = stock_template("gw150914", FS)
        short = TimeSeries(FS, 0.0, np.zeros(256))
        with pytest.raises(ValidationError):
            matched_filter(short, tpl.base, flat_psd(), MfConfig(block_len=None))

    def test_block_len_must_match(self):
        tpl = stock_template("gw150914", FS)
        strain = TimeSeries(FS, 0.0, rng_for(1).standard_normal(int(2 * FS)))
        with pytest.raises(ValidationError):
            matched_filter(strain, tpl.base, flat_psd(), MfConfig(block_len=4.0))


class TestReweightSnr:
    def test_perfect_match_not_suppressed(self):
        tpl = stock_template("gw150914", FS)
        psd = flat_psd()
        strain = inject(TimeSeries(FS, 0.0, np.zeros(int(2 * FS))), tpl.base, 1.0)
        snr = matched_filter(strain, tpl.base, psd,
                             MfConfig(block_len=2.0, mode="circular", reweight_bins=16))
        k = int(np.argmax(snr.rho))
        assert snr.chi2_reduced[k] <= 1.0
        assert snr.rho_reweighted[k] == snr.rho[k]

    def test_broadband_burst_suppressed(self):
        # mismatched noise burst: rho_hat < rho at the peak, 50 seeds
        tpl = stock_template("gw150914", FS)
        psd = flat_psd(2.0 / FS)
        wins = 0
        for s in range(50):
            noise = rng_for(derive_seed(3000, s)).standard_normal(int(2 * FS))
            burst = rng_for(derive_seed(3001, s)).standard_normal(int(0.25 * FS)) * 30.0
            strain = inject(TimeSeries(FS, 0.0, noise), TimeSeries(FS, 0.0, burst), 1.0)
            snr = matched_filter(strain, tpl.base, psd,
                                 MfConfig(block_len=2.0, mode="circular",
                                          reweight_bins=16))
            k = int(np.argmax(snr.rho))
            wins += snr.rho_reweighted[k] < snr.rho[k]
        assert wins == 50

    def test_tone_template_binning_fails(self):
        t = np.arange(1024) / FS
        tone = TimeSeries(FS, 0.0, np.sin(2 * np.pi * 512.0 * t))
        strain = TimeSeries(FS, 0.0, rng_for(4).standard_normal(4096))
        with pytest.raises(DegeneracyError):
            matched_filter(strain, tone, flat_psd(),
                           MfConfig(block_len=None, mode="circular", reweight_bins=16))

    @pytest.mark.parametrize("mode, bins", [("circular", 4096), ("cyclic_prefix", 512)])
    @pytest.mark.parametrize("extra", [1, 10**400], ids=["one-more", "400-digits"])
    def test_more_bands_than_in_band_bins_is_validation(self, mode, bins, extra):
        # checked before any band is built, so a count too large for memory
        # (or for a float) is an input error, not a traceback; the grid is
        # the block's (8,192 samples) or the template's (1,024)
        strain = TimeSeries(FS, 0.0, rng_for(5).standard_normal(int(2 * FS)))
        tpl = TimeSeries(FS, 0.0, rng_for(6).standard_normal(1024))
        with pytest.raises(ValidationError, match=f"cannot build {bins + extra} chi-squared "
                                                  f"bands from {bins} in-band bins"):
            matched_filter(strain, tpl, flat_psd(),
                           MfConfig(block_len=None, mode=mode, reweight_bins=bins + extra))

    def test_threshold_constant_exposed(self):
        from gwxlab import SNR_THRESHOLD
        assert SNR_THRESHOLD == 5.0

    def test_reweight_factor_matches_the_full_length_expression(self):
        # the power runs only where chi2_r > 1; the old expression ran it on
        # every lag and then picked 1 where chi2_r <= 1
        def oracle(chi2_r):
            factor = ((1.0 + np.maximum(chi2_r, 1.0) ** 3) / 2.0) ** (-1.0 / 6.0)
            return np.where(chi2_r <= 1.0, 1.0, factor)

        rng = rng_for(17)
        edges = np.array([0.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 1e3, np.nan])
        cases = [edges, np.empty(0), np.ones(7), np.zeros(7)]
        cases += [rng.exponential(1.0, 100_000) * scale for scale in (0.5, 1.0, 3.0, 100.0)]
        for chi2_r in cases:
            got = detection._reweight_factor(chi2_r)
            assert got.dtype == np.float64 and got.shape == chi2_r.shape
            assert np.array_equal(got, oracle(chi2_r), equal_nan=True)


def band_mask_oracle(n_onesided, df, band):
    """The filtered bins as a boolean mask: all but DC, within ``band`` Hz."""
    mask = np.arange(n_onesided) > 0
    if band is not None:
        f = np.arange(n_onesided) * df
        mask &= (f >= band[0]) & (f <= band[1])
    return mask


def per_band_chi2_oracle(strain, template, psd, n_bins, band=None):
    """Circular chi-squared by its definition: one masked iFFT per band.

    Returns (chi2_reduced, rho_reweighted) from sum_i |z_i - z/N|^2 over
    equal-template-power bands of the block grid.
    """
    n, fs = strain.n, strain.fs
    df, nf = fs / n, n // 2 + 1
    h = np.zeros(n)
    h[:template.n] = template.samples
    htilde = np.fft.rfft(h) / fs
    grid = psd.interpolated(df, nf)
    grid = np.maximum(grid, 1e-12 * np.median(grid[grid > 0]))
    mask = band_mask_oracle(nf, df, band)
    weights = np.where(mask, 4.0 * np.abs(htilde) ** 2 / grid * df, 0.0)
    hh = np.sum(weights)
    q = np.zeros(n, dtype=complex)
    q[:nf] = np.where(mask, 4.0 * np.fft.rfft(strain.samples) / fs * np.conj(htilde) / grid,
                      0.0)
    z = np.fft.ifft(q) * fs
    cum = np.cumsum(weights) / hh
    edges = np.searchsorted(cum, np.arange(1, n_bins) / n_bins, side="left")
    bounds = np.concatenate([[0], edges + 1, [nf]])
    chi2 = np.zeros(n)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        q_i = np.zeros(n, dtype=complex)
        q_i[lo:hi] = q[lo:hi]
        chi2 += np.abs(np.fft.ifft(q_i) * fs - z / n_bins) ** 2
    chi2_r = chi2 * n_bins / hh / (2 * n_bins - 2)
    rho = np.abs(z) / np.sqrt(hh)
    factor = ((1.0 + np.maximum(chi2_r, 1.0) ** 3) / 2.0) ** (-1.0 / 6.0)
    return chi2_r, rho * np.where(chi2_r > 1.0, factor, 1.0)


class TestChi2Exactness:
    """The band-autocorrelation chi-squared against the per-band definition."""

    @pytest.mark.parametrize("case", [
        "noise", "loud", "band", "two_bins", "odd_length",
    ])
    def test_matches_per_band_oracle(self, case):
        tpl = stock_template("gw150914", FS)
        psd = flat_psd(2.0 / FS)
        n = int(4 * FS) + (1 if case == "odd_length" else 0)
        strain = TimeSeries(FS, 0.0, rng_for(derive_seed(77, n)).standard_normal(n))
        if case == "loud":
            amp = 470.0 / np.sqrt(sigma_norm(tpl.base, psd))
            strain = inject(strain, tpl.base.with_samples(amp * tpl.base.samples), 1.5)
        n_bins = 2 if case == "two_bins" else 16
        band = (30.0, 400.0) if case == "band" else None
        cfg = MfConfig(block_len=None if case == "odd_length" else 4.0, mode="circular",
                       reweight_bins=n_bins, band=band)
        snr = matched_filter(strain, tpl.base, psd, cfg)
        chi2_ref, rw_ref = per_band_chi2_oracle(strain, tpl.base, psd, n_bins, band)
        if case == "loud":
            assert np.max(snr.rho) == pytest.approx(470.0, rel=0.05)
        np.testing.assert_allclose(snr.chi2_reduced, chi2_ref, rtol=1e-9)
        np.testing.assert_allclose(snr.rho_reweighted, rw_ref, rtol=1e-9)
        assert np.all(snr.chi2_reduced >= 0.0)


class TestPlanReuse:
    """Reused template-side plans never leak into a call with other inputs."""

    def test_each_changed_input_gets_its_own_plan(self):
        tpl = stock_template("gw150914", FS).base
        other_tpl = tpl.with_samples(tpl.samples[::-1])
        psd = flat_psd(2.0 / FS)
        other_psd = default_detector_model().to_power_spectrum(0.25, int(FS / 2 / 0.25) + 1)
        noise = [TimeSeries(FS, 0.0, rng_for(derive_seed(91, k)).standard_normal(int(2 * FS)))
                 for k in range(2)]
        longer = TimeSeries(FS, 0.0, rng_for(92).standard_normal(int(3 * FS)))
        base = MfConfig(block_len=None, mode="circular", reweight_bins=16)
        calls = [
            (noise[0], tpl, psd, base),
            (noise[1], tpl, psd, base),                                   # strain only
            (noise[1], other_tpl, psd, base),                             # template
            (noise[1], other_tpl, other_psd, base),                       # PSD
            (noise[1], other_tpl, other_psd, MfConfig(block_len=None, mode="cyclic_prefix",
                                                      reweight_bins=4)),  # mode
            (noise[1], tpl, psd, MfConfig(block_len=None, reweight_bins=16,
                                          band=(30.0, 400.0))),           # band
            (noise[1], tpl, psd, MfConfig(block_len=None, reweight_bins=8,
                                          band=(30.0, 400.0))),           # band count
            (longer, tpl, psd, MfConfig(block_len=None, reweight_bins=8,
                                        band=(30.0, 400.0))),             # length
            (noise[0], tpl, psd, base),
        ]

        def uncached(strain, template, psd, cfg):
            detection._plan_for.cache_clear()
            fresh = [TimeSeries(ts.fs, ts.t0, ts.samples.copy()) for ts in (strain, template)]
            return matched_filter(*fresh, PowerSpectrum(psd.df, psd.values.copy()), cfg)

        expected = [uncached(*call) for call in calls]
        for (s, t, p, c), want in zip(calls, expected):
            got = matched_filter(s, t, p, c)
            assert got.sigma == want.sigma
            np.testing.assert_array_equal(got.rho, want.rho)
            np.testing.assert_array_equal(got.rho_reweighted, want.rho_reweighted)
            np.testing.assert_array_equal(got.chi2_reduced, want.chi2_reduced)

    def test_list_band_is_a_tuple(self):
        # a JSON band arrives as a list; the plan cache needs a hashable config
        cfg = MfConfig(block_len=None, band=[30, 400])
        assert cfg.band == (30, 400) and hash(cfg) == hash(replace(cfg, band=(30.0, 400.0)))
        tpl = stock_template("gw150914", FS).base
        strain = TimeSeries(FS, 0.0, rng_for(95).standard_normal(int(2 * FS)))
        want = matched_filter(strain, tpl, flat_psd(), replace(cfg, band=(30.0, 400.0)))
        detection._plan_for.cache_clear()
        got = matched_filter(strain, tpl, flat_psd(), cfg)
        np.testing.assert_array_equal(got.rho_reweighted, want.rho_reweighted)

    def test_threads_on_a_cold_cache_build_one_plan(self, monkeypatch):
        tpl = stock_template("gw150914", FS).base
        strain = TimeSeries(FS, 0.0, rng_for(96).standard_normal(int(2 * FS)))
        psd, cfg = flat_psd(), MfConfig(block_len=None, reweight_bins=16)
        builds = []
        real = detection._MfPlan

        def slow_plan(*args):
            builds.append(args)
            time.sleep(0.05)  # the other thread reaches the cache meanwhile
            return real(*args)

        monkeypatch.setattr(detection, "_MfPlan", slow_plan)
        detection._plan_for.cache_clear()
        start = threading.Barrier(2)
        out = [None, None]

        def lane(k):
            start.wait()
            out[k] = matched_filter(strain, tpl, psd, cfg)

        threads = [threading.Thread(target=lane, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        detection._plan_for.cache_clear()
        assert not any(t.is_alive() for t in threads) and len(builds) == 1
        np.testing.assert_array_equal(out[0].rho_reweighted, out[1].rho_reweighted)


def prefixed_chi2_oracle(strain, template, psd, n_bins):
    """Cyclic-prefix z and chi-squared, rebuilding each kernel and its
    length-(n + nt) transform on every call, one kernel per band."""
    n, nt, fs = strain.n, template.n, strain.fs
    htilde = np.fft.rfft(template.samples) / fs
    df = fs / nt
    grid = psd.floored(df, htilde.size)
    mask = np.arange(htilde.size) > 0
    weights = np.where(mask, 4.0 * np.abs(htilde) ** 2 / grid * df, 0.0)
    hh = np.sum(weights)
    cum = np.cumsum(weights) / hh
    edges = np.searchsorted(cum, np.arange(1, n_bins) / n_bins, side="left")
    bounds = np.concatenate([[0], edges + 1, [htilde.size]])
    prefixed = np.concatenate([strain.samples[n - nt:], strain.samples])

    def z_of(bins):
        g_freq = np.zeros(nt, dtype=complex)
        g_freq[bins] = htilde[bins] / grid[bins]
        padded = np.zeros(n + nt, dtype=complex)
        padded[:nt] = np.fft.ifft(g_freq) * fs
        corr = np.fft.ifft(np.fft.fft(prefixed) * np.conj(np.fft.fft(padded)))
        return 4.0 / fs * corr[nt:n + 1]

    z = z_of(np.nonzero(mask)[0])
    chi2 = np.zeros(z.size)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        chi2 += np.abs(z_of(np.nonzero(mask[lo:hi])[0] + lo) - z / n_bins) ** 2
    return z, chi2 * n_bins / hh / (2 * n_bins - 2)


class TestNextFastLen:
    """The private FFT-length rule against ``scipy.fft.next_fast_len``."""

    @pytest.mark.parametrize("real", [False, True])
    def test_matches_scipy(self, real):
        rng = np.random.default_rng(16)
        targets = [*range(1, 2**14 + 1), *map(int, rng.integers(2**14, 2**22, 2000)), 2**22]
        fast_len = detection._next_fast_len.__wrapped__  # the rule, not the cache
        assert [fast_len(n, real) for n in targets] == \
            [next_fast_len(n, real) for n in targets]

    def test_matches_scipy_on_the_scenario_lengths(self):
        # a 32 s block, and per stock template its CCF with a window of its
        # length and the band autocorrelations of its chi-squared veto
        n = int(32 * FS)
        psd = default_detector_model().to_power_spectrum(1.0 / 32, n // 2 + 1)
        lengths = [(n, False)]
        for name in ("gw150914", "gw151226", "gw170104"):
            template = stock_template(name, FS).base
            plan = detection._MfPlan(template, psd, MfConfig(), n, FS)
            lengths += [(2 * template.n - 1, True)]
            lengths += [(2 * w - 1, False) for _, w, _ in plan.band_spans]
        assert len(lengths) == 1 + 3 * 17
        for target, real in lengths:
            assert detection._next_fast_len(target, real) == next_fast_len(target, real)


class TestPlannedCyclicPrefix:
    """The planned cyclic-prefix kernels against per-call kernels."""

    def test_matches_per_call_kernel(self):
        tpl = stock_template("gw150914", FS).base
        psd = flat_psd(2.0 / FS)
        strain = TimeSeries(FS, 0.0, rng_for(93).standard_normal(int(2 * FS)))
        strain = inject(strain, tpl.with_samples(50.0 * tpl.samples), 0.7)
        cfg = MfConfig(block_len=None, mode="cyclic_prefix", reweight_bins=4)
        detection._plan_for.cache_clear()
        plan = detection._plan_for(tpl, psd, cfg, strain.n, strain.fs)
        assert plan.fft_len == next_fast_len(strain.n)  # the bare strain, no prefix
        z, spectrum = plan.snr_complex(strain)
        chi2 = plan.chi2_reduced(z, spectrum)
        z_ref, chi2_ref = prefixed_chi2_oracle(strain, tpl, psd, 4)
        assert np.max(np.abs(z - z_ref)) <= 1e-12 * np.max(np.abs(z_ref))
        assert np.max(np.abs(chi2 - chi2_ref)) <= 1e-12 * np.max(chi2_ref)
        snr = matched_filter(strain, tpl, psd, cfg)
        np.testing.assert_array_equal(snr.chi2_reduced, chi2)
        assert abs(snr.peak.time - 0.7) <= 1.0 / FS

    def test_padded_block_matches_prefixed_oracle(self):
        # a block length that is not a fast length: the bare strain is
        # zero-padded past its end, and no kept lag may read the padding
        tpl = stock_template("gw150914", FS).base
        psd = flat_psd(2.0 / FS)
        strain = TimeSeries(FS, 0.0, rng_for(94).standard_normal(int(2 * FS) + 1))
        cfg = MfConfig(block_len=None, mode="cyclic_prefix", reweight_bins=4)
        detection._plan_for.cache_clear()
        plan = detection._plan_for(tpl, psd, cfg, strain.n, strain.fs)
        assert plan.fft_len > strain.n
        z, spectrum = plan.snr_complex(strain)
        z_ref, chi2_ref = prefixed_chi2_oracle(strain, tpl, psd, 4)
        assert np.max(np.abs(z - z_ref)) <= 1e-12 * np.max(np.abs(z_ref))
        chi2 = plan.chi2_reduced(z, spectrum)
        assert np.max(np.abs(chi2 - chi2_ref)) <= 1e-12 * np.max(chi2_ref)


def gathered_mf_oracle(strain, template, psd, cfg):
    """rho, rho_reweighted and chi2_reduced with the band gathered and
    scattered through the index array of a boolean mask, in the planned
    filter's order of operations, so the bits must match."""
    n, nt, fs = strain.n, template.n, strain.fs
    dt, n_bins = 1.0 / fs, cfg.reweight_bins
    grid_n = n if cfg.mode == "circular" else nt
    df, nf = fs / grid_n, grid_n // 2 + 1
    h = np.zeros(grid_n)
    h[:nt] = template.samples
    htilde = np.fft.rfft(h) * dt
    grid = psd.floored(df, nf)
    mask = band_mask_oracle(nf, df, cfg.band)
    weights = np.where(mask, 4.0 * np.abs(htilde) ** 2 / grid * df, 0.0)
    hh = float(np.sum(weights))
    sel = np.where(mask)[0]
    bands = []
    if n_bins is not None:
        edges = np.searchsorted(np.cumsum(weights) / hh, np.arange(1, n_bins) / n_bins)
        bounds = np.concatenate([[0], edges + 1, [nf]])
        bands = [sel[(sel >= lo) & (sel < hi)] for lo, hi in zip(bounds[:-1], bounds[1:])]
    if cfg.mode == "circular":
        q = np.zeros(n, dtype=complex)
        q[sel] = 4.0 * (np.fft.rfft(strain.samples) * dt)[sel] * np.conj(htilde[sel]) / grid[sel]
        z = np.fft.ifft(q) * (n * df)
        acf = np.zeros(n // 2 + 1, dtype=complex)
        for inside in (b for b in bands if b.size):
            lo, w = inside[0], inside[-1] - inside[0] + 1
            spec = np.fft.fft(q[lo:lo + w], next_fast_len(2 * w - 1))
            acf[:w] += np.fft.ihfft(spec.real ** 2 + spec.imag ** 2)[:w]
        power = np.fft.irfft(acf, n) * ((n * df) * (n * df) / n)
        chi2 = np.maximum(power - (z.real ** 2 + z.imag ** 2) / (n_bins or 1), 0.0)
    else:
        size = next_fast_len(n)
        block = np.fft.fft(strain.samples, size)

        def linear_z(bins):
            g_freq = np.zeros(nt, dtype=complex)
            g_freq[bins] = htilde[bins] / grid[bins]
            kernel = np.conj(np.fft.fft(np.fft.ifft(g_freq) * (nt * df), size))
            return 4.0 * dt * np.fft.ifft(block * kernel)[:n - nt + 1]

        z = linear_z(sel)
        chi2 = np.zeros(z.size)
        for inside in bands:
            chi2 += np.abs(linear_z(inside) - z / n_bins) ** 2
    rho = np.abs(z) / math.sqrt(hh)
    if n_bins is None:
        return rho, rho, None
    chi2 *= n_bins / hh
    chi2 /= 2 * n_bins - 2
    return rho, rho * detection._reweight_factor(chi2), chi2


class TestBandSlice:
    """The band as a slice against the mask and index arrays it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 3000),
           df=st.floats(min_value=0.0, exclude_min=True, max_value=1e300),
           band=st.none() | st.tuples(st.floats(), st.floats()))
    def test_mask_is_one_run(self, n, df, band):
        bins = np.flatnonzero(band_mask_oracle(n, df, band))
        np.testing.assert_array_equal(bins, np.arange(n)[detection._band_slice(n, df, band)])

    @pytest.mark.parametrize("band", [None, (20.0, 500.0), (43.0, 300.0)])
    @pytest.mark.parametrize("mode, n_bins", [("circular", 16), ("circular", None),
                                              ("cyclic_prefix", 4),
                                              ("cyclic_prefix", None)])
    def test_matched_filter_matches_the_gathered_filter_bit_for_bit(self, band, mode, n_bins):
        model = default_detector_model()
        tpl = stock_template("gw150914", FS).base
        psd = model.to_power_spectrum(1.0 / 32, int(16 * FS) + 1)
        strain = colored_noise(model, 32.0, FS, seed=derive_seed(23, n_bins or 0))
        strain = inject(strain, tpl.with_samples(12.0 / math.sqrt(sigma_norm(tpl, psd))
                                                 * tpl.samples), 17.0)
        cfg = MfConfig(mode=mode, reweight_bins=n_bins, band=band)
        got = matched_filter(strain, tpl, psd, cfg)
        rho, rho_rw, chi2 = gathered_mf_oracle(strain, tpl, psd, cfg)
        assert got.rho.tobytes() == rho.tobytes()
        assert got.rho_reweighted.tobytes() == rho_rw.tobytes()
        if n_bins is None:
            assert got.chi2_reduced is None
        else:
            assert got.chi2_reduced.tobytes() == chi2.tobytes()

    def test_circular_32s_plan_keeps_below_2_5_mib(self):
        # the full-grid spectrum, PSD, mask, weights and index arrays it
        # kept before took 5.2 MiB
        n = int(32 * FS)
        psd = default_detector_model().to_power_spectrum(1.0 / 32, n // 2 + 1)
        tpl = stock_template("gw150914", FS).base
        detection._MfPlan(tpl, psd, MfConfig(), n, FS)  # numpy's lazy imports happen here
        tracemalloc.start()
        try:
            plan = detection._MfPlan(tpl, psd, MfConfig(), n, FS)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(plan.band_spans) == 16
        assert kept < 2.5 * 2**20


def scipy_decorrelation_time(ts):
    """The autocorrelation through ``scipy.signal.correlate``, the same count
    and energy scaling and the same envelope rule."""
    import scipy.signal

    x = ts.samples
    n = x.size
    energy = detection._energy(x)
    if energy <= 0.0:
        raise DegeneracyError("zero-energy series has no decorrelation time")
    corr = scipy.signal.correlate(x, x, mode="full", method="fft")[n - 1:]
    r = np.abs(corr / (n - np.arange(n)) * (n / energy))
    return detection._envelope_crossing(r, ts.fs, "autocorrelation")


class TestDecorrelationTime:
    def test_white_noise_one_sample(self):
        noise = TimeSeries(FS, 0.0, rng_for(1).standard_normal(4096))
        assert decorrelation_time(noise) == pytest.approx(1.0 / FS)

    def test_pure_tone_never_decays(self):
        t = np.arange(4096) / FS
        tone = TimeSeries(FS, 0.0, np.sin(2 * np.pi * 64.0 * t))
        with pytest.raises(DegeneracyError):
            decorrelation_time(tone)

    def test_chirp_value_pinned_by_oracle(self):
        tpl = stock_template("gw150914", FS)
        tau0 = decorrelation_time(tpl.base)
        # independent oracle: dot-product autocorrelation, same envelope rule
        x = tpl.base.samples
        n = x.size
        r = np.array([
            np.dot(x[:n - k], x[k:]) / (n - k) for k in range(n)
        ])
        r = np.abs(r / r[0])
        w = int(round(FS / 60.0)) + 1
        expected = None
        for lag in range(1, n - w):
            if np.max(r[lag:lag + w]) < E_INV:
                expected = lag / FS
                break
        assert expected is not None
        assert tau0 == pytest.approx(expected, abs=1e-12)
        assert tau0 == pytest.approx(0.0107421875, abs=1e-9)

    def test_zero_input(self):
        with pytest.raises(DegeneracyError):
            decorrelation_time(TimeSeries(FS, 0.0, np.zeros(512)))

    @pytest.mark.parametrize("kind", ["gw150914", "gw151226", "gw170104"])
    def test_stock_templates_match_scipy_correlate(self, kind):
        ts = stock_template(kind, FS).base
        assert decorrelation_time(ts) == scipy_decorrelation_time(ts)

    def test_whitened_noise_windows_match_scipy_correlate(self):
        model = default_detector_model()
        psd = model.to_power_spectrum(1.0 / 8.0, int(8 * FS) // 2 + 1)
        for seed in range(3):
            noise = colored_noise(model, 8.0, FS, seed=derive_seed(31, seed))
            white = butterworth_bandpass(whiten_full(noise, psd), 43.0, 300.0)
            for start, length in [(1.0, 0.2), (3.3, 0.2), (2.0, 1.0), (5.5, 1.0)]:
                window = slice_window(white, start, length)
                assert decorrelation_time(window) == scipy_decorrelation_time(window)

    @settings(max_examples=100, deadline=None)
    @given(x=st.integers(200, 5000).flatmap(windows), fs=st.sampled_from([1024.0, FS]))
    def test_drawn_series_match_scipy_correlate(self, x, fs):
        ts = TimeSeries(fs, 0.0, x)
        try:
            want = scipy_decorrelation_time(ts)
        except (DegeneracyError, ValidationError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                decorrelation_time(ts)
            return
        assert decorrelation_time(ts) == want


class TestNormalizedCcf:
    @settings(max_examples=50, deadline=None)
    @given(x=st.integers(16, 128).flatmap(windows), amp=amplitudes)
    def test_self_correlation_unity(self, x, amp):
        a = TimeSeries(FS, 0.0, amp * x)
        max_lag = (x.size - 1) / FS
        ccf = normalized_ccf(a, a, max_lag=max_lag, tau0=max_lag / 4)
        assert ccf.lags[x.size - 1] == 0.0
        assert abs(ccf.values[x.size - 1] - 1.0) <= 1e-12

    def test_stock_self_correlation_peaky(self):
        for name in ("gw150914", "gw151226", "gw170104"):
            tpl = stock_template(name, FS)
            max_lag = tpl.base.duration * 0.95
            ccf = normalized_ccf(tpl.base, tpl.base, max_lag=max_lag)
            zero = np.argmin(np.abs(ccf.lags))
            assert ccf.values[zero] == pytest.approx(1.0, abs=1e-9)
            assert ccf.r3 < E_INV
            assert ccf.peaky

    def test_independent_noise_rarely_peaky(self):
        peaky = 0
        for s in range(100):
            a = TimeSeries(FS, 0.0, rng_for(derive_seed(10, 2 * s)).standard_normal(819))
            b = TimeSeries(FS, 0.0, rng_for(derive_seed(10, 2 * s + 1)).standard_normal(819))
            ccf = normalized_ccf(a, b, max_lag=0.1)
            peaky += ccf.peaky
        assert peaky <= 5

    @settings(max_examples=50, deadline=None)
    @given(pair=st.integers(16, 128).flatmap(lambda n: st.tuples(windows(n), windows(n))),
           amp_a=amplitudes, amp_b=amplitudes)
    def test_bounded_by_cauchy_schwarz(self, pair, amp_a, amp_b):
        x, y = pair
        max_lag = (x.size - 1) / FS
        ccf = normalized_ccf(TimeSeries(FS, 0.0, amp_a * x), TimeSeries(FS, 0.0, amp_b * y),
                             max_lag=max_lag, tau0=max_lag / 4)
        assert np.all(np.abs(ccf.values) <= 1.0 + 1e-12)

    def test_symmetry(self):
        rng = rng_for(3)
        a = TimeSeries(FS, 0.0, rng.standard_normal(700))
        b = TimeSeries(FS, 0.0, rng.standard_normal(700))
        ab = normalized_ccf(a, b, max_lag=0.05)
        ba = normalized_ccf(b, a, max_lag=0.05)
        np.testing.assert_allclose(ab.values, ba.values[::-1], atol=1e-12)

    def test_scale_invariance(self):
        tpl = stock_template("gw150914", FS)
        noise = rng_for(9).standard_normal(tpl.base.n)
        a = TimeSeries(FS, 0.0, tpl.base.samples + 0.3 * noise)
        base = normalized_ccf(a, tpl.base, max_lag=0.15)
        scaled = normalized_ccf(
            a.with_samples(-7.0 * a.samples),
            tpl.base.with_samples(0.002 * tpl.base.samples),
            max_lag=0.15,
        )
        np.testing.assert_allclose(np.abs(scaled.values), np.abs(base.values), atol=1e-9)
        assert scaled.r3 == pytest.approx(base.r3, abs=1e-9)
        assert scaled.peaky == base.peaky
        assert scaled.tau0 == base.tau0

    def test_negative_peak_sign_recorded(self):
        tpl = stock_template("gw150914", FS)
        flipped = tpl.base.with_samples(-tpl.base.samples)
        ccf = normalized_ccf(flipped, tpl.base, max_lag=0.15)
        assert ccf.peak_value == pytest.approx(-1.0, abs=1e-9)
        assert ccf.peak_abs == pytest.approx(1.0, abs=1e-9)

    def test_zero_energy_window(self):
        tpl = stock_template("gw150914", FS)
        zero = TimeSeries(FS, 0.0, np.zeros(tpl.base.n))
        with pytest.raises(DegeneracyError):
            normalized_ccf(zero, tpl.base, max_lag=0.1)

    def test_unequal_windows_rejected(self):
        a = TimeSeries(FS, 0.0, np.ones(512))
        b = TimeSeries(FS, 0.0, np.ones(256))
        with pytest.raises(ValidationError):
            normalized_ccf(a, b, max_lag=0.05)

    def test_short_window_peakier_than_long(self):
        # band-limited template + noise: event-duration window beats 20 s
        from gwxlab import butterworth_bandpass
        model = PsdModel(segments=(PsdSegment(1.0, 1.0, 0.0),))
        tpl = stock_template("gw150914", FS)
        tplb = butterworth_bandpass(tpl.base, 43.0, 300.0)
        tau0 = decorrelation_time(tplb)
        wins = 0
        trials = 20
        for s in range(trials):
            noise = butterworth_bandpass(
                colored_noise(model, 20.0, FS, seed=derive_seed(30, s)), 43.0, 300.0)
            scale = 1.5 * np.std(noise.samples) / np.std(tplb.samples)
            strain = inject(noise, tplb.with_samples(scale * tplb.samples), 10.0)
            short_a = TimeSeries(FS, 0.0,
                                 strain.samples[int(10 * FS):int(10 * FS) + tplb.n])
            short = normalized_ccf(short_a, tplb, max_lag=0.19, tau0=tau0)
            padded = np.zeros(strain.n)
            padded[int(10 * FS):int(10 * FS) + tplb.n] = tplb.samples
            long = normalized_ccf(strain, TimeSeries(FS, 0.0, padded),
                                  max_lag=1.0, tau0=tau0)
            wins += short.r3 < long.r3
        assert wins >= int(0.9 * trials)


class TestResultRecords:
    def test_caller_arrays_stay_writable(self):
        rho, other, lags, values = np.ones(4), np.ones(4), np.arange(4.0), np.zeros(4)
        plain = detection.SnrSeries(fs=1.0, t0=0.0, rho=rho, rho_reweighted=rho,
                                    sigma=1.0, mode="circular")
        reweighted = detection.SnrSeries(fs=1.0, t0=0.0, rho=rho, rho_reweighted=other,
                                         sigma=1.0, mode="circular")
        ccf = detection.CcfResult(lags=lags, values=values, tau0=0.1, r3=0.5, peaky=False,
                                  window_T=1.0)
        for mine in (rho, other, lags, values):
            assert mine.flags.writeable
            mine[0] = 7.0
        assert plain.rho[0] == reweighted.rho_reweighted[0] == 1.0
        assert ccf.lags[0] == ccf.values[0] == 0.0
        # no reweighting: one frozen copy serves both fields
        assert plain.rho_reweighted is plain.rho
        assert reweighted.rho_reweighted is not reweighted.rho
        for frozen in (plain.rho, reweighted.rho_reweighted, ccf.lags, ccf.values):
            with pytest.raises(ValueError, match="read-only"):
                frozen[0] = 0.0

    def test_frozen_owned_arrays_are_adopted(self):
        rho, other = np.ones(4), np.full(4, 0.5)
        for mine in (rho, other):
            mine.setflags(write=False)
        snr = detection.SnrSeries(fs=1.0, t0=0.0, rho=rho, rho_reweighted=other,
                                  sigma=1.0, mode="circular")
        assert snr.rho is rho and snr.rho_reweighted is other

    def test_writable_arrays_and_views_are_copied(self):
        base, writable = np.ones(8), np.ones(4)
        view = base[:4]
        view.setflags(write=False)  # read-only, but its base is not
        snr = detection.SnrSeries(fs=1.0, t0=0.0, rho=view, rho_reweighted=writable,
                                  sigma=1.0, mode="circular")
        assert snr.rho is not view and snr.rho_reweighted is not writable
        base[:] = 7.0
        writable[:] = 7.0
        assert np.all(snr.rho == 1.0) and np.all(snr.rho_reweighted == 1.0)

    @pytest.mark.parametrize("bins", [None, 4])
    def test_matched_filter_hands_its_arrays_over(self, bins):
        strain, template, psd = _mf_case(7, 32, 100)
        handed = []

        def spy(values, name):
            out = readonly_f64(values, name)
            handed.append(out is values)
            return out

        readonly_f64 = detection._readonly_f64
        with mock.patch.object(detection, "_readonly_f64", spy):
            snr = matched_filter(strain, template, psd,
                                 MfConfig(block_len=None, reweight_bins=bins))
        assert handed == [True] * (1 if bins is None else 2)
        assert not (snr.rho.flags.writeable or snr.rho_reweighted.flags.writeable)


def _peak_r3_oracle(values, lags, tau0):
    """|CCF| peak and R3 over the signed lag grid through a boolean mask
    of the lags beyond 3 tau0, the reduction the slice maxima replaced."""
    mag = np.abs(values)
    peak = np.max(mag, axis=-1)
    if np.any(peak <= 0.0):
        raise DegeneracyError("flat zero CCF has no peak ratio")
    return peak, np.max(mag[..., np.abs(lags) > 3.0 * tau0], axis=-1) / peak


@st.composite
def short_lag_cases(draw):
    """A pair of n-sample windows, a lag range m < n - 1 and a tau0 whose
    first lag beyond 3 tau0, k0, is 1, is m, or follows the lag 3 tau0 hits
    exactly (fs is a power of two, so i / fs and 3 i / fs are exact)."""
    n = draw(st.integers(4, 160))
    m = draw(st.integers(2, n - 2))
    fs = draw(st.sampled_from([8.0, 64.0, 4096.0]))
    u = draw(st.floats(0.01, 0.99))
    kind = draw(st.sampled_from(["first", "last"] + (["on-a-lag"] if m >= 4 else [])))
    if kind == "first":
        tau0, k0 = u / (3.0 * fs), 1
    elif kind == "last":
        tau0, k0 = (m - 1 + u) / (3.0 * fs), m
    else:
        i = draw(st.integers(1, (m - 1) // 3))
        tau0, k0 = i / fs, 3 * i + 1
    a, b = (TimeSeries(fs, 0.0, draw(windows(n))) for _ in range(2))
    return a, b, m, tau0, k0


class TestPeakRatioR3:
    def test_flat_ccf_not_peaky(self):
        reference = TimeSeries(FS, 0.0, rng_for(4).standard_normal(101))
        plan = detection._CcfPlan(reference, FS, 100, tau0=1.0 / FS)
        _, r3 = plan.peak_r3(np.full(plan.size, 0.5))
        assert r3 == 1.0
        assert not r3 < detection.R3_THRESHOLD

    def test_insufficient_lag_range(self):
        tpl = stock_template("gw150914", FS)
        with pytest.raises(ValidationError):
            normalized_ccf(tpl.base, tpl.base, max_lag=0.15, tau0=0.1)

    def test_recompute_matches_stored(self):
        tpl = stock_template("gw150914", FS)
        ccf = normalized_ccf(tpl.base, tpl.base, max_lag=0.15)
        r3 = float(_peak_r3_oracle(ccf.values, ccf.lags, ccf.tau0)[1])
        assert (r3, r3 < detection.R3_THRESHOLD) == (ccf.r3, ccf.peaky)

    @settings(max_examples=200, deadline=None)
    @given(case=short_lag_cases())
    @example(case=(TimeSeries(8.0, 0.0, np.array([1.0, 0.0, 0.0, 0.0, 0.0])),
                   TimeSeries(8.0, 0.0, np.array([0.0, 0.0, 0.0, 1.0, 0.0])), 2, 1.0 / 48.0, 1))
    def test_slices_match_the_mask_oracle(self, case):
        a, b, m, tau0, k0 = case
        assert detection._outer_start(m, a.fs, tau0) == k0
        plan = detection._CcfPlan(b, a.fs, m, tau0)
        full = plan.correlate(detection._unit_energy(a.samples, "first"))
        if not np.concatenate([full[plan.size - m:], full[:m + 1]]).any():
            # zero at every lag in range, as for samples more than m apart:
            # the oracle has no peak ratio either
            with pytest.raises(DegeneracyError, match="flat zero CCF"):
                normalized_ccf(a, b, max_lag=m / a.fs, tau0=tau0)
            return
        ccf = normalized_ccf(a, b, max_lag=m / a.fs, tau0=tau0)
        assert ccf.lags.size == 2 * m + 1 and ccf.lags[m] == 0.0
        peak, r3 = _peak_r3_oracle(ccf.values, ccf.lags, tau0)
        assert (ccf.peak_abs, ccf.r3) == (peak, r3)
        # a chunk of rows reduces row by row as one row does
        mag = np.abs(plan.correlate(np.stack([a.samples, b.samples, -a.samples])))
        rows = np.array([plan.peak_r3(row) for row in mag])
        assert np.array_equal(np.column_stack(plan.peak_r3(mag)), rows)


class TestCcfDecorrelationTime:
    def test_reference_system_with_common_template(self):
        tpl = stock_template("gw150914", FS)
        h = tpl.base.samples
        hrms = np.sqrt(np.mean(h**2))
        tau0 = decorrelation_time(tpl.base)
        taus = []
        for s in range(10):
            na = rng_for(derive_seed(41, 2 * s)).standard_normal(h.size)
            nb = rng_for(derive_seed(41, 2 * s + 1)).standard_normal(h.size)
            a = TimeSeries(FS, 0.0, h + 0.5 * hrms * na)
            b = TimeSeries(FS, 0.0, h + 0.5 * hrms * nb)
            ccf = normalized_ccf(a, b, max_lag=0.19, tau0=tau0)
            assert ccf.peaky
            taus.append(ccf_decorrelation_time(ccf))
        mean_tau = np.mean(taus)
        # same scale as the template's own decorrelation time
        assert 0.2 * tau0 < mean_tau < 3.0 * tau0


class TestRunningWindowCcf:
    def test_tiled_template_every_window_unity(self):
        tpl = stock_template("gw150914", FS)
        tiled = TimeSeries(FS, 0.0, np.tile(tpl.base.samples, 10))
        scan = running_window_ccf(tiled, tpl.base, hop=tpl.base.duration)
        assert len(scan) == 10
        for peak in scan.peak_abs_ccf:
            assert peak == pytest.approx(1.0, abs=1e-9)

    def test_exclusions_skip_windows(self):
        tpl = stock_template("gw150914", FS)
        long_ts = TimeSeries(FS, 0.0, rng_for(12).standard_normal(int(4 * FS)))
        full = running_window_ccf(long_ts, tpl.base, hop=0.5)
        partial = running_window_ccf(long_ts, tpl.base, hop=0.5,
                                     exclusions=[(1.0, 2.0)])
        starts = partial.t_start.tolist()
        assert all(not (1.0 - 0.2 < t < 2.0) for t in starts)
        assert len(partial) < len(full)

    def test_all_excluded_is_error(self):
        tpl = stock_template("gw150914", FS)
        long_ts = TimeSeries(FS, 0.0, rng_for(13).standard_normal(int(2 * FS)))
        for cpus in (1, 2):
            with _with_cpus(cpus), pytest.raises(ValidationError, match="no usable windows"):
                running_window_ccf(long_ts, tpl.base, hop=0.5, exclusions=[(-1.0, 99.0)])

    def test_window_longer_than_the_series_is_error(self):
        # 40 samples at 10 Hz span 4 s, more than the 50 samples at 100 Hz
        long_ts = TimeSeries(100.0, 0.0, rng_for(20).standard_normal(50))
        tpl = TimeSeries(10.0, 0.0, rng_for(21).standard_normal(40))
        for cpus in (1, 2):
            with _with_cpus(cpus), pytest.raises(ValidationError, match="no usable windows"):
                running_window_ccf(long_ts, tpl, hop=0.1, tau0=0.5)

    def test_no_usable_windows_comes_before_a_missing_decorrelation_time(self):
        # a tone never decorrelates, but the plan that finds this out is only
        # built once the scan has a usable window
        tone = TimeSeries(FS, 0.0, np.sin(2 * np.pi * 64.0 * np.arange(819) / FS))
        long_ts = TimeSeries(FS, 0.0, rng_for(24).standard_normal(int(2 * FS)))
        with pytest.raises(ValidationError, match="no usable windows"):
            running_window_ccf(long_ts, tone, hop=0.5, exclusions=[(-1.0, 99.0)])
        with pytest.raises(DegeneracyError, match="never falls below 1/e"):
            running_window_ccf(long_ts, tone, hop=0.5)

    def test_ordered_by_start(self):
        tpl = stock_template("gw170104", FS)
        long_ts = TimeSeries(FS, 0.0, rng_for(14).standard_normal(int(3 * FS)))
        starts = running_window_ccf(long_ts, tpl.base, hop=0.25).t_start.tolist()
        assert starts == sorted(starts)

    def test_last_window_past_the_end_stops_the_scan(self):
        # 20 samples at 8 Hz, 7-sample template; the hop of 4.5 samples puts
        # the fourth start at 13.5 samples, inside the loop's half-sample
        # slack, which snaps to 14 and would run one sample past the end
        long_ts = TimeSeries(8.0, 0.0, rng_for(15).standard_normal(20))
        tpl = TimeSeries(8.0, 0.0, rng_for(16).standard_normal(7))
        scan = running_window_ccf(long_ts, tpl, hop=0.5625, tau0=0.2)
        assert scan.t_start.tolist() == [0.0, 0.5625, 1.125]

    def test_flat_zero_ccf_of_a_window_with_energy(self):
        # the energy of 1e200-scale samples overflows to inf, so the window
        # passes the zero-energy skip but normalizes to zeros
        long_ts = TimeSeries(8.0, 0.0, np.full(40, 1e200))
        tpl = TimeSeries(8.0, 0.0, rng_for(17).standard_normal(8))
        with np.errstate(over="ignore"):
            with pytest.raises(DegeneracyError, match="flat zero CCF"):
                running_window_ccf(long_ts, tpl, hop=0.5, tau0=0.2)
            with pytest.raises(DegeneracyError, match="flat zero CCF"):
                normalized_ccf(slice_window(long_ts, 0.0, 1.0), tpl, max_lag=0.875, tau0=0.2)

    @pytest.mark.parametrize("hop", ["x", float("nan"), float("inf"), 0.0, True])
    def test_bad_hop(self, hop):
        long_ts = TimeSeries(8.0, 0.0, rng_for(18).standard_normal(40))
        tpl = TimeSeries(8.0, 0.0, rng_for(19).standard_normal(8))
        with pytest.raises(ValidationError, match=f"hop must be a positive finite number, "
                                                  f"got {re.escape(repr(hop))}"):
            running_window_ccf(long_ts, tpl, hop=hop, tau0=0.2)

    def test_hop_below_one_sample_is_refused(self):
        # windows snap to the sample grid, so a shorter hop only repeats
        # windows; such a hop used to step through the span for ever
        long_ts = TimeSeries(8.0, 0.0, rng_for(18).standard_normal(40))
        tpl = TimeSeries(8.0, 0.0, rng_for(19).standard_normal(8))
        for hop, exclusions in [(1e-300, [(-1.0, 99.0)]), (0.124, [])]:
            with pytest.raises(ValidationError, match=re.escape(
                    f"hop must be at least one sample (1/fs = 0.125 s), got {hop!r}")):
                running_window_ccf(long_ts, tpl, hop=hop, exclusions=exclusions, tau0=0.2)
        scan = running_window_ccf(long_ts, tpl, hop=0.125, tau0=0.2)
        assert scan.t_start.tolist() == [k / 8.0 for k in range(33)]

    def test_hop_below_the_time_resolution_is_refused(self):
        # at t0 = 2**60 s a float steps by 256 s, so t += hop never moves
        long_ts = TimeSeries(8.0, 2.0 ** 60, rng_for(18).standard_normal(40))
        tpl = TimeSeries(8.0, 0.0, rng_for(19).standard_normal(8))
        with pytest.raises(ValidationError, match="hop 0.125 s is below the time resolution"):
            running_window_ccf(long_ts, tpl, hop=0.125, tau0=0.2)

    def test_result_is_read_only_columns(self):
        long_ts = TimeSeries(8.0, 0.0, rng_for(18).standard_normal(40))
        tpl = TimeSeries(8.0, 0.0, rng_for(19).standard_normal(8))
        scan = running_window_ccf(long_ts, tpl, hop=0.5, tau0=0.2)
        assert len(scan) == scan.t_start.size == scan.peak_abs_ccf.size == scan.r3.size == 9
        for column in (scan.t_start, scan.peak_abs_ccf, scan.r3):
            assert column.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0.0
        with pytest.raises(AttributeError):
            scan.r3 = np.zeros(9)
        mine = np.zeros(3)
        detection.RunningCcf(t_start=mine, peak_abs_ccf=mine, r3=mine)
        assert mine.flags.writeable

    @settings(max_examples=60, deadline=None)
    @given(t0=st.sampled_from([0.0, 0.37, -5.25, 3.3e7, 1126259462.4, 2.0 ** 40]),
           hop_samples=st.floats(1.0, 8.0) | st.floats(1.0, 500.0), span=st.floats(0.0, 5.0),
           fs=st.sampled_from([8.0, 100.0, 4096.0]))
    # at a GPS-like t0 the running sum falls short of span / hop hops, so
    # the first grid is too short and is doubled
    @example(t0=1126259462.4, hop_samples=1.3, span=2.5, fs=4096.0)
    def test_window_starts_are_the_sums_of_a_hop_loop(self, t0, hop_samples, span, fs):
        hop = hop_samples / fs
        reach = t0 + span
        expected, t = [], t0
        while t <= reach:
            expected.append(t)
            t += hop
        got = detection._window_starts(t0, hop, span, lambda t: t <= reach)
        assert got.tolist() == expected

    @pytest.mark.parametrize("pair", [(1.0,), (1.0, "x"), 1.0, (1.0, float("inf"))])
    def test_bad_exclusion(self, pair):
        long_ts = TimeSeries(8.0, 0.0, rng_for(18).standard_normal(40))
        tpl = TimeSeries(8.0, 0.0, rng_for(19).standard_normal(8))
        with pytest.raises(ValidationError, match=re.escape(
                f"an exclusion must be a (start, end) pair of finite numbers, got {pair!r}")):
            running_window_ccf(long_ts, tpl, hop=0.5, exclusions=[pair], tau0=0.2)


def _columns(scan):
    """A running-window scan as one row per window: start, |CCF| peak, R3."""
    return np.column_stack([scan.t_start, scan.peak_abs_ccf, scan.r3])


def _scan_oracle(long_ts, template, hop, exclusions):
    """(start, samples) of each window the ``t += hop`` scan keeps, one
    ``slice_window`` per window."""
    duration = template.duration
    t, end = long_ts.t0, long_ts.t0 + long_ts.duration
    kept = []
    while t + duration <= end + 0.5 / long_ts.fs:
        if not any(t < t_b and t + duration > t_a for t_a, t_b in exclusions):
            try:
                window = slice_window(long_ts, t, duration)
            except ValidationError:
                break
            if np.dot(window.samples, window.samples) > 0.0:
                kept.append((t, window.samples))
        t += hop
    return kept


def _ccf_oracle(window, reference, tau0, fs):
    """|CCF| peak and R3 from a direct ``np.correlate`` of the unit-energy pair."""
    n = window.size
    ccf = np.correlate(window / np.linalg.norm(window),
                       reference / np.linalg.norm(reference), "full")
    lags = np.arange(-(n - 1), n) / fs
    mag = np.abs(ccf)
    return mag.max(), mag[np.abs(lags) > 3.0 * tau0].max() / mag.max()


def _running_case(seed, nt, extra, zero_stretches, t0):
    """Noise with zero stretches, and a template of ``nt`` samples, at 64 Hz."""
    rng = rng_for(seed)
    x = rng.standard_normal(nt + extra) * 10.0 ** rng.uniform(-3, 3)
    for start, length in zero_stretches:
        x[int(start * x.size):int(start * x.size) + length] = 0.0
    return (TimeSeries(64.0, t0, x),
            TimeSeries(64.0, 0.0, rng.standard_normal(nt)))


running_cases = st.builds(
    _running_case, st.integers(0, 2**32 - 1), st.integers(8, 40), st.integers(1, 300),
    st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(1, 120)), max_size=3),
    st.sampled_from([0.0, 0.37, -5.25]))


class TestBatchedRunningCcf:
    """The chunked engine against a per-window loop that shares none of its code."""

    @settings(max_examples=50, deadline=None)
    @given(case=running_cases, hop_frac=st.floats(0.004, 1.5),
           tau0_frac=st.floats(0.01, 0.3), chunk=st.integers(1, 7),
           cuts=st.lists(st.tuples(st.floats(-0.2, 1.2), st.floats(0.0, 0.5)), max_size=3))
    def test_matches_per_window_oracle(self, case, hop_frac, tau0_frac, chunk, cuts):
        long_ts, tpl = case
        hop = max(hop_frac * tpl.duration, 1.0 / long_ts.fs)  # at least one sample
        tau0 = tau0_frac * (tpl.n - 1) / tpl.fs
        span = long_ts.duration
        exclusions = [(long_ts.t0 + a * span, long_ts.t0 + (a + w) * span) for a, w in cuts]
        kept = _scan_oracle(long_ts, tpl, hop, exclusions)
        with mock.patch.object(detection, "_CCF_CHUNK_ROWS", chunk):
            if not kept:
                with pytest.raises(ValidationError, match="no usable windows"):
                    running_window_ccf(long_ts, tpl, hop=hop, exclusions=exclusions, tau0=tau0)
                return
            by_cpus = []
            for cpus in (1, 2):
                with _with_cpus(cpus):
                    by_cpus.append(running_window_ccf(long_ts, tpl, hop=hop,
                                                      exclusions=exclusions, tau0=tau0))
        scan = by_cpus[0]
        assert _columns(by_cpus[1]).tobytes() == _columns(scan).tobytes()
        assert scan.t_start.tolist() == [t for t, _ in kept]
        expected = np.array([_ccf_oracle(w, tpl.samples, tau0, tpl.fs) for _, w in kept])
        got = _columns(scan)[:, 1:]
        # |CCF| <= 1 sets the scale: an R3 that is exactly 0 (all outer lags
        # zero) comes out of any FFT as round-off of order 1e-16
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
        assert np.all(got[:, 0] <= 1.0 + 1e-12)
        assert np.all((got[:, 1] >= 0.0) & (got[:, 1] <= 1.0))

    def test_several_chunks_with_a_partial_last_one(self):
        long_ts, tpl = _running_case(21, 16, 200, [(0.5, 30)], 0.0)
        kept = _scan_oracle(long_ts, tpl, 0.05, [])
        with mock.patch.object(detection, "_CCF_CHUNK_ROWS", 4):
            scan = running_window_ccf(long_ts, tpl, hop=0.05, tau0=0.05)
        assert len(kept) % 4 != 0 and len(kept) > 8
        assert scan.t_start.tolist() == [t for t, _ in kept]
        whole = running_window_ccf(long_ts, tpl, hop=0.05, tau0=0.05)
        np.testing.assert_allclose(_columns(scan), _columns(whole), rtol=1e-12, atol=0.0)

    def test_more_lanes_than_cores_write_their_own_rows(self):
        # one-row chunks on eight lanes, switching threads as often as the
        # interpreter allows: each lane writes only its own rows of the
        # shared columns, so the scan matches the one-lane scan byte for byte
        long_ts, tpl = _running_case(25, 16, 400, [(0.3, 40)], 0.37)
        with mock.patch.object(detection, "_CCF_CHUNK_ROWS", 1):
            with _with_cpus(1):
                one = running_window_ccf(long_ts, tpl, hop=0.05, tau0=0.05)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with _with_cpus(8):
                    many = running_window_ccf(long_ts, tpl, hop=0.05, tau0=0.05)
            finally:
                sys.setswitchinterval(interval)
        assert len(one) > 100
        assert _columns(many).tobytes() == _columns(one).tobytes()

    def test_flat_zero_ccf_in_a_later_chunk_fails_as_one_lane_does(self):
        # 80 noise samples, then 1e200-scale ones whose windows normalize to
        # zeros; at 4 rows a chunk the first such window is in chunk 4
        x = np.concatenate([rng_for(22).standard_normal(80), np.full(40, 1e200)])
        long_ts = TimeSeries(8.0, 0.0, x)
        tpl = TimeSeries(8.0, 0.0, rng_for(23).standard_normal(8))
        errors = []
        for cpus in (1, 2):
            with _with_cpus(cpus), mock.patch.object(detection, "_CCF_CHUNK_ROWS", 4), \
                    np.errstate(over="ignore"), pytest.raises(DegeneracyError) as got:
                running_window_ccf(long_ts, tpl, hop=0.5, tau0=0.2)
            errors.append(got.value)
        assert type(errors[1]) is type(errors[0])
        assert str(errors[1]) == str(errors[0]) == "flat zero CCF has no peak ratio"


def _rate_pair(fs_b: float):
    """Each public function that checks two sample rates, given a second
    series at ``fs_b`` where the first is at ``FS``."""
    rng = rng_for(13)
    a = TimeSeries(FS, 0.0, rng.standard_normal(4096))
    b = TimeSeries(fs_b, 0.0, rng.standard_normal(1024))
    return {
        "matched_filter": lambda: matched_filter(a, b, flat_psd(),
                                                 MfConfig(block_len=None, reweight_bins=None)),
        "normalized_ccf": lambda: normalized_ccf(slice_window(a, 0.0, 0.25), b, max_lag=0.05),
        "running_window_ccf": lambda: running_window_ccf(a, b, hop=0.25),
        "inject": lambda: inject(a, b, 0.5),
        "template_error": lambda: template_error(slice_window(a, 0.0, 0.25), b),
    }


@pytest.mark.parametrize("what", sorted(_rate_pair(FS)))
def test_sample_rate_rule(what):
    # one rule everywhere: rates agree when within 1e-9 of the first one
    _rate_pair(FS * (1 + 1e-12))[what]()
    fs_b = FS * (1 + 1e-6)
    with pytest.raises(ValidationError, match="sample-rate mismatch") as exc:
        _rate_pair(fs_b)[what]()
    assert f"{FS} vs {fs_b} Hz" in str(exc.value)
