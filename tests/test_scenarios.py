import ctypes
import json
import math
import os
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwxlab import (
    DegeneracyError,
    FalseAlarmParams,
    GwxError,
    SCENARIO_NAMES,
    ScenarioConfig,
    SnrSeries,
    TimeSeries,
    TrialReport,
    ValidationError,
    colored_noise,
    default_detector_model,
    butterworth_bandpass,
    emit_report,
    false_alarm_rate,
    monte_carlo,
    normalized_ccf,
    run_scenario,
    save_strain,
    scenario_descriptions,
    slice_window,
    whiten_full,
)
from gwxlab import lanes, scenarios
from gwxlab.cli import main
from gwxlab.scenarios import ScenarioResult

EXPECTED_NAMES = {
    "mf-sine-misfire", "mf-awgn-misfire", "mf-bogus", "ccf-bogus", "h1l1-ccf",
    "ref-systems", "window-compare", "whiten-distortion", "running-baseline",
    "circular-artifact",
}

FAST_OPTIONS = {
    "mf-sine-misfire": {"block_len": 8.0, "burst_at": 3.5},
    "mf-awgn-misfire": {"block_len": 8.0, "burst_at": 3.5},
    "running-baseline": {"duration": 16.0},
    "window-compare": {"long_window": 10.0},
}


class TestFalseAlarmRate:
    def test_unit_ratio(self):
        p = FalseAlarmParams(n_b=0.0, T=1.0, T_b=1.0)
        assert false_alarm_rate(p) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)

    def test_short_observation_limit(self):
        p = FalseAlarmParams(n_b=0.0, T=1e-12, T_b=1.0)
        assert false_alarm_rate(p) == pytest.approx(0.0, abs=1e-11)

    def test_one_in_two_hundred_thousand_years(self):
        p = FalseAlarmParams(n_b=0.0, T=1.0, T_b=200000.0)
        assert false_alarm_rate(p) == pytest.approx(5.0e-6, rel=1e-4)

    def test_closed_form_sweep(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n_b = float(rng.uniform(0, 50))
            T = float(rng.uniform(1e-3, 1e3))
            T_b = float(rng.uniform(1e-3, 1e3))
            got = false_alarm_rate(FalseAlarmParams(n_b=n_b, T=T, T_b=T_b))
            assert got == pytest.approx(1.0 - math.exp(-T / T_b * (1.0 + n_b)), abs=1e-12)
            assert 0.0 <= got <= 1.0

    def test_monotonicity(self):
        base = false_alarm_rate(FalseAlarmParams(n_b=2.0, T=1.0, T_b=10.0))
        assert false_alarm_rate(FalseAlarmParams(n_b=3.0, T=1.0, T_b=10.0)) > base
        assert false_alarm_rate(FalseAlarmParams(n_b=2.0, T=2.0, T_b=10.0)) > base
        assert false_alarm_rate(FalseAlarmParams(n_b=2.0, T=1.0, T_b=20.0)) < base

    def test_validation(self):
        with pytest.raises(ValidationError):
            FalseAlarmParams(n_b=-1.0, T=1.0, T_b=1.0)
        with pytest.raises(ValidationError):
            FalseAlarmParams(n_b=0.0, T=0.0, T_b=1.0)


class TestMonteCarlo:
    def test_single_trial_equals_stats(self):
        def trial(k, seed):
            return TrialReport(trial_index=k, seed=seed, peak_rho=7.5, fired=True)

        reports, stats = monte_carlo(trial, 1, seed_base=5)
        assert stats["fired_fraction"] == 1.0
        assert stats["peak_rho_quantiles"] == {"p5": 7.5, "p50": 7.5, "p95": 7.5}
        assert reports[0].peak_rho == 7.5

    def test_same_seed_base_identical(self):
        def trial(k, seed):
            rng = np.random.default_rng(seed)
            v = float(rng.standard_normal())
            return TrialReport(trial_index=k, seed=seed, peak_rho=v, fired=v > 0)

        _, a = monte_carlo(trial, 50, seed_base=9)
        _, b = monte_carlo(trial, 50, seed_base=9)
        assert a == b

    def test_doubling_trials_stable_median(self):
        def trial(k, seed):
            rng = np.random.default_rng(seed)
            return TrialReport(trial_index=k, seed=seed,
                               peak_rho=float(rng.standard_normal()))

        _, small = monte_carlo(trial, 100, seed_base=3)
        _, big = monte_carlo(trial, 200, seed_base=3)
        q = small["peak_rho_quantiles"]
        assert q["p5"] <= big["peak_rho_quantiles"]["p50"] <= q["p95"]

    def test_errors_annotated_with_trial(self):
        def trial(k, seed):
            if k == 3:
                raise ValidationError("boom")
            return TrialReport(trial_index=k, seed=seed)

        with pytest.raises(GwxError, match="trial 3"):
            monte_carlo(trial, 5, seed_base=1)

    def test_errors_keep_their_class(self):
        def trial(k, seed):
            raise DegeneracyError("flat")

        with pytest.raises(DegeneracyError, match="trial 0"):
            monte_carlo(trial, 1, seed_base=1)


class TestQuantiles:
    """``_quantiles`` against ``np.quantile``'s linear method, by bytes."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                    min_size=1, max_size=120))
    def test_matches_np_quantile_by_bytes(self, values):
        with np.errstate(invalid="ignore", over="ignore"):  # infinities, huge spans
            got = scenarios._quantiles(values)
            want = np.quantile(np.array(values), [0.05, 0.5, 0.95])
        assert np.array([got["p5"], got["p50"], got["p95"]]).tobytes() == want.tobytes()

    def test_nan_values_are_left_out(self):
        assert scenarios._quantiles([math.nan, 2.0, math.nan, 1.0]) == \
            scenarios._quantiles([2.0, 1.0])
        assert scenarios._quantiles([math.nan]) is None
        assert scenarios._quantiles([]) is None


class TestSnrFigure:
    def test_time_column_is_times_by_bytes(self, tmp_path):
        # more rows than one write block, and a rate whose reciprocal is
        # inexact, from a start time small enough to keep the last bits
        rng = np.random.default_rng(8)
        rho = np.abs(rng.standard_normal(20_000))
        snr = SnrSeries(fs=1000.0, t0=2.5, rho=rho, rho_reweighted=rho * 0.5,
                        sigma=1.0, mode="circular")
        header, table = scenarios._snr_figure(snr)
        column = table.columns[0]
        assert header[0] == "t_s" and len(column) == snr.rho.size
        assert np.asarray(column).tobytes() == snr.times().tobytes()
        for a, b in [(0, 1), (8192, 16384), (16384, 24576), (19_999, 20_000)]:
            assert column[a:b].tobytes() == snr.times()[a:b].tobytes()
        lazy, eager = tmp_path / "lazy.csv", tmp_path / "eager.csv"
        scenarios._write_figure(str(lazy), (header, table))
        scenarios._write_figure(str(eager), (header, scenarios._Columns(
            snr.times(), snr.rho, snr.rho_reweighted)))
        assert lazy.read_bytes() == eager.read_bytes()
        assert next(iter(table)) == (snr.t0, rho[0], rho[0] * 0.5)


def _with_lanes(cpus: int):
    """Run as if the process had ``cpus`` CPUs: the lane budget's CPU count."""
    return mock.patch.object(lanes, "_cpu_count", lambda: cpus)


def _sequential(trial_fn, trials, seed_base, name):
    """Oracle: the plain loop ``monte_carlo`` runs with one lane."""
    for k in range(trials):
        try:
            trial_fn(k, scenarios.derive_seed(seed_base, k))
        except GwxError as exc:
            raise type(exc)(f"{name}: trial {k} (seed_base {seed_base}) failed: {exc}") from exc


class TestLanes:
    @pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
    def test_reports_do_not_depend_on_lane_count(self, name, tmp_path):
        cfg = ScenarioConfig(name=name, trials=3, seed_base=5)
        for lanes in (1, 2):
            with _with_lanes(lanes):
                run_scenario(cfg, out_dir=tmp_path / str(lanes))
        files = sorted(p.name for p in (tmp_path / "1").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "2").iterdir())
        for f in files:
            assert (tmp_path / "1" / f).read_bytes() == (tmp_path / "2" / f).read_bytes(), f

    @pytest.mark.parametrize("name, trials", [("running-baseline", 1), ("h1l1-ccf", 3)])
    def test_band_passed_results_do_not_depend_on_lane_count(self, name, trials):
        def arrays(result):
            rows = [[getattr(t, c) for c in scenarios._TRIAL_COLUMNS] for t in result.trials]
            yield np.array(rows, dtype=float).tobytes()
            for _, (_, table) in sorted(result.figures.items()):
                yield np.array(list(table), dtype=float).tobytes()

        cfg = ScenarioConfig(name=name, trials=trials, seed_base=5)
        got = []
        for lanes in (1, 2):
            with _with_lanes(lanes):
                got.append(list(arrays(run_scenario(cfg))))
        assert got[0] == got[1]

    def test_two_lanes_use_two_threads(self):
        idents = set()

        def trial(k, seed):
            idents.add(threading.get_ident())
            time.sleep(0.05)
            return TrialReport(trial_index=k, seed=seed, peak_rho=float(k))

        with _with_lanes(2):
            reports, _ = monte_carlo(trial, 4, seed_base=1)
        assert len(idents) == 2
        assert [r.trial_index for r in reports] == [0, 1, 2, 3]
        assert [r.seed for r in reports] == [scenarios.derive_seed(1, k) for k in range(4)]

    def test_each_trial_runs_once_under_contention(self):
        # more lanes than cores and a short switch interval: a lost update to
        # the shared trial counter would run a trial twice or skip one
        runs = []

        def trial(k, seed):
            runs.append(k)
            return TrialReport(trial_index=k, seed=seed, peak_rho=float(k))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _with_lanes(8):
                reports, stats = monte_carlo(trial, 500, seed_base=2)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(runs) == list(range(500))
        assert [r.trial_index for r in reports] == list(range(500))
        assert stats["trials"] == 500

    @pytest.mark.parametrize("lanes", (1, 2, 4))
    def test_failure_matches_the_sequential_loop(self, lanes):
        def trial(k, seed):
            if k == 1:
                raise DegeneracyError(f"flat at {seed}")
            return TrialReport(trial_index=k, seed=seed)

        with pytest.raises(DegeneracyError) as want:
            _sequential(trial, 4, 9, "mf-x")
        with _with_lanes(lanes), pytest.raises(DegeneracyError) as got:
            monte_carlo(trial, 4, seed_base=9, name="mf-x")
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        assert "trial 1 (seed_base 9) failed" in str(got.value)

    @pytest.mark.parametrize("lanes", (1, 2))
    def test_lowest_failing_index_wins(self, lanes):
        # trial 2 fails at once, trial 1 later; the loop would stop at trial 1
        def trial(k, seed):
            if k == 1:
                time.sleep(0.1)
                raise ValidationError("one")
            if k == 2:
                raise DegeneracyError("two")
            return TrialReport(trial_index=k, seed=seed)

        with _with_lanes(lanes), pytest.raises(ValidationError, match="trial 1 .* one$"):
            monte_carlo(trial, 4, seed_base=1)

    def test_no_trial_starts_after_a_failure(self):
        started = []

        def trial(k, seed):
            started.append(k)
            if k == 1:
                raise ValidationError("boom")
            time.sleep(0.01)
            return TrialReport(trial_index=k, seed=seed)

        with _with_lanes(2), pytest.raises(ValidationError):
            monte_carlo(trial, 40, seed_base=1)
        assert 1 in started
        assert max(started) < 10

    def test_other_errors_pass_through(self):
        def trial(k, seed):
            raise KeyError(k)

        with _with_lanes(2), pytest.raises(KeyError):
            monte_carlo(trial, 3, seed_base=1)

    def test_one_trial_starts_no_thread(self, tmp_path):
        inputs = {}
        for key, seed in (("strain_a", 1), ("strain_b", 2)):
            inputs[key] = str(tmp_path / f"{key}.gwx")
            save_strain(colored_noise(default_detector_model(), 4.0, 4096.0, seed=seed),
                        inputs[key])
        caller = threading.current_thread()
        ran_in = []

        def trial(k, seed):
            ran_in.append(threading.current_thread())
            return TrialReport(trial_index=k, seed=seed)

        with mock.patch.object(threading.Thread, "start",
                               side_effect=AssertionError("a thread was started")):
            monte_carlo(trial, 1, seed_base=1)
            run_scenario(ScenarioConfig(name="circular-artifact", trials=1))
            run_scenario(ScenarioConfig(name="running-baseline", trials=1,
                                        options=FAST_OPTIONS["running-baseline"]))
            run_scenario(ScenarioConfig(name="h1l1-ccf", trials=3, inputs=inputs))
        assert ran_in == [caller]

    def test_nested_lanes_stay_within_the_budget(self):
        # 8 CPUs: outer and inner calls together never hold more than 7
        # helper slots, and every slot comes back
        seen = []

        def inner(j):
            seen.append(lanes._helpers)
            return j

        def outer(k):
            return sum(lanes.run_lanes(inner, 5))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _with_lanes(8):
                assert lanes.run_lanes(outer, 30) == [10] * 30
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) == 150 and max(seen) <= 7
        assert lanes._helpers == 0

    @pytest.mark.parametrize("cpus, trials, helpers", [(2, 1, 1), (2, 2, 1), (1, 1, 0), (1, 2, 0)])
    def test_running_baseline_never_oversubscribes(self, cpus, trials, helpers):
        # at hop 0.01 s a 16 s scan is about 19 CCF chunks: one trial lends
        # the idle CPU to them, two trials hold both CPUs and scan inline
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            return start(thread)

        cfg = ScenarioConfig(name="running-baseline", trials=trials,
                             options={"duration": 16.0, "hop": 0.01})
        with _with_lanes(cpus), mock.patch.object(threading.Thread, "start", counting_start):
            run_scenario(cfg)
        assert len(started) == helpers
        assert lanes._helpers == 0

    # glibc's <malloc.h>: M_ARENA_MAX, M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
    KEEP_FREED_HEAP = [(-8, 1), (-3, 32 * 1024 * 1024), (-1, 64 * 1024 * 1024)]

    @staticmethod
    def _fake_c_library(monkeypatch, version, *, with_mallopt=True):
        """A fresh process as far as the allocator set-up goes, on a C library
        that reports ``version`` and records its ``mallopt`` calls."""
        calls = []

        def mallopt(param, value):
            assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
            calls.append((param, value, lanes._budget_lock.locked()))
            return 1

        class FakeLibc:
            if with_mallopt:
                def __init__(self):
                    self.mallopt = mallopt

        confstr = os.confstr

        def fake_confstr(name):
            if name == "CS_GNU_LIBC_VERSION":
                if isinstance(version, Exception):
                    raise version
                return version
            return confstr(name)

        monkeypatch.setattr(lanes, "_heap_kept", False)
        monkeypatch.setattr(os, "confstr", fake_confstr)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: FakeLibc())
        return calls

    def test_first_call_keeps_freed_heap_once(self, monkeypatch):
        calls = self._fake_c_library(monkeypatch, "glibc 2.36")
        with _with_lanes(2):
            assert lanes.run_lanes(lambda k: k, 3) == [0, 1, 2]
            assert calls == [(p, v, True) for p, v in self.KEEP_FREED_HEAP]
            assert lanes.run_lanes(lambda k: k, 3) == [0, 1, 2]
            monte_carlo(lambda k, seed: TrialReport(trial_index=k, seed=seed), 2, seed_base=1)
        assert len(calls) == 3

    @pytest.mark.parametrize("version", [None, "", ValueError("unrecognized configuration name")],
                             ids=["unset", "empty", "unknown-name"])
    def test_no_mallopt_without_glibc(self, monkeypatch, version):
        calls = self._fake_c_library(monkeypatch, version)
        monkeypatch.setattr(ctypes, "CDLL",
                            mock.Mock(side_effect=AssertionError("C library opened")))
        with _with_lanes(2):
            assert lanes.run_lanes(lambda k: k, 3) == [0, 1, 2]
        assert calls == []

    def test_no_mallopt_in_the_c_library(self, monkeypatch):
        calls = self._fake_c_library(monkeypatch, "glibc 2.36", with_mallopt=False)
        with _with_lanes(2):
            assert lanes.run_lanes(lambda k: k, 3) == [0, 1, 2]
        assert calls == []


class TestScenarioRegistry:
    def test_ten_scenarios(self):
        assert set(SCENARIO_NAMES) == EXPECTED_NAMES
        assert len(SCENARIO_NAMES) == 10

    def test_descriptions_cover_all(self):
        desc = scenario_descriptions()
        assert set(desc) == EXPECTED_NAMES
        assert all(desc.values())

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValidationError):
            ScenarioConfig(name="mf-unknown")


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
def test_scenario_smoke_and_determinism(name, tmp_path):
    cfg = ScenarioConfig(name=name, trials=2, seed_base=314,
                         options=FAST_OPTIONS.get(name, {}))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    res_a = run_scenario(cfg, out_dir=out_a)
    res_b = run_scenario(cfg, out_dir=out_b)
    assert res_a.summary["scenario"] == name
    assert res_a.summary["schema"] == "gwxlab-summary v1"
    for f in out_a.iterdir():
        twin = out_b / f.name
        assert twin.exists()
        assert f.read_bytes() == twin.read_bytes(), f.name
    assert (out_a / "summary.json").exists()
    assert (out_a / "trials.csv").exists()


def test_verdicts_recomputable_from_csv(tmp_path):
    cfg = ScenarioConfig(name="mf-bogus", trials=4, seed_base=11)
    res = run_scenario(cfg, out_dir=tmp_path)
    rows = (tmp_path / "trials.csv").read_text().splitlines()
    header = rows[0].split(",")
    i_rho = header.index("peak_rho")
    i_fired = header.index("fired")
    for line in rows[1:]:
        cells = line.split(",")
        fired = cells[i_fired] == "true"
        assert fired == (float(cells[i_rho]) > res.summary["thresholds"]["snr"])


def test_ccf_verdicts_recomputable_from_csv(tmp_path):
    cfg = ScenarioConfig(name="h1l1-ccf", trials=6, seed_base=12)
    res = run_scenario(cfg, out_dir=tmp_path)
    rows = (tmp_path / "trials.csv").read_text().splitlines()
    header = rows[0].split(",")
    i_r3 = header.index("r3")
    i_peaky = header.index("peaky")
    for line in rows[1:]:
        cells = line.split(",")
        peaky = cells[i_peaky] == "true"
        assert peaky == (float(cells[i_r3]) < res.summary["thresholds"]["r3"])


def test_emit_report_empty_rejected(tmp_path):
    cfg = ScenarioConfig(name="mf-bogus", trials=1)
    bad = ScenarioResult(config=cfg, trials=[], summary={}, figures={})
    with pytest.raises(ValidationError):
        emit_report(bad, tmp_path)


def test_emit_report_single_trial_row(tmp_path):
    cfg = ScenarioConfig(name="circular-artifact", trials=1, seed_base=7)
    run_scenario(cfg, out_dir=tmp_path)
    rows = (tmp_path / "trials.csv").read_text().splitlines()
    assert len(rows) == 2  # header + one data row


def test_scenario_trial_seeds_independent_of_count():
    cfg2 = ScenarioConfig(name="h1l1-ccf", trials=2, seed_base=99)
    cfg4 = ScenarioConfig(name="h1l1-ccf", trials=4, seed_base=99)
    res2 = run_scenario(cfg2)
    res4 = run_scenario(cfg4)
    for a, b in zip(res2.trials, res4.trials[:2]):
        assert a == b


def test_misfire_reports_both_statistics():
    cfg = ScenarioConfig(name="mf-sine-misfire", trials=2, seed_base=5,
                         options=FAST_OPTIONS["mf-sine-misfire"])
    res = run_scenario(cfg)
    assert "fired_fraction_chi2" in res.summary
    for r in res.trials:
        assert "peak_rho_chi2" in r.extras
        assert r.extras["peak_rho_chi2"] <= r.peak_rho + 1e-12


def test_h1l1_ccf_file_inputs(tmp_path):
    model = default_detector_model()
    inputs = {}
    for key, seed in (("strain_a", 1), ("strain_b", 2)):
        inputs[key] = str(tmp_path / f"{key}.gwx")
        save_strain(colored_noise(model, 4.0, 4096.0, seed=seed), inputs[key])
    cfg = ScenarioConfig(name="h1l1-ccf", trials=3, seed_base=5, inputs=inputs)
    res = run_scenario(cfg, out_dir=tmp_path / "a")
    run_scenario(cfg, out_dir=tmp_path / "b")
    assert len(res.trials) == 1
    assert res.trials[0].seed == cfg.seed_base
    assert res.summary["trials"] == 1
    assert res.summary["inputs"] == "files"
    for f in (tmp_path / "a").iterdir():
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes(), f.name


def test_h1l1_ccf_file_mode_whitens_on_each_file_grid(tmp_path):
    # files of different lengths, one odd: each is whitened against the
    # model evaluated on its own rfft grid
    model = default_detector_model()
    strains, inputs = [], {}
    for key, seed, duration in (("strain_a", 1, 4.0), ("strain_b", 2, 4.0 + 1 / 4096.0)):
        strains.append(colored_noise(model, duration, 4096.0, seed=seed))
        inputs[key] = str(tmp_path / f"{key}.gwx")
        save_strain(strains[-1], inputs[key])
    res = run_scenario(ScenarioConfig(name="h1l1-ccf", seed_base=5, inputs=inputs))
    event_at = res.summary["event_at_s"]
    windows = []
    for ts in strains:
        white = whiten_full(ts, model.to_power_spectrum(ts.fs / ts.n, ts.n // 2 + 1))
        windows.append(slice_window(butterworth_bandpass(white, 43.0, 300.0), event_at, 0.2))
    want = normalized_ccf(*windows, max_lag=0.1)
    lags, values = res.figures["ccf.csv"][1].columns
    assert values.tobytes() == want.values.tobytes() and lags.tobytes() == want.lags.tobytes()


def test_h1l1_ccf_whitening_flattens_the_mains_lines():
    # on a 1 Hz grid the 0.5 Hz-wide lines come out at a mean power of
    # about 1.22-1.27; on the series' own grid they are whitened
    model = default_detector_model()
    power = {(59.0, 61.0): [], (119.0, 121.0): []}
    for seed in range(20):
        ts = colored_noise(model, 32.0, 4096.0, seed=seed)
        white = scenarios._whiten_and_band(ts, model, (43.0, 300.0))
        spec = np.abs(np.fft.rfft(white.samples)) ** 2 / white.n
        f = np.fft.rfftfreq(white.n, 1.0 / white.fs)
        for (lo, hi), acc in power.items():
            acc.append(spec[(f >= lo) & (f <= hi)])
    for band, acc in power.items():
        assert np.mean(np.concatenate(acc)) == pytest.approx(1.0, abs=0.05), band


def test_failed_trial_names_the_seed_base(tmp_path):
    inputs = {}
    for key in ("strain_a", "strain_b"):
        inputs[key] = str(tmp_path / f"{key}.gwx")
        save_strain(TimeSeries(4096.0, 0.0, np.zeros(4 * 4096)), inputs[key])
    cfg = ScenarioConfig(name="h1l1-ccf", trials=1, seed_base=5, inputs=inputs)
    with pytest.raises(DegeneracyError, match=r"trial 0 \(seed_base 5\) failed"):
        run_scenario(cfg)

def test_emit_report_rejects_non_finite_summary(tmp_path):
    cfg = ScenarioConfig(name="mf-bogus", trials=1)
    bad = ScenarioResult(config=cfg, trials=[TrialReport(trial_index=0, seed=1)],
                         summary={"x": math.nan}, figures={})
    with pytest.raises(ValidationError, match="'x'"):
        emit_report(bad, tmp_path)
    assert not (tmp_path / "summary.json").exists()


# one value of the wrong kind for each option kind the checker knows
WRONG_KIND = {
    "float": "x",
    "Positive": 0,
    "int": 1.5,
    "str": 5,
    "tuple[float, float]": [43.0],
    "list[tuple[float, float]]": 5,
}


def _run_cli(tmp_path, name, config) -> int:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return main(["scenario", "run", name, "--trials", "1", "--config", str(path),
                 "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
class TestOptionChecker:
    def test_misspelt_option_exits_2(self, name, tmp_path, capsys):
        options = scenarios.scenario_options(name)
        key = next(iter(options)) + "x"
        assert _run_cli(tmp_path, name, {"options": {key: 1.0}}) == 2
        err = capsys.readouterr().err
        assert repr(key) in err and repr(sorted(options)) in err

    def test_misspelt_input_exits_2(self, name, tmp_path, capsys):
        assert _run_cli(tmp_path, name, {"inputs": {"templat": "tpl"}}) == 2
        err = capsys.readouterr().err
        assert "'templat'" in err and repr(sorted(scenarios.SCENARIOS[name][1])) in err

    def test_wrong_kind_exits_2(self, name, tmp_path, capsys):
        for key, param in scenarios.scenario_options(name).items():
            kind = param.annotation.removesuffix(" | None")
            assert _run_cli(tmp_path, name, {"options": {key: WRONG_KIND[kind]}}) == 2, key
            assert f"option {key!r} must be" in capsys.readouterr().err

    def test_annotations_known_and_defaults_fit(self, name):
        options = scenarios.scenario_options(name)
        assert options
        for key, param in options.items():
            assert param.annotation.removesuffix(" | None") in WRONG_KIND, key
            ScenarioConfig(name=name, options={key: param.default})

    def test_explicit_defaults_give_identical_reports(self, name, tmp_path):
        fast = FAST_OPTIONS.get(name, {})
        defaults = {key: param.default
                    for key, param in scenarios.scenario_options(name).items()}
        explicit = json.loads(json.dumps({**defaults, **fast}))  # as a config file has them
        run_scenario(ScenarioConfig(name=name, trials=1, seed_base=8, options=fast),
                     out_dir=tmp_path / "implicit")
        run_scenario(ScenarioConfig(name=name, trials=1, seed_base=8, options=explicit),
                     out_dir=tmp_path / "explicit")
        for f in (tmp_path / "implicit").iterdir():
            assert f.read_bytes() == (tmp_path / "explicit" / f.name).read_bytes(), f.name


def test_awgn_misfire_rejects_sine_burst_option():
    assert "burst_f0" in scenarios.scenario_options("mf-sine-misfire")
    with pytest.raises(ValidationError, match="has no option 'burst_f0'"):
        ScenarioConfig(name="mf-awgn-misfire", options={"burst_f0": 64.0})


@pytest.mark.parametrize("key", ["strain_a", "strain_b"])
def test_h1l1_ccf_needs_both_strain_files(key, tmp_path, capsys):
    path = tmp_path / "x.gwx"
    save_strain(TimeSeries(4096.0, 0.0, np.ones(4096)), path)
    assert _run_cli(tmp_path, "h1l1-ccf", {"inputs": {key: str(path)}}) == 2
    err = capsys.readouterr().err
    assert "'strain_a'" in err and "'strain_b'" in err
