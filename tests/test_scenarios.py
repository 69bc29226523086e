import math

import numpy as np
import pytest

from gwxlab import (
    DegeneracyError,
    FalseAlarmParams,
    GwxError,
    SCENARIO_NAMES,
    ScenarioConfig,
    TrialReport,
    ValidationError,
    colored_noise,
    default_detector_model,
    emit_report,
    false_alarm_rate,
    monte_carlo,
    run_scenario,
    save_strain,
    scenario_descriptions,
)
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
        assert fired == (float(cells[i_rho]) > res.config.snr_threshold)


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
        assert peaky == (float(cells[i_r3]) < res.config.r3_threshold)


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


def test_emit_report_rejects_non_finite_summary(tmp_path):
    cfg = ScenarioConfig(name="mf-bogus", trials=1)
    bad = ScenarioResult(config=cfg, trials=[TrialReport(trial_index=0, seed=1)],
                         summary={"x": math.nan}, figures={})
    with pytest.raises(ValidationError, match="'x'"):
        emit_report(bad, tmp_path)
    assert not (tmp_path / "summary.json").exists()
