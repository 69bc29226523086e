"""Monte-Carlo scenario harness: seeded experiments, aggregation, reports.

Each scenario reproduces one experiment family on synthetic data: matched
filter misfires on low-amplitude bursts, bogus-template firing, CCF null
tests between independent detectors, reference systems with a common
waveform, window-length comparison, whitening distortion, running-window
noise baselines, and the circular-convolution artifact witness.

Every scenario is deterministic given ``seed_base``: trial k derives its
seed with :func:`gwxlab.rng.derive_seed`, so aggregation is order-free
and re-runs emit byte-identical reports.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .conditioning import butterworth_bandpass, detect_lines, whiten_full, whiten_localized
from .detection import (
    MfConfig,
    R3_THRESHOLD,
    SNR_THRESHOLD,
    _check_hop,
    ccf_decorrelation_time,
    decorrelation_time,
    matched_filter,
    normalized_ccf,
    running_window_ccf,
    sigma_norm,
)
from .errors import GwxError, ValidationError
from .lanes import run_lanes
from .rng import derive_seed, rng_for
from .series import (PowerSpectrum, TimeSeries, _finite, _json_text, _median, _samples,
                     _write_csv, _write_json, load_strain, slice_window)
from .simulation import (
    BurstSpec,
    PsdLine,
    PsdModel,
    _model_psd,
    burst,
    colored_noise,
    default_detector_model,
    inject,
    line_interference,
)
from .templates import BogusSpec, load_template, make_bogus, stock_template, template_error

__all__ = [
    "ScenarioConfig",
    "TrialReport",
    "ScenarioResult",
    "FalseAlarmParams",
    "SCENARIO_NAMES",
    "scenario_descriptions",
    "scenario_options",
    "run_scenario",
    "monte_carlo",
    "emit_report",
    "false_alarm_rate",
]

SUMMARY_SCHEMA = "gwxlab-summary v1"


@dataclass(frozen=True)
class ScenarioConfig:
    """One reproducible scenario invocation.

    ``options`` overrides the knobs in :func:`scenario_options`; ``inputs``
    points at optional external files (e.g. a real template basename under
    key ``template``).  Unread keys and wrong-kind option values are rejected.
    """

    name: str
    trials: int = 100
    seed_base: int = 20250809
    fs: float = 4096.0
    options: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in SCENARIOS:
            raise ValidationError(
                f"unknown scenario {self.name!r}; pick one of {sorted(SCENARIOS)}"
            )
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        if self.fs <= 0:
            raise ValidationError("fs must be positive")
        params = scenario_options(self.name)
        for key, value in self.options.items():
            if key not in params:
                raise ValidationError(f"scenario {self.name!r} has no option {key!r}; "
                                      f"its options are {sorted(params)}")
            kind = params[key].annotation  # "X | None" also takes null
            fits, what = _OPTION_KINDS[kind.removesuffix(" | None")]
            if not (fits(value) or (value is None and kind.endswith(" | None"))):
                raise ValidationError(f"option {key!r} must be {what}, got {value!r}")
        inputs = SCENARIOS[self.name][1]
        for key in self.inputs:
            if key not in inputs:
                raise ValidationError(f"scenario {self.name!r} reads no input {key!r}; "
                                      f"its inputs are {sorted(inputs)}")


# a float option that must be > 0: annotating it ``Positive`` selects that check
Positive = float

# annotation -> (test, what a value must be); a list's pairs are checked where read
_OPTION_KINDS = {
    "float": (_finite, "a finite number"),
    "Positive": (lambda v: _finite(v) and v > 0, "a positive finite number"),
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple[float, float]": (lambda v: isinstance(v, (list, tuple)) and len(v) == 2
                            and all(map(_finite, v)), "a pair [f_lo, f_hi] of numbers"),
    "list[tuple[float, float]]": (lambda v: isinstance(v, (list, tuple)),
                                  "a list of [start, end] pairs"),
}


@dataclass(frozen=True)
class TrialReport:
    """Per-trial record; NaN marks statistics a scenario does not produce."""

    trial_index: int
    seed: int
    peak_rho: float = math.nan
    peak_abs_ccf: float = math.nan
    r3: float = math.nan
    fired: bool | None = None
    peaky: bool | None = None
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ScenarioResult:
    config: ScenarioConfig
    trials: list[TrialReport]
    summary: dict
    figures: dict


@dataclass(frozen=True)
class FalseAlarmParams:
    """Inputs to the background-coincidence false-alarm probability."""

    n_b: float
    T: float
    T_b: float

    def __post_init__(self):
        if self.n_b < 0:
            raise ValidationError("n_b must be nonnegative")
        if self.T <= 0 or self.T_b <= 0:
            raise ValidationError("T and T_b must be positive")


def false_alarm_rate(p: FalseAlarmParams) -> float:
    """Closed form ``1 - exp(-(T / T_b) * (1 + n_b))``."""
    return 1.0 - math.exp(-(p.T / p.T_b) * (1.0 + p.n_b))


# ---------------------------------------------------------------------------
# aggregation


def _quantiles(values: list[float]) -> dict | None:
    """The 5/50/95% quantiles of the non-NaN ``values``, bit for bit those of
    ``np.quantile``'s linear method, whose first call in a process imports
    ``numpy.ma``: the same ranks from one ``np.partition`` with numpy's kth
    list (``np.unique`` of it would import ``numpy.ma`` too), then numpy's
    interpolation, which takes ``b - d * (1 - t)`` from the upper rank where
    ``t >= 0.5``."""
    arr = np.array([v for v in values if not math.isnan(v)])
    if arr.size == 0:
        return None
    virtual = (arr.size - 1) * np.array([0.05, 0.5, 0.95])
    prev = np.floor(virtual)
    nxt = prev + 1
    top = virtual >= arr.size - 1  # a single value: every quantile is it
    prev[top] = nxt[top] = -1
    prev, nxt = prev.astype(np.intp), nxt.astype(np.intp)
    part = np.partition(arr, sorted({0, -1, *prev.tolist(), *nxt.tolist()}))
    a, b = part[prev], part[nxt]
    t = virtual - prev
    d = b - a
    q = a + d * t
    np.subtract(b, d * (1 - t), out=q, where=t >= 0.5)
    return {"p5": float(q[0]), "p50": float(q[1]), "p95": float(q[2])}


def _fraction(flags: list[bool | None]) -> float | None:
    present = [f for f in flags if f is not None]
    if not present:
        return None
    return sum(present) / len(present)


def monte_carlo(trial_fn, trials: int, seed_base: int, name: str = "scenario"):
    """Run seeded trials and aggregate order-independent statistics.

    ``trial_fn(trial_index, seed)`` returns a :class:`TrialReport`.
    Returns ``(reports, stats)`` where stats holds fired/peaky fractions
    and 5/50/95% quantiles of the peak statistics.

    Trials run on the lanes of :func:`gwxlab.lanes.run_lanes`: the
    calling thread plus one helper per idle CPU, up to the trial count,
    so a one-trial run starts no thread and leaves the idle CPUs to the
    CCF chunks of its scan.  Each trial is a pure function of its index
    and derived seed, and reports are collected in trial order, so the
    output does not depend on the CPU count.  A failing trial raises
    what the sequential loop would: the first failure in index order.
    Each concurrent 32 s matched-filter trial holds about 7 MiB.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")

    def run(k: int) -> TrialReport:
        try:
            return trial_fn(k, derive_seed(seed_base, k))
        except GwxError as exc:
            # same class, so the CLI still tells bad input from degenerate data
            raise type(exc)(f"{name}: trial {k} (seed_base {seed_base}) failed: {exc}") from exc

    reports: list[TrialReport] = run_lanes(run, trials)
    stats = {
        "trials": trials,
        "fired_fraction": _fraction([r.fired for r in reports]),
        "peaky_fraction": _fraction([r.peaky for r in reports]),
        "peak_rho_quantiles": _quantiles([r.peak_rho for r in reports]),
        "peak_ccf_quantiles": _quantiles([r.peak_abs_ccf for r in reports]),
    }
    return reports, stats


# ---------------------------------------------------------------------------
# shared scenario pieces


def _whiten_and_band(ts: TimeSeries, model: PsdModel, band) -> TimeSeries:
    """Whiten against ``model`` on ``ts``'s own rfft grid, then band-pass."""
    return butterworth_bandpass(whiten_full(ts, _model_psd(model, ts.n, ts.fs)), *band)


def _template_for(cfg: ScenarioConfig, template_kind: str):
    basename = cfg.inputs.get("template")
    if basename:
        return load_template(basename), True
    return stock_template(template_kind, cfg.fs), False


class _Columns:
    """A figure table kept as its columns until :func:`emit_report` formats
    them; it still iterates as row tuples."""

    def __init__(self, *columns):
        self.columns = columns

    def __len__(self) -> int:
        return min(map(len, self.columns))

    def __iter__(self):
        return zip(*(np.asarray(col).tolist() for col in self.columns))


def _write_figure(path: str, figure: tuple[list[str], _Columns]) -> None:
    header, table = figure
    _write_csv(path, header, table.columns)


class _TimeColumn:
    """An SNR series' ``times()`` as a figure column, made a slice at a time
    as the writer asks: ``t0 + np.arange(a, b) / fs`` holds the bits of
    ``times()[a:b]`` without the full-length array."""

    def __init__(self, snr):
        self.t0, self.fs, self.n = snr.t0, snr.fs, snr.rho.size

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, rows: slice) -> np.ndarray:
        a, b, _ = rows.indices(self.n)
        return self.t0 + np.arange(a, b) / self.fs

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self[:], dtype=dtype)


def _snr_figure(snr) -> tuple[list[str], _Columns]:
    return ["t_s", "rho", "rho_reweighted"], _Columns(_TimeColumn(snr), snr.rho,
                                                       snr.rho_reweighted)


def _ccf_figure(ccf) -> tuple[list[str], _Columns]:
    return ["lag_s", "ccf"], _Columns(ccf.lags, ccf.values)


def _running_figure(scan) -> tuple[list[str], _Columns]:
    return ["t_start_s", "peak_abs_ccf", "r3"], _Columns(scan.t_start, scan.peak_abs_ccf,
                                                          scan.r3)


def _misfire_scenario(cfg: ScenarioConfig, spec: BurstSpec, *,
                      block_len: Positive = 32.0, template_kind: str = "gw150914",
                      chi2_bins: int | None = 16, mf_mode: str = "circular",
                      band: tuple[float, float] | None = None,
                      burst_at: float = 15.5) -> ScenarioResult:
    """Low-amplitude burst against the chirp template, 32 s blocks.

    The two misfire scenarios build the burst's ``spec`` from their burst
    options, before any trial, and pass it and the shared options on; each
    trial draws its burst with a seed derived from its own (a sine ignores it).
    The verdict statistic is the plain peak SNR (reweighting disabled in
    this scenario's detection config): the chi-squared consistency veto,
    kept as a diagnostic, suppresses narrowband bursts so strongly that the
    misfire would be invisible through it.  ``fired_fraction_chi2`` in the
    summary reports the vetoed variant.
    """
    if not 0.0 <= burst_at <= block_len - spec.duration:
        raise ValidationError(f"option 'burst_at' must lie in [0, block_len - burst_duration]"
                              f" = [0, {block_len - spec.duration}] s, got {burst_at!r}")
    model = _psd_model(cfg)
    tpl, _ = _template_for(cfg, template_kind)
    psd = _model_psd(model, _samples(block_len, cfg.fs, "option 'block_len'"), cfg.fs)
    mf_cfg = MfConfig(block_len=block_len, mode=mf_mode, reweight_bins=chi2_bins, band=band)
    first_fig = {}

    def trial(k: int, seed: int) -> TrialReport:
        noise = colored_noise(model, block_len, cfg.fs, seed=seed)
        strain = inject(noise, burst(replace(spec, seed=derive_seed(seed, 0xB0B)), noise),
                        burst_at)
        del noise  # the strain holds its own copy
        snr = matched_filter(strain, tpl.base, psd, mf_cfg)
        peak_plain = float(np.max(snr.rho))
        peak_chi2 = float(np.max(snr.rho_reweighted))
        if k == 0:
            first_fig["snr.csv"] = _snr_figure(snr)
        return TrialReport(
            trial_index=k, seed=seed,
            peak_rho=peak_plain,
            fired=peak_plain > SNR_THRESHOLD,
            extras={"peak_rho_chi2": peak_chi2,
                    "fired_chi2": peak_chi2 > SNR_THRESHOLD},
        )

    reports, stats = monte_carlo(trial, cfg.trials, cfg.seed_base, cfg.name)
    stats["fired_fraction_chi2"] = _fraction([r.extras["fired_chi2"] for r in reports])
    stats["reweighting"] = "off (verdict); chi2 diagnostic in extras"
    stats["chi2_bins"] = chi2_bins
    return ScenarioResult(cfg, reports, stats, first_fig)


def _psd_model(cfg: ScenarioConfig) -> PsdModel:
    path = cfg.inputs.get("psd_model")
    if path:
        return PsdModel.load(path)
    return default_detector_model()


def _scenario_mf_sine(cfg: ScenarioConfig, *, burst_duration: Positive = 1.0,
                      sigma_ratio: Positive = 0.01, burst_f0: Positive = 64.0,
                      decay_tau: Positive | None = 0.25, **shared) -> ScenarioResult:
    return _misfire_scenario(cfg, BurstSpec(kind="sine_decay", duration=burst_duration,
                                            sigma_ratio=sigma_ratio, f0=burst_f0,
                                            decay_tau=decay_tau), **shared)


def _scenario_mf_awgn(cfg: ScenarioConfig, *, burst_duration: Positive = 1.0,
                      sigma_ratio: Positive = 0.002, **shared) -> ScenarioResult:
    return _misfire_scenario(cfg, BurstSpec(kind="awgn", duration=burst_duration,
                                            sigma_ratio=sigma_ratio), **shared)


def _scenario_mf_bogus(cfg: ScenarioConfig, *, template_kind: str = "gw150914",
                       block_len: Positive = 4.0, ideal_rho: float = 20.0,
                       sigma_phase: float = 1.0,
                       chi2_bins: int | None = 16) -> ScenarioResult:
    """Bogus chirp templates injected into white noise, filtered against
    the ideal template with the chi-squared veto active."""
    tpl, _ = _template_for(cfg, template_kind)
    n = _samples(block_len, cfg.fs, "option 'block_len'")
    psd = PowerSpectrum(df=1.0, values=np.full(int(cfg.fs / 2) + 1, 2.0 / cfg.fs))
    amp = ideal_rho / math.sqrt(sigma_norm(tpl.base, psd))
    mf_cfg = MfConfig(block_len=block_len, mode="circular", reweight_bins=chi2_bins)
    t_at = block_len / 2.0
    figures = {}

    def trial(k: int, seed: int) -> TrialReport:
        noise = TimeSeries(cfg.fs, 0.0, rng_for(seed).standard_normal(n))
        bogus = make_bogus(tpl, BogusSpec(sigma_phase=sigma_phase,
                                          seed=derive_seed(seed, 0xB06)))
        _, rel = template_error(tpl.base, bogus)
        strain = inject(noise, bogus.with_samples(amp * bogus.samples), t_at)
        snr = matched_filter(strain, tpl.base, psd, mf_cfg)
        peak = snr.peak.value
        if k == 0:
            err, _ = template_error(tpl.base, bogus)
            t = tpl.base.times()
            figures["templates.csv"] = (
                ["t_s", "ideal", "bogus", "error"],
                _Columns(t, tpl.base.samples, bogus.samples, err.samples),
            )
            figures["snr.csv"] = _snr_figure(snr)
        return TrialReport(trial_index=k, seed=seed, peak_rho=float(peak),
                           fired=peak > SNR_THRESHOLD,
                           extras={"rel_l2_vs_ideal": rel})

    reports, stats = monte_carlo(trial, cfg.trials, cfg.seed_base, cfg.name)
    stats["sigma_phase"] = sigma_phase
    stats["mean_rel_l2_vs_ideal"] = float(
        np.mean([r.extras["rel_l2_vs_ideal"] for r in reports]))
    return ScenarioResult(cfg, reports, stats, figures)


def _scenario_ccf_bogus(cfg: ScenarioConfig, *, template_kind: str = "gw151226",
                        sigma_phase: float = 0.7, noise_ratio: float = 0.5,
                        max_lag: Positive | None = None) -> ScenarioResult:
    """Short-window CCF of a noisy bogus template against the ideal one."""
    tpl, _ = _template_for(cfg, template_kind)
    tau0 = decorrelation_time(tpl.base)
    max_lag = 0.9 * tpl.base.duration if max_lag is None else max_lag
    figures = {}

    def trial(k: int, seed: int) -> TrialReport:
        bogus = make_bogus(tpl, BogusSpec(sigma_phase=sigma_phase,
                                          seed=derive_seed(seed, 0xB06)))
        _, rel = template_error(tpl.base, bogus)
        rms = float(np.sqrt(np.mean(bogus.samples**2)))
        noise = rng_for(seed).standard_normal(bogus.n) * noise_ratio * rms
        observed = bogus.with_samples(bogus.samples + noise)
        ccf = normalized_ccf(observed, tpl.base, max_lag=max_lag, tau0=tau0)
        if k == 0:
            figures["ccf.csv"] = _ccf_figure(ccf)
        return TrialReport(trial_index=k, seed=seed,
                           peak_abs_ccf=ccf.peak_abs, r3=ccf.r3, peaky=ccf.peaky,
                           extras={"rel_l2_vs_ideal": rel})

    reports, stats = monte_carlo(trial, cfg.trials, cfg.seed_base, cfg.name)
    stats["sigma_phase"] = sigma_phase
    stats["tau0_template_s"] = tau0
    return ScenarioResult(cfg, reports, stats, figures)


def _scenario_h1l1_ccf(cfg: ScenarioConfig, *, window: Positive = 0.2,
                       max_lag: Positive | None = None,
                       band: tuple[float, float] = (43.0, 300.0),
                       event_at: float | None = None) -> ScenarioResult:
    """Cross-detector CCF over the event window.

    Default mode is the null test: two independent synthetic noise
    windows, whitened and band-passed, correlated per trial.  When
    ``inputs`` provides ``strain_a`` and ``strain_b`` files, those are
    conditioned the same way and the window at ``event_at`` is compared
    instead (one evaluation per file pair).
    """
    files = [key for key in ("strain_a", "strain_b") if key in cfg.inputs]
    if len(files) == 1:
        raise ValidationError(f"inputs 'strain_a' and 'strain_b' go together; got {files}")
    model = _psd_model(cfg)
    max_lag = window / 2.0 if max_lag is None else max_lag
    figures = {}

    def correlate(k: int, seed: int, wa: TimeSeries, wb: TimeSeries) -> TrialReport:
        ccf = normalized_ccf(wa, wb, max_lag=max_lag)
        if k == 0:
            figures["ccf.csv"] = _ccf_figure(ccf)
        return TrialReport(trial_index=k, seed=seed,
                           peak_abs_ccf=ccf.peak_abs, r3=ccf.r3, peaky=ccf.peaky)

    if files:
        a = load_strain(cfg.inputs["strain_a"])
        b = load_strain(cfg.inputs["strain_b"])
        event_at = a.t0 + a.duration / 2.0 - window / 2.0 if event_at is None else event_at

        def trial(k: int, seed: int) -> TrialReport:
            # one evaluation of the file pair, recorded at seed_base
            return correlate(k, cfg.seed_base,
                             slice_window(_whiten_and_band(a, model, band), event_at, window),
                             slice_window(_whiten_and_band(b, model, band), event_at, window))

        reports, stats = monte_carlo(trial, 1, cfg.seed_base, cfg.name)
        stats.update(inputs="files", event_at_s=event_at)
        return ScenarioResult(cfg, reports, stats, figures)

    def trial(k: int, seed: int) -> TrialReport:
        a = colored_noise(model, window, cfg.fs, seed=derive_seed(seed, 1))
        b = colored_noise(model, window, cfg.fs, seed=derive_seed(seed, 2))
        return correlate(k, seed, _whiten_and_band(a, model, band),
                         _whiten_and_band(b, model, band))

    reports, stats = monte_carlo(trial, cfg.trials, cfg.seed_base, cfg.name)
    return ScenarioResult(cfg, reports, stats, figures)


def _scenario_ref_systems(cfg: ScenarioConfig, *, template_kind: str = "gw150914",
                          noise_ratio: float = 0.5, band: tuple[float, float] = (43.0, 300.0),
                          max_lag: Positive | None = None) -> ScenarioResult:
    """Reference systems: the template correlated with itself (A), with
    white noise added on both sides (1), and with detector-like noise
    added on both sides (2)."""
    tpl, from_file = _template_for(cfg, template_kind)
    model = _psd_model(cfg)
    h = tpl.base.samples
    hrms = float(np.sqrt(np.mean(h**2)))
    tau0 = decorrelation_time(tpl.base)
    max_lag = 0.95 * tpl.base.duration if max_lag is None else max_lag
    self_ccf = normalized_ccf(tpl.base, tpl.base, max_lag=max_lag, tau0=tau0)
    figures = {"ccf.csv": _ccf_figure(self_ccf)}

    def trial(k: int, seed: int) -> TrialReport:
        fs = tpl.fs
        g1 = rng_for(derive_seed(seed, 1)).standard_normal(h.size)
        g2 = rng_for(derive_seed(seed, 2)).standard_normal(h.size)
        a1 = TimeSeries(fs, 0.0, h + noise_ratio * hrms * g1)
        b1 = TimeSeries(fs, 0.0, h + noise_ratio * hrms * g2)
        sys1 = normalized_ccf(a1, b1, max_lag=max_lag, tau0=tau0)
        tau1 = ccf_decorrelation_time(sys1)
        na = _whiten_and_band(
            colored_noise(model, tpl.base.duration, fs, seed=derive_seed(seed, 3)), model, band)
        nb = _whiten_and_band(
            colored_noise(model, tpl.base.duration, fs, seed=derive_seed(seed, 4)), model, band)
        unit = h / hrms
        a2 = TimeSeries(fs, 0.0, unit + noise_ratio * na.samples / np.std(na.samples))
        b2 = TimeSeries(fs, 0.0, unit + noise_ratio * nb.samples / np.std(nb.samples))
        sys2 = normalized_ccf(a2, b2, max_lag=max_lag, tau0=tau0)
        tau2 = ccf_decorrelation_time(sys2)
        return TrialReport(trial_index=k, seed=seed,
                           peak_abs_ccf=sys1.peak_abs, r3=sys1.r3, peaky=sys1.peaky,
                           extras={"tau1_s": tau1, "tau2_s": tau2,
                                   "peak_abs_ccf_sys2": sys2.peak_abs,
                                   "r3_sys2": sys2.r3,
                                   "peaky_sys2": sys2.peaky})

    reports, stats = monte_carlo(trial, cfg.trials, cfg.seed_base, cfg.name)
    stats["template_source"] = "file" if from_file else "stock"
    stats["tau0_template_s"] = tau0
    stats["self_ccf_peak"] = self_ccf.peak_abs
    stats["self_ccf_r3"] = self_ccf.r3
    stats["mean_tau1_s"] = float(np.mean([r.extras["tau1_s"] for r in reports]))
    stats["mean_tau2_s"] = float(np.mean([r.extras["tau2_s"] for r in reports]))
    stats["peaky_fraction_sys2"] = _fraction([r.extras["peaky_sys2"] for r in reports])
    return ScenarioResult(cfg, reports, stats, figures)


def _scenario_window_compare(cfg: ScenarioConfig, *, template_kind: str = "gw150914",
                             band: tuple[float, float] = (43.0, 300.0),
                             long_window: Positive = 20.0, amp_rel: float = 1.5,
                             long_max_lag: Positive = 1.0) -> ScenarioResult:
    """Event-duration window versus a 20 s window for the same injection."""
    tpl, _ = _template_for(cfg, template_kind)
    model = _psd_model(cfg)
    span = long_window + 1.0
    event = tpl.base.duration
    t_inj = span / 2.0
    host = TimeSeries(cfg.fs, 0.0, np.zeros(_samples(span, cfg.fs, "option 'long_window' + 1 s")))
    processed_tpl_full = _whiten_and_band(inject(host, tpl.base, t_inj), model, band)
    short_ref = slice_window(processed_tpl_full, t_inj, event)
    tau0 = decorrelation_time(short_ref)
    long_start = t_inj - long_window / 2.0
    long_ref = slice_window(processed_tpl_full, long_start, long_window)
    figures = {}

    def trial(k: int, seed: int) -> TrialReport:
        noise = _whiten_and_band(colored_noise(model, span, cfg.fs, seed=seed), model, band)
        scale = amp_rel * float(np.std(noise.samples)) / float(np.std(short_ref.samples))
        strain = noise.with_samples(noise.samples + scale * processed_tpl_full.samples)
        short = normalized_ccf(slice_window(strain, t_inj, event), short_ref,
                               max_lag=0.95 * event, tau0=tau0)
        long = normalized_ccf(slice_window(strain, long_start, long_window), long_ref,
                              max_lag=long_max_lag, tau0=tau0)
        if k == 0:
            figures["ccf_short.csv"] = _ccf_figure(short)
            figures["ccf_long.csv"] = _ccf_figure(long)
        return TrialReport(trial_index=k, seed=seed,
                           peak_abs_ccf=short.peak_abs, r3=short.r3, peaky=short.peaky,
                           extras={"r3_long": long.r3,
                                   "short_wins": short.r3 < long.r3})

    reports, stats = monte_carlo(trial, cfg.trials, cfg.seed_base, cfg.name)
    stats["short_window_s"] = event
    stats["long_window_s"] = long_window
    stats["short_wins_fraction"] = _fraction([r.extras["short_wins"] for r in reports])
    return ScenarioResult(cfg, reports, stats, figures)


def _scenario_whiten_distortion(cfg: ScenarioConfig, *, template_kind: str = "gw150914",
                                line_ratio: Positive = 1e4, line_amp_rel: float = 3.0,
                                band: tuple[float, float] = (43.0, 300.0),
                                span: Positive = 8.0) -> ScenarioResult:
    """Template plus strong mains interference, whitened both ways; the
    relative waveform error after each path is compared over the event."""
    tpl, _ = _template_for(cfg, template_kind)
    base_model = _psd_model(cfg)
    model = replace(base_model, lines=(PsdLine(60.0, line_ratio, 0.5),)
                    + tuple(l for l in base_model.lines if abs(l.f_hz - 60.0) > 1.0))
    n = _samples(span, cfg.fs, "option 'span'")
    psd = _model_psd(model, n, cfg.fs)
    bands = detect_lines(psd)
    t_inj = span / 2.0
    host = TimeSeries(cfg.fs, 0.0, np.zeros(n))
    embedded = inject(host, tpl.base, t_inj)
    reference = slice_window(butterworth_bandpass(embedded, band[0], band[1]),
                             t_inj, tpl.base.duration)
    bin_width = 1.0 / 32.0
    figures = {}

    def event_error(whitened: TimeSeries) -> tuple[float, TimeSeries]:
        out = slice_window(butterworth_bandpass(whitened, band[0], band[1]),
                           t_inj, tpl.base.duration)
        r, y = reference.samples, out.samples
        alpha = float(np.dot(r, y) / np.dot(y, y))
        return float(np.linalg.norm(r - alpha * y) / np.linalg.norm(r)), \
            out.with_samples(alpha * y)

    def trial(k: int, seed: int) -> TrialReport:
        delta = bin_width * (0.1 + 0.8 * rng_for(seed).random())
        line = line_interference(
            amplitude=line_amp_rel * float(np.max(np.abs(tpl.base.samples))),
            f0=60.0, delta=delta, duration=span, fs=cfg.fs)
        noisy = embedded.with_samples(embedded.samples + line.samples)
        err_full, out_full = event_error(whiten_full(noisy, psd))
        err_loc, out_loc = event_error(whiten_localized(noisy, psd, bands))
        if k == 0:
            t = reference.times()
            figures["waveforms.csv"] = (
                ["t_s", "reference", "full_band", "localized"],
                _Columns(t, reference.samples, out_full.samples, out_loc.samples),
            )
        return TrialReport(trial_index=k, seed=seed,
                           extras={"err_full": err_full, "err_localized": err_loc,
                                   "ratio": err_full / err_loc})

    reports, stats = monte_carlo(trial, cfg.trials, cfg.seed_base, cfg.name)
    ratios = [r.extras["ratio"] for r in reports]
    stats["line_ratio"] = line_ratio
    stats["mean_err_full"] = float(np.mean([r.extras["err_full"] for r in reports]))
    stats["mean_err_localized"] = float(
        np.mean([r.extras["err_localized"] for r in reports]))
    stats["min_error_ratio"] = float(np.min(ratios))
    stats["mean_error_ratio"] = float(np.mean(ratios))
    return ScenarioResult(cfg, reports, stats, figures)


def _scenario_running_baseline(cfg: ScenarioConfig, *, template_kind: str = "gw150914",
                               duration: float = 64.0, hop: float = 1.0,
                               band: tuple[float, float] = (43.0, 300.0),
                               edge_exclusion: float = 2.0,
                               exclusions: list[tuple[float, float]] = ()) -> ScenarioResult:
    """Running-window CCF noise baseline over a long stretch of synthetic
    detector noise, excluding the block edges."""
    _check_hop(hop, cfg.fs)
    tpl, _ = _template_for(cfg, template_kind)
    model = _psd_model(cfg)
    tpl_host = TimeSeries(cfg.fs, 0.0, np.zeros(int(4 * cfg.fs)))
    tpl_padded = _whiten_and_band(inject(tpl_host, tpl.base, 2.0), model, band)
    tau0 = decorrelation_time(tpl_padded)
    tpl_proc = slice_window(tpl_padded, 2.0, tpl.base.duration)
    figures = {}

    def trial(k: int, seed: int) -> TrialReport:
        processed = _whiten_and_band(colored_noise(model, duration, cfg.fs, seed=seed),
                                     model, band)
        spans = [*exclusions, (0.0, edge_exclusion), (duration - edge_exclusion, duration)]
        scan = running_window_ccf(processed, tpl_proc, hop=hop, exclusions=spans, tau0=tau0)
        if k == 0:
            figures["running.csv"] = _running_figure(scan)
        return TrialReport(trial_index=k, seed=seed,
                           peak_abs_ccf=float(np.max(scan.peak_abs_ccf)),
                           r3=_median(scan.r3),
                           peaky=bool(np.any(scan.r3 < R3_THRESHOLD)),
                           extras={"n_windows": len(scan),
                                   "median_peak_abs_ccf": _median(scan.peak_abs_ccf)})

    reports, stats = monte_carlo(trial, cfg.trials, cfg.seed_base, cfg.name)
    return ScenarioResult(cfg, reports, stats, figures)


def _scenario_circular_artifact(cfg: ScenarioConfig, *, template_kind: str = "gw150914",
                                block_len: Positive = 8.0) -> ScenarioResult:
    """Deterministic witness: a template straddling the block boundary
    produces a wrap-around peak in circular mode only."""
    tpl, _ = _template_for(cfg, template_kind)
    n = _samples(block_len, cfg.fs, "option 'block_len'")
    nt = tpl.base.n
    psd = PowerSpectrum(df=1.0, values=np.full(int(cfg.fs / 2) + 1, 1.0))
    figures = {}

    def trial(k: int, seed: int) -> TrialReport:
        # one deterministic witness, drawn at seed_base itself
        x = (rng_for(cfg.seed_base).standard_normal(n)
             * 1e-3 * float(np.max(np.abs(tpl.base.samples))))
        half = nt // 2
        x[n - half:] += tpl.base.samples[:half]
        x[:nt - half] += tpl.base.samples[half:]
        strain = TimeSeries(cfg.fs, 0.0, x)
        circ = matched_filter(strain, tpl.base, psd,
                              MfConfig(block_len=block_len, mode="circular", reweight_bins=None))
        cyc = matched_filter(strain, tpl.base, psd,
                             MfConfig(block_len=block_len, mode="cyclic_prefix",
                                      reweight_bins=None))
        separation = abs(circ.peak.time - cyc.peak.time)
        figures["snr_circular.csv"] = _snr_figure(circ)
        figures["snr_cyclic_prefix.csv"] = _snr_figure(cyc)
        return TrialReport(trial_index=k, seed=cfg.seed_base,
                           peak_rho=circ.peak.value,
                           fired=circ.peak.value > SNR_THRESHOLD,
                           extras={"peak_time_circular_s": circ.peak.time,
                                   "peak_time_cyclic_prefix_s": cyc.peak.time,
                                   "separation_s": separation,
                                   "witness": separation > tpl.base.duration / 2.0})

    reports, stats = monte_carlo(trial, 1, cfg.seed_base, cfg.name)
    stats.update(reports[0].extras, template_duration_s=tpl.base.duration)
    return ScenarioResult(cfg, reports, stats, figures)


# name -> (scenario function, input keys it reads, description)
SCENARIOS = {
    "mf-sine-misfire": (_scenario_mf_sine, ("psd_model", "template"),
                        "matched filter vs 64 Hz decaying sine at 1/100 noise std"),
    "mf-awgn-misfire": (_scenario_mf_awgn, ("psd_model", "template"),
                        "matched filter vs white noise burst at 1/500 noise std"),
    "mf-bogus": (_scenario_mf_bogus, ("template",),
                 "matched filter vs phase-noise bogus chirp templates"),
    "ccf-bogus": (_scenario_ccf_bogus, ("template",),
                  "short-window CCF vs noisy bogus chirp templates"),
    "h1l1-ccf": (_scenario_h1l1_ccf, ("psd_model", "strain_a", "strain_b"),
                 "null CCF between two independent detector noise windows"),
    "ref-systems": (_scenario_ref_systems, ("psd_model", "template"),
                    "reference systems: template self/noisy-pair correlations"),
    "window-compare": (_scenario_window_compare, ("psd_model", "template"),
                       "R3 with the event-duration window vs a 20 s window"),
    "whiten-distortion": (_scenario_whiten_distortion, ("psd_model", "template"),
                          "full-band vs localized whitening waveform error"),
    "running-baseline": (_scenario_running_baseline, ("psd_model", "template"),
                         "running-window CCF noise baseline over a long block"),
    "circular-artifact": (_scenario_circular_artifact, ("template",),
                          "wrap-around peak witness: circular vs cyclic-prefix"),
}

SCENARIO_NAMES = tuple(sorted(SCENARIOS))


def scenario_descriptions() -> dict:
    return {name: desc for name, (_, _, desc) in sorted(SCENARIOS.items())}


def scenario_options(name: str) -> dict:
    """``{option: inspect.Parameter}`` from the keyword-only parameters of the
    scenario function, and of :func:`_misfire_scenario` if it takes ``**shared``."""
    import inspect

    options = {}
    for fn in (SCENARIOS[name][0], _misfire_scenario):
        params = inspect.signature(fn).parameters.values()
        options.update((p.name, p) for p in params if p.kind is p.KEYWORD_ONLY)
        if not any(p.kind is p.VAR_KEYWORD for p in params):
            return options


def run_scenario(config: ScenarioConfig,
                 out_dir: str | os.PathLike | None = None) -> ScenarioResult:
    """Execute a scenario; optionally emit its report files."""
    result = SCENARIOS[config.name][0](config, **config.options)
    summary = {
        "schema": SUMMARY_SCHEMA,
        "scenario": config.name,
        "seed_base": config.seed_base,
        "fs_hz": config.fs,
        "thresholds": {"snr": SNR_THRESHOLD, "r3": R3_THRESHOLD},
        **result.summary,
    }
    result = replace(result, summary=summary)
    if out_dir is not None:
        emit_report(result, out_dir)
    return result


_TRIAL_COLUMNS = ["trial_index", "seed", "peak_rho", "peak_abs_ccf", "r3",
                  "fired", "peaky"]


def emit_report(result: ScenarioResult, out_dir: str | os.PathLike) -> list[str]:
    """Write ``summary.json``, ``trials.csv``, and per-figure CSVs.

    Output bytes are a pure function of the scenario result, so re-runs
    with the same seed produce identical files.
    """
    if not result.trials:
        raise ValidationError("nothing to report: no trials")
    summary = _json_text(result.summary)  # raises before anything is created
    os.makedirs(out_dir, exist_ok=True)
    written = []

    path = os.path.join(out_dir, "summary.json")
    _write_json(path, summary)
    written.append(path)

    extra_keys = sorted({k for r in result.trials for k in r.extras})
    path = os.path.join(out_dir, "trials.csv")
    rows = [[r.trial_index, r.seed, r.peak_rho, r.peak_abs_ccf, r.r3, r.fired, r.peaky]
            + [r.extras.get(k) for k in extra_keys] for r in result.trials]
    _write_csv(path, _TRIAL_COLUMNS + extra_keys, list(zip(*rows)))
    written.append(path)

    for name, figure in sorted(result.figures.items()):
        path = os.path.join(out_dir, name)
        _write_figure(path, figure)
        written.append(path)
    return written
