"""Command-line interface.

``gwxlab <subcommand>`` wires the toolkit into reproducible file-based
pipelines: synthesize noise and templates, inject signals, estimate and
apply spectral conditioning, run the two detection engines, and drive
the Monte-Carlo scenarios.  Outputs are plain gwx-text, CSV, and JSON.

Exit codes: 0 success, 2 validation error, 3 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .conditioning import butterworth_bandpass, detect_lines, whiten_full, whiten_localized
from .detection import (
    SNR_THRESHOLD,
    MfConfig,
    decorrelation_time,
    matched_filter,
    normalized_ccf,
    running_window_ccf,
)
from .errors import DegeneracyError, GwxError, ParseError, ValidationError
from .scenarios import (
    SCENARIO_NAMES,
    SCENARIOS,
    FalseAlarmParams,
    ScenarioConfig,
    _ccf_figure,
    _running_figure,
    _snr_figure,
    _write_figure,
    emit_report,
    false_alarm_rate,
    run_scenario,
    scenario_descriptions,
    scenario_options,
)
from .series import (
    PowerSpectrum,
    TimeSeries,
    _finite,
    _json_text,
    _read_json,
    _write_json,
    load_psd_csv,
    load_strain,
    save_psd_csv,
    save_strain,
    welch_psd,
)
from .simulation import PsdModel, _model_psd, colored_noise, default_detector_model, inject
from .templates import BogusSpec, load_template, make_bogus, save_template, stock_template


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _finite_float(text: str) -> float:
    """argparse type of every float flag: nan, inf and overflowing values are refused."""
    value = _number(text)
    if not _finite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _pair(form: str):
    """argparse type: two finite numbers from ``a:b``; ``form`` names them in the error."""
    def parse(text: str) -> tuple[float, float]:
        pair = tuple(map(_number, text.split(":")))
        if len(pair) != 2 or not all(map(_finite, pair)):
            raise argparse.ArgumentTypeError(f"expected {form!r} as two finite numbers, "
                                             f"got {text!r}")
        return pair
    return parse


def _load_psd(arg: str, strain: TimeSeries) -> PowerSpectrum:
    """PSD from a CSV table path, or from 'model' or 'model:<json path>' on
    ``strain``'s own rfft grid."""
    if arg != "model" and not arg.startswith("model:"):
        return load_psd_csv(arg)
    model = default_detector_model() if arg == "model" else PsdModel.load(arg[len("model:"):])
    return _model_psd(model, strain.n, strain.fs)


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _save_out(args, ts) -> int:
    """Write ``ts`` as gwx-text to ``--out/--name`` and print the path."""
    path = _out_path(args, args.name)
    save_strain(ts, path)
    print(path)
    return 0


def _emit_json(obj, path: str) -> None:
    text = _json_text(obj)
    _write_json(path, text)
    print(text)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_noise(args) -> int:
    model = PsdModel.load(args.config) if args.config else default_detector_model()
    return _save_out(args, colored_noise(model, args.duration, args.fs, seed=args.seed))


def _cmd_template(args) -> int:
    tpl = stock_template(args.kind, args.fs)
    os.makedirs(args.out, exist_ok=True)
    paths = save_template(tpl, os.path.join(args.out, args.kind))
    for p in paths:
        print(p)
    return 0


def _cmd_bogus(args) -> int:
    tpl = load_template(args.template) if args.template else stock_template(args.kind, args.fs)
    return _save_out(args, make_bogus(tpl, BogusSpec(sigma_phase=args.sigma_phase,
                                                     seed=args.seed)))


def _cmd_inject(args) -> int:
    return _save_out(args, inject(load_strain(args.host), load_strain(args.signal), args.at))


def _cmd_psd(args) -> int:
    if args.segment is not None and not args.segment > 0:
        raise ValidationError(f"--segment must be a positive number of seconds, "
                              f"got {args.segment:g}")
    ts = load_strain(args.strain)
    seg = None
    if args.segment is not None:
        if args.segment > ts.duration:
            raise ValidationError(f"--segment {args.segment:g} s exceeds the strain's "
                                  f"{ts.duration:g} s")
        seg = int(round(args.segment * ts.fs))
        if seg < 2:
            raise ValidationError(f"--segment {args.segment:g} s is shorter than two "
                                  f"samples at {ts.fs:g} Hz")
    psd = welch_psd(ts, segment_len=seg)
    path = _out_path(args, args.name)
    save_psd_csv(psd, path)
    print(path)
    return 0


def _cmd_whiten(args) -> int:
    if args.whiten == "full":
        for flag, value in (("--line-threshold", args.line_threshold),
                            ("--line-window-hz", args.line_window_hz)):
            if value is not None:
                raise ValidationError(f"{flag} applies only with --whiten localized, "
                                      f"which detects lines; --whiten full uses none")
    ts = load_strain(args.strain)
    psd = _load_psd(args.psd, ts)
    if args.whiten == "full":
        return _save_out(args, whiten_full(ts, psd))
    threshold = 10.0 if args.line_threshold is None else args.line_threshold
    window_hz = 8.0 if args.line_window_hz is None else args.line_window_hz
    bands = detect_lines(psd, threshold_ratio=threshold, median_window_hz=window_hz)
    return _save_out(args, whiten_localized(ts, psd, bands, median_window_hz=window_hz))


def _cmd_bandpass(args) -> int:
    ts = load_strain(args.strain)
    return _save_out(args, butterworth_bandpass(ts, *args.band, order=args.order))


def _cmd_mf(args) -> int:
    strain = load_strain(args.strain)
    template = load_strain(args.template)
    psd = _load_psd(args.psd, strain)
    cfg = MfConfig(
        block_len=None,
        mode=args.mode,
        reweight_bins=None if args.no_reweight else args.n_bins,
        band=args.band,
    )
    snr = matched_filter(strain, template, psd, cfg)
    _write_figure(_out_path(args, "snr.csv"), _snr_figure(snr))
    _emit_json({
        "peak_time_s": snr.peak.time,
        "peak_rho_reweighted": snr.peak.value,
        "peak_rho": float(np.max(snr.rho)),
        "sigma": snr.sigma,
        "mode": snr.mode,
        "fired": snr.peak.value > SNR_THRESHOLD,
    }, _out_path(args, "mf_summary.json"))
    return 0


def _cmd_ccf(args) -> int:
    a = load_strain(args.a)
    b = load_strain(args.b)
    ccf = normalized_ccf(a, b, max_lag=args.max_lag, tau0=args.tau0)
    _write_figure(_out_path(args, "ccf.csv"), _ccf_figure(ccf))
    _emit_json({
        "peak_lag_s": ccf.peak_lag,
        "peak_ccf": ccf.peak_value,
        "tau0_s": ccf.tau0,
        "r3": ccf.r3,
        "peaky": ccf.peaky,
        "window_T_s": ccf.window_T,
    }, _out_path(args, "ccf_summary.json"))
    return 0


def _cmd_running_ccf(args) -> int:
    long_ts = load_strain(args.strain)
    template = load_strain(args.template)
    tau0 = decorrelation_time(template)
    scan = running_window_ccf(long_ts, template, hop=args.hop,
                              exclusions=args.exclude, tau0=tau0)
    _write_figure(_out_path(args, "running.csv"), _running_figure(scan))
    _emit_json({
        "n_windows": len(scan),
        "max_peak_abs_ccf": float(np.max(scan.peak_abs_ccf)),
        "median_peak_abs_ccf": float(np.median(scan.peak_abs_ccf)),
        "tau0_template_s": tau0,
    }, _out_path(args, "running_summary.json"))
    return 0


def _cmd_scenario(args) -> int:
    if args.action == "list":
        for name, desc in scenario_descriptions().items():
            print(f"{name}: {desc}")
            for p in scenario_options(name).values():
                print(f"    {p.name}: {p.annotation} = {p.default!r}")
            print(f"    inputs: {', '.join(SCENARIOS[name][1])}")
        return 0
    if not args.scenario_name:
        raise ValidationError("scenario run needs a scenario name")
    data = _read_json(args.config) if args.config else {}
    sections = {key: data.pop(key, {}) for key in ("options", "inputs")}
    if data:
        raise ParseError(f"{args.config}: unknown keys {sorted(data)}; "
                         f"expected 'options' and 'inputs'")
    for key, value in sections.items():
        if not isinstance(value, dict):
            raise ParseError(f"{args.config}: {key!r} must be a JSON object, "
                             f"got {type(value).__name__}")
    cfg = ScenarioConfig(
        name=args.scenario_name,
        trials=args.trials,
        seed_base=args.seed,
        fs=args.fs,
        **sections,
    )
    result = run_scenario(cfg)
    out_dir = os.path.join(args.out, cfg.name)
    written = emit_report(result, out_dir)
    for p in written:
        print(p)
    return 0


def _cmd_far(args) -> int:
    value = false_alarm_rate(FalseAlarmParams(n_b=args.nb, T=args.t, T_b=args.tb))
    print(repr(value))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwxlab",
        description="Matched-filter and short-window CCF detection lab "
                    "for strain-like time series.",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p, *reads):
        """--out everywhere; --seed and --fs only where the subcommand reads them."""
        if "seed" in reads:
            p.add_argument("--seed", type=int, default=0, help="RNG seed")
        if "fs" in reads:
            p.add_argument("--fs", type=_finite_float, default=4096.0, help="sample rate, Hz")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("noise", help="synthesize detector-like colored noise")
    common(p, "seed", "fs")
    p.add_argument("--duration", type=_finite_float, default=32.0)
    p.add_argument("--config", help="PSD model JSON (psd_model.json schema)")
    p.add_argument("--name", default="noise.gwx")
    p.set_defaults(fn=_cmd_noise)

    p = sub.add_parser("template", help="emit a stock chirp template")
    common(p, "fs")
    p.add_argument("--kind", default="gw150914",
                   choices=["gw150914", "gw151226", "gw170104"])
    p.set_defaults(fn=_cmd_template)

    p = sub.add_parser("bogus", help="synthesize a phase-noise bogus template")
    common(p, "seed", "fs")
    p.add_argument("--kind", default="gw150914",
                   choices=["gw150914", "gw151226", "gw170104"])
    p.add_argument("--template", help="template basename saved by 'template'")
    p.add_argument("--sigma-phase", type=_finite_float, default=1.0)
    p.add_argument("--name", default="bogus.gwx")
    p.set_defaults(fn=_cmd_bogus)

    p = sub.add_parser("inject", help="add a signal into a host strain")
    common(p)
    p.add_argument("--host", required=True)
    p.add_argument("--signal", required=True)
    p.add_argument("--at", type=_finite_float, required=True, help="injection time, s")
    p.add_argument("--name", default="injected.gwx")
    p.set_defaults(fn=_cmd_inject)

    p = sub.add_parser("psd", help="Welch PSD estimate of a strain file "
                                    "(Blackman window, 50% overlap)")
    common(p)
    p.add_argument("--strain", required=True)
    p.add_argument("--segment", type=_finite_float,
                   help="segment length, s, at most the strain's (default 4 s, capped "
                        "at the strain)")
    p.add_argument("--name", default="psd.csv")
    p.set_defaults(fn=_cmd_psd)

    p = sub.add_parser("whiten", help="whiten a strain against a PSD")
    common(p)
    p.add_argument("--strain", required=True)
    p.add_argument("--psd", default="model",
                   help="'model', 'model:<json>', or a psd CSV path")
    p.add_argument("--whiten", default="full", choices=["full", "localized"])
    p.add_argument("--line-threshold", type=_finite_float,
                   help="line PSD excess over the running median (localized only; "
                        "default 10)")
    p.add_argument("--line-window-hz", type=_finite_float,
                   help="running-median window, Hz (localized only; default 8)")
    p.add_argument("--name", default="whitened.gwx")
    p.set_defaults(fn=_cmd_whiten)

    p = sub.add_parser("bandpass", help="zero-phase Butterworth band-pass")
    common(p)
    p.add_argument("--strain", required=True)
    p.add_argument("--band", type=_pair("f_lo:f_hi"), default="43:300",
                   help="f_lo:f_hi in Hz")
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--name", default="bandpassed.gwx")
    p.set_defaults(fn=_cmd_bandpass)

    p = sub.add_parser("mf", help="matched filter a strain against a template")
    common(p)
    p.add_argument("--strain", required=True)
    p.add_argument("--template", required=True)
    p.add_argument("--psd", default="model")
    p.add_argument("--mode", default="circular", choices=["circular", "cyclic_prefix"])
    p.add_argument("--n-bins", type=int, default=16, help="chi-squared bands")
    p.add_argument("--no-reweight", action="store_true")
    p.add_argument("--band", type=_pair("f_lo:f_hi"), help="restrict to f_lo:f_hi")
    p.set_defaults(fn=_cmd_mf)

    p = sub.add_parser("ccf", help="normalized short-window cross-correlation")
    common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--max-lag", type=_finite_float, required=True)
    p.add_argument("--tau0", type=_finite_float, default=None)
    p.set_defaults(fn=_cmd_ccf)

    p = sub.add_parser("running-ccf", help="running-window CCF summaries")
    common(p)
    p.add_argument("--strain", required=True)
    p.add_argument("--template", required=True)
    p.add_argument("--hop", type=_finite_float, default=1.0)
    p.add_argument("--exclude", type=_pair("start:end"), action="append", default=[],
                   help="time range start:end to skip; repeatable")
    p.set_defaults(fn=_cmd_running_ccf)

    p = sub.add_parser("scenario", help="run or list Monte-Carlo scenarios")
    common(p, "seed", "fs")
    p.add_argument("action", choices=["run", "list"])
    p.add_argument("scenario_name", nargs="?", choices=list(SCENARIO_NAMES))
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--config", help="JSON with scenario options/inputs")
    p.set_defaults(fn=_cmd_scenario)

    p = sub.add_parser("far", help="background-coincidence false-alarm probability")
    p.add_argument("--nb", type=_finite_float, required=True,
                   help="louder background event count")
    p.add_argument("--t", type=_finite_float, required=True, help="observation time")
    p.add_argument("--tb", type=_finite_float, required=True, help="background time")
    p.set_defaults(fn=_cmd_far)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    try:
        return args.fn(args)
    except DegeneracyError as exc:
        print(f"error (degenerate input): {exc}", file=sys.stderr)
        return 3
    except (GwxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
