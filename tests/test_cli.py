import argparse
import ast
import dataclasses
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gwxlab import (PsdLine, PsdModel, PsdSegment, TimeSeries, default_detector_model,
                    detect_lines, load_strain, save_strain, scenarios, stock_template,
                    whiten_full, whiten_localized)
from gwxlab.cli import main

FS = 1024.0


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def noise_file(tmp_path):
    path = tmp_path / "noise.gwx"
    rng = np.random.default_rng(1)
    save_strain(TimeSeries(FS, 0.0, rng.standard_normal(int(8 * FS))), path)
    return path


@pytest.fixture()
def template_file(tmp_path):
    tpl = stock_template("gw150914", FS)
    path = tmp_path / "tpl.gwx"
    save_strain(tpl.base, path)
    return path


class TestBasicCommands:
    def test_noise_roundtrip(self, tmp_path):
        code = run("noise", "--duration", "2.0", "--fs", "1024", "--seed", "7",
                   "--out", str(tmp_path), "--name", "n.gwx")
        assert code == 0
        ts = load_strain(tmp_path / "n.gwx")
        assert ts.n == 2048
        code = run("noise", "--duration", "2.0", "--fs", "1024", "--seed", "7",
                   "--out", str(tmp_path / "again"), "--name", "n.gwx")
        assert code == 0
        again = load_strain(tmp_path / "again" / "n.gwx")
        np.testing.assert_array_equal(ts.samples, again.samples)

    def test_template_and_bogus(self, tmp_path):
        assert run("template", "--kind", "gw151226", "--fs", "1024",
                   "--out", str(tmp_path)) == 0
        assert (tmp_path / "gw151226.gwx").exists()
        assert (tmp_path / "gw151226.json").exists()
        assert run("bogus", "--template", str(tmp_path / "gw151226"),
                   "--sigma-phase", "0.5", "--seed", "3",
                   "--out", str(tmp_path), "--name", "b.gwx") == 0
        bogus = load_strain(tmp_path / "b.gwx")
        ideal = load_strain(tmp_path / "gw151226.gwx")
        assert bogus.n == ideal.n

    def test_template_creates_missing_out_dir(self, tmp_path):
        out = tmp_path / "run"
        assert run("template", "--kind", "gw150914", "--fs", "1024", "--out", str(out)) == 0
        assert (out / "gw150914.gwx").exists()
        assert (out / "gw150914.json").exists()

    def test_inject_and_psd_and_filters(self, tmp_path, noise_file, template_file):
        assert run("inject", "--host", str(noise_file), "--signal", str(template_file),
                   "--at", "4.0", "--out", str(tmp_path), "--name", "inj.gwx") == 0
        assert run("psd", "--strain", str(noise_file), "--segment", "2.0",
                   "--out", str(tmp_path)) == 0
        psd_lines = (tmp_path / "psd.csv").read_text().splitlines()
        assert psd_lines[0] == "f_hz,psd"
        assert run("bandpass", "--strain", str(noise_file), "--band", "43:300",
                   "--order", "4", "--out", str(tmp_path)) == 0
        assert run("whiten", "--strain", str(noise_file),
                   "--psd", str(tmp_path / "psd.csv"),
                   "--whiten", "localized", "--line-threshold", "10",
                   "--line-window-hz", "8", "--out", str(tmp_path)) == 0
        assert (tmp_path / "whitened.gwx").exists()

    @pytest.mark.parametrize("n", [6000, 8191])
    @pytest.mark.parametrize("whiten", ["full", "localized"])
    def test_whiten_psd_model_uses_the_strain_grid(self, tmp_path, n, whiten):
        # a model PSD is evaluated on the strain's own rfft grid, not resampled
        strain = TimeSeries(FS, 0.0, np.random.default_rng(4).standard_normal(n))
        save_strain(strain, tmp_path / "s.gwx")
        model = PsdModel(segments=(PsdSegment(10.0, 1.0, -2.0),),
                         lines=(PsdLine(60.0, 1e3, 0.5), PsdLine(120.0, 1e3, 0.5)))
        (tmp_path / "m.json").write_text(json.dumps(dataclasses.asdict(model)))
        for arg, used in (("model", default_detector_model()),
                          (f"model:{tmp_path / 'm.json'}", model)):
            assert run("whiten", "--strain", str(tmp_path / "s.gwx"), "--psd", arg,
                       "--whiten", whiten, "--out", str(tmp_path)) == 0
            psd = used.to_power_spectrum(FS / n, n // 2 + 1)
            if whiten == "full":
                want = whiten_full(strain, psd)
            else:
                want = whiten_localized(strain, psd, detect_lines(psd))
            save_strain(want, tmp_path / "want.gwx")
            assert (tmp_path / "whitened.gwx").read_bytes() == \
                (tmp_path / "want.gwx").read_bytes(), arg

    def test_mf_outputs(self, tmp_path, noise_file, template_file, capsys):
        code = run("mf", "--strain", str(noise_file), "--template", str(template_file),
                   "--psd", "model", "--mode", "cyclic_prefix", "--no-reweight",
                   "--out", str(tmp_path))
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "peak_rho" in payload and "peak_time_s" in payload
        header = (tmp_path / "snr.csv").read_text().splitlines()[0]
        assert header == "t_s,rho,rho_reweighted"

    def test_ccf_outputs(self, tmp_path, template_file, capsys):
        code = run("ccf", "--a", str(template_file), "--b", str(template_file),
                   "--max-lag", "0.15", "--out", str(tmp_path))
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["peak_ccf"] == pytest.approx(1.0, abs=1e-9)
        assert payload["peaky"] is True
        header = (tmp_path / "ccf.csv").read_text().splitlines()[0]
        assert header == "lag_s,ccf"

    def test_running_ccf(self, tmp_path, noise_file, template_file, capsys):
        code = run("running-ccf", "--strain", str(noise_file),
                   "--template", str(template_file), "--hop", "1.0",
                   "--exclude", "0:1", "--out", str(tmp_path))
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_windows"] > 0
        header = (tmp_path / "running.csv").read_text().splitlines()[0]
        assert header == "t_start_s,peak_abs_ccf,r3"

    def test_running_ccf_reversed_exclusion(self, tmp_path, noise_file, template_file,
                                            capsys):
        code = run("running-ccf", "--strain", str(noise_file),
                   "--template", str(template_file), "--hop", "1.0",
                   "--exclude", "3:2", "--out", str(tmp_path))
        assert code == 2
        assert "exclusion (3.0, 2.0) ends before it starts" in capsys.readouterr().err
        assert not (tmp_path / "running.csv").exists()

    def test_running_ccf_hop_below_one_sample(self, tmp_path, noise_file, template_file,
                                              capsys):
        code = run("running-ccf", "--strain", str(noise_file),
                   "--template", str(template_file), "--hop", "1e-12", "--out", str(tmp_path))
        assert code == 2
        assert "hop must be at least one sample" in capsys.readouterr().err
        assert not (tmp_path / "running.csv").exists()

    def test_running_ccf_rate_mismatch(self, tmp_path, template_file, capsys):
        # the 205-sample template at 1024 Hz is longer than the 300 samples
        # at 4096 Hz; the rates are what is wrong
        strain = tmp_path / "short.gwx"
        save_strain(TimeSeries(4096.0, 0.0, np.random.default_rng(2).standard_normal(300)),
                    strain)
        code = run("running-ccf", "--strain", str(strain), "--template", str(template_file),
                   "--out", str(tmp_path))
        assert code == 2
        assert "sample-rate mismatch (window, reference): 4096.0 vs 1024.0 Hz" in \
            capsys.readouterr().err

    def test_far(self, capsys):
        assert run("far", "--nb", "0", "--t", "1", "--tb", "1") == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(1 - math.exp(-1))


class TestScenarioCommand:
    def test_list(self, capsys):
        assert run("scenario", "list") == 0
        out = capsys.readouterr().out
        assert "mf-sine-misfire" in out
        assert out.count(":") >= 10

    def test_list_shows_options_and_inputs(self, capsys):
        assert run("scenario", "list") == 0
        block = capsys.readouterr().out.split("ccf-bogus: ")[1].split("\ncircular-artifact: ")[0]
        assert "    sigma_phase: float = 0.7\n" in block
        assert "    max_lag: Positive | None = None\n" in block
        assert block.endswith("    inputs: template")

    def test_run_writes_reports(self, tmp_path, capsys):
        code = run("scenario", "run", "h1l1-ccf", "--trials", "3", "--seed", "21",
                   "--out", str(tmp_path))
        assert code == 0
        out_dir = tmp_path / "h1l1-ccf"
        assert (out_dir / "summary.json").exists()
        assert (out_dir / "trials.csv").exists()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["scenario"] == "h1l1-ccf"
        assert summary["trials"] == 3

    def test_run_without_name_fails(self, capsys):
        assert run("scenario", "run") == 2

    def test_json_list_band(self, tmp_path):
        # JSON has no tuples; the list band must reach the cached plan as one
        from gwxlab.scenarios import ScenarioConfig, emit_report, run_scenario

        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"options": {"band": [43, 300]}}))
        assert run("scenario", "run", "mf-sine-misfire", "--trials", "2", "--seed", "5",
                   "--config", str(config), "--out", str(tmp_path / "list")) == 0
        emit_report(run_scenario(ScenarioConfig("mf-sine-misfire", trials=2, seed_base=5,
                                                options={"band": (43, 300)})),
                    tmp_path / "tuple" / "mf-sine-misfire")
        written = sorted(p.name for p in (tmp_path / "list" / "mf-sine-misfire").iterdir())
        assert written == ["snr.csv", "summary.json", "trials.csv"]
        for name in written:
            assert (tmp_path / "list" / "mf-sine-misfire" / name).read_bytes() == \
                (tmp_path / "tuple" / "mf-sine-misfire" / name).read_bytes()


class TestExitCodes:
    def test_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--help")
        assert exc.value.code == 0
        assert "50% overlap" in capsys.readouterr().out

    def test_no_subcommand_prints_help(self, capsys):
        assert run() == 2
        assert capsys.readouterr().out.startswith("usage: gwxlab")

    def test_missing_file_is_validation(self, tmp_path):
        assert run("psd", "--strain", str(tmp_path / "missing.gwx"),
                   "--out", str(tmp_path)) == 2

    def test_bad_band_is_validation(self, tmp_path, noise_file):
        assert run("bandpass", "--strain", str(noise_file), "--band", "300:43",
                   "--out", str(tmp_path)) == 2

    def test_band_that_never_decays_is_validation(self, tmp_path, noise_file, capsys):
        # at order 4 and 1024 Hz, 0.01 Hz needs about 1.8e6 taps
        assert run("bandpass", "--strain", str(noise_file), "--band", "0.01:300",
                   "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "--band" in err and "--order" in err

    def test_series_too_short_for_the_filter_is_validation(self, tmp_path, capsys):
        short = tmp_path / "short.gwx"
        save_strain(TimeSeries(FS, 0.0, np.ones(20)), short)
        assert run("bandpass", "--strain", str(short), "--out", str(tmp_path)) == 2
        assert "needs more than 27 samples, got 20" in capsys.readouterr().err

    def test_degenerate_input_is_exit_3(self, tmp_path):
        zero = tmp_path / "zero.gwx"
        save_strain(TimeSeries(FS, 0.0, np.zeros(512)), zero)
        assert run("ccf", "--a", str(zero), "--b", str(zero),
                   "--max-lag", "0.1", "--out", str(tmp_path)) == 3

    def test_unread_option_is_rejected(self, tmp_path, noise_file, template_file):
        with pytest.raises(SystemExit) as exc:
            run("mf", "--strain", str(noise_file), "--template", str(template_file),
                "--seed", "3", "--out", str(tmp_path))
        assert exc.value.code == 2

    def test_far_rejects_bad_params(self, capsys):
        assert run("far", "--nb", "-1", "--t", "1", "--tb", "1") == 2

    def test_binary_strain_file_is_validation(self, tmp_path):
        junk = tmp_path / "junk.gwx"
        junk.write_bytes(bytes(range(256)))
        assert run("psd", "--strain", str(junk), "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("segment", ["0", "-4"])
    def test_psd_segment_must_be_positive(self, tmp_path, noise_file, capsys, segment):
        assert run("psd", "--strain", str(noise_file), f"--segment={segment}",
                   "--out", str(tmp_path)) == 2
        assert "--segment must be a positive number of seconds" in capsys.readouterr().err
        assert not (tmp_path / "psd.csv").exists()

    def test_psd_segment_longer_than_the_strain(self, tmp_path, noise_file, capsys):
        assert run("psd", "--strain", str(noise_file), "--segment", "1e300",
                   "--out", str(tmp_path)) == 2
        assert "--segment 1e+300 s exceeds the strain's 8 s" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--line-threshold", "--line-window-hz"])
    def test_whiten_full_refuses_line_settings(self, tmp_path, noise_file, capsys, flag):
        assert run("whiten", "--strain", str(noise_file), "--whiten", "full", flag, "5",
                   "--out", str(tmp_path)) == 2
        assert f"{flag} applies only with --whiten localized" in capsys.readouterr().err
        assert not (tmp_path / "whitened.gwx").exists()

    def test_unwritable_output_dir(self, tmp_path, noise_file):
        assert run("bandpass", "--strain", str(noise_file), "--band", "43:300",
                   "--out", "/proc/nope") == 2


class TestMalformedJson:
    @pytest.mark.parametrize("text, detail", [
        ('{"options": {"n_windows": 3', "line 1 column 28"),
        ("[]", "expected a JSON object, got list"),
    ])
    def test_scenario_config(self, tmp_path, capsys, text, detail):
        config = tmp_path / "cfg.json"
        config.write_text(text)
        assert run("scenario", "run", "h1l1-ccf", "--trials", "1",
                   "--config", str(config), "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert str(config) in err and detail in err

    def test_noise_psd_model(self, tmp_path, capsys):
        config = tmp_path / "model.json"
        config.write_text('{"segments": [{"f_hz": 1.0,\n "level": }]}')
        assert run("noise", "--duration", "1", "--config", str(config),
                   "--out", str(tmp_path)) == 2
        assert "line 2 column 11" in capsys.readouterr().err

    def test_integer_too_long_to_convert(self, tmp_path, capsys):
        # json's int() refuses more than sys.get_int_max_str_digits() digits
        huge = "9" * 5000
        limit = f"invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits"
        config = tmp_path / "cfg.json"
        config.write_text(f'{{"options": {{"chi2_bins": {huge}}}}}')
        assert run("scenario", "run", "mf-bogus", "--trials", "1",
                   "--config", str(config), "--out", str(tmp_path)) == 2
        assert f"{config}: {limit}" in capsys.readouterr().err
        model = tmp_path / "model.json"
        model.write_text(f'{{"segments": [{{"f_hz": 1.0, "level": {huge}, "slope": 0.0}}]}}')
        assert run("noise", "--duration", "1", "--config", str(model),
                   "--out", str(tmp_path)) == 2
        assert f"{model}: {limit}" in capsys.readouterr().err
        assert run("template", "--kind", "gw150914", "--fs", "1024",
                   "--out", str(tmp_path)) == 0
        meta = tmp_path / "gw150914.json"
        meta.write_text(f'{{"f0_hz": {huge}}}')
        assert run("bogus", "--template", str(tmp_path / "gw150914"),
                   "--out", str(tmp_path)) == 2
        assert f"{meta}: {limit}" in capsys.readouterr().err

    def test_bogus_template_metadata(self, tmp_path, capsys):
        assert run("template", "--kind", "gw150914", "--fs", "1024",
                   "--out", str(tmp_path)) == 0
        (tmp_path / "gw150914.json").write_text('{"f0_hz": 0.0,')
        assert run("bogus", "--template", str(tmp_path / "gw150914"),
                   "--out", str(tmp_path)) == 2
        assert "gw150914.json" in capsys.readouterr().err

    @pytest.mark.parametrize("field, text, message", [
        ("fs_hz", "100", "fs_hz is 100, but {wav} holds 1024.0"),
        ("duration_s", "2.0", "duration_s is 2.0, but {wav} holds 0.2001953125"),
        ("duration_s", '"0.2001953125"', "duration_s is '0.2001953125', but {wav} holds "
                                         "0.2001953125"),
        ("waveform", '"gw151226.gwx"', "waveform is 'gw151226.gwx', but the waveform file is "
                                       "'gw150914.gwx'"),
        ("f0_hz", "1e400", "f0_hz must be finite, got inf"),
        ("f0_hz", "1" + "0" * 400, "f0_hz must be finite, got 1" + "0" * 400),
        ("f0_hz", '"56.0"', "f0_hz must be a number, got '56.0'"),
        ("f0_hz", "true", "f0_hz must be a number, got True"),
    ], ids=["fs", "duration", "duration-string", "waveform", "f0-infinite", "f0-huge-int",
            "f0-string", "f0-bool"])
    def test_bogus_template_metadata_disagrees(self, tmp_path, capsys, field, text, message):
        # one field of the metadata `template` wrote is replaced by ``text``
        assert run("template", "--kind", "gw150914", "--fs", "1024",
                   "--out", str(tmp_path)) == 0
        meta = tmp_path / "gw150914.json"
        info = json.loads(meta.read_text())
        assert set(info) == {"f0_hz", "fs_hz", "duration_s", "waveform"}
        info[field] = "FIELD"
        meta.write_text(json.dumps(info).replace('"FIELD"', text))
        assert run("bogus", "--template", str(tmp_path / "gw150914"),
                   "--out", str(tmp_path)) == 2
        wav = tmp_path / "gw150914.gwx"
        assert f"{meta}: {message.format(wav=wav)}" in capsys.readouterr().err


class TestWrongShapeJson:
    """JSON that parses but holds the wrong shape exits 2, not with a traceback."""

    @pytest.mark.parametrize("text, key", [
        ('{"options": []}', "'options' must be a JSON object, got list"),
        ('{"inputs": ["a"]}', "'inputs' must be a JSON object, got list"),
    ], ids=["options", "inputs"])
    def test_scenario_config(self, tmp_path, capsys, text, key):
        config = tmp_path / "cfg.json"
        config.write_text(text)
        assert run("scenario", "run", "h1l1-ccf", "--trials", "1",
                   "--config", str(config), "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert str(config) in err and key in err

    def test_scenario_config_unknown_top_level_key(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{"option": {"window": 1.0}}')
        assert run("scenario", "run", "h1l1-ccf", "--trials", "1",
                   "--config", str(config), "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert str(config) in err and "'option'" in err

    def test_bogus_template_f0(self, tmp_path, capsys):
        assert run("template", "--kind", "gw150914", "--fs", "1024",
                   "--out", str(tmp_path)) == 0
        (tmp_path / "gw150914.json").write_text('{"f0_hz": "x"}')
        assert run("bogus", "--template", str(tmp_path / "gw150914"),
                   "--out", str(tmp_path)) == 2
        assert "gw150914.json: f0_hz must be a number" in capsys.readouterr().err

    def test_noise_psd_model_floor(self, tmp_path, capsys):
        config = tmp_path / "model.json"
        config.write_text('{"segments": [{"f_hz": 1.0, "level": 1.0, "slope": 0.0}], '
                          '"f_floor_hz": "x"}')
        assert run("noise", "--duration", "1", "--config", str(config),
                   "--out", str(tmp_path)) == 2
        assert "model needs a positive finite f_floor_hz" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ('{"segments": [{"f_hz": 1.0, "level": 1.0, "slope": 0.0}], "f_floor_hz": "x"}',
         "model needs a positive finite f_floor_hz; got f_floor_hz='x'"),
        ('{"lines": []}', "bad PSD model config: missing 'segments'"),
        ('{"segments": [{"f_hz": 1.0, "level": Infinity, "slope": 0.0}]}',
         "segment needs positive finite f_hz and level, finite slope"),
        # integers too large for a float
        ('{"segments": [{"f_hz": 1.0, "level": 1%s, "slope": 0.0}]}' % ("0" * 400),
         "segment needs positive finite f_hz and level, finite slope; got level=1000"),
        ('{"segments": [{"f_hz": 1.0, "level": 1.0, "slope": -1%s}]}' % ("0" * 400),
         "segment needs positive finite f_hz and level, finite slope; got slope=-1000"),
        ('{"segments": [{"f_hz": 1.0, "level": 1.0, "slope": 0.0}], '
         '"lines": [{"f_hz": 60.0, "ratio": 1%s, "width_hz": 0.5}]}' % ("0" * 400),
         "line needs positive finite f_hz, ratio, width_hz; got ratio=1000"),
        ('{"segments": [{"f_hz": 1.0, "level": 1.0, "slope": 0.0}], "f_floor_hz": 1%s}'
         % ("0" * 400), "model needs a positive finite f_floor_hz; got f_floor_hz=1000"),
        ('{"segments": [{"f_hz": 1.0, "level": 1.0, "slope": 0.0}], "f_floor_hz": NaN}',
         "model needs a positive finite f_floor_hz; got f_floor_hz=nan"),
        ('{"segments": [{"f_hz": 1.0, "level": 1.0, "slope": 0.0}], "f_floor_hz": Infinity}',
         "model needs a positive finite f_floor_hz; got f_floor_hz=inf"),
        # a string or a bool was read as a number before
        ('{"segments": [{"f_hz": 1.0, "level": 1.0, "slope": 0.0}], "f_floor_hz": "2"}',
         "model needs a positive finite f_floor_hz; got f_floor_hz='2'"),
        ('{"segments": [{"f_hz": 1.0, "level": 1.0, "slope": 0.0}], "f_floor_hz": true}',
         "model needs a positive finite f_floor_hz; got f_floor_hz=True"),
        ('{"segments": [{"f_hz": 1.0, "level": 1.0, "slope": 0.0}], "f_floor_hz": 0}',
         "model needs a positive finite f_floor_hz; got f_floor_hz=0"),
        # a misspelt key would drop what it holds
        ('{"segments": [{"f_hz": 1.0, "level": 1.0, "slope": 0.0}], "line": []}',
         "bad PSD model config: unknown key 'line'; the keys are 'segments', 'lines' "
         "and 'f_floor_hz'"),
    ], ids=["floor", "no-segments", "non-finite-level", "huge-level", "huge-slope",
            "huge-ratio", "huge-floor", "nan-floor", "inf-floor", "string-floor",
            "bool-floor", "zero-floor", "unknown-key"])
    def test_psd_model_errors_name_the_file(self, tmp_path, capsys, text, message):
        config = tmp_path / "model.json"
        config.write_text(text)
        assert run("noise", "--duration", "1", "--config", str(config),
                   "--out", str(tmp_path)) == 2
        assert f"{config}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("options, message", [
        ({"hop": "x"}, "option 'hop' must be a finite number, got 'x'"),
        ({"exclusions": [[1.0, "x"]]}, "an exclusion must be a (start, end) pair"),
        ({"duration": "x"}, "option 'duration' must be a finite number, got 'x'"),
        ({"exclusions": 5}, "option 'exclusions' must be a list of [start, end] pairs"),
        ({"edge_exclusion": "x"}, "option 'edge_exclusion' must be a finite number"),
        ({"band": "x"}, "option 'band' must be a pair [f_lo, f_hi] of numbers, got 'x'"),
        ({"duration": 10**400}, "option 'duration' must be a finite number"),
        ({"hop": 10**400}, "option 'hop' must be a finite number"),
        ({"hop": 1e-12}, "hop must be at least one sample (1/fs = 0.000244140625 s), "
                         "got 1e-12"),
        ({"exclusions": [[3, 2]]}, "exclusion [3, 2] ends before it starts"),
    ], ids=["hop", "exclusion", "duration", "exclusions", "edge_exclusion", "band",
            "huge-duration", "huge-hop", "sub-sample-hop", "reversed-exclusion"])
    def test_running_baseline_option_values(self, tmp_path, capsys, options, message):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"options": {"duration": 8.0, **options}}))
        assert run("scenario", "run", "running-baseline", "--trials", "1",
                   "--config", str(config), "--out", str(tmp_path)) == 2
        assert message in capsys.readouterr().err

    def test_running_baseline_refuses_a_sub_sample_hop_before_any_work(self, tmp_path,
                                                                       capsys, monkeypatch):
        def no_noise(*args, **kwargs):
            raise AssertionError("noise synthesized before the hop was checked")

        monkeypatch.setattr(scenarios, "colored_noise", no_noise)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"options": {"hop": 1e-12}}))
        assert run("scenario", "run", "running-baseline", "--trials", "1",
                   "--config", str(config), "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: hop must be at least one sample")
        assert "trial 0" not in err

    @pytest.mark.parametrize("name, options, message", [
        ("mf-sine-misfire", {"block_len": 0}, "option 'block_len' must be a positive finite "
                                              "number, got 0"),
        ("mf-awgn-misfire", {"block_len": 0}, "option 'block_len' must be a positive finite "
                                              "number, got 0"),
        ("whiten-distortion", {"span": 0}, "option 'span' must be a positive finite number"),
        ("circular-artifact", {"block_len": 0}, "option 'block_len' must be a positive"),
        ("circular-artifact", {"block_len": -1}, "option 'block_len' must be a positive finite "
                                                 "number, got -1"),
        ("mf-sine-misfire", {"burst_duration": -1}, "option 'burst_duration' must be a positive "
                                                    "finite number, got -1"),
        ("mf-awgn-misfire", {"burst_duration": -1}, "option 'burst_duration' must be a positive "
                                                    "finite number, got -1"),
        ("h1l1-ccf", {"window": -1}, "option 'window' must be a positive finite number, got -1"),
        ("window-compare", {"long_window": -1}, "option 'long_window' must be a positive "
                                                "finite number, got -1"),
        ("h1l1-ccf", {"max_lag": 0}, "option 'max_lag' must be a positive finite number, got 0"),
        ("ccf-bogus", {"max_lag": -1}, "option 'max_lag' must be a positive finite number"),
        ("ref-systems", {"max_lag": 0}, "option 'max_lag' must be a positive finite number"),
        ("window-compare", {"long_max_lag": 0}, "option 'long_max_lag' must be a positive "
                                                "finite number, got 0"),
        ("mf-sine-misfire", {"burst_at": -1}, "option 'burst_at' must lie in "
                                              "[0, block_len - burst_duration] = [0, 31.0] s, "
                                              "got -1"),
        ("mf-awgn-misfire", {"burst_at": 31.5}, "option 'burst_at' must lie in "
                                                "[0, block_len - burst_duration] = [0, 31.0] s, "
                                                "got 31.5"),
        ("mf-sine-misfire", {"block_len": 4.0, "burst_duration": 5.0},
         "option 'burst_at' must lie in [0, block_len - burst_duration] = [0, -1.0] s"),
        ("mf-sine-misfire", {"sigma_ratio": 0}, "option 'sigma_ratio' must be a positive "
                                                "finite number, got 0"),
        ("mf-awgn-misfire", {"sigma_ratio": -1}, "option 'sigma_ratio' must be a positive "
                                                 "finite number, got -1"),
        ("mf-awgn-misfire", {"sigma_ratio": 0, "block_len": 8.0, "burst_at": 3.0},
         "option 'sigma_ratio' must be a positive finite number, got 0"),
        ("mf-sine-misfire", {"burst_f0": 0}, "option 'burst_f0' must be a positive finite "
                                             "number, got 0"),
        ("mf-sine-misfire", {"burst_f0": -1}, "option 'burst_f0' must be a positive finite "
                                              "number, got -1"),
        ("mf-sine-misfire", {"decay_tau": 0}, "option 'decay_tau' must be a positive finite "
                                              "number, got 0"),
        ("mf-sine-misfire", {"decay_tau": -1}, "option 'decay_tau' must be a positive finite "
                                               "number, got -1"),
        ("whiten-distortion", {"line_ratio": 0}, "option 'line_ratio' must be a positive "
                                                 "finite number, got 0"),
        ("whiten-distortion", {"line_ratio": -1}, "option 'line_ratio' must be a positive "
                                                  "finite number, got -1"),
    ], ids=["sine-block_len", "awgn-block_len", "span", "artifact-block_len-0",
            "artifact-block_len-neg", "sine-burst_duration-neg", "awgn-burst_duration-neg",
            "h1l1-window-neg", "window-compare-long_window-neg", "h1l1-max_lag-0",
            "ccf-bogus-max_lag-neg", "ref-systems-max_lag-0", "window-compare-long_max_lag-0",
            "sine-burst_at-neg", "awgn-burst_at-late", "sine-burst-longer-than-block",
            "sine-sigma_ratio-0", "awgn-sigma_ratio-neg", "awgn-sigma_ratio-0-short-block",
            "sine-burst_f0-0", "sine-burst_f0-neg", "sine-decay_tau-0", "sine-decay_tau-neg",
            "whiten-distortion-line_ratio-0", "whiten-distortion-line_ratio-neg"])
    def test_out_of_range_option_values(self, tmp_path, capsys, monkeypatch, name, options,
                                        message):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the options were checked")

        for stage in ("colored_noise", "matched_filter", "normalized_ccf"):
            monkeypatch.setattr(scenarios, stage, no_work)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"options": options}))
        assert run("scenario", "run", name, "--trials", "1",
                   "--config", str(config), "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert message in err and "trial 0" not in err


NON_FINITE_FLAGS = [
    ("noise", "--duration"), ("noise", "--fs"), ("template", "--fs"), ("bogus", "--fs"),
    ("bogus", "--sigma-phase"), ("inject", "--at"), ("psd", "--segment"),
    ("whiten", "--line-window-hz"), ("whiten", "--line-threshold"), ("ccf", "--max-lag"),
    ("ccf", "--tau0"), ("running-ccf", "--hop"), ("scenario", "--fs"),
    ("far", "--nb"), ("far", "--t"), ("far", "--tb"),
]
PAIR_FLAGS = [("bandpass", "--band"), ("mf", "--band"), ("running-ccf", "--exclude")]
_NEEDS = {  # the other arguments each subcommand requires
    "inject": ["--host", "h.gwx", "--signal", "s.gwx", "--at", "1"],
    "psd": ["--strain", "s.gwx"], "whiten": ["--strain", "s.gwx"],
    "bandpass": ["--strain", "s.gwx"], "mf": ["--strain", "s.gwx", "--template", "t.gwx"],
    "ccf": ["--a", "a.gwx", "--b", "b.gwx", "--max-lag", "0.1"],
    "running-ccf": ["--strain", "s.gwx", "--template", "t.gwx"],
    "scenario": ["run", "h1l1-ccf"], "far": ["--nb", "0", "--t", "1", "--tb", "2"],
}


class TestNonFiniteFlags:
    """Every float flag refuses nan, inf and overflowing values when parsed,
    before any file is read, and the error names the flag."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "x"])
    @pytest.mark.parametrize("command, flag", NON_FINITE_FLAGS,
                             ids=[f"{c} {f}" for c, f in NON_FINITE_FLAGS])
    def test_number(self, tmp_path, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            run(command, *_NEEDS.get(command, []), f"{flag}={value}", "--out", str(tmp_path))
        assert exc.value.code == 2
        assert f"argument {flag}: expected a finite number, got {value!r}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan:300", "43:inf", "1e400:1", "43", "1:2:3"])
    @pytest.mark.parametrize("command, flag", PAIR_FLAGS,
                             ids=[f"{c} {f}" for c, f in PAIR_FLAGS])
    def test_pair(self, tmp_path, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            run(command, *_NEEDS[command], flag, value, "--out", str(tmp_path))
        assert exc.value.code == 2
        assert f"argument {flag}: expected " in capsys.readouterr().err

    def test_every_float_flag_is_covered(self):
        from gwxlab.cli import _finite_float, build_parser

        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {(name, action.option_strings[-1]) for name, p in sub.choices.items()
                 for action in p._actions if action.type is _finite_float}
        assert flags == set(NON_FINITE_FLAGS)


class TestChi2BandCount:
    """A band count above the in-band bins exits 2 before anything is built."""

    @pytest.mark.parametrize("name", ["mf-sine-misfire", "mf-awgn-misfire", "mf-bogus"])
    def test_scenario_option(self, tmp_path, capsys, name):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"options": {"chi2_bins": 10**400}}))
        assert run("scenario", "run", name, "--trials", "1",
                   "--config", str(config), "--out", str(tmp_path)) == 2
        assert f"cannot build {10**400} chi-squared bands from" in capsys.readouterr().err

    @pytest.mark.parametrize("n_bins", [str(10**400), "20000"], ids=["400-digits", "20000"])
    def test_mf_flag(self, tmp_path, capsys, n_bins):
        strain = tmp_path / "s.gwx"
        save_strain(TimeSeries(FS, 0.0, np.random.default_rng(2).standard_normal(int(4 * FS))),
                    strain)
        tpl = tmp_path / "t.gwx"
        save_strain(stock_template("gw150914", FS).base, tpl)
        assert run("mf", "--strain", str(strain), "--template", str(tpl),
                   "--psd", "model", "--n-bins", n_bins, "--out", str(tmp_path)) == 2
        assert f"cannot build {n_bins} chi-squared bands from 2048 in-band bins" in \
            capsys.readouterr().err


class TestSampleCounts:
    """A duration or rate whose sample count no array can hold exits 2 naming
    the input, as does an input that needs more memory than the machine has."""

    @pytest.mark.parametrize("argv, named", [
        (["noise", "--duration", "1e300"], "noise duration of 1e+300 s at 4096.0 Hz"),
        (["noise", "--duration", "1e300", "--fs", "1e300"],
         "noise duration of 1e+300 s at 1e+300 Hz is inf samples"),
        (["template", "--fs", "1e300"], "chirp duration of 0.2 s at 1e+300 Hz"),
        (["bogus", "--fs", "1e300"], "chirp duration of 0.2 s at 1e+300 Hz"),
        (["scenario", "run", "mf-bogus", "--fs", "1e300", "--trials", "1"],
         "chirp duration of 0.2 s at 1e+300 Hz"),
    ], ids=["duration", "duration-and-rate", "template", "bogus", "mf-bogus"])
    def test_count_no_array_can_hold(self, tmp_path, capsys, argv, named):
        assert run(*argv, "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert named in err and "more than an array can hold" in err

    # 1e12 s at 4096 Hz: the first array, the noise model on 2.048e15 bins,
    # is 14.6 PiB, past any 47-bit address space, so its allocation fails
    # before any memory is touched
    @pytest.mark.parametrize("argv, shrink", [
        (["noise", "--duration", "1e12"], "--duration or --fs"),
        (["scenario", "run", "running-baseline", "--trials", "1", "--config", "{config}"],
         "a scenario's --fs or duration option"),
    ], ids=["noise", "running-baseline"])
    def test_input_past_the_machine_memory(self, tmp_path, capsys, argv, shrink):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"options": {"duration": 1e12}}))
        argv = [a.format(config=config) for a in argv]
        assert run(*argv, "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "the input needs more memory than this machine has" in err and shrink in err


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    """Each ``gwxlab`` line of README.md's ``sh`` blocks, continuations joined."""
    text = README.read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["gwxlab"]:
                commands.append(words[1:])
    return commands


README_COMMANDS = readme_commands()


def _readme_exits_3(argv: list[str]) -> bool:
    """README's raw-strain ``cyclic_prefix`` filter line (ROADMAP item 2)."""
    return argv[0] == "mf" and "cyclic_prefix" in argv and "--no-reweight" not in argv


def _readme_param(index: int, argv: list[str]):
    marks = ()
    if _readme_exits_3(argv):
        marks = pytest.mark.xfail(
            strict=True,
            reason="exits 3: on the template's own frequency grid the template power "
                   "is too concentrated for 16 chi-squared bands (ROADMAP item 2)")
    return pytest.param(index, marks=marks, id=f"{index}-{argv[0]}")


class TestReadme:
    @pytest.fixture(scope="class")
    def exit_codes(self, tmp_path_factory):
        """Run README's commands in order in one fresh directory."""
        cwd = os.getcwd()
        os.chdir(tmp_path_factory.mktemp("readme"))
        try:
            codes = []
            for argv in README_COMMANDS:
                try:
                    codes.append(main(argv))
                except SystemExit as exc:  # argparse rejected the line
                    codes.append(exc.code)
            return codes
        finally:
            os.chdir(cwd)

    def test_block_found(self):
        assert len(README_COMMANDS) >= 10

    @pytest.mark.parametrize("index", [_readme_param(i, argv)
                                       for i, argv in enumerate(README_COMMANDS)])
    def test_command_exits_0(self, exit_codes, index):
        assert exit_codes[index] == 0, "gwxlab " + " ".join(README_COMMANDS[index])

    def test_library_sketch_finds_the_injection(self, capsys):
        (code,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
        namespace = {}
        exec(compile(code, "README.md", "exec"), namespace)
        assert abs(namespace["snr"].peak.time - 16.0) <= 0.005, capsys.readouterr().out


# packages that no command loads, with every module under them
LAZY_MODULES = ("scipy",)

_CHAIN = """
import sys
from gwxlab.cli import main

for argv in {chain!r}:
    code = main(argv)
    assert code == 0 or argv in {exit_3!r} and code == 3, (argv, code)
print(sorted(m for m in sys.modules
             if any(m == p or m.startswith(p + ".") for p in {modules!r})))
"""
_SETUP = [
    ["noise", "--duration", "8", "--seed", "3", "--out", "run"],
    ["template", "--kind", "gw150914", "--out", "run"],
]


def lazy_modules_loaded(tmp_path, chain, setup=_SETUP, exit_3=(),
                        modules=LAZY_MODULES) -> list[str]:
    """Run ``setup`` and then ``chain`` of CLI argument lists in a fresh
    interpreter, each exiting 0 (or 3 if listed in ``exit_3``); the
    modules it loaded that are, or are under, one of ``modules``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    script = _CHAIN.format(chain=[*setup, *chain], exit_3=list(exit_3), modules=modules)
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def _imports(tree: ast.Module):
    """(line, module) of each absolute import, at any depth: at module level
    and inside functions alike."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


class TestLazyImports:
    """scipy is a test dependency only: no module imports it and no command
    loads any of it."""

    def test_no_module_imports_scipy(self):
        package = Path(__file__).resolve().parents[1] / "src" / "gwxlab"
        found = [f"{path.name}:{line} {name}" for path in sorted(package.glob("*.py"))
                 for line, name in _imports(ast.parse(path.read_text()))
                 if name.split(".")[0] in LAZY_MODULES]
        assert found == []

    def test_import_scan_sees_every_import(self):
        tree = ast.parse("import scipy.fft\nif True:\n    from scipy import signal\n"
                         "def f():\n    import scipy.ndimage\n    from . import cli\n")
        assert sorted(_imports(tree)) == [(1, "scipy.fft"), (3, "scipy"), (5, "scipy.ndimage")]

    def test_matched_filter_chain_loads_no_scipy_signal(self, tmp_path):
        chain = [
            ["inject", "--host", "run/noise.gwx", "--signal", "run/gw150914.gwx", "--at", "4",
             "--out", "run"],
            ["mf", "--strain", "run/injected.gwx", "--template", "run/gw150914.gwx",
             "--psd", "model", "--mode", "circular", "--out", "run"],
            ["mf", "--strain", "run/injected.gwx", "--template", "run/gw150914.gwx",
             "--psd", "model", "--mode", "cyclic_prefix", "--no-reweight", "--out", "run"],
            ["scenario", "run", "mf-sine-misfire", "--trials", "2", "--seed", "3",
             "--out", "runs"],
        ]
        assert lazy_modules_loaded(tmp_path, chain) == []

    def test_ccf_chain_loads_no_scipy_signal(self, tmp_path):
        chain = [
            ["noise", "--duration", "1", "--seed", "1", "--name", "a.gwx", "--out", "run"],
            ["noise", "--duration", "1", "--seed", "2", "--name", "b.gwx", "--out", "run"],
            ["whiten", "--strain", "run/noise.gwx", "--psd", "model", "--whiten", "full",
             "--out", "run"],
            ["ccf", "--a", "run/a.gwx", "--b", "run/b.gwx", "--max-lag", "0.5", "--out", "run"],
            ["running-ccf", "--strain", "run/noise.gwx", "--template", "run/gw150914.gwx",
             "--hop", "0.05", "--out", "run"],
        ]
        assert lazy_modules_loaded(tmp_path, chain) == []

    def test_bandpass_loads_no_scipy(self, tmp_path):
        chain = [["bandpass", "--strain", "run/noise.gwx", "--band", "43:300", "--out", "run"]]
        assert lazy_modules_loaded(tmp_path, chain) == []

    def test_running_baseline_loads_no_scipy(self, tmp_path):
        chain = [["scenario", "run", "running-baseline", "--trials", "1", "--seed", "3",
                  "--out", "runs"]]
        assert lazy_modules_loaded(tmp_path, chain) == []

    def test_runtime_dependencies_are_numpy_only(self):
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
            project = tomllib.load(fh)["project"]
        names = [re.match(r"[A-Za-z0-9_.-]+", req).group() for req in project["dependencies"]]
        assert names == ["numpy"]
        # np.fft.*(out=), which the band-pass, the CCF and the filter use, is numpy 2.0's
        assert project["dependencies"] == ["numpy>=2.0"]
        assert any(req.startswith("scipy")
                   for req in project["optional-dependencies"]["test"])

    def test_psd_loads_no_scipy(self, tmp_path):
        chain = [["psd", "--strain", "run/noise.gwx", "--out", "run"]]
        assert lazy_modules_loaded(tmp_path, chain) == []

    def test_localized_whitening_loads_no_scipy(self, tmp_path):
        chain = [
            ["psd", "--strain", "run/noise.gwx", "--segment", "2", "--out", "run"],
            ["whiten", "--strain", "run/noise.gwx", "--psd", "run/psd.csv",
             "--whiten", "localized", "--out", "run"],
            ["whiten", "--strain", "run/noise.gwx", "--psd", "model",
             "--whiten", "localized", "--out", "run"],
        ]
        assert lazy_modules_loaded(tmp_path, chain) == []

    def test_pipeline_loads_no_numpy_ma(self, tmp_path):
        """A PSD floor, the localized divisor floor and the running-CCF summary
        take their medians without ``np.median``, and a scenario summary its
        quantiles without ``np.quantile``; both import numpy.ma."""
        chain = [
            ["inject", "--host", "run/noise.gwx", "--signal", "run/gw150914.gwx", "--at", "4",
             "--out", "run"],
            ["psd", "--strain", "run/noise.gwx", "--out", "run"],
            ["whiten", "--strain", "run/injected.gwx", "--psd", "model", "--whiten", "full",
             "--out", "run"],
            ["whiten", "--strain", "run/injected.gwx", "--psd", "run/psd.csv",
             "--whiten", "localized", "--out", "run"],
            ["whiten", "--strain", "run/injected.gwx", "--psd", "model",
             "--whiten", "localized", "--out", "run"],
            ["mf", "--strain", "run/injected.gwx", "--template", "run/gw150914.gwx",
             "--psd", "model", "--mode", "circular", "--out", "run"],
            ["mf", "--strain", "run/injected.gwx", "--template", "run/gw150914.gwx",
             "--psd", "run/psd.csv", "--mode", "cyclic_prefix", "--no-reweight",
             "--out", "run"],
            ["running-ccf", "--strain", "run/noise.gwx", "--template", "run/gw150914.gwx",
             "--hop", "1", "--exclude", "3:5", "--out", "run"],
            ["scenario", "run", "mf-sine-misfire", "--trials", "3", "--seed", "3",
             "--out", "runs"],
        ]
        assert lazy_modules_loaded(tmp_path, chain, modules=("numpy.ma",)) == []

    def test_readme_chain_loads_no_scipy(self, tmp_path):
        exit_3 = [argv for argv in README_COMMANDS if _readme_exits_3(argv)]
        assert lazy_modules_loaded(tmp_path, README_COMMANDS, setup=[],
                                   exit_3=exit_3) == []
