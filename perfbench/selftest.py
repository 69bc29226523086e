"""Self-tests of the benchmark harness (about half a minute).

    python3 perfbench/selftest.py

They check the tracer's self-time accounting, that failed ops are
counted while the run goes on, that two workload seeds pass every
output check, that runs print the metrics BENCHMARK.json names and
leave no temporary files, and that the benchmark refuses to run without
the program's sources.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import unittest

import run

run.import_gwxlab()

import numpy  # noqa: E402
import scipy.fft  # noqa: E402

import gwxlab  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from gwxlab import detection, scenarios  # noqa: E402

SKIP_DIRS = {".git", "__pycache__", ".pytest_cache"}


def benchmark_spec() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        return json.load(fh)


def tree_snapshot() -> dict:
    """(size, mtime) of every file of the checkout outside ``perfbench/out``."""
    snap = {}
    for top, dirs, files in os.walk(run.ROOT):
        dirs[:] = [d for d in dirs if d not in SKIP_DIRS
                   and os.path.join(top, d) != run.OUT_DIR]
        for name in files:
            st = os.stat(os.path.join(top, name))
            snap[os.path.join(top, name)] = (st.st_size, st.st_mtime_ns)
    return snap


def run_benchmark(*args, root=run.ROOT):
    """Run ``perfbench/run.py`` of the checkout at ``root``, from ``root``."""
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=300)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TracerTest(unittest.TestCase):
    def test_self_time_of_nested_calls(self):
        clock = FakeClock()
        tr = tracer.Tracer(clock=clock)

        def inner():
            clock.t += 0.030

        traced_inner = tr.wrap(inner, "series", "inner")

        def outer():
            clock.t += 0.010
            traced_inner()
            clock.t += 0.010
            traced_inner()

        traced_outer = tr.wrap(outer, "cli", "outer")
        with tr.op(0):
            clock.t += 0.005
            traced_outer()
        m = tracer.layer_metrics(tr.spans, 1)
        self.assertAlmostEqual(m["cli.self_ms"], 20.0)
        self.assertAlmostEqual(m["series.self_ms"], 60.0)
        self.assertEqual(m["series.calls"], 2)
        self.assertEqual(m["cli.calls"], 1)
        self.assertAlmostEqual(m["trace.self_sum_frac"], 80.0 / 85.0)

    def test_errors_are_counted_and_raised(self):
        tr = tracer.Tracer()

        def broken():
            raise ValueError("boom")

        traced = tr.wrap(broken, "simulation", "broken")
        with self.assertRaises(ValueError), tr.op(0):
            traced()
        m = tracer.layer_metrics(tr.spans, 1)
        self.assertEqual(m["simulation.errors"], 1)

    def test_install_wraps_every_binding_and_uninstall_restores(self):
        def bindings():
            mods = [m for n, m in sys.modules.items() if n.startswith("gwxlab")]
            mods += [numpy.fft, scipy.fft]
            return {(id(m), k): v for m in mods for k, v in vars(m).items()}

        tpl = gwxlab.stock_template("gw150914").base
        psd = gwxlab.default_detector_model().to_power_spectrum(0.125, 16385)
        before = bindings()
        evaluate = gwxlab.PsdModel.evaluate
        tr = tracer.Tracer()
        tr.install()
        try:
            self.assertIsNot(scenarios.matched_filter,
                             before[(id(scenarios), "matched_filter")])
            self.assertIs(scenarios.matched_filter, detection.matched_filter)
            self.assertIs(gwxlab.matched_filter, detection.matched_filter)
            self.assertIsNot(gwxlab.PsdModel.evaluate, evaluate)
            with tr.op(0):
                detection.sigma_norm(tpl, psd)
        finally:
            tr.uninstall()
        self.assertEqual(bindings(), before)
        self.assertIs(gwxlab.PsdModel.evaluate, evaluate)
        m = tracer.layer_metrics(tr.spans, 1)
        self.assertEqual(m["detection.mf.calls"], 1)
        self.assertEqual(m["detection.mf.fft_calls"], 1)
        self.assertEqual(m["detection.mf.fft_points"], tpl.n)
        self.assertEqual(m["simulation.calls"], 0)


class FakeWorkload:
    work_per_op = 1
    unit = "ops"
    tail_percentile = 80

    def __init__(self, fail_at=(), raise_at=()):
        self.fail_at, self.raise_at = set(fail_at), set(raise_at)
        self.finished = []
        self.counters = {"events": 3}

    def prepare_op(self, index):
        return index

    def run(self, index):
        if index in self.raise_at:
            raise RuntimeError("op raised")
        return index

    def check(self, index, out):
        return ["deliberate failure"] if index in self.fail_at else []

    def finish(self, index):
        self.finished.append(index)


class LoopTest(unittest.TestCase):
    def test_failed_ops_are_counted_and_the_run_goes_on(self):
        wl = FakeWorkload(fail_at={2}, raise_at={4})
        loop = run.closed_loop(wl, 0.05)
        self.assertGreater(loop["attempted"], 5)
        self.assertEqual(loop["failed"], 2)
        self.assertEqual(len(loop["untraced_ms"]), loop["attempted"] - 3)
        self.assertEqual(wl.finished, list(range(loop["attempted"])))
        _, notes = run.end_to_end(wl, loop, [1.0])
        self.assertEqual(notes["failed_frac"], 2 / loop["attempted"])

    def test_tail_percentile_is_fixed_by_the_workload(self):
        for n in (11, 56):
            loop = {"attempted": n, "failed": 0,
                    "untraced_ms": [float(v) for v in range(n, 0, -1)]}
            metrics, notes = run.end_to_end(FakeWorkload(), loop, [1.0])
            self.assertAlmostEqual(metrics["op_ms_tail"], 1 + 0.8 * (n - 1))
            self.assertEqual(notes["op_ms_tail_percentile"], 80)
            self.assertEqual(notes["events"], 3)


class WorkloadTest(unittest.TestCase):
    def setUp(self):
        self.tmp = os.path.join(run.OUT_DIR, f"selftest-{os.getpid()}")
        os.makedirs(self.tmp)

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def test_two_seeds_pass_every_check(self):
        for name, cls in workloads.WORKLOADS.items():
            for seed in (workloads.DEFAULT_SEED, 7):
                wl = cls(seed, self.tmp)
                try:
                    ctx = wl.prepare_op(0)
                    try:
                        self.assertEqual(wl.check(ctx, wl.run(ctx)), [], (name, seed))
                    finally:
                        wl.finish(ctx)
                finally:
                    wl.close()
        self.assertEqual(os.listdir(self.tmp), [])

    def test_reference_check_catches_a_small_change(self):
        wl = workloads.McMatchedFilter(workloads.DEFAULT_SEED, self.tmp)
        self.assertGreaterEqual(len(wl.reference), 100)
        ctx = wl.prepare_op(0)
        result = wl.run(ctx)
        self.assertEqual(wl.check(ctx, result), [])
        trial = result.trials[1]
        nudged = [t if t is not trial else
                  dataclasses.replace(t, peak_rho=t.peak_rho * (1 + 1e-5))
                  for t in result.trials]
        problems = wl.check(ctx, dataclasses.replace(result, trials=nudged))
        self.assertEqual(len(problems), 1)
        self.assertIn("trial 1: peak_rho", problems[0])
        past = len(wl.reference)
        self.assertEqual(wl.check((past, ctx[1]), result), [])
        self.assertEqual(wl.counters["ops_past_reference"], 1)

    def test_default_seed_needs_the_reference(self):
        saved = workloads.REFERENCE_PATH
        workloads.REFERENCE_PATH = os.path.join(self.tmp, "missing.json")
        try:
            with self.assertRaises(FileNotFoundError):
                workloads.McMatchedFilter(workloads.DEFAULT_SEED, self.tmp)
            workloads.McMatchedFilter(workloads.DEFAULT_SEED + 1, self.tmp)
        finally:
            workloads.REFERENCE_PATH = saved

    def test_readme_chain_miss_is_counted_not_failed(self):
        """Op 3 at workload seed 14 is the seed of ``KnownDefectTest``."""
        wl = workloads.CliPipeline(14, self.tmp)
        try:
            ctx = wl.prepare_op(3)
            try:
                self.assertEqual(wl.check(ctx, wl.run(ctx)), [])
            finally:
                wl.finish(ctx)
        finally:
            wl.close()
        self.assertEqual(wl.counters, {"readme_chain_peak_misses": 1})

    def test_window_grid_matches_the_running_ccf(self):
        wl = workloads.McRunningCcf(3, self.tmp)
        self.assertLessEqual(wl.required, wl.allowed)
        self.assertLessEqual(len(wl.allowed) - len(wl.required), 2)
        self.assertTrue(5900 < len(wl.required) < 6000)


class KnownDefectTest(unittest.TestCase):
    def setUp(self):
        self.tmp = os.path.join(run.OUT_DIR, f"selftest-{os.getpid()}")
        os.makedirs(self.tmp)

    def tearDown(self):
        shutil.rmtree(self.tmp)

    @unittest.expectedFailure
    def test_cyclic_prefix_after_band_passing_a_line_whitened_strain(self):
        """README's remedy for ``cyclic_prefix``, band-pass first, fails here:
        the band-pass leaves a start-edge transient (the seismic wall is
        still in the strain) that outranks the injection, so the peak is at
        0 s.  This is op 3 of cli-pipeline at workload seed 14 with the
        band-pass applied to the line-whitened strain; when the program is
        fixed, this test passes and the marker must go."""
        wl = workloads.CliPipeline(14, self.tmp)
        try:
            signal = gwxlab.load_strain(wl.signal)
        finally:
            wl.close()
        fs = workloads.FS
        model = gwxlab.default_detector_model()
        noise = gwxlab.colored_noise(model, 32.0, fs, seed=workloads.op_seed(14, 3))
        strain = gwxlab.inject(noise, signal, wl.t_inject)
        psd = gwxlab.welch_psd(strain, segment_len=int(4 * fs))
        lines = gwxlab.detect_lines(psd, threshold_ratio=10.0, median_window_hz=8.0)
        whitened = gwxlab.whiten_localized(strain, psd, lines, median_window_hz=8.0)
        band_passed = gwxlab.butterworth_bandpass(whitened, 43.0, 300.0)
        flat = gwxlab.PowerSpectrum(df=1.0, values=numpy.ones(int(fs / 2) + 1))
        snr = gwxlab.matched_filter(
            band_passed, gwxlab.stock_template("gw150914", fs).base, flat,
            gwxlab.MfConfig(block_len=None, mode="cyclic_prefix", reweight_bins=None))
        self.assertLessEqual(abs(snr.peak.time - wl.t_inject), wl.peak_tol_s)


class RunTest(unittest.TestCase):
    def result_of(self, proc) -> dict:
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_runs_print_the_named_metrics_and_leave_nothing_behind(self):
        spec = benchmark_spec()
        before = tree_snapshot()
        untraced = self.result_of(run_benchmark(
            "--workload", "cli-pipeline", "--seed", "5", "--seconds", "1", "--trace", "0"))
        traced = self.result_of(run_benchmark(
            "--workload", "mc-matched-filter", "--seed", "5", "--seconds", "2",
            "--trace", "1"))
        self.assertEqual(tree_snapshot(), before)
        self.assertEqual([n for n in os.listdir(run.OUT_DIR) if n.startswith("tmp-")], [])
        for result, key in ((untraced, "end_to_end"), (traced, "per_layer")):
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertEqual({n: m["unit"] for n, m in result["metrics"].items()},
                             {m["name"]: m["unit"] for m in spec[key]})

    def test_spec_names_match_the_harness(self):
        spec = benchmark_spec()
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.per_layer_units())
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOAD_NAMES)

    def test_refuses_to_run_without_the_sources(self):
        bare = os.path.join(run.OUT_DIR, f"bare-{os.getpid()}")
        try:
            shutil.copytree(run.BENCH_DIR, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            proc = run_benchmark("--workload", "mc-matched-filter", "--seconds", "1",
                                 root=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
            self.assertFalse(os.path.exists(os.path.join(bare, "perfbench", "out")))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
