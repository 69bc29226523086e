"""The benchmark's three workloads: their inputs, one op, and its output check.

Each workload is built from a workload seed; op ``i`` derives its own
seed from that seed and ``i``.  The benchmark calls, per op,
``prepare_op(i)`` (untimed), ``run(ctx)`` (timed), ``check(ctx, out)``
(untimed; returns a list of problems, empty when the op is correct) and
``finish(ctx)``; ``close()`` releases the workload's inputs.  A check may
also count events in ``counters``, which the benchmark reports next to
``failed_frac`` without failing the op.

The ops call gwxlab through module attributes (``scenarios.run_scenario``,
``cli.main``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import sys
import tempfile

import numpy as np

from gwxlab import cli, detection, scenarios, series, simulation, templates

DEFAULT_SEED = 1
FS = 4096.0
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference_mf.json")


def op_seed(workload_seed: int, index: int) -> int:
    """Seed of op ``index``: a 32-bit hash of the workload seed and index."""
    digest = hashlib.blake2b(f"{workload_seed}:{index}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little")


def _relative_error(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


class Workload:
    """Defaults shared by the workloads: the op context is (index, op seed)."""

    tail_percentile = 50   # op_ms_tail; fixed so that runs compare like with like

    def __init__(self, workload_seed: int, tmp_root: str):
        self.seed = workload_seed
        self.counters = {}

    def prepare_op(self, index: int):
        return index, op_seed(self.seed, index)

    def finish(self, ctx):
        pass

    def close(self):
        pass


class McMatchedFilter(Workload):
    """mf-sine-misfire, four trials an op: the paper's headline Monte-Carlo run."""

    name = "mc-matched-filter"
    unit = "trials"
    work_per_op = 4
    reference_rtol = 1e-6
    tail_percentile = 80   # about 10 of the 55 ops of a 35 s run lie beyond it

    def __init__(self, workload_seed: int, tmp_root: str, with_reference: bool = True):
        super().__init__(workload_seed, tmp_root)
        self.reference = []
        if workload_seed == DEFAULT_SEED and with_reference:
            with open(REFERENCE_PATH, encoding="ascii") as fh:
                self.reference = json.load(fh)["ops"]
            self.counters["ops_past_reference"] = 0

    def run(self, ctx):
        _, seed = ctx
        cfg = scenarios.ScenarioConfig("mf-sine-misfire", trials=self.work_per_op,
                                       seed_base=seed)
        return scenarios.run_scenario(cfg)

    @staticmethod
    def peaks(result) -> list[tuple[float, float]]:
        return [(t.peak_rho, t.extras["peak_rho_chi2"]) for t in result.trials]

    def check(self, ctx, result) -> list[str]:
        index, _ = ctx
        peaks = self.peaks(result)
        if len(peaks) != self.work_per_op:
            return [f"{len(peaks)} trials reported, expected {self.work_per_op}"]
        problems = []
        for k, (plain, chi2) in enumerate(peaks):
            if not (math.isfinite(plain) and math.isfinite(chi2)):
                problems.append(f"trial {k}: non-finite peak ({plain}, {chi2})")
            elif chi2 > plain:
                problems.append(f"trial {k}: chi-squared peak {chi2} above plain peak {plain}")
        if index < len(self.reference):
            for k, (got, want) in enumerate(zip(peaks, self.reference[index])):
                for label, g, w in zip(("peak_rho", "peak_rho_chi2"), got, want):
                    if _relative_error(g, w) > self.reference_rtol:
                        problems.append(f"trial {k}: {label} {g!r} differs from "
                                        f"reference {w!r}")
        elif self.reference:
            if not self.counters["ops_past_reference"]:
                print(f"note: op {index} and later run past the {len(self.reference)} "
                      "reference ops and are not compared with them", file=sys.stderr)
            self.counters["ops_past_reference"] += 1
        return problems


class McRunningCcf(Workload):
    """running-baseline at hop 0.01 s: 64 s of noise, about 6,000 CCF windows."""

    name = "mc-running-ccf"
    unit = "trials"
    work_per_op = 1
    hop = 0.01
    span = 64.0     # running-baseline defaults: duration and edge exclusion
    edge = 2.0
    eps = 1e-9      # a window this close to a boundary may fall either way

    def __init__(self, workload_seed: int, tmp_root: str):
        super().__init__(workload_seed, tmp_root)
        n_tpl = templates.stock_template("gw150914", FS).base.n
        self.required, self.allowed = self._window_grid(n_tpl / FS)

    def _window_grid(self, window: float) -> tuple[set[int], set[int]]:
        """Hop-grid indices of the windows that must, and that may, be reported."""
        exclusions = [(0.0, self.edge), (self.span - self.edge, self.span)]
        eps = self.eps
        required, allowed = set(), set()
        for k in range(int(round(self.span / self.hop)) + 1):
            t = k * self.hop
            if t + window > self.span + eps:
                continue
            clear = t + window <= self.span - eps
            for a, b in exclusions:
                if t < b - eps and t + window > a + eps:
                    break
                if not (t >= b + eps or t + window <= a - eps):
                    clear = False
            else:
                allowed.add(k)
                if clear:
                    required.add(k)
        return required, allowed

    def run(self, ctx):
        _, seed = ctx
        cfg = scenarios.ScenarioConfig("running-baseline", trials=1, seed_base=seed,
                                       options={"hop": self.hop})
        return scenarios.run_scenario(cfg)

    def check(self, ctx, result) -> list[str]:
        rows = result.figures["running.csv"][1]
        problems = []
        bad_ccf = sum(1 for _, peak, _ in rows if not abs(peak) <= 1.0 + 1e-12)
        bad_r3 = sum(1 for _, _, r3 in rows if not 0.0 <= r3 <= 1.0)
        if bad_ccf:
            problems.append(f"{bad_ccf} windows with |CCF| above 1")
        if bad_r3:
            problems.append(f"{bad_r3} windows with r3 outside [0, 1]")
        indices = [round(t / self.hop) for t, _, _ in rows]
        off_grid = sum(1 for t, k in zip((r[0] for r in rows), indices)
                       if abs(t - k * self.hop) > 1e-6)
        got = set(indices)
        if off_grid or len(got) != len(indices):
            problems.append(f"window starts off the hop grid or repeated ({off_grid} off)")
        if not self.required <= got <= self.allowed:
            problems.append(
                f"{len(rows)} windows, expected {len(self.required)} to "
                f"{len(self.allowed)}: {len(self.required - got)} missing, "
                f"{len(got - self.allowed)} unexpected")
        if result.trials[0].extras["n_windows"] != len(rows):
            problems.append("n_windows disagrees with the running figure")
        return problems


class CliPipeline(Workload):
    """One pass of the README's file-based command chain through ``cli.main``.

    The checked ``cyclic_prefix`` filter runs on the band-passed, fully
    whitened strain.  The chain as the README gives it, band-pass of the
    line-whitened strain and then the flat-PSD ``cyclic_prefix`` filter,
    also runs, but its peak only feeds the ``readme_chain_peak_misses``
    counter: the seismic wall still in that strain leaves a start-edge
    transient that the filter ranks above the injection on a few percent
    of seeds (see ``KnownDefectTest`` in ``selftest.py``).
    """

    name = "cli-pipeline"
    unit = "passes"
    work_per_op = 1
    duration = 32.0
    t_inject = 16.0
    target_snr = 20.0
    peak_tol_s = 0.005

    def __init__(self, workload_seed: int, tmp_root: str):
        super().__init__(workload_seed, tmp_root)
        self.tmp_root = tmp_root
        self.counters = {"readme_chain_peak_misses": 0}
        self.inputs = tempfile.mkdtemp(prefix="cli-inputs-", dir=tmp_root)
        tpl = templates.stock_template("gw150914", FS).base
        model_psd = simulation.default_detector_model().to_power_spectrum(
            0.125, int(FS / 2 * 8) + 1)  # the grid of ``mf --psd model``
        scale = self.target_snr / math.sqrt(detection.sigma_norm(tpl, model_psd))
        self.signal = os.path.join(self.inputs, "scaled.gwx")
        series.save_strain(tpl.with_samples(tpl.samples * scale), self.signal)
        self.flat_psd = os.path.join(self.inputs, "flat_psd.csv")
        series.save_psd_csv(series.PowerSpectrum(df=1.0, values=np.ones(int(FS / 2) + 1)),
                            self.flat_psd)

    def steps(self, work: str, seed: int) -> list[list[str]]:
        def w(*parts):
            return os.path.join(work, *parts)

        return [
            ["noise", "--duration", repr(self.duration), "--seed", str(seed), "--out", w()],
            ["template", "--out", w()],
            ["inject", "--host", w("noise.gwx"), "--signal", self.signal,
             "--at", repr(self.t_inject), "--out", w()],
            ["psd", "--strain", w("injected.gwx"), "--segment", "4", "--out", w()],
            ["whiten", "--strain", w("injected.gwx"), "--psd", w("psd.csv"),
             "--whiten", "localized", "--name", "whitened_localized.gwx", "--out", w()],
            ["bandpass", "--strain", w("whitened_localized.gwx"), "--band", "43:300",
             "--name", "bandpassed_localized.gwx", "--out", w()],
            ["whiten", "--strain", w("injected.gwx"), "--psd", w("psd.csv"),
             "--whiten", "full", "--out", w()],
            ["bandpass", "--strain", w("whitened.gwx"), "--band", "43:300", "--out", w()],
            ["mf", "--strain", w("injected.gwx"), "--template", w("gw150914.gwx"),
             "--psd", "model", "--mode", "circular", "--out", w("mf_circular")],
            ["mf", "--strain", w("bandpassed.gwx"), "--template", w("gw150914.gwx"),
             "--psd", self.flat_psd, "--mode", "cyclic_prefix", "--no-reweight",
             "--out", w("mf_cyclic_prefix")],
            ["mf", "--strain", w("bandpassed_localized.gwx"), "--template",
             w("gw150914.gwx"), "--psd", self.flat_psd, "--mode", "cyclic_prefix",
             "--no-reweight", "--out", w("mf_readme_chain")],
            ["running-ccf", "--strain", w("noise.gwx"), "--template", w("gw150914.gwx"),
             "--hop", "1", "--exclude", "14:18", "--out", w()],
            ["scenario", "run", "circular-artifact", "--trials", "1", "--seed", str(seed),
             "--out", w("reports")],
        ]

    def prepare_op(self, index: int):
        seed = op_seed(self.seed, index)
        work = tempfile.mkdtemp(prefix="cli-pass-", dir=self.tmp_root)
        return seed, work, self.steps(work, seed)

    def run(self, ctx):
        _, _, steps = ctx
        codes = []
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            for argv in steps:
                codes.append(cli.main(argv))
        return codes, log.getvalue()

    def check(self, ctx, out) -> list[str]:
        seed, work, steps = ctx
        codes, log = out
        failed = [f"{argv[0]} exited {rc}" for argv, rc in zip(steps, codes) if rc != 0]
        if failed:
            tail = log.strip().splitlines()[-3:]
            return failed + tail
        problems = []
        for sub in ("mf_circular", "mf_cyclic_prefix", "mf_readme_chain"):
            with open(os.path.join(work, sub, "mf_summary.json"), encoding="ascii") as fh:
                peak = json.load(fh)["peak_time_s"]
            missed = abs(peak - self.t_inject) > self.peak_tol_s
            if sub == "mf_readme_chain":
                self.counters["readme_chain_peak_misses"] += missed
            elif missed:
                problems.append(f"{sub}: peak at {peak} s, injection at {self.t_inject} s")
        written = series.load_strain(os.path.join(work, "noise.gwx"))
        expected = simulation.colored_noise(simulation.default_detector_model(),
                                            self.duration, FS, seed=seed)
        if not (written.fs == expected.fs and written.t0 == expected.t0
                and np.array_equal(written.samples, expected.samples)):
            problems.append("noise.gwx does not reload bit-identical to colored_noise")
        path = os.path.join(work, "reports", "circular-artifact", "summary.json")
        with open(path, encoding="ascii") as fh:
            if json.load(fh).get("witness") is not True:
                problems.append("circular-artifact summary lacks witness: true")
        return problems

    def finish(self, ctx):
        shutil.rmtree(ctx[1], ignore_errors=True)

    def close(self):
        shutil.rmtree(self.inputs, ignore_errors=True)


WORKLOADS = {w.name: w for w in (McMatchedFilter, McRunningCcf, CliPipeline)}
