"""gwxlab benchmark: one workload per process, closed loop, one client.

Usage, from the repository root:

    python3 perfbench/run.py --workload mc-matched-filter --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all                # every workload, one process each

An untraced run (``--trace 0``) builds the workload's inputs, runs one
warm-up op, then starts each op only after the previous one finished,
for ``--seconds`` seconds, and checks every op's output.  It prints the
end-to-end metrics of BENCHMARK.json.  A traced run (``--trace 1``)
alternates untraced and traced ops and prints the per-layer metrics
instead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A copy of the
result, with run metadata, goes to ``perfbench/out/``, and a traced
run's spans go next to it.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in PINNED_THREADS:
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOAD_NAMES = ("mc-matched-filter", "mc-running-ccf", "cli-pipeline")
SETUP_SAMPLES = 3   # fresh-interpreter set-ups per untraced run; setup_s is their median
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def per_layer_units() -> dict:
    """Unit of every per-layer metric, in the order they are reported."""
    import tracer

    units = {}
    for layer in tracer.LAYERS:
        units[f"{layer}.self_ms"] = "ms"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.errors"] = "count"
    for layer in tracer.FFT_LAYERS:
        units[f"{layer}.fft_calls"] = "count"
        units[f"{layer}.fft_points"] = "count"
    units.update({
        "simulation.continuum_evals": "count",
        "detection.ccf.windows": "count",
        "series.bytes_read": "B",
        "series.bytes_written": "B",
        "scenarios.report_ms": "ms",
        "scenarios.report_bytes": "B",
        "trace.self_sum_frac": "frac",
        "trace.overhead_frac": "frac",
    })
    return units


class SetupError(Exception):
    pass


def import_gwxlab():
    """Import gwxlab from this checkout's ``src/``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "gwxlab", "__init__.py")):
        raise SetupError(f"no gwxlab sources under {SRC}")
    sys.path.insert(0, SRC)
    import gwxlab
    import gwxlab.cli  # noqa: F401

    if not os.path.abspath(gwxlab.__file__).startswith(SRC + os.sep):
        raise SetupError(f"gwxlab imported from {gwxlab.__file__}, not {SRC}")


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, in seconds."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_op(workload, index: int, tracer=None):
    """Run op ``index``; returns (wall ms or None, problems)."""
    ctx = workload.prepare_op(index)
    try:
        if tracer is None:
            t0 = time.perf_counter()
            out = workload.run(ctx)
            ms = (time.perf_counter() - t0) * 1e3
        else:
            tracer.install()
            try:
                t0 = time.perf_counter()
                with tracer.op(index):
                    out = workload.run(ctx)
                ms = (time.perf_counter() - t0) * 1e3
            finally:
                tracer.uninstall()
        return ms, workload.check(ctx, out)
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        traceback.print_exc(file=sys.stderr)
        return None, [f"{type(exc).__name__}: {exc}"]
    finally:
        workload.finish(ctx)


def closed_loop(workload, seconds: float, tracer=None) -> dict:
    """One warm-up op, then ops back to back for ``seconds`` seconds.

    With a tracer, odd ops run untraced and even ops traced.  The
    warm-up op is checked and counted as attempted but not timed.
    """
    untraced, traced, failures = [], [], []

    def one(index, with_tracer):
        ms, problems = run_op(workload, index, tracer if with_tracer else None)
        if problems:
            failures.append(index)
            print(f"op {index} failed: " + "; ".join(problems), file=sys.stderr)
        return ms if not problems else None

    one(0, False)
    index = 1
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        with_tracer = tracer is not None and index % 2 == 0
        ms = one(index, with_tracer)
        if ms is not None:
            (traced if with_tracer else untraced).append(ms)
        index += 1
    return {"attempted": index, "failed": len(failures),
            "untraced_ms": untraced, "traced_ms": traced}


def end_to_end(workload, loop: dict, setup_samples: list[float]) -> tuple[dict, dict]:
    times = loop["untraced_ms"]
    if not times:
        raise SetupError("no op completed")
    import numpy

    metrics = {
        "throughput_per_s": workload.work_per_op * len(times) / (sum(times) / 1e3),
        "op_ms_p50": statistics.median(times),
        "op_ms_tail": float(numpy.percentile(times, workload.tail_percentile)),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "throughput_unit": f"{workload.unit}/s",
        "op_ms_tail_percentile": workload.tail_percentile,
        "timed_ops": len(times),
        "setup_samples_s": setup_samples,
        "failed_frac": loop["failed"] / loop["attempted"],
        **workload.counters,
    }
    return metrics, notes


def per_layer(workload, loop: dict, spans) -> tuple[dict, dict]:
    import tracer

    traced, untraced = loop["traced_ms"], loop["untraced_ms"]
    if not traced or not untraced:
        raise SetupError("the traced run needs at least one traced and one untraced op")
    metrics = tracer.layer_metrics(spans, len(traced))
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    notes = {"traced_ops": len(traced), "untraced_ops": len(untraced),
             "traced_op_ms_p50": statistics.median(traced),
             "untraced_op_ms_p50": statistics.median(untraced),
             "failed_frac": loop["failed"] / loop["attempted"], **workload.counters}
    return metrics, notes


def git_commit() -> str:
    """HEAD commit of this checkout; ``unknown`` outside a git clone."""
    # The ceiling keeps git from taking a repository above the checkout for this one.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def src_lines() -> int:
    pkg = os.path.join(SRC, "gwxlab")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                total += sum(1 for _ in fh)
    return total


def metadata(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "workload_seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "thread_pinning": {v: os.environ[v] for v in PINNED_THREADS},
        "git_commit": git_commit(), "src_gwxlab_lines": src_lines(),
        "clients": 1, "loop": "closed",
    }


def run_workload(args) -> int:
    import_gwxlab()
    tmp_root = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(tmp_root)
    workload = None
    try:
        import workloads

        try:
            workload = workloads.WORKLOADS[args.workload](args.seed, tmp_root)
        except OSError as exc:  # a missing input, such as reference_mf.json
            raise SetupError(f"cannot set up {args.workload}: {exc}") from exc
        setup_samples = [time.perf_counter() - _T_START]
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_samples[0]}))
            return 0
        tracer = None
        if args.trace:
            import tracer as tracer_mod

            tracer = tracer_mod.Tracer()
        else:
            setup_samples += [probe_setup(args.workload, args.seed)
                              for _ in range(SETUP_SAMPLES - 1)]
        loop = closed_loop(workload, args.seconds, tracer)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(tmp_root, ignore_errors=True)

    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        metrics, notes = per_layer(workload, loop, tracer.spans)
        units = per_layer_units()
        tracer.write(stem + "-spans.csv")
    else:
        metrics, notes = end_to_end(workload, loop, setup_samples)
        units = END_TO_END_UNITS
    result = {
        "correct": loop["failed"] == 0,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    meta = metadata(args)
    with open(stem + ".json", "w", encoding="ascii") as fh:
        json.dump({"meta": meta, "notes": notes, "op_ms": loop, "result": result},
                  fh, indent=1, sort_keys=True)
    print("# meta " + json.dumps(meta, sort_keys=True))
    print("# notes " + json.dumps(notes, sort_keys=True))
    for name, entry in result["metrics"].items():
        extra = ""
        if name == "op_ms_tail":
            extra = f" (p{notes['op_ms_tail_percentile']} of {notes['timed_ops']} ops)"
        elif name == "throughput_per_s":
            extra = f" ({notes['throughput_unit']})"
        print(f"{args.workload:18s} {name:32s} {entry['value']:14.6g} {entry['unit']}{extra}")
    print(f"{args.workload:18s} {'failed_frac':32s} {notes['failed_frac']:14.6g} "
          f"({loop['failed']}/{loop['attempted']})")
    for name, count in workload.counters.items():
        print(f"{args.workload:18s} {name:32s} {count:14d} (of {loop['attempted']} ops,"
              " not counted as failed)")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, one after the other."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    with open(os.path.join(OUT_DIR, f"all-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="ascii") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    print(json.dumps(results))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1,  # workloads.DEFAULT_SEED
                        help="workload seed")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="how long the closed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up time and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except SetupError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
