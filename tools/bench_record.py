"""Record perfbench results into a ``BENCH_<pr>.json`` file at the repository root.

Usage, from the repository root:

    python3 tools/bench_record.py --pr N --label change --workload cli-pipeline --seeds 41 42
    python3 tools/bench_record.py --pr N --label parent --repo ../parent-checkout \\
        --workload cli-pipeline --seeds 41 42
    python3 tools/bench_record.py --pr N --label change --workload all --seeds 1
    python3 tools/bench_record.py --pr N --label change --workload cli-pipeline --seeds 1 --trace 1

Each seed runs ``perfbench/run.py`` once, in a fresh process, in the
checkout given by ``--repo`` (by default the one holding this script),
so the parent side runs from a clone or worktree of the parent commit.
The script reads the run's ``# meta`` and ``# notes`` lines and its last
line (the result, or one result per workload for ``--workload all``),
and appends one entry per workload to the ``runs`` list of the record,
with the label, the checkout's commit and whether its tree had
uncommitted changes.  Alternate the labels seed by seed to get pairs
that share the host's state.

After every run the record's ``summary`` is rebuilt: for every untraced
workload that both labels ran on the same seeds, the quartiles of each
end-to-end metric per label, the number of seeds on which ``change`` was
better, the change of the median relative to the parent's, and whether
that change is worse than the metric's bound.  Each metric's direction
(``better``) and bound come from ``BENCHMARK.json``, which is only read.
Next to ``setup_s``, the median of each run's fresh-interpreter set-up
samples, ``setup_samples_s`` gives the quartiles and count of those
samples pooled over the paired runs of each label.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")
LABELS = ("parent", "change")


def end_to_end_metrics(path: str = BENCHMARK_PATH) -> dict[str, tuple[bool, float]]:
    """``{metric: (higher is better, bound)}`` for each end-to-end metric
    the benchmark declares."""
    with open(path, encoding="utf-8") as fh:
        declared = json.load(fh)["end_to_end"]
    return {m["name"]: (m["better"] == "higher", float(m["bound"])) for m in declared}


def _git(repo: str, *args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=repo, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def parse_run(stdout: str, workload: str) -> list[dict]:
    """One entry per workload from the standard output of ``perfbench/run.py``."""
    lines = stdout.strip().splitlines()
    metas = [json.loads(line[len("# meta "):]) for line in lines if line.startswith("# meta ")]
    notes = [json.loads(line[len("# notes "):]) for line in lines
             if line.startswith("# notes ")]
    last = json.loads(lines[-1])
    results = last if workload == "all" else {workload: last}
    if not (len(metas) == len(notes) == len(results)):
        raise ValueError(f"expected {len(results)} meta and notes lines, "
                         f"got {len(metas)} and {len(notes)}")
    by_name = {meta["workload"]: (meta, note) for meta, note in zip(metas, notes)}
    return [{"workload": name, "meta": by_name[name][0], "notes": by_name[name][1],
             "result": result} for name, result in results.items()]


def run_once(repo: str, workload: str, seed: int, trace: int) -> list[dict]:
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=repo, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench/run.py exited {proc.returncode}: {' '.join(argv[1:])}")
    return parse_run(proc.stdout, workload)


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def summarize(runs: list[dict], metrics: dict[str, tuple[bool, float]] | None = None) -> dict:
    """Per-label quartiles, seed-paired wins and the median's relative change
    of the untraced end-to-end ``metrics`` (by default those of
    ``BENCHMARK.json``); ``worse_than_bound`` flags a change median worse
    than the parent median by more than the metric's bound.  Where both
    labels' runs note their set-up samples, ``setup_samples_s`` holds the
    per-label quartiles and count of all of them pooled."""
    metrics = end_to_end_metrics() if metrics is None else metrics
    table = {}
    for run in runs:
        if run["meta"]["trace"] == 0:
            key = (run["workload"], run["meta"]["workload_seed"])
            table.setdefault(key, {}).setdefault(run["label"], run)
    out = {}
    for workload in sorted({w for w, _ in table}):
        paired = [sides for (w, _), sides in sorted(table.items())
                  if w == workload and all(label in sides for label in LABELS)]
        if not paired:
            continue
        entry = {"pairs": len(paired),
                 "failed": {label: sum(s[label]["result"]["failed"] for s in paired)
                            for label in LABELS}}
        for metric, (higher, bound) in metrics.items():
            values = {label: [s[label]["result"]["metrics"][metric]["value"] for s in paired]
                      for label in LABELS}
            wins = sum((c > p) if higher else (c < p)
                       for p, c in zip(values["parent"], values["change"]))
            quartiles = {label: _quartiles(values[label]) for label in LABELS}
            parent_median, change_median = quartiles["parent"][1], quartiles["change"][1]
            relative = (change_median - parent_median) / parent_median
            entry[metric] = {**{f"{label}_quartiles": quartiles[label] for label in LABELS},
                             "change_wins": wins,
                             "median_change": relative,
                             "worse_than_bound": (-relative if higher else relative) > bound}
        entry["over_bound"] = [m for m in metrics if entry[m]["worse_than_bound"]]
        pooled = {label: [x for s in paired
                          for x in s[label].get("notes", {}).get("setup_samples_s", [])]
                  for label in LABELS}
        if all(pooled.values()):
            entry["setup_samples_s"] = {
                **{f"{label}_quartiles": _quartiles(pooled[label]) for label in LABELS},
                **{f"{label}_count": len(pooled[label]) for label in LABELS}}
        out[workload] = entry
    return out


def write_record(path: str, record: dict) -> None:
    record["summary"] = summarize(record["runs"])
    with open(path, "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True, type=int, help="writes BENCH_<pr>.json")
    parser.add_argument("--label", required=True, choices=LABELS)
    parser.add_argument("--repo", default=ROOT, help="checkout whose perfbench/run.py runs")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    record = {"runs": []}
    if os.path.exists(path):
        with open(path, encoding="ascii") as fh:
            record = json.load(fh)
    repo = os.path.abspath(args.repo)
    tree = {"commit": _git(repo, "rev-parse", "HEAD"),
            "uncommitted_changes": bool(_git(repo, "status", "--porcelain",
                                             "--untracked-files=no"))}
    for seed in args.seeds:
        for entry in run_once(repo, args.workload, seed, args.trace):
            record["runs"].append({"label": args.label, **tree, **entry})
            metrics = entry["result"]["metrics"]
            shown = metrics.get("throughput_per_s", metrics.get("series.self_ms"))
            print(f"{args.label} {entry['workload']} seed {seed} trace {args.trace}: "
                  f"{shown['value']:.6g} {shown['unit']}, "
                  f"failed {entry['result']['failed']}", file=sys.stderr)
        write_record(path, record)  # after every run, so a stopped series keeps its runs
    return 0


if __name__ == "__main__":
    sys.exit(main())
