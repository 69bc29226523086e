import importlib.util
import json
import statistics
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


METRICS = bench_record.end_to_end_metrics()


def _result(throughput, rss=100.0, failed=0):
    metrics = {name: {"value": 1.0, "unit": "x"} for name in METRICS}
    metrics["throughput_per_s"]["value"] = throughput
    metrics["peak_rss_mib"]["value"] = rss
    return {"correct": failed == 0, "attempted": 5, "failed": failed, "metrics": metrics}


def _stdout(results: dict, seed=3, trace=0) -> str:
    lines = []
    for name in results:
        lines.append(f"{name}  throughput_per_s  1.0 1/s")
        lines.append("# meta " + json.dumps({"workload": name, "workload_seed": seed,
                                             "trace": trace}))
        lines.append("# notes " + json.dumps({"failed_frac": 0.0}))
    return "\n".join(lines) + "\n"


class TestParseRun:
    def test_one_workload(self):
        out = _stdout({"cli-pipeline": None}) + json.dumps(_result(0.3)) + "\n"
        (entry,) = bench_record.parse_run(out, "cli-pipeline")
        assert entry["workload"] == "cli-pipeline"
        assert entry["meta"]["workload_seed"] == 3
        assert entry["result"]["metrics"]["throughput_per_s"]["value"] == 0.3

    def test_all_workloads(self):
        results = {"mc-matched-filter": _result(20.0), "cli-pipeline": _result(0.3)}
        out = _stdout(results) + json.dumps(results) + "\n"
        entries = bench_record.parse_run(out, "all")
        assert [e["workload"] for e in entries] == ["mc-matched-filter", "cli-pipeline"]
        assert entries[0]["result"]["metrics"]["throughput_per_s"]["value"] == 20.0

    def test_missing_meta_is_an_error(self):
        with pytest.raises(ValueError, match="meta and notes"):
            bench_record.parse_run(json.dumps(_result(0.3)) + "\n", "cli-pipeline")


def _run(label, seed, throughput, trace=0, rss=100.0, setup=None):
    run = {"label": label, "workload": "cli-pipeline",
           "meta": {"workload_seed": seed, "trace": trace},
           "result": _result(throughput, rss)}
    if setup is not None:
        run["notes"] = {"setup_samples_s": setup}
    return run


class TestSummarize:
    def test_pairs_by_seed_and_counts_wins(self):
        runs = [_run("parent", 1, 0.2), _run("change", 1, 0.3),
                _run("parent", 2, 0.2), _run("change", 2, 0.1, rss=90.0),
                _run("change", 3, 0.5),                 # unpaired: ignored
                _run("parent", 1, 9.0, trace=1)]        # traced: ignored
        summary = bench_record.summarize(runs)["cli-pipeline"]
        assert summary["pairs"] == 2
        assert summary["throughput_per_s"]["change_wins"] == 1
        assert summary["peak_rss_mib"]["change_wins"] == 1   # lower is better
        assert summary["failed"] == {"parent": 0, "change": 0}

    def test_flags_a_median_worse_than_its_bound(self):
        # peak RSS (lower is better, bound 0.1) and throughput (higher, 0.25)
        def summary(parent, change):
            runs = [_run(label, seed, t, rss=r)
                    for seed, sides in enumerate(zip(parent, change))
                    for label, (t, r) in zip(bench_record.LABELS, sides)]
            return bench_record.summarize(runs)["cli-pipeline"]

        inside = summary([(1.0, 100.0)] * 3, [(0.8, 109.0)] * 3)
        assert inside["over_bound"] == []
        assert inside["peak_rss_mib"]["median_change"] == pytest.approx(0.09)
        assert inside["throughput_per_s"]["median_change"] == pytest.approx(-0.2)
        outside = summary([(1.0, 100.0)] * 3, [(0.7, 111.0), (0.74, 112.0), (2.0, 90.0)])
        assert outside["over_bound"] == ["throughput_per_s", "peak_rss_mib"]
        assert outside["peak_rss_mib"]["worse_than_bound"] is True
        assert outside["op_ms_p50"]["worse_than_bound"] is False
        better = summary([(1.0, 100.0)] * 3, [(9.0, 10.0)] * 3)  # far better is no flag
        assert better["over_bound"] == []

    def test_pools_the_set_up_samples_of_the_paired_runs(self):
        runs = [_run("parent", 1, 0.2, setup=[0.10, 0.12, 0.18]),
                _run("change", 1, 0.2, setup=[0.11, 0.13, 0.19]),
                _run("parent", 2, 0.2, setup=[0.14, 0.16, 0.20]),
                _run("change", 2, 0.2, setup=[0.12, 0.17, 0.21]),
                _run("change", 3, 0.2, setup=[9.0, 9.0, 9.0]),           # unpaired
                _run("parent", 1, 0.2, trace=1, setup=[9.0, 9.0, 9.0])]  # traced
        pooled = bench_record.summarize(runs)["cli-pipeline"]["setup_samples_s"]
        assert pooled["parent_count"] == pooled["change_count"] == 6
        assert pooled["parent_quartiles"] == pytest.approx(
            statistics.quantiles([0.10, 0.12, 0.18, 0.14, 0.16, 0.20], n=4))
        assert pooled["change_quartiles"][1] == pytest.approx(0.15)

    def test_no_pooled_set_up_without_the_samples(self):
        runs = [_run("parent", 1, 0.2, setup=[0.1, 0.2, 0.3]), _run("change", 1, 0.2)]
        assert "setup_samples_s" not in bench_record.summarize(runs)["cli-pipeline"]


class TestDeclaredMetrics:
    def test_read_from_the_benchmark_declaration(self):
        with open(bench_record.BENCHMARK_PATH, encoding="utf-8") as fh:
            declared = json.load(fh)["end_to_end"]
        assert list(METRICS) == [m["name"] for m in declared]
        assert METRICS["throughput_per_s"] == (True, 0.25)
        assert METRICS["peak_rss_mib"] == (False, 0.1)

    def test_direction_and_bound_follow_the_file(self, tmp_path):
        path = tmp_path / "BENCHMARK.json"
        path.write_text(json.dumps({"end_to_end": [
            {"name": "throughput_per_s", "better": "lower", "bound": 0.5}]}))
        metrics = bench_record.end_to_end_metrics(str(path))
        assert metrics == {"throughput_per_s": (False, 0.5)}
        runs = [_run(label, 1, t)
                for label, t in zip(bench_record.LABELS, (1.0, 1.4))]
        entry = bench_record.summarize(runs, metrics)["cli-pipeline"]
        assert set(entry) == {"pairs", "failed", "throughput_per_s", "over_bound"}
        assert entry["throughput_per_s"]["change_wins"] == 0
        assert entry["over_bound"] == []
