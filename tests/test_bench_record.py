import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def _result(throughput, rss=100.0, failed=0):
    metrics = {name: {"value": 1.0, "unit": "x"} for name in bench_record.HIGHER_IS_BETTER}
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


class TestSummarize:
    def _run(self, label, seed, throughput, trace=0, rss=100.0):
        return {"label": label, "workload": "cli-pipeline",
                "meta": {"workload_seed": seed, "trace": trace},
                "result": _result(throughput, rss)}

    def test_pairs_by_seed_and_counts_wins(self):
        runs = [self._run("parent", 1, 0.2), self._run("change", 1, 0.3),
                self._run("parent", 2, 0.2), self._run("change", 2, 0.1, rss=90.0),
                self._run("change", 3, 0.5),                 # unpaired: ignored
                self._run("parent", 1, 9.0, trace=1)]        # traced: ignored
        summary = bench_record.summarize(runs)["cli-pipeline"]
        assert summary["pairs"] == 2
        assert summary["throughput_per_s"]["change_wins"] == 1
        assert summary["peak_rss_mib"]["change_wins"] == 1   # lower is better
        assert summary["failed"] == {"parent": 0, "change": 0}
