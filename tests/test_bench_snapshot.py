"""``scripts/bench_snapshot.py`` keeps every run and reports the median of
three end-to-end runs per workload."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_snapshot.py"
_spec = importlib.util.spec_from_file_location("bench_snapshot", SCRIPT)
bench_snapshot = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_snapshot)


def test_snapshot_takes_the_median_of_three_end_to_end_runs(tmp_path, monkeypatch):
    calls = []
    qps = iter([300.0, 100.0, 200.0] * 8)

    def fake_run(workload, seconds, trace):
        calls.append((workload, trace))
        value = next(qps) if trace == 0 else 7.0
        report = {"machine": {"nproc": 2}, "failures_by_check": {"x": trace}}
        result = {"correct": True, "attempted": 10, "failed": 0,
                  "metrics": {"throughput_qps": {"value": value, "unit": "queries/s"}}}
        return report, result

    monkeypatch.setattr(bench_snapshot, "run", fake_run)
    out = tmp_path / "BENCH.json"
    assert bench_snapshot.main([str(out)]) == 0
    snap = json.loads(out.read_text())
    spec = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    assert calls == [(w, t) for w in workloads for t in (0, 0, 0, 1)]
    for w in workloads:
        entry = snap["workloads"][w]
        assert entry["end_to_end"] == {"throughput_qps": 200.0}
        assert [s["throughput_qps"] for s in entry["end_to_end_samples"]] == [300.0, 100.0, 200.0]
        assert len(entry["end_to_end_runs"]) == 3 and entry["end_to_end_runs"][0]["correct"]
        assert entry["per_layer"] == {"throughput_qps": 7.0}
        assert entry["per_layer_runs"] == [{"correct": True, "attempted": 10, "failed": 0,
                                            "failures_by_check": {"x": 1}}]
    assert snap["machine"] == {"nproc": 2}
