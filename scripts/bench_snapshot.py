"""Write one point of the performance trajectory as a JSON file.

    python3 scripts/bench_snapshot.py BENCH_<n>.json

Runs ``bench/run.py`` on every workload of BENCHMARK.json at seed 1 for
its ``run_seconds``, three times with ``--trace 0`` (the end-to-end
metrics) and once with ``--trace 1`` (the per-layer metrics), one run at
a time.  The file holds, per workload and per metric set, the median of
its runs for each metric (``end_to_end``, ``per_layer``), every run's
values (``..._samples``) and every run's verdict and failures by check
(``..._runs``), plus the machine block of the first run, so two such
files from different commits compare metric by metric.  A single
end-to-end run is one sample of a loaded machine; the median of three
keeps one slow run out of the trajectory.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
END_TO_END_RUNS = 3


def run(workload: str, seconds: float, trace: int) -> tuple[dict, dict]:
    """(report, result) of one ``bench/run.py`` run; raises if it fails."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} --trace {trace} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-400:]}")
    report = next(json.loads(ln[len("report "):]) for ln in lines if ln.startswith("report "))
    return report, json.loads(lines[-1])


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    out = {"seed": SEED, "seconds": seconds, "machine": None, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        entry = {}
        for trace, key, runs in ((0, "end_to_end", END_TO_END_RUNS), (1, "per_layer", 1)):
            samples, verdicts = [], []
            for _ in range(runs):
                report, result = run(workload, seconds, trace)
                out["machine"] = out["machine"] or report["machine"]
                samples.append({name: m["value"] for name, m in result["metrics"].items()})
                verdicts.append({
                    "correct": result["correct"],
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "failures_by_check": report["failures_by_check"],
                })
                print(f"{workload} --trace {trace}: correct={result['correct']} "
                      f"attempted={result['attempted']}", file=sys.stderr)
            entry[key] = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
            entry[f"{key}_samples"] = samples
            entry[f"{key}_runs"] = verdicts
        out["workloads"][workload] = entry
    Path(argv[0]).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
