"""Write one point of the performance trajectory as a JSON file.

    python3 scripts/bench_snapshot.py BENCH_<n>.json

Runs ``bench/run.py`` on every workload of BENCHMARK.json at seed 1 for
its ``run_seconds``, once with ``--trace 0`` (the end-to-end metrics)
and once with ``--trace 1`` (the per-layer metrics), one run at a time.
The file holds, per workload, both metric sets with the run's verdict
and failures by check, plus the machine block of the first run, so two
such files from different commits compare metric by metric.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


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
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            report, result = run(workload, seconds, trace)
            out["machine"] = out["machine"] or report["machine"]
            entry[key] = {name: m["value"] for name, m in result["metrics"].items()}
            entry[f"{key}_run"] = {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "failures_by_check": report["failures_by_check"],
            }
            print(f"{workload} --trace {trace}: correct={result['correct']} "
                  f"attempted={result['attempted']}", file=sys.stderr)
        out["workloads"][workload] = entry
    Path(argv[0]).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
