"""Run-to-run spread of every end-to-end metric, next to its bound.

    python3 bench/steadiness.py

For every workload in BENCHMARK.json it runs ``bench/run.py --trace 0``
once per seed, one run at a time: seeds 1..10, then 11..20 as a second
round.  For each metric it prints the first round's median, quartiles
and spread (q3 - q1) / median as ``statistics.quantiles(values, n=4)``
gives them, and how far the second round's median moved from the
first's in the worse direction.  A spread counts as steady when it stays
under a third of the metric's regression bound (setup_s is exempt, since
only its drift is gated); a drift must stay under the bound.  The last
line is the whole report as JSON.

Next to each timing it prints the spread of the same values before they
are divided by the machine-speed probe (``speed.py``, the ``unscaled``
field of the report line): the evidence for, or against, that probe.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """The result line and the report line of one run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    *_, report, result = proc.stdout.strip().splitlines()
    return json.loads(result), json.loads(report.removeprefix("report "))


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def worse_by(first: float, second: float, better: str) -> float:
    """Share by which the second median is worse than the first."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    report = {"run_seconds": seconds, "runs": RUNS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        first = [one_run(workload, seed, seconds) for seed in range(1, RUNS + 1)]
        second = [one_run(workload, seed, seconds) for seed in range(RUNS + 1, 2 * RUNS + 1)]
        rows = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row = dict(spread([res["metrics"][name]["value"] for res, _ in first]),
                       bound=bound, unit=metric["unit"])
            # set-up time is gated on drift only, not on spread
            row["steady"] = row["spread"] < bound / 3 or name == "setup_s"
            again = spread([res["metrics"][name]["value"] for res, _ in second])
            row["second_median"] = again["median"]
            row["second_spread"] = again["spread"]
            row["drift"] = worse_by(row["median"], again["median"], metric["better"])
            row["drift_ok"] = row["drift"] <= bound
            raw = ""
            if name in first[0][1]["unscaled"]:
                row["unscaled_spread"] = spread([rep["unscaled"][name] for _, rep in first])["spread"]
                raw = f"  unscaled spread {row['unscaled_spread']:.4f}"
            rows[name] = row
            print(f"{workload:7s} {name:21s} median {row['median']:12.5g} {metric['unit']:9s} "
                  f"spread {row['spread']:.4f}  bound {bound:.2f}  "
                  f"{'steady' if row['steady'] else 'UNSTEADY'}  drift {row['drift']:+.4f}{raw}",
                  flush=True)
        runs = [res for res, _ in first + second]
        report["workloads"][workload] = {"metrics": rows,
                                         "all_correct": all(res["correct"] for res in runs),
                                         "failed": [res["failed"] for res in runs],
                                         "attempted": [res["attempted"] for res in runs]}
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
