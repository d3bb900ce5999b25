"""The workload process: one client running one workload in a closed loop.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

It imports hbspace, prepares what the checks need, runs one cold query
and prints ``READY <seconds spent generating inputs>``; ``run.py``
times set-up from spawning this process to that line.  Unless
``--setup-only`` is given it then sends queries one at a time, each
generated before its timer starts and verified before the next is sent:
as many whole input blocks as take about S seconds at reference speed.
It prints one JSON line with the raw results: each query's latency and
the speed probes taken around it (see ``speed.py``).

With ``--trace 1`` the loop covers S/2 seconds untraced, then come the
per-layer sweeps, then a replay of the same queries with every layer
wrapped in spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
import speed
import tracing

ROOT = Path(__file__).resolve().parent.parent
# Run sizing: a run of S seconds sends round(S / NOMINAL_BLOCK_S) whole
# input blocks, so its mix, its tail rank and its per-layer call counts
# repeat exactly from run to run.  The values are about the wall seconds
# of one block, speed probes included, on the reference machine.
NOMINAL_BLOCK_S = {"corpus": 1.3, "gram": 1.1, "towers": 2.4, "cli": 5.0}
SHIM = Path(__file__).resolve().parent / "cli_traced.py"


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _spawn_cli(q: dict, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "hbspace.cli", *q["argv"]],
                          env=env, capture_output=True, timeout=120)


def _traced_spawn(rec, groups: dict):
    """Runs the CLI under the tracing shim and folds its spans into rec."""

    def spawn(q: dict, env: dict) -> subprocess.CompletedProcess:
        read_fd, write_fd = os.pipe()
        try:
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, str(SHIM), str(write_fd), *q["argv"]],
                                  env=env, capture_output=True, timeout=120,
                                  pass_fds=(write_fd,))
            wall = time.perf_counter() - t0
        finally:
            os.close(write_fd)
        with os.fdopen(read_fd, "rb") as pipe:
            sent = json.loads(pipe.read() or b"{}")
        if sent:
            rec.merge(sent)
            for start, end in sent["cover"]:
                rec.add_cover(start, end)
        groups.setdefault(q["group"], []).append(wall)
        rec.count("cli.stdout_bytes", len(proc.stdout))
        return proc

    return spawn


def queries_for(workload: str, seconds: float) -> int:
    """Whole input blocks worth about ``seconds`` on the reference machine."""
    return inputs.BLOCK[workload] * max(1, round(seconds / NOMINAL_BLOCK_S[workload]))


def _loop(workload: str, seed: int, count: int, ctx: dict, rec=None,
          cap_s: float = float("inf")) -> dict:
    """Closed loop over queries 0 .. count - 1, cut at the first block
    boundary after ``cap_s`` seconds."""
    latencies, failures, unexpected, worst = [], [], [], []
    deviations, deviation_checks = [], []
    probe = speed.spawn if workload == "cli" else speed.compute
    probes = [probe()]
    queries = []
    passed = 0
    start = time.perf_counter()
    for index in range(count):
        if index % inputs.BLOCK[workload] == 0 and time.perf_counter() - start > cap_s:
            break
        q = inputs.make(workload, seed, index)
        if rec is not None:
            rec.qid = index
            top = rec.open(tracing.QUERY_SPAN)
        t0 = time.perf_counter()
        verdict = checks.run_query(workload, q, ctx)
        latencies.append(time.perf_counter() - t0)
        if rec is not None:
            rec.close(top)
            rec.reduce()
        probes.append(probe())
        queries.append(q)
        if verdict.passed:
            passed += 1
            if verdict.worst is not None:
                worst.append(verdict.worst)
            if verdict.worst_deviation is not None:
                deviations.append(verdict.worst_deviation)
                deviation_checks.append(verdict.worst_deviation_check)
        else:
            failures.extend(verdict.failed_checks)
            unexpected.extend(verdict.unexpected)
    return {
        "latencies": latencies,
        "probes": probes,
        "passed": passed,
        "failures": failures,
        "unexpected": unexpected,
        "worst_ratios": worst,
        "deviation_ratios": deviations,
        "deviation_checks": deviation_checks,
        "queries": queries,
    }


def _sweeps(seed: int, ctx: dict) -> dict:
    """Gram build at N = 64..512 and mate factorization at degree 2..16,
    each on fresh inputs, timed without tracing."""
    from hbspace import HbSpace, pythagorean_mate

    out = {}
    deg8 = checks.gram_symbol("deg8", ctx)
    for n, reps in ((64, 3), (128, 3), (256, 3), (512, 1)):
        times = []
        for _ in range(reps):
            space = HbSpace(deg8)
            t0 = time.perf_counter()
            space.gram_matrix(n)
            times.append(time.perf_counter() - t0)
        out[f"space.gram_matrix.N{n}_ms"] = 1e3 * statistics.median(times)
    for degree in (2, 4, 8, 16):
        b = checks.symbol(*inputs.sweep_symbol(seed, degree))
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            pythagorean_mate(b)
            times.append(time.perf_counter() - t0)
        out[f"factorization.pythagorean_mate.deg{degree}_ms"] = 1e3 * statistics.median(times)
    return out


def _import_ms(env: dict) -> float:
    """Median wall time of a bare ``import hbspace.cli`` subprocess."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import hbspace.cli"], env=env, check=True,
                       capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload, seed = args.workload, args.seed

    if not Path(checks.hb.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"hbspace imported from {checks.hb.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    cold = inputs.make(workload, 0, -1)
    deg8 = inputs.gram_deg8_symbol()
    gen_s = time.perf_counter() - t0

    env = dict(os.environ)
    ctx = {"env": env, "deg8": deg8, "spawn": _spawn_cli}
    if workload == "cli":
        ctx["refs"] = checks.cli_references()
    checks.run_query(workload, cold, ctx)
    print("READY", repr(gen_s), flush=True)
    if args.setup_only:
        return 0

    seconds = args.seconds / 2 if args.trace else args.seconds
    # on a machine far slower than the reference, fewer blocks
    plain = _loop(workload, seed, queries_for(workload, seconds), ctx, cap_s=3 * seconds)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    result = {
        "latencies": plain["latencies"],
        "probes": plain["probes"],
        "attempted": len(plain["latencies"]),
        "passed": plain["passed"],
        "failures": plain["failures"],
        "unexpected": plain["unexpected"],
        "over_ceiling": checks.over_ceiling(plain["failures"], len(plain["latencies"])),
        "worst_ratios": plain["worst_ratios"],
        "deviation_ratios": plain["deviation_ratios"],
        "deviation_checks": plain["deviation_checks"],
        "peak_rss_mb": _peak_rss_mb(who),
        "inputs": inputs.describe(workload, plain["queries"]),
    }
    if args.trace:
        result["trace"] = _traced_phase(workload, seed, len(plain["latencies"]), ctx, env)
    print(json.dumps(result), flush=True)
    return 0


def _traced_phase(workload: str, seed: int, count: int, ctx: dict, env: dict) -> dict:
    extras = _sweeps(seed, ctx)
    extras["cli.import_ms"] = _import_ms(env)
    rec = tracing.Recorder()
    groups: dict[str, list[float]] = {}
    if workload == "cli":
        ctx["spawn"] = _traced_spawn(rec, groups)
    instr = tracing.Instrumentation(rec)
    instr.install()
    try:
        # the same queries as the untraced half, so the two rates compare
        # the same queries as the untraced loop; whole blocks, so every
        # CLI group shows up
        traced = _loop(workload, seed, count, ctx, rec=rec)
    finally:
        instr.remove()
    for group, walls in groups.items():
        extras[f"cli.{group}.wall_ms"] = 1e3 * statistics.median(walls)
    return {
        "recorder": rec.export(),
        "extras": extras,
        "latencies": traced["latencies"],
        "probes": traced["probes"],
        "attempted": len(traced["latencies"]),
        "passed": traced["passed"],
        "unexpected": traced["unexpected"],
    }


if __name__ == "__main__":
    sys.exit(main())
