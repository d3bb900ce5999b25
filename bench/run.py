"""hbspace benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload corpus|gram|towers|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout; hbspace is imported from ``src``.
The run spawns the workload process (``worker.py``) SETUP_SAMPLES times
to measure set-up, lets the last one run the closed loop over about S
seconds of work at reference speed (``speed.py``), prints a report line (machine, input properties, tail percentile,
failures by check, and with --trace 1 the per-module shares) and, as the
last line, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the ``end_to_end`` list of BENCHMARK.json,
with --trace 1 the ``per_layer`` list.  ``correct`` is false when any
query failed in a way not listed in ``checks.KNOWN_DEFECTS``, or a known
defect failed more often than its ceiling there; known defects count in
``failed`` and ``pass_rate``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import inputs
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
# Everything, set-up included, ends within this many seconds.
RUN_LIMIT_S = 170
# Closed loop with one client on one core: BLAS gets one thread.
BLAS_THREADS = 1
TAIL_BEYOND = 10
# A check that reads exactly 0 counts as 17 digits inside its bound.
HEADROOM_FLOOR = 1e-17


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 1


def machine_record() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": min(BLAS_THREADS, os.cpu_count() or 1),
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def spawn_worker(args, env: dict, setup_only: bool):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    # probed before the spawn only: a probe while the new process starts
    # would time the contention, not the machine
    slowness = speed.spawn()
    t0 = time.perf_counter()
    # its own process group, so that stop() also ends the CLI calls it runs
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    line = proc.stdout.readline()
    t_ready = time.perf_counter()
    if not line.startswith("READY "):
        stop(proc)
        raise RuntimeError(f"workload process did not become ready: {line.strip()!r}")
    setup = t_ready - t0 - float(line.split()[1])
    return proc, setup / slowness, setup


def stop(proc: subprocess.Popen) -> None:
    """Kill the workload process group and wait for the process."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND
    samples beyond it."""
    ordered = sorted(latencies)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(raw: dict, setups: list[float], raw_setups: list[float]) -> tuple[dict, dict]:
    lat = speed.scaled(raw["latencies"], raw["probes"])
    tail_s, pct = tail(lat)
    values = {
        "setup_s": statistics.median(setups),
        "throughput_qps": raw["passed"] / sum(lat),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_tail_ms": 1e3 * tail_s,
        "pass_rate": raw["passed"] / raw["attempted"],
        "bound_headroom_digits": statistics.fmean(
            -math.log10(max(r, HEADROOM_FLOOR)) for r in raw["deviation_ratios"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    notes = {
        "latency_tail": {"percentile": round(pct, 2), "samples": len(lat),
                         "beyond": len(lat) - 1 - max(len(lat) - TAIL_BEYOND - 1, 0)},
        "fail_rate": (raw["attempted"] - raw["passed"]) / raw["attempted"],
        "worst_bound_ratio": max(raw["worst_ratios"]),
        # which check sets each passed query's deviation ratio
        "headroom_set_by": dict(Counter(raw["deviation_checks"]).most_common()),
        "setup_samples_s": setups,
        "unscaled": {
            "setup_s": statistics.median(raw_setups),
            "throughput_qps": raw["passed"] / sum(raw["latencies"]),
            "latency_p50_ms": 1e3 * statistics.median(raw["latencies"]),
            "latency_tail_ms": 1e3 * tail(raw["latencies"])[0],
        },
        "slowness": {"median": statistics.median(raw["probes"]),
                     "min": min(raw["probes"]), "max": max(raw["probes"])},
    }
    return values, notes


def per_layer(trace: dict, untraced_qps: float) -> tuple[dict, dict]:
    import tracing

    rec = trace["recorder"]
    spans, counters, maxima = rec["spans"], rec["counters"], rec["maxima"]
    values: dict[str, float] = {}

    def span(name):
        return spans.get(name, [0, 0.0, 0.0])

    traced_names = [t[0] for t in tracing.TARGETS] + [
        "polynomials.RationalFn.eval_scalar", "polynomials.RationalFn.eval_array"]
    for name in traced_names:
        calls, self_s, _ = span(name)
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    for k in range(1, 11):
        calls, _, incl = span(f"acceptance.criterion_{k:02d}")
        values[f"acceptance.criterion_{k:02d}_ms"] = 1e3 * incl / calls if calls else 0.0
    for name in ("polynomials.RationalFn.taylor.coeffs", "space.gram_matrix.entries",
                 "extension.kernel_factorization_check.points", "cli.stdout_bytes"):
        values[name] = counters.get(name, 0.0)
    for name in ("factorization.mate_residual_ratio_max", "space.norm_identity_ratio_max",
                 "isometry.defect_ratio_max"):
        values[name] = maxima.get(name, 0.0)
    values["cli.main.self_s"] = span("cli.main")[1]
    values["bench.query.self_s"] = span(tracing.QUERY_SPAN)[1]
    for _, group, _, _, _ in inputs.CLI_MIX:
        values[f"cli.{group}.wall_ms"] = 0.0
    values.update(trace["extras"])
    query_s = span(tracing.QUERY_SPAN)[2]
    shares = Counter()
    for name, (_, self_s, _) in spans.items():
        shares[tracing.module_of(name)] += self_s
    for module in tracing.MODULES:
        values[f"{module}.share"] = shares[module] / query_s if query_s else 0.0
    traced_qps = trace["passed"] / sum(speed.scaled(trace["latencies"], trace["probes"]))
    values["bench.untraced_qps"] = untraced_qps
    values["bench.traced_qps"] = traced_qps
    values["bench.tracing_overhead"] = 1.0 - traced_qps / untraced_qps
    attempted = max(trace["attempted"], 1)
    notes = {
        "module_share_of_query_time": {m: round(values[f"{m}.share"], 4) for m in tracing.MODULES},
        "calls_per_query": {n: round(c / attempted, 3) for n, (c, _, _) in sorted(spans.items())},
        "traced_queries": trace["attempted"],
    }
    return values, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if not (ROOT / "src" / "hbspace" / "__init__.py").is_file():
        return fail(f"no hbspace sources under {ROOT / 'src'}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")

    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)

    start = time.perf_counter()
    setups, raw_setups = [], []
    proc = None
    try:
        for k in range(SETUP_SAMPLES):
            proc, setup, raw_setup = spawn_worker(args, env, setup_only=k < SETUP_SAMPLES - 1)
            setups.append(setup)
            raw_setups.append(raw_setup)
            out, _ = proc.communicate(timeout=max(1.0, RUN_LIMIT_S - (time.perf_counter() - start)))
    except subprocess.TimeoutExpired:
        stop(proc)
        return fail(f"run exceeded {RUN_LIMIT_S} s")
    except RuntimeError as exc:
        return fail(str(exc))
    if proc.returncode != 0 or not out.strip():
        return fail(f"workload process exited {proc.returncode}")
    raw = json.loads(out.strip().splitlines()[-1])

    if not raw["deviation_ratios"]:
        return fail("no query passed with a deviation check")
    e2e, notes = end_to_end(raw, setups, raw_setups)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": machine_record(),
        "inputs": raw["inputs"],
        "failures_by_check": dict(Counter(raw["failures"])),
        "unexpected_failures": dict(Counter(raw["unexpected"])),
        "known_defects_over_ceiling": raw["over_ceiling"],
        **notes,
    }
    if args.trace:
        values, trace_notes = per_layer(raw["trace"], e2e["throughput_qps"])
        report.update(trace_notes)
        metric_list = spec["per_layer"]
    else:
        values = e2e
        metric_list = spec["end_to_end"]
    report["end_to_end"] = {k: round(v, 6) for k, v in e2e.items()}
    missing = [m["name"] for m in metric_list if m["name"] not in values]
    if missing:
        return fail(f"metrics not produced: {missing}")
    print("report " + json.dumps(report, sort_keys=True))
    unexpected = raw["unexpected"] + (raw["trace"]["unexpected"] if args.trace else [])
    result = {
        "correct": not unexpected and not raw["over_ceiling"],
        "attempted": raw["attempted"],
        "failed": raw["attempted"] - raw["passed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metric_list},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
