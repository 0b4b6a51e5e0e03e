"""mmskit benchmark: one workload, one seed, one closed-loop client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload shares --seed 1 --seconds 15 --trace 0

Workloads (see perfbench/README.md for why each exists): shares, allocate,
threshold, analysis. Every op calls mmskit in-process through its public
entry points and its output is checked; see workloads.py.

``--trace 0`` measures the end-to-end metrics. Set-up (interpreter start to
the first op) is measured in several fresh processes and reported as their
median; then one fresh process runs ops one at a time until ``--seconds``
of wall time have passed and at least 100 ops have run. Every op is timed
next to a run of a fixed reference kernel, and its time is normalised to
the host speed the kernel shows (see reference.py). ``--trace 1`` runs
a fixed number of blocks of seed-determined ops three times, each in a fresh
process: once untraced and twice traced. It reports the per-layer metrics
of the first traced run, the tracing overhead against the untraced run, and
fails the run if the two traced runs disagree on any count that should
repeat exactly or if a layer that should be bypassed ran.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
record the seed, ``nproc``, the Python version and a readable summary.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402
from spans import TRANSFORM_LAYERS  # noqa: E402

SETUP_RUNS = 11  # set-up samples per run, the timed process's included
TOTAL_BUDGET_S = 170  # the whole run, every worker included
# Blocks of ops per second of --seconds in a --trace 1 run: its three passes
# over the same ops take about --seconds together on a 2-CPU Xeon VM.
TRACE_BLOCKS_PER_SECOND = {"shares": 0.25, "allocate": 0.55, "threshold": 0.15, "analysis": 0.06}
# Bypass predictions: these layers must not run on these workloads.
BYPASSED = {
    "shares": ("rbf.runs",),
    "allocate": ("rbf.runs",),
    "threshold": ("oracle.calls",),
    "analysis": ("oracle.calls",),
}


class WorkerError(Exception):
    pass


def spawn(workdir: str, deadline: float, args: argparse.Namespace, *extra: str) -> dict:
    """Run one worker process to completion and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("time budget exhausted")
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--workdir", workdir,
        "--spawned-at", str(time.monotonic_ns()),
        *extra,
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded the time budget: {' '.join(extra)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}: {' '.join(extra)}")
    return json.loads(lines[-1])


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def setup_seconds(setup: dict) -> float:
    """A set-up's time, normalised by the kernel runs of its own process."""
    return setup["setup_ns"] * reference.NOMINAL_NS / statistics.median(setup["kernel_ns"]) / 1e9


def normalised(run: dict) -> list[float]:
    """The run's op times in ns, normalised to host speed."""
    return [lat * reference.scale(run["kernel_ns"], k) for k, lat in enumerate(run["latencies_ns"])]


def end_to_end(setups: list[dict], timed: dict) -> tuple[dict, dict]:
    raw = timed["latencies_ns"]
    kernel_ns = timed["kernel_ns"]
    latencies = normalised(timed)
    failed_ops = {f["op"] for f in timed["failures"]}

    def figures(values: list[float]) -> tuple[float, float, float]:
        done = [v for k, v in enumerate(values) if k not in failed_ops]
        # A failed op misses any latency limit: rank it above every completed op.
        ranked = sorted(done) + [max(values)] * len(failed_ops)
        return len(done) / (sum(values) / 1e9), percentile(ranked, 0.5) / 1e6, percentile(ranked, 0.9) / 1e6

    ops_per_s, p50, p90 = figures(latencies)
    metrics = {
        "ops_per_s": (ops_per_s, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "setup_s": (statistics.median(setup_seconds(s) for s in setups), "s"),
        "peak_rss_mb": (timed["peak_rss_kib"] / 1024, "MiB"),
    }
    raw_ops_per_s, raw_p50, raw_p90 = figures(raw)
    extra = {
        "failed_frac": len(failed_ops) / len(latencies),
        "samples": len(latencies),
        "samples_above_p90": len(latencies) - math.ceil(0.9 * len(latencies)),
        "setup_samples": len(setups),
        "kernel_ms_median": statistics.median(kernel_ns) / 1e6,
        "unnormalised": {
            "ops_per_s": raw_ops_per_s,
            "latency_p50_ms": raw_p50,
            "latency_p90_ms": raw_p90,
            "setup_s": statistics.median(s["setup_ns"] for s in setups) / 1e9,
        },
    }
    return metrics, extra


def exact_counts(run: dict) -> list[tuple[int, int, int, int]]:
    """Per op: oracle calls, oracle repeat calls, rbf runs, rbf queries."""
    rows = []
    for op in run["per_op"]:
        counts = op["counts"]
        rbf_runs = op["layers"].get("rbf.run_rbf", [0])[0]
        rows.append(
            (
                counts.get("oracle.calls", 0),
                counts.get("oracle.repeat_calls", 0),
                rbf_runs,
                counts.get("rbf.queries", 0),
            )
        )
    return rows


def per_layer(traced: dict, untraced: dict) -> dict:
    per_op = traced["per_op"]
    latencies = traced["latencies_ns"]

    def ran(names: tuple[str, ...]) -> list[int]:
        return [k for k, op in enumerate(per_op) if any(n in op["layers"] for n in names)]

    def total(names: tuple[str, ...], field: int, ops: list[int] | None = None) -> int:
        ops = range(len(per_op)) if ops is None else ops
        return sum(per_op[k]["layers"].get(n, [0, 0, 0])[field] for k in ops for n in names)

    def ms_per_op(names: tuple[str, ...], field: int) -> float:
        ops = ran(names)
        return total(names, field, ops) / len(ops) / 1e6 if ops else 0.0

    def per_span(names: tuple[str, ...], scale: float) -> float:
        spans = total(names, 0)
        return total(names, 1) / spans / scale if spans else 0.0

    counts = [sum(column) for column in zip(*exact_counts(traced))] or [0, 0, 0, 0]
    oracle_calls, repeat_calls, rbf_runs, queries = counts
    oracle_ops = ran(("oracle.mms",))
    oracle_ns = total(("oracle.mms",), 1)
    oracle_op_ns = sum(latencies[k] for k in oracle_ops)
    sweeps = total(("bobw.sweep",), 0) * workloads.SWEEP_WINDOW
    n = len(per_op)
    metrics = {
        "trace.overhead_ms": ((sum(normalised(traced)) - sum(normalised(untraced))) / n / 1e6, "ms/op"),
        "cli.self_ms": (ms_per_op(("cli.main",), 2), "ms/op"),
        "oracle.calls": (oracle_calls, "count"),
        "oracle.repeat_calls": (repeat_calls, "count"),
        "oracle.busy_ms": (ms_per_op(("oracle.mms",), 1), "ms/op"),
        "oracle.busy_share": (oracle_ns / oracle_op_ns if oracle_op_ns else 0.0, "ratio"),
        "transform.busy_ms": (ms_per_op(TRANSFORM_LAYERS, 2), "ms/op"),
        "ordinal.run_ms": (ms_per_op(("ordinal.run_ordinal",), 1), "ms/op"),
        "ordinal.pipeline_self_ms": (ms_per_op(("ordinal.run_1_out_of_d",), 2), "ms/op"),
        "rbf.runs": (rbf_runs, "count"),
        "rbf.queries": (queries, "count"),
        "rbf.run_ms": (per_span(("rbf.run_rbf",), 1e6), "ms/run"),
        "rbf.us_per_query": (total(("rbf.run_rbf",), 1) / queries / 1e3 if queries else 0.0, "us/query"),
        "bobw.rotation_self_ms": (ms_per_op(("bobw.rotation",), 2), "ms/op"),
        "bobw.sweep_ms_per_n": (total(("bobw.sweep",), 1) / sweeps / 1e6 if sweeps else 0.0, "ms/n"),
        "bobw.closed_form_ms": (per_span(("bobw.closed_form",), 1e6), "ms/call"),
        "bobw.integral_ms": (per_span(("bobw.integral",), 1e6), "ms/call"),
        "adversarial.self_ms": (ms_per_op(("adversarial.demonstrate_failure",), 2), "ms/op"),
        "verify.check_ms": (ms_per_op(("verify.check_transcript",), 1), "ms/op"),
    }
    return metrics


def trace_problems(workload: str, runs: list[dict], metrics: dict) -> list[str]:
    """Counts that must repeat exactly, bypass predictions, cache honesty."""
    problems = []
    first, second = runs
    if len(first["latencies_ns"]) != len(second["latencies_ns"]):
        problems.append("the two traced runs attempted different numbers of ops")
    if exact_counts(first) != exact_counts(second):
        problems.append("oracle or rbf counts differ between two traced runs of the same seed")
    for name in BYPASSED[workload]:
        if metrics[name][0] != 0:
            problems.append(f"{name} is {metrics[name][0]} on {workload}, predicted 0")
    for run in runs:
        if run["cross_op_repeats"]:
            problems.append(f"{run['cross_op_repeats']} oracle cache keys repeat an earlier op's")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description="mmskit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.STREAMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + TOTAL_BUDGET_S
    if not os.path.isfile(os.path.join("src", "mmskit", "__init__.py")):
        print("run from the root of an mmskit checkout: src/mmskit is missing", file=sys.stderr)
        return 2
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
            }
        )
    )

    workdir = os.path.join(".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace == 0:
            # Set-up samples are taken before and after the timed process, so
            # their median spans the run rather than one moment of it.
            before = [spawn(workdir, deadline, args, "--mode", "setup") for _ in range(SETUP_RUNS // 2)]
            timed = spawn(workdir, deadline, args, "--mode", "timed", "--seconds", str(args.seconds))
            after = [spawn(workdir, deadline, args, "--mode", "setup") for _ in range(SETUP_RUNS // 2)]
            setups = before + [timed] + after
            metrics, extra = end_to_end(setups, timed)
            failures = timed["failures"]
            attempted = len(timed["latencies_ns"])
            problems: list[str] = []
        else:
            blocks = str(max(1, round(TRACE_BLOCKS_PER_SECOND[args.workload] * args.seconds)))
            untraced = spawn(workdir, deadline, args, "--mode", "count", "--blocks", blocks)
            traced = [
                spawn(workdir, deadline, args, "--mode", "count", "--blocks", blocks, "--trace") for _ in range(2)
            ]
            metrics = per_layer(traced[0], untraced)
            failures = untraced["failures"] + traced[0]["failures"] + traced[1]["failures"]
            attempted = len(traced[0]["latencies_ns"])
            problems = trace_problems(args.workload, traced, metrics)
            extra = {"failures_in_three_passes": len(failures)}
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(".perfbench_work") and not os.listdir(".perfbench_work"):
            os.rmdir(".perfbench_work")

    for failure in failures[:10]:
        print(f"failed op: {json.dumps(failure)}", file=sys.stderr)
    for problem in problems:
        print(f"self-check failed: {problem}", file=sys.stderr)
    summary = {name: f"{value:.6g} {unit}" for name, (value, unit) in metrics.items()}
    print(json.dumps({"summary": summary, **extra}))
    failed = len({f["op"] for f in failures})
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
