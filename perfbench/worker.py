"""One benchmark process: set up a workload, then run its ops in a closed loop.

Started by ``run.py``, one workload at a time, each in a fresh process so
that the oracle's process-wide cache starts empty. The last line of standard
output is a JSON object with this process's measurements. Before each op,
off its clock, the worker times one run of the reference kernel, from which
run.py normalises the op's time to host speed.

Modes:
  setup   import mmskit and write the first op's inputs, then time a few
          runs of the reference kernel and stop
  timed   run ops untraced until --seconds of wall time have passed, at
          least MIN_TIMED_OPS ops have run and the current block of ops is
          complete
  count   run exactly --blocks blocks of ops, untraced or (with --trace)
          traced
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import reference
import workloads

# Peak RSS is read after this many blocks, so that it measures a fixed amount
# of work: the oracle's cache grows with every op, and a faster program would
# otherwise show a higher peak only because it ran more ops.
RSS_BLOCKS = 5
# A timed run needs at least this many ops, so that ten samples lie above p90.
MIN_TIMED_OPS = 100
# Reference kernel runs after a set-up, which give the set-up's speed factor,
# and the runs before them that warm the kernel up in the fresh process.
SETUP_KERNELS = 2 * reference.WINDOW + 1
SETUP_KERNEL_WARMUP = 3


def time_kernel() -> int:
    start = time.perf_counter_ns()
    reference.kernel()
    return time.perf_counter_ns() - start


def call(op: workloads.Op, cli, bobw) -> object:
    """Make the op's call into mmskit: the timed part of an op."""
    if op.argv is not None:
        return cli.main(op.argv)
    name, args = op.call
    return getattr(bobw, name)(*args)


def outcome(op: workloads.Op, result: object) -> object:
    """What the op's check looks at: the output file of a CLI op that exited
    with 0, or the return value of a bobw call."""
    if op.argv is None:
        return result
    if result != 0:
        raise RuntimeError(f"mmskit {op.argv[0]} exited with code {result}")
    with open(op.output, "r", encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.STREAMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=["setup", "timed", "count"])
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--blocks", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=int, required=True, help="time.monotonic_ns() at spawn")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from mmskit import bobw, cli

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    stream = workloads.STREAMS[args.workload](args.seed, args.workdir)
    op = next(stream)
    setup_ns = time.monotonic_ns() - args.spawned_at
    out: dict = {"setup_ns": setup_ns}
    if args.mode == "setup":
        kernel_ns = [time_kernel() for _ in range(SETUP_KERNEL_WARMUP + SETUP_KERNELS)]
        out["kernel_ns"] = kernel_ns[SETUP_KERNEL_WARMUP:]
        print(json.dumps(out))
        return 0

    latencies: list[int] = []
    kernel_ns: list[int] = []
    failures: list[dict] = []
    per_op: list[dict] = []
    blocks = 0
    peak_rss_kib = None
    deadline = time.monotonic() + args.seconds
    while True:
        # An op that raises, exits non-zero or fails its check counts as
        # failed; the loop keeps running.
        reason = None
        kernel_ns.append(time_kernel())
        start = time.perf_counter_ns()
        try:
            result = call(op, cli, bobw)
        except Exception as exc:
            reason = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        latencies.append(time.perf_counter_ns() - start)
        if reason is None:
            try:
                reason = op.check(outcome(op, result))
            except Exception as exc:
                reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append({"op": len(latencies) - 1, "kind": op.kind, "reason": reason})
        if tracer is not None:
            per_op.append(tracer.finish_op())
        if op.block_end:
            blocks += 1
            if blocks == RSS_BLOCKS:
                peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if args.mode == "count" and blocks == args.blocks:
                break
            if args.mode == "timed" and time.monotonic() >= deadline and len(latencies) >= MIN_TIMED_OPS:
                break
        op = next(stream, None)
        if op is None:
            break

    out.update(
        latencies_ns=latencies,
        kernel_ns=kernel_ns,
        failures=failures,
        peak_rss_kib=peak_rss_kib or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if tracer is not None:
        out.update(per_op=per_op, cross_op_repeats=tracer.cross_op_repeats)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
