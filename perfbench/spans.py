"""Spans and counts around mmskit's layers, recorded from outside the package.

``install`` replaces public functions at the names their callers look them
up (``mmskit.ordinal.normalize`` is what ``run_1_out_of_d`` calls, for
instance) with wrappers that record a span: layer name, duration and the
time covered by its child spans. Responder queries are counted by
subclasses installed in place of ``rbf.TruthfulResponder`` and the scripted
hard2 responder, so the allocator's ``isinstance`` validation path still
runs. No file of the package is changed; the wrappers exist only in a
traced worker process.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable

from workloads import positive_values

# (module, attribute) -> layer name. Several lookup names can feed one layer.
WRAPPED = {
    ("cli", "main"): "cli.main",
    ("oracle", "mms"): "oracle.mms",
    ("cli", "run_1_out_of_d"): "ordinal.run_1_out_of_d",
    ("ordinal", "normalize"): "transform.normalize",
    ("ordinal", "order"): "transform.order",
    ("ordinal", "pad_agents_to_multiple_of_3"): "transform.pad",
    ("ordinal", "pad_goods"): "transform.pad",
    ("ordinal", "unpick"): "transform.unpick",
    ("ordinal", "reinstate"): "transform.reinstate",
    ("ordinal", "run_ordinal"): "ordinal.run_ordinal",
    ("adversarial", "run_ordinal"): "ordinal.run_ordinal",
    ("cli", "run_rbf_truthful"): "rbf.run_rbf_truthful",
    ("bobw", "run_rbf_truthful"): "rbf.run_rbf_truthful",
    ("rbf", "run_rbf"): "rbf.run_rbf",
    ("adversarial", "run_rbf"): "rbf.run_rbf",
    ("bobw", "cyclic_rotation_distribution"): "bobw.rotation",
    ("verify", "check_transcript"): "verify.check_transcript",
    ("cli", "demonstrate_failure"): "adversarial.demonstrate_failure",
    ("bobw", "verify_gamma_bound_range"): "bobw.sweep",
    ("bobw", "verify_hard_bound_range"): "bobw.sweep",
    ("bobw", "gamma_lower_bound"): "bobw.closed_form",
    ("bobw", "hard1_upper_bound"): "bobw.closed_form",
    ("bobw", "hard2_upper_bound"): "bobw.closed_form",
    ("bobw", "integral_check_gamma"): "bobw.integral",
    ("bobw", "integral_check_hard1"): "bobw.integral",
    ("bobw", "integral_check_hard2"): "bobw.integral",
}

TRANSFORM_LAYERS = (
    "transform.normalize",
    "transform.order",
    "transform.pad",
    "transform.unpick",
    "transform.reinstate",
)


class Tracer:
    """Per-op span totals and counters; ``finish_op`` hands them over."""

    def __init__(self):
        self.stack: list[list[int]] = []  # open spans: [start ns, ns covered by children]
        self.seen_keys: set[tuple] = set()  # oracle cache keys of earlier ops
        self.cross_op_repeats = 0
        self._reset()

    def _reset(self) -> None:
        # layer -> [spans, total ns, self ns]
        self.layers: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.counts: dict[str, int] = defaultdict(int)
        self.op_keys: set[tuple] = set()

    def wrap(self, name: str, fn: Callable) -> Callable:
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = [time.perf_counter_ns(), 0]
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                total = time.perf_counter_ns() - span[0]
                stack.pop()
                if stack:
                    stack[-1][1] += total
                entry = self.layers[name]
                entry[0] += 1
                entry[1] += total
                entry[2] += total - span[1]

        return traced

    def oracle_call(self, inst, agent: int, d: int, goods: list[int] | None) -> None:
        goods = range(inst.num_goods) if goods is None else sorted(set(goods))
        key = (positive_values(inst.valuations[agent], goods), d)
        self.counts["oracle.calls"] += 1
        if key in self.op_keys:
            self.counts["oracle.repeat_calls"] += 1
        elif key in self.seen_keys:
            self.cross_op_repeats += 1
        self.op_keys.add(key)

    def finish_op(self) -> dict[str, Any]:
        summary = {"layers": dict(self.layers), "counts": dict(self.counts)}
        self.seen_keys |= self.op_keys
        self._reset()
        return summary


def install(tracer: Tracer) -> None:
    """Put the wrappers and counting responders in place, process-wide."""
    import importlib

    from mmskit import adversarial, rbf

    for (module_name, attr), layer in WRAPPED.items():
        module = importlib.import_module(f"mmskit.{module_name}")
        setattr(module, attr, tracer.wrap(layer, getattr(module, attr)))

    # Count oracle calls and their cache keys on top of the oracle span.
    from mmskit import oracle

    timed_mms = oracle.mms

    def counted_mms(inst, agent, d, goods=None, node_budget=None):
        goods = None if goods is None else list(goods)
        tracer.oracle_call(inst, agent, d, goods)
        return timed_mms(inst, agent, d, goods=goods, node_budget=node_budget)

    oracle.mms = counted_mms

    class CountingTruthfulResponder(rbf.TruthfulResponder):
        def value(self, agent, goods):
            tracer.counts["rbf.queries"] += 1
            return super().value(agent, goods)

    class CountingScriptedResponder(adversarial.ScriptedHard2Responder):
        def value(self, agent, goods):
            tracer.counts["rbf.queries"] += 1
            return super().value(agent, goods)

    rbf.TruthfulResponder = CountingTruthfulResponder
    adversarial.TruthfulResponder = CountingTruthfulResponder
    adversarial.ScriptedHard2Responder = CountingScriptedResponder
