"""Command-line interface and the JSON interchange format.

This is the only module that touches files and process I/O. Rationals
travel as "p/q" strings (bare integers are accepted on input), so the
interchange layer stays float-free. Exit codes: 0 success, 1 input error,
2 search budget exhausted, 3 a proven-guarantee self-check failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, NoReturn, Sequence

from . import adversarial, bobw, oracle, verify
from .adversarial import HardInstanceSpec, demonstrate_failure, gen_hard1, gen_hard2_responders, gen_ordinal_tight
from .core import Allocation, Instance, PriorityRanking, ThresholdList, Transcript, as_fraction, check_int, short_repr, short_text
from .errors import GuaranteeViolation, InputError, MmsKitError, SearchBudgetExceeded
from .ordinal import run_1_out_of_d
from .rbf import priority_thresholds, run_rbf_truthful

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_GUARANTEE = 3


# ---------------------------------------------------------------------------
# JSON encoding / decoding


def _fraction_text(value: Fraction) -> str:
    """How the CLI writes every rational: "p/q", or "p" for an integer. A value
    with more digits than Python writes out raises InputError, as
    ``bobw.fraction_to_decimal`` does."""
    try:
        return str(value)
    except ValueError as exc:  # an int past Python's digit limit for str
        raise InputError(f"value has too many digits to write: {short_repr(value)}") from exc


def instance_to_json(inst: Instance) -> dict[str, Any]:
    return {
        "agents": inst.num_agents,
        "goods": inst.num_goods,
        "valuations": [[_fraction_text(v) for v in row] for row in inst.valuations],
    }


def instance_from_json(obj: Any) -> Instance:
    if not isinstance(obj, dict):
        raise InputError("instance file must hold a JSON object")
    try:
        n = obj["agents"]
        m = obj["goods"]
        rows = obj["valuations"]
    except KeyError as exc:
        raise InputError(f"instance file is missing key {exc}") from exc
    check_int("agents", n, 0)
    check_int("goods", m, 0)
    if not (isinstance(rows, list) and len(rows) == n and all(isinstance(r, list) for r in rows)):
        raise InputError(f"'valuations' must be a list of {n} lists")
    return Instance.from_rows(rows, num_goods=m)


def allocation_to_json(alloc: Allocation) -> dict[str, Any]:
    return {
        "bundles": [sorted(b) for b in alloc.bundles],
        "unallocated": sorted(alloc.unallocated),
    }


def allocation_from_json(obj: Any) -> Allocation:
    if isinstance(obj, dict) and "bundles" not in obj:  # the output of ordinal, rbf or demo
        obj = obj.get("allocation")
    if not isinstance(obj, dict) or not isinstance(obj.get("bundles"), list):
        raise InputError("allocation file must hold an object with a 'bundles' list")
    return Allocation(tuple(obj["bundles"]), obj.get("unallocated", []))


def thresholds_to_json(t: ThresholdList) -> list[str]:
    return [_fraction_text(x) for x in t.taus]


def transcript_to_json(tr: Transcript) -> dict[str, Any]:
    return {
        "agents": tr.num_agents,
        "goods": tr.num_goods,
        "reductions": [
            {
                "type": e.type,
                "agent": e.agent,
                "bundle": sorted(e.bundle),
                "agentsBefore": e.agents_before,
                "goodsBefore": e.goods_before,
            }
            for e in tr.reductions
        ],
        "bagEvents": [
            {k: v for k, v in (("kind", e.kind), ("bag", e.bag), ("agent", e.agent), ("good", e.good)) if v is not None}
            for e in tr.bag_events
        ],
        "initialBags": [sorted(b) for b in tr.initial_bags],
        "phase2Agents": sorted(tr.phase2_agents),
        "phase2Goods": sorted(tr.phase2_goods),
        "ranOutOfGoods": tr.ran_out_of_goods,
        "satisfied": list(tr.satisfied),
    }


def report_to_json(report: Sequence[verify.AgentCheck]) -> dict[str, Any]:
    return {
        "perAgent": [
            {
                "agent": c.agent,
                "value": _fraction_text(c.value),
                "target": _fraction_text(c.target),
                "ok": c.ok,
            }
            for c in report
        ],
        "allOk": all(c.ok for c in report),
    }


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer over the digit limit
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:  # a few KB of nested brackets
        raise InputError(f"{path} is not valid JSON: nested too deeply") from None


def _json_text(value: Any, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, with
    ``newline`` (a line break and the current indent) starting each line after
    the first. json's own indented encoder runs in pure Python, one call per
    token; this one writes a list of ints with one ``str.join``. It writes
    what the CLI emits: None, bools, ints, strs, lists, tuples and dicts with
    str keys. Any other value, a float or an int key among them, raises
    TypeError."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value.__class__ is int:
        return str(value)
    inner = newline + "  "
    sep = "," + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if {*map(type, value)} == {int}:
            body = sep.join(map(str, value))
        else:
            body = sep.join([_json_text(v, inner) for v in value])
        return "[" + inner + body + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        # encode_basestring_ascii raises TypeError on a key that is not a str
        body = sep.join([encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in sorted(value.items())])
        return "{" + inner + body + newline + "}"
    raise TypeError(f"the CLI writes no {value.__class__.__name__}: {short_repr(value)}")


def _emit(payload: Any, output: str | None) -> None:
    text = _json_text(payload) + "\n"
    try:
        if not output:
            sys.stdout.write(text)
            sys.stdout.flush()
            return
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:  # a closed pipe or a full disk, too
        raise InputError(f"cannot write {output or 'stdout'}: {exc}") from exc


# The parsers only parse; the library checks each list's length against the instance.
def _parse_thresholds(spec: str | None, n: int) -> ThresholdList:
    if spec in (None, "default"):
        return priority_thresholds(n)
    return ThresholdList(tuple(as_fraction(part.strip()) for part in spec.split(",")))


def _parse_ranking(spec: str | None, n: int) -> PriorityRanking:
    if spec in (None, "identity"):
        return PriorityRanking.identity(n)
    try:
        ranks = tuple(int(part.strip()) for part in spec.split(","))
    except ValueError as exc:
        raise InputError(f"ranking must be 'identity' or a list of ints, got {short_repr(spec)}") from exc
    return PriorityRanking(ranks)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_mms(args: argparse.Namespace) -> dict[str, Any]:
    inst = instance_from_json(_load_json(args.instance))
    if args.agent is None:
        solved = enumerate(oracle.mms_all(inst, args.d, node_budget=args.node_budget))
    else:
        solved = [(args.agent, oracle.mms(inst, args.agent, args.d, node_budget=args.node_budget))]
    results = [
        {
            "agent": agent,
            "d": args.d,
            "value": _fraction_text(res.value),
            "witness": [sorted(p) for p in res.witness.parts],
        }
        for agent, res in solved
    ]
    return {"results": results}


def _cmd_ordinal(args: argparse.Namespace) -> dict[str, Any]:
    inst = instance_from_json(_load_json(args.instance))
    result = run_1_out_of_d(inst, node_budget=args.node_budget)
    per_agent = [
        {"agent": c.agent, "value": _fraction_text(c.value), "share": _fraction_text(c.target), "ok": c.ok}
        for c in result.report
    ]
    return {
        "d": result.d,
        "allocation": allocation_to_json(result.allocation),
        "perAgent": per_agent,
        "allOk": all(c.ok for c in result.report),
        "earlyTermination": False,  # run_1_out_of_d raises on a run that ran out of goods
    }


def _cmd_rbf(args: argparse.Namespace) -> dict[str, Any]:
    inst = instance_from_json(_load_json(args.instance))
    thresholds = _parse_thresholds(args.thresholds, inst.num_agents)
    run = run_rbf_truthful(inst, thresholds, _parse_ranking(args.ranking, inst.num_agents))
    return {
        "allocation": allocation_to_json(run.allocation),
        "transcript": transcript_to_json(run.transcript),
        "thresholds": thresholds_to_json(thresholds),
        **report_to_json(run.report),
        "structureOk": not run.structure,
        "structureViolations": list(run.structure),
    }


def _cmd_bobw(args: argparse.Namespace) -> dict[str, Any]:
    inst = instance_from_json(_load_json(args.instance))
    thresholds = _parse_thresholds(args.thresholds, inst.num_agents)
    dist = bobw.cyclic_rotation_distribution(inst, thresholds)
    payload = {
        "support": [
            {
                "probability": f"1/{len(dist.support)}",
                "ranking": list(ranking.rank_of),
                "allocation": allocation_to_json(alloc),
            }
            for ranking, alloc in dist.support
        ],
        "perAgentExAnte": [_fraction_text(v) for v in dist.ex_ante],
        "perAgentExPostMin": [_fraction_text(v) for v in dist.ex_post_min],
    }
    if args.seed is not None:
        ranking, alloc = bobw.sample_allocation(dist, args.seed)
        payload["sample"] = {
            "seed": args.seed,
            "ranking": list(ranking.rank_of),
            "allocation": allocation_to_json(alloc),
        }
    return payload


def _family_spec(args: argparse.Namespace) -> HardInstanceSpec:
    t = 3 if args.family == "hard2" and args.t is None else args.t  # only hard2 reads --t
    return HardInstanceSpec(args.family, args.n, i=args.i, k1=args.k1, k2=args.k2, t=t)


def _cmd_gen(args: argparse.Namespace) -> dict[str, Any]:
    spec = _family_spec(args)  # validates before the default epsilon divides by n
    if args.family == "ordinalTight":
        fam = gen_ordinal_tight(args.n)
        payload = instance_to_json(fam.instance)
        payload.update({"family": "ordinalTight", "d": fam.d})
    elif args.family == "hard1":
        eps = as_fraction(args.epsilon) if args.epsilon else Fraction(1, 12 * args.n)
        fam = gen_hard1(args.n, args.i, eps)
        payload = instance_to_json(fam.instance)
        payload.update(
            {
                "family": "hard1",
                "i": args.i,
                "alpha": _fraction_text(fam.alpha),
                "epsilon": _fraction_text(fam.epsilon),
            }
        )
    else:  # hard2
        fam = gen_hard2_responders(args.n, args.i, args.k1, args.k2, spec.t)
        payload = {
            "family": "hard2",
            "n": fam.n,
            "i": fam.i,
            "k1": fam.k1,
            "k2": fam.k2,
            "t": fam.t,
            "alpha": _fraction_text(fam.alpha),
            "epsilon": _fraction_text(fam.epsilon),
            "targetAgent": fam.target_agent,
            "targetValuation": [_fraction_text(v) for v in fam.instance.valuations[0]],
        }
    return payload


def _cmd_demo(args: argparse.Namespace) -> dict[str, Any]:
    report = demonstrate_failure(_family_spec(args))
    witness = report.shortfalls[0]
    return {
        "family": report.family,
        "n": report.n,
        "thresholds": thresholds_to_json(report.thresholds),
        "witnessAgent": witness.agent,
        "witnessValue": _fraction_text(witness.value),
        "witnessTarget": _fraction_text(witness.target),
        "unsatisfied": [
            {"agent": c.agent, "value": _fraction_text(c.value), "target": _fraction_text(c.target)}
            for c in report.shortfalls
        ],
        "reductionCount": len(report.transcript.reductions),
        "ranOutOfGoods": report.transcript.ran_out_of_goods,
        "allocation": allocation_to_json(report.allocation),
    }


def _cmd_verify(args: argparse.Namespace) -> dict[str, Any]:
    inst = instance_from_json(_load_json(args.instance))
    alloc = allocation_from_json(_load_json(args.allocation))
    if args.mode == "1ood":
        if args.d is None:
            raise InputError("mode '1ood' needs --d")
        report = verify.check_1_out_of_d(inst, alloc, args.d, node_budget=args.node_budget)
        return {"mode": "1ood", "d": args.d, **report_to_json(report)}
    thresholds = _parse_thresholds(args.thresholds, inst.num_agents)
    ranking = _parse_ranking(args.ranking, inst.num_agents)
    report = verify.check_t_mms(inst, alloc, ranking, thresholds, node_budget=args.node_budget)
    return {"mode": "tmms", "thresholds": thresholds_to_json(thresholds), **report_to_json(report)}


# ---------------------------------------------------------------------------
# Parser


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an InputError (exit 1, one line) instead of
    argparse's multi-line message and exit 2, which means an exhausted budget.
    argparse echoes a bad argument in full, so the message is cut by ``short_text``."""

    def error(self, message: str) -> NoReturn:
        raise InputError(f"{self.prog}: {short_text(message)}")


@functools.cache  # built on the first call, not at import; parse_args keeps no state on it
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: callers share it and must not mutate it."""
    parser = _Parser(
        prog="mmskit",
        description="Exact maximin-share fair division: shares, allocations, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget(p: argparse.ArgumentParser) -> None:  # only subcommands that search
        p.add_argument(
            "--node-budget", type=int, default=None,
            help="nodes of each share search, one per distinct agent row (ordinal may run about 2n); default 10^7",
        )

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", default=None, help="write JSON here instead of stdout")

    def add_family(p: argparse.ArgumentParser) -> None:
        p.add_argument("family", choices=["ordinalTight", "hard1", "hard2"])
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--i", type=int, default=None, help="target rank (1-based)")
        p.add_argument("--k1", type=int, default=None)
        p.add_argument("--k2", type=int, default=None)
        p.add_argument("--t", type=int, default=None, help="hard2 only; default 3")

    p = sub.add_parser("mms", help="exact share values and witness partitions")
    p.add_argument("instance")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--agent", type=int, default=None)
    add_budget(p)
    add_common(p)
    p.set_defaults(func=_cmd_mms)

    p = sub.add_parser("ordinal", help="allocate via bag filling at d = 4*ceil(n/3)")
    p.add_argument("instance")
    add_budget(p)
    add_common(p)
    p.set_defaults(func=_cmd_ordinal)

    p = sub.add_parser("rbf", help="reductions-and-bag-filling with rank thresholds")
    p.add_argument("instance")
    p.add_argument("--thresholds", default="default", help="'default' or comma list of rationals")
    p.add_argument("--ranking", default="identity", help="'identity' or comma list of ranks")
    add_common(p)
    p.set_defaults(func=_cmd_rbf)

    p = sub.add_parser("bobw", help="cyclic-rotation distribution with exact summaries")
    p.add_argument("instance")
    p.add_argument("--thresholds", default="default")
    p.add_argument("--seed", type=int, default=None, help="draw one allocation reproducibly")
    add_common(p)
    p.set_defaults(func=_cmd_bobw)

    p = sub.add_parser("gen", help="generate a named hard instance family")
    add_family(p)
    p.add_argument("--epsilon", default=None, help="unit fraction, e.g. 1/12")
    add_common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("demo", help="run a hard family and report who falls short")
    add_family(p)
    add_common(p)
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("verify", help="check an allocation file against the oracle")
    p.add_argument("instance")
    p.add_argument("allocation")
    p.add_argument("--mode", choices=["1ood", "tmms"], required=True)
    p.add_argument("--d", type=int, default=None, help="mode 1ood only")
    p.add_argument("--thresholds", default=None, help="mode tmms only; default 'default'")
    p.add_argument("--ranking", default=None, help="mode tmms only; default 'identity'")
    add_budget(p)
    add_common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


# The modes or families that read each of these flags; any other rejects it.
_READ_BY = {"d": ("1ood",), "thresholds": ("tmms",), "ranking": ("tmms",), "epsilon": ("hard1",),
            **adversarial._READ_BY}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        choice = getattr(args, "mode", None) or getattr(args, "family", None)
        for dest, readers in _READ_BY.items():
            if choice and choice not in readers and getattr(args, dest, None) is not None:
                raise InputError(f"mmskit {args.command}: argument --{dest}: not read with {choice}")
        _emit(args.func(args), args.output)
        return EXIT_OK
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SearchBudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except GuaranteeViolation as exc:
        print(f"guarantee violation (this is a bug): {exc}", file=sys.stderr)
        return EXIT_GUARANTEE
    except MmsKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except OSError:  # main reported it; what stdout still buffers goes to devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
