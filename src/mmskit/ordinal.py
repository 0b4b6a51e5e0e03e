"""Paired-bag initialization and sequential bag filling.

``run_ordinal`` expects an ordered instance whose unit of value is one
bundle of each agent's share partition (so the acceptance test inside each
round is ``value >= 1``). ``run_1_out_of_d`` wraps it with the full
transform pipeline and gives every agent of an arbitrary instance her exact
share value for d = 4 * ceil(n / 3) bundles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Allocation, Instance, Partition, check_int
from .errors import GuaranteeViolation, InputError
from .transform import (
    normalize,
    order,
    pad_agents_to_multiple_of_3,
    pad_goods,
    permute_partition,
    reinstate,
    unpick,
)
from .verify import UNORDERED, GuaranteeReport, check_1_out_of_d, unit_share_violations


@dataclass(frozen=True)
class OrdinalRun:
    """Trace of one bag-filling run, for invariant checking and replay."""

    initial_bags: tuple[frozenset[int], ...]
    final_bags: tuple[frozenset[int], ...]
    assignment: tuple[int | None, ...]  # bag index -> agent
    fill_order: tuple[tuple[int, int], ...]  # (bag, good) in consumption order
    terminated_early: bool
    satisfied: tuple[bool, ...]  # per agent: got a bag it values >= 1


def run_ordinal(
    inst: Instance, witnesses: tuple[Partition, ...] | None = None
) -> tuple[Allocation, OrdinalRun]:
    """Initialize bag k with goods {k, 2n-1-k} and fill bags left to right.

    Each round appends the next unconsumed good (in non-increasing value
    order) to the current bag until some agent without a bag values it at
    least 1; the bag goes to the lowest-index such agent. When goods run out
    the run is flagged ``terminated_early`` and the remaining bags go to the
    remaining agents in index order. After a complete run, the never-consumed
    suffix of goods is appended to the bag of the last round.

    The instance must be ordered with m >= 2n. Pass ``witnesses``, one
    unit-share partition per agent, to also check the unit-share input at
    their d (the full pipeline does); the first of its
    ``unit_share_violations`` raises InputError.
    """
    n, m = inst.num_agents, inst.num_goods
    check_int("n", n, 1)
    if m < 2 * n:
        raise InputError(f"need at least 2n = {2 * n} goods, got {m}")
    if witnesses is None:
        if not inst.ordered:
            raise InputError(UNORDERED)
    elif violations := unit_share_violations(inst, witnesses[0].d if witnesses else n, witnesses):
        raise InputError(violations[0])

    initial = tuple(frozenset({k, 2 * n - 1 - k}) for k in range(n))
    final = [set(b) for b in initial]
    assignment: list[int | None] = [None] * n
    unassigned = list(range(n))
    fills: list[tuple[int, int]] = []
    j = 2 * n  # next unconsumed good
    terminated_early = False

    rows = inst.scaled
    for k in range(n):
        # Each agent's value of bag k in the ints of her row: worth >= 1 when >= L.
        sums = [ints[k] + ints[2 * n - 1 - k] for ints, _ in rows]
        while True:
            liker = next((i for i in unassigned if sums[i] >= rows[i][1]), None)
            if liker is not None:
                assignment[k] = liker
                unassigned.remove(liker)
                break
            if j >= m:
                terminated_early = True
                break
            final[k].add(j)
            fills.append((k, j))
            for i in unassigned:
                sums[i] += rows[i][0][j]
            j += 1
        if terminated_early:
            break

    satisfied = [False] * n
    for k, a in enumerate(assignment):
        if a is not None:
            satisfied[a] = True
    if terminated_early:
        # Hand the untouched bags to the remaining agents, in index order.
        first_open = assignment.index(None)
        for k, agent in zip(range(first_open, n), unassigned):
            assignment[k] = agent
    else:
        final[n - 1] |= set(range(j, m))

    bundles: list[frozenset[int]] = [frozenset() for _ in range(n)]
    for k, a in enumerate(assignment):
        if a is not None:
            bundles[a] = frozenset(final[k])
    alloc = Allocation(tuple(bundles))
    run = OrdinalRun(
        initial_bags=initial,
        final_bags=tuple(frozenset(b) for b in final),
        assignment=tuple(assignment),
        fill_order=tuple(fills),
        terminated_early=terminated_early,
        satisfied=tuple(satisfied),
    )
    return alloc, run


@dataclass(frozen=True)
class OneOutOfDResult:
    """Allocation of the original instance, its all-ok d-share report and the bag-filling trace."""

    allocation: Allocation
    d: int
    run: OrdinalRun | None
    report: GuaranteeReport  # one check per agent; each target is her d-share


def run_1_out_of_d(inst: Instance, node_budget: int | None = None) -> OneOutOfDResult:
    """Give every agent at least her share value for d = 4 * ceil(n / 3).

    Composes: drop agents with a zero share target, clone agent 0 up to a
    multiple of 3 agents, pad goods to 2n, normalize, order, run the bag
    filler, then pick goods back and undo the padding. The final allocation
    is compared against the exact oracle share of every original agent, and
    a shortfall raises GuaranteeViolation (it contradicts the theorem).
    """
    n = check_int("n", inst.num_agents, 1)
    d_target = 4 * ((n + 2) // 3)

    # An agent's d-bundle share is positive iff she values >= d goods positively.
    survivors = tuple(
        i for i, (ints, _) in enumerate(inst.scaled) if sum(1 for v in ints if v) >= d_target
    )

    run = None
    shares = None  # the guarantee check searches unless normalize found them at d_target
    if n == 1:
        allocation = Allocation((frozenset(range(inst.num_goods)),))
    elif not survivors:
        allocation = Allocation(
            tuple(frozenset() for _ in range(n)), frozenset(range(inst.num_goods))
        )
    elif len(survivors) == 1:
        the_one = survivors[0]
        bundles = [frozenset()] * n
        bundles[the_one] = frozenset(range(inst.num_goods))
        allocation = Allocation(tuple(bundles))
    else:
        padded = pad_agents_to_multiple_of_3(Instance(tuple(inst.scaled[i] for i in survivors), inst.num_goods))
        n_run = padded.num_agents
        d_run = 4 * n_run // 3
        # The oracle puts the zero-valued dummy goods in each witness's part 0.
        padded = pad_goods(padded, 2 * n_run)
        normalized, results = normalize(padded, d_run, node_budget)
        if d_run == d_target:  # dummy goods are worth 0; so is a non-survivor's share
            share_of = {i: r.value for i, r in zip(survivors, results)}
            shares = [share_of.get(i, 0) for i in range(n)]
        ordered, perms = order(normalized)
        ordered_witnesses = tuple(permute_partition(r.witness, p) for r, p in zip(results, perms))
        ordered_alloc, run = run_ordinal(ordered, witnesses=ordered_witnesses)
        if run.terminated_early:
            raise GuaranteeViolation(
                "bag filling ran out of goods on a normalized ordered input; "
                "this contradicts the existence guarantee"
            )
        allocation = reinstate(unpick(ordered_alloc, normalized, ordered), inst, survivors)

    report = check_1_out_of_d(inst, allocation, d_target, node_budget=node_budget, shares=shares)
    for c in report.checks:
        if not c.ok:
            raise GuaranteeViolation(
                f"agent {c.agent} received {c.value}, below her {d_target}-bundle "
                f"share {c.target}"
            )
    return OneOutOfDResult(allocation, d_target, run, report)

