"""Paired-bag initialization and sequential bag filling.

``run_ordinal`` expects an ordered instance whose unit of value is one
bundle of each agent's share partition (so the acceptance test inside each
round is ``value >= 1``). ``run_1_out_of_d`` wraps it with the full
transform pipeline and gives every agent of an arbitrary instance her exact
share value for d = 4 * ceil(n / 3) bundles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Allocation, BagEvent, Instance, Transcript, check_int, short_repr
from .errors import GuaranteeViolation, InputError
from .transform import normalize, order, pad_agents_to_multiple_of_3, pad_goods, reinstate, unpick
from .verify import UNORDERED, AgentCheck, check_1_out_of_d, check_targets, check_witness


def run_ordinal(inst: Instance) -> tuple[Allocation, Transcript]:
    """Initialize bag k with goods {k, 2n-1-k} and fill bags left to right.

    Each round appends the next unconsumed good (in non-increasing value
    order) to the current bag until some agent without a bag values it at
    least 1; the bag goes to the lowest-index such agent. When goods run out
    the remaining bags go to the remaining agents in index order, as
    ``"leftover"`` events. After a complete run, the never-consumed suffix of
    goods is appended to the bag of the last round; the allocation holds it,
    and the transcript logs no event for it.

    The instance must be ordered with m >= 2n. A unit-share input is
    checked where it is made: ``run_1_out_of_d`` checks each witness of
    ``normalize``, and ``verify.unit_share_violations`` checks any other.
    """
    n, m = inst.num_agents, inst.num_goods
    check_int("n", n, 1)
    if m < 2 * n:
        raise InputError(f"need at least 2n = {2 * n} goods, got {m}")
    if not inst.ordered:
        raise InputError(UNORDERED)

    initial = tuple(frozenset({k, 2 * n - 1 - k}) for k in range(n))
    final = [set(b) for b in initial]
    bundles: list[set[int]] = [set()] * n  # each agent's bag in ``final``, once handed out
    unassigned = list(range(n))
    events: list[BagEvent] = []
    j = 2 * n  # next unconsumed good
    ran_out = False

    rows = inst.scaled
    for k in range(n):
        # Each agent's value of bag k in the ints of her row: worth >= 1 when >= L.
        sums = [ints[k] + ints[2 * n - 1 - k] for ints, _ in rows]
        while True:
            liker = next((i for i in unassigned if sums[i] >= rows[i][1]), None)
            if liker is not None:
                bundles[liker] = final[k]
                unassigned.remove(liker)
                events.append(BagEvent("assign", k, agent=liker))
                break
            if j >= m:
                ran_out = True
                break
            final[k].add(j)
            events.append(BagEvent("fill", k, good=j))
            for i in unassigned:
                sums[i] += rows[i][0][j]
            j += 1
        if ran_out:
            break

    if ran_out:
        # Hand bag k, where the goods ran out, and the untouched bags after it
        # to the remaining agents, in index order.
        for k, agent in enumerate(unassigned, start=k):
            bundles[agent] = final[k]
            events.append(BagEvent("leftover", k, agent=agent))
    else:
        final[n - 1].update(range(j, m))

    transcript = Transcript(
        num_agents=n,
        num_goods=m,
        reductions=(),
        bag_events=tuple(events),
        initial_bags=initial,
    )
    return Allocation(tuple(bundles)), transcript


@dataclass(frozen=True)
class OneOutOfDResult:
    """Allocation of the original instance, its all-ok d-share report and the bag-filling transcript."""

    allocation: Allocation
    d: int
    transcript: Transcript | None
    report: tuple[AgentCheck, ...]  # one check per agent; each target is her d-share


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

    transcript = None
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
        # Every part worth 1 makes each total d_run and no good worth more
        # than 1; sorting a row keeps both, so the ordered input is unit-share.
        for i, r in enumerate(results):
            if violations := check_witness(normalized, i, r.witness):
                raise GuaranteeViolation(f"normalized agent {i}'s {violations[0]}")
        if d_run == d_target:  # dummy goods are worth 0; so is a non-survivor's share
            share_of = {i: r.value for i, r in zip(survivors, results)}
            shares = [share_of.get(i, 0) for i in range(n)]
        ordered, _ = order(normalized)
        ordered_alloc, transcript = run_ordinal(ordered)
        if transcript.ran_out_of_goods:
            raise GuaranteeViolation(
                "bag filling ran out of goods on a normalized ordered input; "
                "this contradicts the existence guarantee"
            )
        allocation = reinstate(unpick(ordered_alloc, normalized, ordered), inst, survivors)

    if shares is None:
        report = check_1_out_of_d(inst, allocation, d_target, node_budget=node_budget)
    else:
        report = check_targets(inst, allocation, shares)
    for c in report:
        if not c.ok:
            raise GuaranteeViolation(
                f"agent {c.agent} received {short_repr(c.value, str)}, below her {d_target}-bundle "
                f"share {short_repr(c.target, str)}"
            )
    return OneOutOfDResult(allocation, d_target, transcript, report)

