"""Cross-cutting checkers used by tests and the CLI.

Guarantee checks compare an allocation against the exact oracle; transcript
checks re-verify the structural facts every truthful run must satisfy; the
threshold-equivalence expansion converts between "d bundles" guarantees and
ranked-threshold guarantees.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    Allocation,
    Instance,
    Partition,
    PriorityRanking,
    RationalLike,
    ThresholdList,
    Transcript,
    as_fraction,
    check_int,
    check_ranked,
    check_sequence,
    short_repr,
)
from .errors import InputError
from . import oracle

_REDUCTION_PATTERN = re.compile(r"^(1*2*4*)(32*4*)*$")


@dataclass(frozen=True)
class AgentCheck:
    agent: int
    value: Fraction
    target: Fraction
    ok: bool


def check_targets(inst: Instance, alloc: Allocation, targets: Sequence[RationalLike]) -> tuple[AgentCheck, ...]:
    """One ``AgentCheck`` per agent: agent i passes when her bundle is worth
    at least ``targets[i]``, exact and inclusive, cross-multiplied in ints. The
    allocation is checked first, then that there is one target per agent,
    each a rational (``as_fraction``). Once checked, each bundle is summed
    over the agent's ints unchecked."""
    inst.check_allocation(alloc)
    targets = check_sequence("targets", targets, "rationals")
    if len(targets) != inst.num_agents:
        raise InputError(f"instance has {inst.num_agents} agents, {len(targets)} targets")
    checks = []
    for i, target in enumerate([as_fraction(t) for t in targets]):
        ints, scale = inst.scaled[i]
        total = sum(ints[g] for g in alloc.bundles[i])
        ok = total * target.denominator >= target.numerator * scale
        checks.append(AgentCheck(i, Fraction(total, scale), target, ok))
    return tuple(checks)


def check_1_out_of_d(
    inst: Instance, alloc: Allocation, d: int, node_budget: int | None = None
) -> tuple[AgentCheck, ...]:
    """Per-agent exact comparison against the oracle's d-bundle share. The
    allocation is checked before the search."""
    inst.check_allocation(alloc)
    return check_targets(inst, alloc, [r.value for r in oracle.mms_all(inst, d, node_budget=node_budget)])


def check_t_mms(
    inst: Instance,
    alloc: Allocation,
    ranking: PriorityRanking,
    thresholds: ThresholdList,
    node_budget: int | None = None,
) -> tuple[AgentCheck, ...]:
    """Per-agent exact comparison against tau_rank times the oracle's
    n-bundle share.

    Agent i passes when her bundle is worth at least
    ``thresholds.taus[ranking.rank_of[i]] * share_i``; the comparison is
    inclusive. The lengths and the allocation are checked before the search.
    """
    n = inst.num_agents
    check_ranked(n, thresholds, ranking)
    inst.check_allocation(alloc)
    shares = oracle.mms_all(inst, n, node_budget=node_budget)
    return check_targets(inst, alloc, [thresholds.taus[r] * s.value for r, s in zip(ranking.rank_of, shares)])


def check_transcript(tr: Transcript) -> tuple[str, ...]:
    """Re-verify the structural facts of a truthful run of either bag filler;
    ``run_ordinal`` logs no reductions, so only the goods count applies to it.

    Checks, in order: the reduction type sequence matches (1*2*4*)(32*4*)*;
    from the end of the leading type-1 block on, at least twice as many goods
    as agents remain at every step and when phase 2 starts; and every good
    taken by a type-2 (resp. type-3) reduction ranks strictly below the
    |N|-th (resp. 2|N|-th) most valuable good that no logged reduction took.
    """
    violations: list[str] = []
    types = "".join(str(e.type) for e in tr.reductions)
    if not _REDUCTION_PATTERN.match(types):
        violations.append(
            f"reduction sequence {types or '(empty)'} does not match (1*2*4*)(32*4*)*"
        )

    last_type1 = max((k for k, e in enumerate(tr.reductions) if e.type == 1), default=-1)
    for k, event in enumerate(tr.reductions):
        if k <= last_type1:
            continue
        if event.goods_before < 2 * event.agents_before:
            violations.append(
                f"reduction {k}: only {event.goods_before} goods for "
                f"{event.agents_before} agents after the type-1 block"
            )
    if tr.phase2_agents:
        n_f = len(tr.phase2_agents)
        ranked = sorted(tr.phase2_goods)
        if len(ranked) < 2 * n_f:
            violations.append(f"phase 2 started with {len(ranked)} goods for {n_f} agents")
        cuts = {t: ranked[j - 1] for t, j in ((2, n_f), (3, 2 * n_f)) if j <= len(ranked)}
        for k, event in enumerate(tr.reductions):
            if (cut := cuts.get(event.type)) is not None:
                bad = [g for g in event.bundle if g <= cut]
                if bad:
                    violations.append(
                        f"type-{event.type} reduction {k} took goods {sorted(bad)} "
                        f"ranked at or above the surviving cutoff {cut}"
                    )
    return tuple(violations)


def equivalence_expand(inst: Instance, d: int) -> tuple[Instance, ThresholdList]:
    """Append d - n dummy agents (all-zero valuations) and thresholds
    (1, ..., 1, 0, ..., 0) with n ones.

    Under the identity ranking, an allocation of the expansion meets these
    thresholds exactly when its first n bundles give every original agent
    her d-bundle share.
    """
    n = inst.num_agents
    check_int("d", d, 1, oracle.MAX_PARTS)
    if d < n:
        raise InputError(f"d must be >= n = {n}, got {d}")
    zero_row = ((0,) * inst.num_goods, 1)
    taus = (Fraction(1),) * n + (Fraction(0),) * (d - n)
    return Instance(inst.scaled + (zero_row,) * (d - n), inst.num_goods), ThresholdList(taus)


# ---------------------------------------------------------------------------
# The ordered unit-share input of both allocators, and its structural facts

# The one violation an unordered instance has.
UNORDERED = "instance is not ordered (some agent's values increase)"


def _worth(count: int, scale: int) -> str:
    """An agent's value ``count / scale`` as a message shows it."""
    return short_repr(Fraction(count, scale), str)


def check_witness(inst: Instance, agent: int, witness: Partition) -> tuple[str, ...]:
    """Violations of a unit-share witness, empty if none: its parts must cover
    exactly the goods 0..m-1, and each must be worth exactly 1 to ``agent``.
    Once the cover holds, every part names only goods of ``inst``, so each is
    summed over the agent's ints unchecked."""
    inst.check_agent(agent)
    if witness.ground_set != frozenset(range(inst.num_goods)):
        return (f"witness does not cover exactly the {inst.num_goods} goods",)
    ints, scale = inst.scaled[agent]
    sums = (sum(ints[g] for g in part) for part in witness.parts)
    return tuple(f"witness part worth {_worth(s, scale)} != 1" for s in sums if s != scale)


def unit_share_violations(inst: Instance, d: int) -> tuple[str, ...]:
    """Violations of the ordered unit-share input at d, empty if none.

    Such an input has non-increasing rows, each totalling d, and a d-part
    partition worth exactly 1 per part, which ``check_witness`` checks where
    the partition is made. An unordered instance has one violation,
    ``UNORDERED``. Otherwise these come in order: each agent whose total is
    not d, then each agent whose good 0 is worth more than 1. A d that is not
    an int >= 0 raises InputError.
    """
    check_int("d", d, 0)
    if not inst.ordered:
        return (UNORDERED,)
    violations = [
        f"agent {i} values all goods at {short_repr(t, str)}, expected {short_repr(d, str)} for a "
        f"{short_repr(d, str)}-normalized instance"
        for i, t in enumerate(inst.totals) if t != d
    ]
    violations += [  # ordered: good 0 is the top good
        f"agent {i} values good 0 at {_worth(ints[0], scale)} > 1, above a unit share"
        for i, (ints, scale) in enumerate(inst.scaled) if ints and ints[0] > scale
    ]
    return tuple(violations)


def check_unit_share_structure(inst: Instance, d: int) -> tuple[str, ...]:
    """Violations of the ordered d-normalized structure facts, empty if none.

    Needs 1 <= d <= ``oracle.MAX_PARTS`` and m >= 2d. Reports the
    ``unit_share_violations`` first; an unordered instance has only that
    one. Then, per agent: the middle pair {d, d+1} worth <= 1; good d+1
    worth <= 1/2; every tail of the nested pairs C_k = {k, 2d-k+1} summing
    to at most its length; and each pair C_k worth more than 1 having its
    bottom good worth at most 1/3 and its top more than 2/3.
    """
    m = inst.num_goods
    check_int("d", d, 1, oracle.MAX_PARTS)
    if m < 2 * d:
        raise InputError(f"need at least 2d = {2 * d} goods, got {m}")
    violations = list(unit_share_violations(inst, d))
    if not inst.ordered:  # positions are read as ranks
        return tuple(violations)
    # Each fact compares the agent's ints against multiples of her L; a
    # Fraction is built only for a message.
    for i, (ints, scale) in enumerate(inst.scaled):
        middle = ints[d - 1] + ints[d]
        if middle > scale:
            violations.append(f"agent {i}: middle pair worth {_worth(middle, scale)} > 1")
        if 2 * ints[d] > scale:
            violations.append(f"agent {i}: good at position {d} worth {_worth(ints[d], scale)} > 1/2")
        tail = 0
        for k in range(d, 0, -1):  # C_k pairs from the middle outwards
            top, bottom = ints[k - 1], ints[2 * d - k]
            pair = top + bottom
            tail += pair
            if tail > (d - k + 1) * scale:
                violations.append(f"agent {i}: pairs {k}..{d} sum to {_worth(tail, scale)} > {d - k + 1}")
            if pair > scale:
                despite = f"despite pair value {_worth(pair, scale)} > 1"
                if 3 * bottom > scale:
                    violations.append(f"agent {i}, pair {k}: bottom worth {_worth(bottom, scale)} > 1/3 {despite}")
                if 3 * top <= 2 * scale:
                    violations.append(f"agent {i}, pair {k}: top worth {_worth(top, scale)} <= 2/3 {despite}")
    return tuple(violations)
