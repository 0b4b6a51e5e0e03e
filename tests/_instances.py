"""Random instance generators shared by the test modules."""

from __future__ import annotations

import random
from fractions import Fraction

from mmskit import Instance, Partition
from mmskit.transform import order


def random_instance(rng: random.Random, n: int, m: int, max_value: int = 10) -> Instance:
    """Integer valuations drawn uniformly from [0, max_value]."""
    return Instance.from_rows(
        [[rng.randint(0, max_value) for _ in range(m)] for _ in range(n)]
    )


def random_normalized_ordered(
    rng: random.Random, n: int, m: int, d: int | None = None
) -> tuple[Instance, tuple[Partition, ...]]:
    """An ordered instance in which every agent has a d-partition of unit parts.

    Built by construction: each agent gets a random partition of the goods
    into d nonempty parts and random positive part splits summing to 1, so
    her share for d bundles is exactly 1. Requires m >= d.
    """
    if d is None:
        d = n
    if m < d:
        raise ValueError(f"need m >= d, got m={m}, d={d}")
    rows = []
    witnesses = []
    for _ in range(n):
        goods = list(range(m))
        rng.shuffle(goods)
        parts: list[list[int]] = [[goods[j]] for j in range(d)]
        for g in goods[d:]:
            parts[rng.randrange(d)].append(g)
        row = [Fraction(0)] * m
        for part in parts:
            weights = [rng.randint(1, 9) for _ in part]
            total = sum(weights)
            for g, w in zip(part, weights):
                row[g] = Fraction(w, total)
        rows.append(row)
        witnesses.append(Partition(tuple(frozenset(p) for p in parts)))
    inst = Instance.from_rows(rows)
    ordered, perms = order(inst)
    ordered_witnesses = []
    for w, perm in zip(witnesses, perms):  # perm maps sorted position -> good
        position = {g: p for p, g in enumerate(perm)}
        ordered_witnesses.append(Partition(tuple(frozenset(position[g] for g in part) for part in w.parts)))
    return ordered, tuple(ordered_witnesses)


def unit_share_rows(rng: random.Random, n: int, m: int) -> list[list[Fraction]]:
    """Ordered rows in which every agent's n-share is exactly 1, drawn as
    perfbench's ``threshold`` workload draws them.

    Each agent splits the goods into n nonempty parts and splits each part's
    unit value by random weights 1..9; sorting a row keeps its share.
    """
    rows = []
    for _ in range(n):
        sizes = [1] * n
        for _ in range(m - n):
            sizes[rng.randrange(n)] += 1
        row = []
        for size in sizes:
            weights = [rng.randint(1, 9) for _ in range(size)]
            total = sum(weights)
            row.extend(Fraction(w, total) for w in weights)
        row.sort(reverse=True)
        rows.append(row)
    return rows


def fills(tr) -> tuple[tuple[int, int], ...]:
    """A transcript's (bag, good) fills, in consumption order."""
    return tuple((e.bag, e.good) for e in tr.bag_events if e.kind == "fill")


def bag_owners(tr) -> tuple[int | None, ...]:
    """The agent each of a transcript's bags went to, None for a bag never handed out."""
    owners: list[int | None] = [None] * len(tr.initial_bags)
    for e in tr.bag_events:
        if e.kind != "fill":
            owners[e.bag] = e.agent
    return tuple(owners)
