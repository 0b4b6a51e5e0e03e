"""Seeded op streams for the four benchmark workloads, with output checks.

Every op is a call into mmskit's public surface: ``cli.main(argv)`` with
``--output`` pointing at a file, or one of the ``bobw`` bound functions,
which have no CLI. The program sees only the files and arguments an op
hands it. Each op also carries a check that looks at the op's result with
code that does not come from mmskit, and returns a failure reason or None.

A stream is a generator: it writes an op's input files when the op is drawn,
so the first op's inputs are part of set-up and later ones are written
between timed ops. The same seed always yields the same ops.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterator

HERE = os.path.dirname(os.path.abspath(__file__))
SHARES_POOL = os.path.join(HERE, "data", "shares_pool.json")

# bobw bound functions an analysis op may call, by name in mmskit.bobw.
SWEEPS = ("verify_gamma_bound_range", "verify_hard_bound_range")
CLOSED_FORMS = ("gamma_lower_bound", "hard1_upper_bound", "hard2_upper_bound")
INTEGRALS = ("integral_check_gamma", "integral_check_hard1", "integral_check_hard2")
SWEEP_WINDOW = 20  # values of n per sweep op


@dataclass
class Op:
    """One unit of work: a CLI call (``argv``) or a bobw call (``call``)."""

    kind: str
    check: Callable[[Any], str | None]
    argv: list[str] | None = None  # for cli.main; the result is the output JSON
    call: tuple[str, tuple] | None = None  # (bobw function name, args); the result is its return value
    output: str | None = None
    block_end: bool = False  # last op of a block; a timed run stops only here


def blocks(rng: random.Random, cells: list) -> Iterator[tuple[Any, bool]]:
    """Yield (cell, is_last_of_block) forever. A block is every cell once,
    in a fresh seeded order, except that the first block starts with
    ``cells[0]``.

    Each cell is a slice of a workload's parameter space. A run covers whole
    blocks, so its mix of op sizes is the same from seed to seed, which keeps
    its percentiles steady; the population of ops is unchanged. Set-up writes
    the first op's inputs, so a fixed first cell keeps set-up the same amount
    of work whatever the seed.
    """
    first = True
    while True:
        block = list(cells)
        rng.shuffle(block)
        if first:
            block.remove(cells[0])
            block.insert(0, cells[0])
            first = False
        for pos, cell in enumerate(block):
            yield cell, pos == len(block) - 1


GOLDEN = (5**0.5 - 1) / 2


def spread_int(offset: float, block: int, stratum: int, k: int, lo: int, hi: int) -> int:
    """The integer at position ``offset + block * GOLDEN`` (mod 1) of the
    stratum-th of k equal slices of [lo, hi].

    With a seeded ``offset``, successive blocks sample each slice at points
    that spread evenly over it, so a run of a few blocks covers the slice
    about as a fine grid would, whatever the seed.
    """
    u = (offset + block * GOLDEN) % 1
    return lo + int((stratum + u) * (hi - lo + 1) / k)


def _write_json(path: str, payload: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def instance_json(rows: list[list[Fraction]]) -> dict[str, Any]:
    return {
        "agents": len(rows),
        "goods": len(rows[0]),
        "valuations": [[v.numerator if v.denominator == 1 else str(v) for v in row] for row in rows],
    }


def _disjoint(bundles: list[list[int]], m: int) -> str | None:
    seen: set[int] = set()
    for b in bundles:
        for g in b:
            if not 0 <= g < m:
                return f"good {g} out of range"
            if g in seen:
                return f"good {g} is in two bundles"
            seen.add(g)
    return None


def _value(row: list[Fraction], goods) -> Fraction:
    return sum((row[g] for g in goods), Fraction(0))


def positive_values(row, goods) -> tuple:
    """The positive values of ``goods`` in ``row``, largest first. With d, this
    is what the oracle's search cache is keyed on."""
    return tuple(sorted((row[g] for g in goods if row[g] > 0), reverse=True))


# ---------------------------------------------------------------------------
# shares: `mmskit mms <file> --d d` over a committed pool with expected shares


def load_shares_pool() -> list[dict[str, Any]]:
    with open(SHARES_POOL, "r", encoding="utf-8") as fh:
        return json.load(fh)["instances"]


def _check_shares(rows: list[list[Fraction]], d: int, expected: list[Fraction]):
    m = len(rows[0])

    def check(payload: Any) -> str | None:
        results = payload["results"]
        if [r["agent"] for r in results] != list(range(len(rows))):
            return "not one result per agent"
        for r, row, want in zip(results, rows, expected):
            parts = r["witness"]
            if r["d"] != d or len(parts) != d:
                return f"agent {r['agent']}: witness has {len(parts)} parts, expected {d}"
            if _disjoint(parts, m) or sum(len(p) for p in parts) != m:
                return f"agent {r['agent']}: witness is not a partition of all goods"
            value = Fraction(r["value"])
            if min(_value(row, p) for p in parts) != value:
                return f"agent {r['agent']}: witness minimum differs from value {value}"
            if value != want:
                return f"agent {r['agent']}: share {value}, expected {want}"
        return None

    return check


SHARES_STRATA = 20


def shares_stream(seed: int, workdir: str) -> Iterator[Op]:
    """Distinct pool entries in a seeded order; ends when the pool does.

    The pool is cut into strata of equal size by each entry's search effort,
    and every block of ops draws one entry from each stratum. Within a
    stratum, in order of effort, the entries drawn sit at the positions
    ``spread_int`` gives from a seeded offset (the nearest entry not drawn
    yet), so that a run samples the whole range of effort of each stratum
    evenly: the top stratum's effort spans an order of magnitude.
    """
    pool = load_shares_pool()
    by_effort = sorted(range(len(pool)), key=lambda i: (pool[i]["searchBounds"], i))
    size = len(pool) // SHARES_STRATA
    rng = random.Random(seed)
    slices = [by_effort[j * size:(j + 1) * size] for j in range(SHARES_STRATA)]
    offsets = [rng.random() for _ in range(SHARES_STRATA)]
    drawn: list[set[int]] = [set() for _ in range(SHARES_STRATA)]
    cells = blocks(rng, list(range(SHARES_STRATA)))
    for k in range(size * SHARES_STRATA):
        j, block_end = next(cells)
        target = spread_int(offsets[j], len(drawn[j]), 0, 1, 0, size - 1)
        pos = min((p for p in range(size) if p not in drawn[j]), key=lambda p: (abs(p - target), p))
        drawn[j].add(pos)
        entry = pool[slices[j][pos]]
        rows = [[Fraction(v) for v in row] for row in entry["valuations"]]
        path = os.path.join(workdir, f"shares-{k}.json")
        _write_json(path, instance_json(rows))
        out = path + ".out"
        d = entry["d"]
        expected = [Fraction(s) for s in entry["shares"]]
        yield Op(
            "mms",
            _check_shares(rows, d, expected),
            argv=["mms", path, "--d", str(d), "--output", out],
            output=out,
            block_end=block_end,
        )


# ---------------------------------------------------------------------------
# allocate: `mmskit ordinal <file>` on small integer instances


def _check_allocate(rows: list[list[Fraction]]):
    m = len(rows[0])

    def check(payload: Any) -> str | None:
        if payload["allOk"] is not True:
            return "allOk is not true"
        if payload["earlyTermination"] is not False:
            return "earlyTermination is not false"
        bundles = payload["allocation"]["bundles"]
        if len(bundles) != len(rows):
            return "not one bundle per agent"
        reason = _disjoint(bundles + [payload["allocation"]["unallocated"]], m)
        if reason:
            return reason
        for entry, row, bundle in zip(payload["perAgent"], rows, bundles):
            value = _value(row, bundle)
            if Fraction(entry["value"]) != value or value < Fraction(entry["share"]):
                return f"agent {entry['agent']}: bundle worth {value}, report says {entry}"
        return None

    return check


ALLOCATE_SHAPES = [(n, extra) for n in range(2, 7) for extra in range(1, 5)]


def allocate_stream(seed: int, workdir: str) -> Iterator[Op]:
    """n in 2..6, d = 4*ceil(n/3), m in d+1..d+4, integer values 0..20.

    Every block of ops covers each (n, m - d) shape once. Candidates are
    redrawn until no row repeats the positive values of a row of an earlier
    op, so the oracle's cache can serve only reuse within an op.
    """
    rng = random.Random(seed)
    seen: set[tuple] = set()
    for k, ((n, extra), block_end) in enumerate(blocks(rng, ALLOCATE_SHAPES)):
        d = 4 * ((n + 2) // 3)
        m = d + extra
        while True:
            rows = [[Fraction(rng.randint(0, 20)) for _ in range(m)] for _ in range(n)]
            keys = {positive_values(row, range(m)) for row in rows}
            if not keys & seen:
                break
        seen |= keys
        path = os.path.join(workdir, f"allocate-{k}.json")
        _write_json(path, instance_json(rows))
        out = path + ".out"
        yield Op(
            "ordinal",
            _check_allocate(rows),
            argv=["ordinal", path, "--output", out],
            output=out,
            block_end=block_end,
        )


# ---------------------------------------------------------------------------
# threshold: `mmskit bobw` and `mmskit rbf --ranking` on unit-share instances


def unit_share_rows(rng: random.Random, n: int, m: int) -> list[list[Fraction]]:
    """Ordered rows in which every agent's n-share is exactly 1.

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


def thresholds(n: int) -> list[Fraction]:
    """The default per-rank targets max(2n/(2n+i-1), 3/4 + 1/(12n))."""
    floor = Fraction(3, 4) + Fraction(1, 12 * n)
    return [max(Fraction(2 * n, 2 * n + i - 1), floor) for i in range(1, n + 1)]


def _check_rbf(rows: list[list[Fraction]], ranks: list[int]):
    m = len(rows[0])

    def check(payload: Any) -> str | None:
        if payload["allOk"] is not True or payload["structureOk"] is not True:
            return f"allOk={payload['allOk']} structureOk={payload['structureOk']}"
        bundles = payload["allocation"]["bundles"]
        reason = _disjoint(bundles, m)
        if reason:
            return reason
        taus = thresholds(len(rows))
        for i, (row, bundle) in enumerate(zip(rows, bundles)):
            if _value(row, bundle) < taus[ranks[i]]:
                return f"agent {i} of rank {ranks[i] + 1} is below her threshold"
        return None

    return check


def _check_bobw(rows: list[list[Fraction]]):
    """Criterion 5, recomputed from the instance: every agent's expectation
    over the n rotations is at least the average threshold, and her worst
    rotation still meets the last rank's threshold."""
    n, m = len(rows), len(rows[0])
    taus = thresholds(n)
    gamma = sum(taus, Fraction(0)) / n

    def check(payload: Any) -> str | None:
        support = payload["support"]
        if len(support) != n:
            return f"support has {len(support)} rotations, expected {n}"
        values: list[list[Fraction]] = [[] for _ in range(n)]
        for entry in support:
            bundles = entry["allocation"]["bundles"]
            reason = _disjoint(bundles, m)
            if reason:
                return reason
            for i in range(n):
                values[i].append(_value(rows[i], bundles[i]))
        for i in range(n):
            ex_ante = sum(values[i], Fraction(0)) / n
            ex_post_min = min(values[i])
            if Fraction(payload["perAgentExAnte"][i]) != ex_ante:
                return f"agent {i}: reported ex-ante differs from {ex_ante}"
            if Fraction(payload["perAgentExPostMin"][i]) != ex_post_min:
                return f"agent {i}: reported ex-post minimum differs from {ex_post_min}"
            if ex_ante < gamma or ex_post_min < taus[-1]:
                return f"agent {i}: ex-ante {ex_ante} or minimum {ex_post_min} below its bound"
        return None

    return check


THRESHOLD_CELLS = [("bobw", n) for n in range(6, 21, 2)] + [("rbf", n) for n in range(30, 81, 5)]


def threshold_stream(seed: int, workdir: str) -> Iterator[Op]:
    """`bobw` at n in 6, 8, ..., 20 and `rbf` at n in 30, 35, ..., 80, each
    size once per block, on unit-share instances with m = 3n + 2."""
    rng = random.Random(seed)
    for k, ((kind, n), block_end) in enumerate(blocks(rng, THRESHOLD_CELLS)):
        rows = unit_share_rows(rng, n, 3 * n + 2)
        path = os.path.join(workdir, f"threshold-{k}.json")
        _write_json(path, instance_json(rows))
        out = path + ".out"
        if kind == "bobw":
            yield Op("bobw", _check_bobw(rows), argv=["bobw", path, "--output", out], output=out, block_end=block_end)
            continue
        ranks = list(range(n))
        rng.shuffle(ranks)
        yield Op(
            "rbf",
            _check_rbf(rows, ranks),
            argv=["rbf", path, "--ranking", ",".join(map(str, ranks)), "--output", out],
            output=out,
            block_end=block_end,
        )


# ---------------------------------------------------------------------------
# analysis: certified bounds and hard-family demonstrations


def _check_raised_nothing(result: Any) -> str | None:
    return None


def _check_true(result: Any) -> str | None:
    return None if result is True else f"sandwich check returned {result!r}"


def _check_closed_form(name: str):
    def check(result: Any) -> str | None:
        exact, decimal = result
        bound = Fraction(decimal)
        if name == "gamma_lower_bound" and exact < bound:
            return f"average {exact} is below its floor {decimal}"
        if name != "gamma_lower_bound" and exact > bound:
            return f"average {exact} is above its ceiling {decimal}"
        return None

    return check


def _check_demo(family: str, n: int, i: int, k1: int, k2: int, t: int):
    """hard1: an agent among the first i falls short of her rank's threshold
    (1 above rank i, alpha_i + 1/1000 at rank i). hard2: the target agent
    stays below alpha + 2 epsilon. ordinalTight: some agent stays below 1."""

    def check(payload: Any) -> str | None:
        if payload["family"] != family or not payload["unsatisfied"]:
            return "no shortfall reported"
        agent = payload["witnessAgent"]
        cap = Fraction(1)
        if family == "hard1":
            if agent >= i:
                return f"shortfall of agent {agent}, outside the first {i}"
            if agent == i - 1:
                cap = Fraction(3 * n, 3 * n + i - 2) + Fraction(1, 1000)
        elif family == "hard2":
            cap = 1 - Fraction(k1, 3 * (n - k2)) + 2 * Fraction(1, 3 * t * (n - k2))
        if family != "hard2" and Fraction(payload["witnessTarget"]) != cap:
            return f"witness target {payload['witnessTarget']}, expected {cap}"
        if not Fraction(payload["witnessValue"]) < cap:
            return f"witness value {payload['witnessValue']} is not below {cap}"
        return None

    return check


ANALYSIS_STRATA = 5
# Sweeps and closed forms get thinner strata: their time grows steeply with
# n, so a wide stratum would make the workload's times swing from seed to
# seed.
LARGE_N_STRATA = 10
ANALYSIS_CELLS = (
    [("sweep", name, j) for name in SWEEPS for j in range(LARGE_N_STRATA)]
    + [("closed_form", name, j) for name in CLOSED_FORMS for j in range(LARGE_N_STRATA)]
    + [("integral", name, j) for name in INTEGRALS for j in range(ANALYSIS_STRATA)]
    + [("demo", family, n) for family in ("hard1", "hard2", "ordinalTight") for n in range(4, 15, 2)]
)


def _demo_op(rng: random.Random, family: str, n: int, out: str) -> Op:
    i = k1 = k2 = 0
    t = 3
    argv = ["demo", family, "--n", str(n)]
    if family == "hard1":
        i = rng.randint(3, n)
        argv += ["--i", str(i)]
    elif family == "hard2":
        # The demo's cost grows with its (n - k1 - k2)^2 * t filler goods, so
        # k1 + k2 is fixed at n // 3 and only its split and i are seeded.
        rich = n // 3
        k1 = rng.randint(1, rich)
        k2 = rich - k1
        i = rng.randint(rich + 1, n)
        argv += ["--i", str(i), "--k1", str(k1), "--k2", str(k2), "--t", str(t)]
    return Op("demo", _check_demo(family, n, i, k1, k2, t), argv=argv + ["--output", out], output=out)


def analysis_stream(seed: int, workdir: str) -> Iterator[Op]:
    """Certified bounds and hard-family demos. A block holds, in seeded order:
    a 20-n sweep of each kind at a base from each tenth of [2, 10^4]; each
    closed-form bound at an n from each tenth of [2, 10^4]; each integral
    sandwich at an n from each fifth of 2..100; and each demo family at
    n = 4, 6, ..., 14 with seeded admissible parameters (for hard2,
    k1 + k2 = n // 3). Sweep bases and the n of closed forms and sandwiches
    are placed in their slice by ``spread_int``, from a seeded offset per
    function."""
    rng = random.Random(seed)
    offsets = {name: rng.random() for name in SWEEPS + CLOSED_FORMS + INTEGRALS}
    block = 0
    for k, ((kind, name, j), block_end) in enumerate(blocks(rng, ANALYSIS_CELLS)):
        if kind == "sweep":
            lo = spread_int(offsets[name], block, j, LARGE_N_STRATA, 2, 10_000 - SWEEP_WINDOW + 1)
            op = Op("sweep", _check_raised_nothing, call=(name, (lo, lo + SWEEP_WINDOW - 1)))
        elif kind == "closed_form":
            n = spread_int(offsets[name], block, j, LARGE_N_STRATA, 2, 10_000)
            op = Op("closed_form", _check_closed_form(name), call=(name, (n,)))
        elif kind == "integral":
            n = spread_int(offsets[name], block, j, ANALYSIS_STRATA, 2, 100)
            op = Op("integral", _check_true, call=(name, (n,)))
        else:
            op = _demo_op(rng, name, j, os.path.join(workdir, f"analysis-{k}.out"))
        op.block_end = block_end
        block += block_end
        yield op


STREAMS = {
    "shares": shares_stream,
    "allocate": allocate_stream,
    "threshold": threshold_stream,
    "analysis": analysis_stream,
}
