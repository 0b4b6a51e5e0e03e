"""Build the committed instance pool of the ``shares`` workload.

Each entry holds 1 or 2 agents, d in {3, 4} and m in 10..14 goods. Rows are
integers 1..100, except that every third entry has "p/q" values with
denominators up to 9. The expected share of every agent is stored with the
entry; it comes from ``oracle.mms`` and, wherever m <= 10, must equal the
naive enumerator's value. Entries whose oracle cache key (an agent's value
multiset and d) repeats an earlier one are redrawn, so a run never reuses a
search result from an earlier op. Each entry also records how many times the
search evaluated its pruning bound, summed over agents: a deterministic
measure of the entry's search effort, by which the workload stratifies the
pool.

Run from the repository root:

    python3 perfbench/make_shares_pool.py
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from mmskit import Instance, oracle  # noqa: E402

from workloads import SHARES_POOL, instance_json, positive_values  # noqa: E402

NAIVE_MAX_GOODS = 10
POOL_SIZE = 2000
POOL_SEED = 0


def draw(rng: random.Random, k: int) -> tuple[list[list[Fraction]], int]:
    agents = rng.randint(1, 2)
    d = rng.randint(3, 4)
    m = rng.randint(10, 14)
    if k % 3 == 2:
        rows = [[Fraction(rng.randint(1, 100), rng.randint(1, 9)) for _ in range(m)] for _ in range(agents)]
    else:
        rows = [[Fraction(rng.randint(1, 100)) for _ in range(m)] for _ in range(agents)]
    return rows, d


def main() -> int:
    bound_calls = 0
    waterfill = oracle._waterfill_upper_bound

    def counted_waterfill(sums, remaining):
        nonlocal bound_calls
        bound_calls += 1
        return waterfill(sums, remaining)

    oracle._waterfill_upper_bound = counted_waterfill

    rng = random.Random(POOL_SEED)
    seen: set[tuple] = set()
    entries = []
    while len(entries) < POOL_SIZE:
        rows, d = draw(rng, len(entries))
        m = len(rows[0])
        keys = {(positive_values(row, range(m)), d) for row in rows}
        if keys & seen:
            continue
        seen |= keys
        inst = Instance.from_rows(rows)
        bound_calls = 0
        shares = []
        for agent in range(len(rows)):
            value = oracle.mms(inst, agent, d).value
            if m <= NAIVE_MAX_GOODS and oracle.mms_naive(inst, agent, d).value != value:
                raise SystemExit(f"oracle and naive enumerator disagree on entry {len(entries)}")
            shares.append(str(value))
        entries.append(
            {
                "valuations": instance_json(rows)["valuations"],
                "d": d,
                "shares": shares,
                "naiveChecked": m <= NAIVE_MAX_GOODS,
                "searchBounds": bound_calls,
            }
        )
    with open(SHARES_POOL, "w", encoding="utf-8") as fh:
        fh.write(f'{{"seed": {POOL_SEED}, "instances": [\n')
        fh.write(",\n".join(json.dumps(e, separators=(",", ":")) for e in entries))
        fh.write("\n]}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
