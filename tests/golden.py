"""The golden corpora: seeded inputs, the invocations run on them, and one
digest per invocation of what it printed, wrote and returned; and one digest
of the share oracle's values and witnesses on seeded rows.

``tests/golden_cli.json`` maps each invocation id to the sha256 of its exit
code, stdout, stderr and ``--output`` file. ``test_golden.py`` re-runs every
invocation in-process and compares. After a change that is meant to alter an
output, rewrite the file with

    PYTHONPATH=src python tests/golden.py

and name every id whose digest changed, with the reason.

Running the script also prints every id it added, removed or changed
against the committed file. It rewrites ``tests/golden_oracle.json`` too:
the sha256 of ``(value, witness.parts)`` of ``oracle.mms`` over the rows of
``oracle_cases``, which a change to the oracle's search must keep.

Inputs and commands:

- perfbench's ``unit_share_rows`` recipe at n = 2..8 and 30 with m = 2n and
  3n + 2, through ``rbf`` and ``bobw``; at n <= 5 also through ``mms`` (all
  agents and ``--agent``), ``ordinal`` and ``verify`` in both modes, since
  ``mms`` at n = 6 takes seconds;
- 20 seeded random instances at n = 2..5, half with integer and half with
  ``p/q`` values, through the same n <= 5 commands;
- ``gen`` and ``demo`` of the three hard families at n = 3..8;
- every row of the CLI's malformed-input table.

Oracle rows (``oracle_cases``): m = 1..14 goods and d = 1..5, with ints
1..100, ``p/q`` values, rows with zeros and repeated values, and ``goods=``
subsets.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from typing import Iterator

from mmskit import Instance, mms
from mmskit.cli import main

from _instances import unit_share_rows
from test_cli import MALFORMED_IDS, MALFORMED_INPUTS

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")
ORACLE_CORPUS = os.path.join(os.path.dirname(CORPUS), "golden_oracle.json")
SEED = 2026
ORACLE_CASES = 600


def _instance_json(rows) -> dict:
    return {
        "agents": len(rows),
        "goods": len(rows[0]),
        "valuations": [[v.numerator if v.denominator == 1 else str(v) for v in row] for row in rows],
    }


def _searches(key: str, files: dict, n: int, m: int) -> Iterator[tuple[str, dict, list[str]]]:
    """The commands that search, on one instance of n agents and m goods.
    ``verify`` checks the allocation that deals goods round-robin."""
    files = {**files, "alloc": {"bundles": [list(range(a, m, n)) for a in range(n)]}}
    d = str(n)
    yield f"mms/{key}", files, ["mms", "{inst}", "--d", d]
    yield f"mms/{key}/agent", files, ["mms", "{inst}", "--d", d, "--agent", str(n - 1)]
    yield f"ordinal/{key}", files, ["ordinal", "{inst}", "--output", "{out}"]
    yield f"verify/{key}/1ood", files, ["verify", "{inst}", "{alloc}", "--mode", "1ood", "--d", d]
    yield f"verify/{key}/tmms", files, ["verify", "{inst}", "{alloc}", "--mode", "tmms"]


def _random_rows(rng: random.Random, n: int, m: int, ratios: bool) -> list[list]:
    """n rows of m values: ints 0..10, or "p/q" literals with p <= 12 and q <= 6."""
    if ratios:
        return [[f"{rng.randint(0, 12)}/{rng.randint(1, 6)}" for _ in range(m)] for _ in range(n)]
    return [[rng.randint(0, 10) for _ in range(m)] for _ in range(n)]


def invocations() -> Iterator[tuple[str, dict, list[str]]]:
    """(id, files, argv) for every invocation. ``argv`` names each file as
    ``{name}`` and the output file as ``{out}``."""
    rng = random.Random(SEED)
    for n in (*range(2, 9), 30):
        for m in (2 * n, 3 * n + 2):
            files = {"inst": _instance_json(unit_share_rows(rng, n, m))}
            ranks = list(range(n))
            rng.shuffle(ranks)
            key = f"n{n}-m{m}"
            if n <= 5:
                yield from _searches(key, files, n, m)
            yield f"rbf/{key}/identity", files, ["rbf", "{inst}"]
            yield f"rbf/{key}/shuffled", files, [
                "rbf", "{inst}", "--ranking", ",".join(map(str, ranks)), "--output", "{out}",
            ]
            yield f"bobw/{key}", files, ["bobw", "{inst}"]
            yield f"bobw/{key}/seed", files, ["bobw", "{inst}", "--seed", str(rng.randrange(2**32))]
    for n in range(3, 9):
        for command in ("demo", "gen"):
            yield f"{command}/ordinalTight/n{n}", {}, [command, "ordinalTight", "--n", str(n)]
        i = rng.randint(3, n)
        for command in ("demo", "gen"):
            yield f"{command}/hard1/n{n}-i{i}", {}, [command, "hard1", "--n", str(n), "--i", str(i)]
        yield f"gen/hard1/n{n}-i{i}/epsilon", {}, [
            "gen", "hard1", "--n", str(n), "--i", str(i), "--epsilon", f"1/{3 * n}",
        ]
        rich = n // 3
        k1 = rng.randint(1, rich)
        k2 = rich - k1
        i = rng.randint(rich + 1, n)
        for command in ("demo", "gen"):
            yield f"{command}/hard2/n{n}-i{i}-k1{k1}-k2{k2}", {}, [
                command, "hard2", "--n", str(n), "--i", str(i), "--k1", str(k1), "--k2", str(k2),
            ]
    for name, (files, argv) in zip(MALFORMED_IDS, MALFORMED_INPUTS):
        yield f"malformed/{name}", files, argv
    rng = random.Random(SEED + 1)
    for k in range(20):
        n = 2 + k % 4
        m = rng.randint(n, 3 * n)
        ratios = k >= 10
        rows = _random_rows(rng, n, m, ratios)
        files = {"inst": {"agents": n, "goods": m, "valuations": rows}}
        yield from _searches(f"random{k}-{'ratio' if ratios else 'int'}-n{n}-m{m}", files, n, m)


def oracle_cases() -> Iterator[tuple[list, int, list[int] | None]]:
    """(row, d, goods) of each oracle row: m cycles through 1..14 and d
    through 1..5; each row draws its values from one of four kinds, and
    about one in four searches a random subset of the goods."""
    rng = random.Random(SEED + 2)
    for k in range(ORACLE_CASES):
        m = 1 + k % 14
        d = 1 + k // 14 % 5
        kind = rng.randrange(4)
        if kind == 0:
            row = [rng.randint(1, 100) for _ in range(m)]
        elif kind == 1:
            row = [f"{rng.randint(0, 12)}/{rng.randint(1, 9)}" for _ in range(m)]
        elif kind == 2:  # zeros and repeats
            row = [rng.choice((0, 0, 1, 2, 3, 5, 5, 8)) for _ in range(m)]
        else:  # a few distinct values, each repeated
            pool = [rng.randint(1, 30) for _ in range(rng.randint(1, 3))]
            row = [rng.choice(pool) for _ in range(m)]
        goods = sorted(rng.sample(range(m), rng.randint(0, m))) if rng.random() < 0.25 else None
        yield row, d, goods


def oracle_digest() -> str:
    """The sha256 of ``(value, witness.parts)`` of ``mms`` over ``oracle_cases``."""
    results = []
    for row, d, goods in oracle_cases():
        res = mms(Instance.from_rows([row]), 0, d, goods=goods)
        results.append([str(res.value), [sorted(part) for part in res.witness.parts]])
    return hashlib.sha256(json.dumps(results).encode("utf-8")).hexdigest()


def digest(files: dict, argv: list[str], workdir: str) -> str:
    """Run one invocation in ``workdir`` and hash its exit code, stdout,
    stderr and output file, with ``workdir`` masked out of the text."""
    paths = {"out": os.path.join(workdir, "out.json")}
    for name, obj in files.items():
        paths[name] = os.path.join(workdir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(obj if isinstance(obj, str) else json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.format(**paths) for arg in argv])
    written = None
    if os.path.exists(paths["out"]):
        with open(paths["out"], encoding="utf-8") as fh:
            written = fh.read()
        os.remove(paths["out"])
    record = [code, out.getvalue(), err.getvalue(), written]
    text = json.dumps(record).replace(workdir, "{workdir}")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compute() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as workdir:
        return {key: digest(files, argv, workdir) for key, files, argv in invocations()}


if __name__ == "__main__":
    digests = compute()
    old: dict[str, str] = {}
    if os.path.exists(CORPUS):
        with open(CORPUS, encoding="utf-8") as fh:
            old = json.load(fh)
    for verb, keys in (
        ("added", sorted(digests.keys() - old.keys())),
        ("removed", sorted(old.keys() - digests.keys())),
        ("changed", sorted(k for k in digests.keys() & old.keys() if digests[k] != old[k])),
    ):
        for key in keys:
            print(f"{verb} {key}")
    with open(CORPUS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {CORPUS}")
    oracle = {"cases": ORACLE_CASES, "sha256": oracle_digest()}
    if os.path.exists(ORACLE_CORPUS):
        with open(ORACLE_CORPUS, encoding="utf-8") as fh:
            if json.load(fh) != oracle:
                print("changed oracle witnesses")
    with open(ORACLE_CORPUS, "w", encoding="utf-8") as fh:
        json.dump(oracle, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote the oracle digest of {ORACLE_CASES} rows to {ORACLE_CORPUS}")
