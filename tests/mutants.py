"""Committed mutation checks: each mutant is one exact edit of the source that
the listed tests must catch.

A mutant is a (file, snippet, replacement, tests) row. The runner copies
``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory, replaces
the snippet, which must occur exactly once, and runs only the mutant's tests
there. Each listed test id (``path::function``, which selects every
parametrization of the function) must fail; a mutant under which any of them
passes survives. An equivalent mutant, one that changes no behaviour a test
could see, has no tests and a reason instead, and is listed rather than run.

    python tests/mutants.py

It prints one line per mutant and exits 1 if one survives. Pytest does not
collect this file; ``tests/test_mutants.py`` checks, in tier 1, that every
snippet still occurs once and every listed test still exists.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # test ids that must each fail under the mutant
    reason: str = ""  # why an equivalent mutant, which has no tests, is equivalent


_RBF = "src/mmskit/rbf.py"
_CORE = "src/mmskit/core.py"
_ORACLE = "src/mmskit/oracle.py"
_QUERY_PIN = "tests/test_rbf.py::test_query_counts_are_pinned"
_TRUTHFUL_REFERENCE = "tests/test_rbf_reference.py::test_truthful_runs_match_the_reference"
_HARD2_REFERENCE = "tests/test_rbf_reference.py::test_hard2_scripts_match_the_reference"
_TRANSCRIPT_PINS = "tests/test_rbf.py::test_transcripts_are_pinned"
_ORDINAL_TRANSCRIPTS = "tests/test_ordinal.py::test_transcripts_of_random_ordered_normalized_instances_are_well_formed"
_SUBSET_CUT = "tests/test_oracle.py::test_the_subset_sum_cut_keeps_the_result_and_never_adds_nodes"
_ORACLE_DIGEST = "tests/test_golden.py::test_oracle_witnesses_match_the_golden_digest"
_GOLDEN_CLI = "tests/test_golden.py::test_cli_outputs_match_the_golden_corpus"
_BOBW = "src/mmskit/bobw.py"
_ATANH_SERIES = "tests/test_bobw.py::test_the_atanh_series_enclose_the_log_at_their_own_precision"
_LN_REFERENCE = "tests/test_bobw.py::test_ln_enclosure_agrees_with_a_decimal_reference"
_EM_ENCLOSURE = "tests/test_bobw.py::test_the_euler_maclaurin_enclosure_contains_the_exact_window_sum"
_CONSTANT_SIDE = "tests/test_bobw.py::test_each_constant_lies_on_its_safe_side_of_the_true_value"
_SANDWICHES = (
    "tests/test_bobw.py::test_a_sum_inside_the_log_enclosure_is_not_certified",
    "tests/test_bobw.py::test_each_sandwich_curve_matches_its_tabulated_reference",
    "tests/test_bobw.py::test_proof_curves_for_small_sizes",
    "tests/test_acceptance.py::test_criterion_6_upper_bound_calculus",
)

_SCAN = """\
        for agent in waiting[:]:
            den, num = need[agent]
            for b in open_bags:
                if value(agent, bags[b]) * den >= num:
                    assign(agent, b)
                    break
"""

MUTANTS = (
    Mutant(
        "rbf-scan-restarts-after-a-hit",
        _RBF,
        _SCAN,
        """\
        restart = True
        while restart:
            restart = False
            for agent in waiting:
                den, num = need[agent]
                for b in open_bags:
                    if value(agent, bags[b]) * den >= num:
                        assign(agent, b)
                        restart = True
                        break
                if restart:
                    break
""",
        (_TRUTHFUL_REFERENCE, _HARD2_REFERENCE),
    ),
    Mutant(
        "rbf-fill-loop-asks-every-open-bag",
        _RBF,
        """\
                if value(agent, bag) * den >= num:
                    assign(agent, b)
                    break
""",
        """\
                hit = next((c for c in open_bags if value(agent, bags[c]) * den >= num), None)
                if hit is not None:
                    assign(agent, hit)
                    break
""",
        (_QUERY_PIN, _TRUTHFUL_REFERENCE, _HARD2_REFERENCE),
    ),
    Mutant(
        "rbf-fill-loop-serves-the-worst-ranked-liker",
        _RBF,
        '            bag_events.append(BagEvent("fill", b, good=g))\n            for agent in waiting:\n',
        '            bag_events.append(BagEvent("fill", b, good=g))\n            for agent in reversed(waiting):\n',
        (
            _GOLDEN_CLI, _TRANSCRIPT_PINS, _TRUTHFUL_REFERENCE, _HARD2_REFERENCE,
            "tests/test_rbf.py::test_default_thresholds_satisfy_every_rank",
        ),
    ),
    Mutant(
        "rbf-truthful-rule-ignores-the-structure-check",
        _RBF,
        "        if (run.structure or not all(c.ok for c in report)) and thresholds",
        "        if (not all(c.ok for c in report)) and thresholds",
        ("tests/test_cli.py::test_a_default_threshold_run_that_fails_its_checks_is_a_bug",),
    ),
    Mutant(
        "rbf-scan-walks-the-list-it-removes-from",
        _RBF,
        "        for agent in waiting[:]:\n",
        "        for agent in waiting:\n",
        (_GOLDEN_CLI, _QUERY_PIN, _TRUTHFUL_REFERENCE),
    ),
    Mutant(
        "rbf-declined-skips-only-shape-1",
        _RBF,
        "            if not shape or shape in declined:\n",
        "            if not shape or (shape_idx == 1 and shape in declined):\n",
        (_QUERY_PIN, _TRUTHFUL_REFERENCE),
    ),
    Mutant(
        "rbf-declined-holds-the-hit-shape",
        _RBF,
        "        shape_idx, agent, shape = hit\n",
        "        shape_idx, agent, shape = hit\n        declined.add(shape)\n",
        (),
        "every later shape is a subset of the goods left, and the hit shape's goods have left, "
        "so the hit shape is never looked up again",
    ),
    Mutant(
        "oracle-window-one-bit-too-narrow",
        _ORACLE,
        "                window = (2 << room) - 1  # room + 1 bits\n",
        "                window = (1 << room) - 1  # room + 1 bits\n",
        (_SUBSET_CUT, _ORACLE_DIGEST, "tests/test_oracle.py::test_the_integer_cut_solves_a_row_in_a_fiftieth_of_the_nodes"),
    ),
    Mutant(
        "oracle-window-test-ignores-the-stored-range",
        _ORACLE,
        "                    if 0 < lo <= cap - room and not (sums_t >> lo) & window:\n",
        "                    if 0 < lo and not (sums_t >> lo) & window:\n",
        (_SUBSET_CUT, _ORACLE_DIGEST, "tests/test_acceptance.py::test_criterion_8_structural_suite"),
    ),
    Mutant(
        "transcript-phase2-agents-keep-the-first-reduced-agent",
        _CORE,
        "        return frozenset(range(self.num_agents)).difference(e.agent for e in self.reductions)\n",
        "        return frozenset(range(self.num_agents)).difference(e.agent for e in self.reductions[1:])\n",
        (
            "tests/test_verify.py::test_reductions_above_the_surviving_cutoff_are_flagged",
            _TRANSCRIPT_PINS, _TRUTHFUL_REFERENCE, _HARD2_REFERENCE,
        ),
    ),
    Mutant(
        "transcript-phase2-goods-skip-the-last-reduction",
        _CORE,
        "        return frozenset(range(self.num_goods)).difference(*(e.bundle for e in self.reductions))\n",
        "        return frozenset(range(self.num_goods)).difference(*(e.bundle for e in self.reductions[:-1]))\n",
        (
            "tests/test_verify.py::test_reductions_above_the_surviving_cutoff_are_flagged",
            _TRANSCRIPT_PINS, _TRUTHFUL_REFERENCE, _HARD2_REFERENCE,
        ),
    ),
    Mutant(
        "transcript-satisfied-counts-leftover-agents",
        _CORE,
        '        served.update(e.agent for e in self.bag_events if e.kind == "assign")\n',
        '        served.update(e.agent for e in self.bag_events if e.kind in ("assign", "leftover"))\n',
        (
            "tests/test_adversarial.py::test_ordinal_tight_demos_log_leftover_bags_for_the_unserved_agents",
            "tests/test_rbf.py::test_scripted_runs_reach_the_leftover_path",
            _ORDINAL_TRANSCRIPTS, _TRANSCRIPT_PINS, _TRUTHFUL_REFERENCE, _HARD2_REFERENCE,
        ),
    ),
    Mutant(
        "transcript-ran-out-on-any-fill",
        _CORE,
        '        return any(e.kind == "leftover" for e in self.bag_events)\n',
        '        return any(e.kind != "assign" for e in self.bag_events)\n',
        (
            "tests/test_ordinal.py::test_assigned_bags_meet_the_unit_target",
            "tests/test_acceptance.py::test_criterion_1_ordinal_guarantee",
            _GOLDEN_CLI, _ORDINAL_TRANSCRIPTS, _TRANSCRIPT_PINS, _TRUTHFUL_REFERENCE,
        ),
    ),
    Mutant(
        "bobw-log-tail-dropped",
        _BOBW,
        "    hi -= -(hi_t << bits) // (k * ((1 << bits) - hi_x2))\n",
        "",
        (_ATANH_SERIES, _LN_REFERENCE),
    ),
    Mutant(
        "bobw-log-lower-series-rounded-up",
        _BOBW,
        "        lo += lo_t // k\n",
        "        lo -= -lo_t // k\n",
        (_ATANH_SERIES,),
    ),
    Mutant(
        "bobw-window-remainder-dropped",
        _BOBW,
        "    remainder = _em_remainder(m)\n",
        "    remainder = 0\n",
        (_EM_ENCLOSURE,),
    ),
    Mutant(
        "bobw-slide-keeps-the-lower-end-of-a-leaving-term",
        _BOBW,
        "_fixed_sum(a0, a - 1) + max(0, b0 - b) + max(0, a - a0)\n",
        "_fixed_sum(a0, a - 1)\n",
        ("tests/test_bobw.py::test_a_window_that_only_loses_terms_keeps_the_exact_verdict",),
    ),
    Mutant(
        "bobw-slide-keeps-the-width",
        _BOBW,
        "                S += abs(b - b0) + abs(a - a0)\n",
        "",
        ("tests/test_bobw.py::test_a_sweep_from_the_euler_maclaurin_window_keeps_the_exact_verdict",),
    ),
    Mutant(
        "bobw-constant-drops-the-1-over-rn-term",
        _BOBW,
        ", den << LN_BITS, den * self.r << LN_BITS\n",
        ", 0, den * self.r << LN_BITS\n",
        (_CONSTANT_SIDE, "tests/test_bobw.py::test_the_closed_forms_are_pinned"),
    ),
    Mutant(
        "bobw-constant-reads-the-wrong-log-end",
        _BOBW,
        "        end = _ln_fixed(lp, lq, LN_BITS)[self.floor]",
        "        end = _ln_fixed(lp, lq, LN_BITS)[not self.floor]",
        (_CONSTANT_SIDE,),
    ),
    Mutant(
        "bobw-sweep-accepts-a-tie",
        _BOBW,
        "q << WINDOW_BITS) <= 0:\n",
        "q << WINDOW_BITS) < 0:\n",
        ("tests/test_bobw.py::test_a_tie_goes_to_the_exact_engine",),
    ),
    Mutant(
        "bobw-sandwich-hard1-keeps-rank-1",
        _BOBW,
        " - (bound is _HARD1)",
        "",
        (*_SANDWICHES, "tests/test_bobw.py::test_a_constant_curve_with_a_rational_integral_is_certified_at_equality"),
    ),
    Mutant(
        "bobw-sandwich-swaps-its-ends",
        _BOBW,
        "    return last + exact + coeff * hi <= total <= 1 + exact + coeff * lo\n",
        "    return 1 + exact + coeff * hi <= total <= last + exact + coeff * lo\n",
        _SANDWICHES,
    ),
)


def apply(root: Path, mutant: Mutant) -> None:
    """Replace the mutant's snippet in its file under ``root``; the snippet must occur once."""
    path = root / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.snippet)
    if count != 1:
        raise SystemExit(f"{mutant.name}: snippet occurs {count} times in {mutant.file}")
    path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")


def run(mutant: Mutant) -> list[str]:
    """The listed tests that pass under ``mutant``: empty when it is caught."""
    with tempfile.TemporaryDirectory(prefix="mmskit-mutant-") as tmp:
        root = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, root / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", root)
        apply(root, mutant)
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rA", "--tb=no", "-p", "no:cacheprovider", *mutant.tests],
            cwd=root, env=env, capture_output=True, text=True,
        )
    if proc.returncode not in (0, 1):  # 2 to 5: interrupted, internal error, usage error, nothing collected
        raise SystemExit(f"{mutant.name}: pytest exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
    failed = {
        line.split()[1].split("[")[0]
        for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    }
    return [test for test in mutant.tests if test not in failed]


def main() -> int:
    survivors = 0
    for mutant in MUTANTS:
        if mutant.reason:
            print(f"equivalent {mutant.name}: {mutant.reason}")
            continue
        passed = run(mutant)
        survivors += bool(passed)
        print(f"{'SURVIVED' if passed else 'caught  '} {mutant.name}" + "".join(f"\n    passes {t}" for t in passed))
    print(f"{sum(not m.reason for m in MUTANTS)} mutants run, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
