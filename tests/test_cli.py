"""CLI: JSON round-trips, subcommand behaviour, exit codes."""

import collections
import contextlib
import dataclasses
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mmskit import (
    Allocation,
    HardInstanceSpec,
    Instance,
    PriorityRanking,
    ThresholdList,
    check_t_mms,
    check_transcript,
    demonstrate_failure,
    priority_thresholds,
    run_1_out_of_d,
    run_rbf_truthful,
)
from mmskit import cli, verify
from mmskit.cli import (
    EXIT_BUDGET,
    EXIT_GUARANTEE,
    EXIT_INPUT,
    EXIT_OK,
    allocation_from_json,
    allocation_to_json,
    build_parser,
    instance_from_json,
    instance_to_json,
    main,
    report_to_json,
    thresholds_to_json,
    transcript_to_json,
)

from _instances import random_instance, random_normalized_ordered


@pytest.fixture
def instance_file(tmp_path):
    def write(inst, name="instance.json"):
        path = tmp_path / name
        path.write_text(json.dumps(instance_to_json(inst)))
        return str(path)

    return write


# ---------------------------------------------------------------------------
# JSON round-trips


def test_instance_round_trip():
    rng = random.Random(0)
    inst = Instance.from_rows([["1/3", 2, 0], ["5/7", "0", 4]])
    assert instance_from_json(instance_to_json(inst)) == inst
    inst2 = random_instance(rng, 3, 6)
    assert instance_from_json(instance_to_json(inst2)) == inst2


def test_allocation_round_trip():
    alloc = Allocation((frozenset({0, 2}), frozenset({1})), unallocated=frozenset({3}))
    assert allocation_from_json(allocation_to_json(alloc)) == alloc


def test_thresholds_serialize_as_strings():
    t = ThresholdList((Fraction(1), Fraction(3, 4)))
    assert thresholds_to_json(t) == ["1", "3/4"]


def test_instance_json_validation():
    with pytest.raises(Exception):
        instance_from_json({"agents": 1, "goods": 2, "valuations": [[1]]})


# ---------------------------------------------------------------------------
# Subcommands


def test_cmd_mms_totals_for_d1(instance_file, capsys):
    path = instance_file(Instance.from_rows([[1, 2, 3]]))
    assert main(["mms", path, "--d", "1"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"][0]["value"] == "6"
    assert payload["results"][0]["witness"] == [[0, 1, 2]]


def test_cmd_mms_tight_family_all_ones(instance_file, capsys):
    assert main(["gen", "ordinalTight", "--n", "5"]) == EXIT_OK
    gen_payload = json.loads(capsys.readouterr().out)
    assert gen_payload["d"] == 6
    inst = instance_from_json(gen_payload)
    path = instance_file(inst)
    assert main(["mms", path, "--d", "6", "--agent", "0"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"][0]["value"] == "1"


def test_cmd_mms_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["mms", str(bad), "--d", "2"]) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [b'{"agents": 1, "goods": 1, "valuations": [[' + b"7" * 5000 + b"]]}", b'\xff\xfe{"agents": 1}'],
    ids=["integer-over-digit-limit", "not-utf8"],
)
def test_cmd_mms_unreadable_json_is_an_input_error(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["mms", str(bad), "--d", "1"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1


@pytest.mark.parametrize("target", ["missing-dir/out.json", "."], ids=["missing-directory", "a-directory"])
def test_an_unwritable_output_is_an_input_error(tmp_path, capsys, target):
    inst = tmp_path / "one.json"
    inst.write_text(json.dumps(_ONE_ROW))
    output = str(tmp_path / target)
    assert main(["mms", str(inst), "--d", "1", "--output", output]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"input error: cannot write {output}: ") and err.count("\n") == 1


_EMIT_TEXT = st.text(
    st.one_of(st.characters(), st.sampled_from(["\u2028", "\u2029", "\x00", "\x1f", "\x7f", '"', "\\", "\n", "\t", "é"])),
    max_size=6,
)
_EMIT_INTS = st.one_of(
    st.integers(-(10**6), 10**6),
    st.integers(-1, 1).map(lambda sign: sign * (10**3999 + 12345)),  # 4000 digits
)
_EMIT_PAYLOADS = st.recursive(
    st.one_of(st.none(), st.booleans(), _EMIT_INTS, _EMIT_TEXT),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.lists(_EMIT_INTS, max_size=5),  # the one-join path
        st.dictionaries(_EMIT_TEXT, children, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(payload=_EMIT_PAYLOADS)
def test_emit_writes_the_text_of_json_dumps_byte_for_byte(tmp_path_factory, payload):
    expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(payload, None)
    assert out.getvalue() == expected
    path = tmp_path_factory.mktemp("emit") / "out.json"
    cli._emit(payload, str(path))
    assert path.read_bytes() == expected.encode("ascii")


@pytest.mark.parametrize("payload", [0.5, [1, 2.0], {"a": {1: "b"}}], ids=["float", "float-in-list", "int-key"])
def test_json_text_raises_a_type_error_on_what_the_cli_does_not_write(payload):
    with pytest.raises(TypeError):
        cli._json_text(payload)


def _unwritable_stdout_run(argv, stdout) -> subprocess.CompletedProcess:
    # Stdout stays buffered, as it is by default, so a small output fails only when flushed.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, "-m", "mmskit.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env={**env, "PYTHONPATH": src},
        timeout=60,
    )


# A few hundred bytes, and over 100 KB: more than a pipe buffers.
_SMALL_AND_LARGE_OUTPUT = [
    ["gen", "ordinalTight", "--n", "3"],
    ["gen", "hard1", "--n", "8", "--i", "4", "--epsilon", "1/2000"],
]


def _assert_cannot_write_stdout(proc: subprocess.CompletedProcess, reason: str) -> None:
    assert proc.returncode == EXIT_INPUT
    assert proc.stderr.startswith(f"input error: cannot write stdout: {reason}")
    assert proc.stderr.count("\n") == 1 and "Exception ignored" not in proc.stderr


@pytest.mark.parametrize("argv", _SMALL_AND_LARGE_OUTPUT, ids=["small", "large"])
def test_a_closed_stdout_pipe_is_an_input_error(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # nobody reads: each write fails with EPIPE
    try:
        proc = _unwritable_stdout_run(argv, write_end)
    finally:
        os.close(write_end)
    _assert_cannot_write_stdout(proc, "[Errno 32] Broken pipe")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("argv", _SMALL_AND_LARGE_OUTPUT, ids=["small", "large"])
def test_a_full_stdout_device_is_an_input_error(argv):
    with open("/dev/full", "w") as full:
        proc = _unwritable_stdout_run(argv, full)
    _assert_cannot_write_stdout(proc, "[Errno 28] No space left on device")


def test_cmd_mms_budget_exhaustion(instance_file, capsys):
    rng = random.Random(1)
    inst = Instance.from_rows([[rng.randint(50, 99) for _ in range(14)]])
    path = instance_file(inst)
    assert main(["mms", path, "--d", "5", "--node-budget", "10"]) == EXIT_BUDGET
    assert capsys.readouterr() == (
        "",
        "budget exhausted: search budget of 10 nodes exhausted on agent 0's 5-share; "
        "raise the node budget to continue\n",
    )
    rows = [[1] * 14] * 3 + [[rng.randint(50, 99) for _ in range(14)]]
    path = instance_file(Instance.from_rows(rows))
    assert main(["mms", path, "--d", "5", "--agent", "3", "--node-budget", "1000"]) == EXIT_BUDGET
    assert capsys.readouterr() == (
        "",
        "budget exhausted: search budget of 1000 nodes exhausted on agent 3's 5-share; "
        "raise the node budget to continue\n",
    )


def test_cmd_ordinal_single_agent(instance_file, capsys):
    path = instance_file(Instance.from_rows([[2, 1, 1]]))
    assert main(["ordinal", path]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["allOk"]
    assert payload["allocation"]["bundles"][0] == [0, 1, 2]
    assert payload["earlyTermination"] is False


def test_cmd_ordinal_random(instance_file, capsys):
    inst = random_instance(random.Random(3), 3, 8)
    path = instance_file(inst)
    assert main(["ordinal", path]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["allOk"]


def test_cmd_rbf_with_default_thresholds(instance_file, capsys):
    inst, _ = random_normalized_ordered(random.Random(4), 3, 8)
    path = instance_file(inst)
    assert main(["rbf", path]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["allOk"] and payload["structureOk"]


def test_cmd_rbf_explicit_default_thresholds_match_default(instance_file, capsys):
    inst, _ = random_normalized_ordered(random.Random(4), 3, 8)
    path = instance_file(inst)
    assert main(["rbf", path]) == EXIT_OK
    default = json.loads(capsys.readouterr().out)
    explicit = ",".join(default["thresholds"])
    assert main(["rbf", path, "--thresholds", explicit]) == EXIT_OK
    given = json.loads(capsys.readouterr().out)
    assert given["thresholds"] == default["thresholds"]
    assert given["allocation"] == default["allocation"]
    assert given["transcript"] == default["transcript"]


def test_node_budget_is_declared_only_where_a_search_runs():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    takes_budget = {
        name
        for name, parser in sub.choices.items()
        if any("--node-budget" in a.option_strings for a in parser._actions)
    }
    assert takes_budget == {"mms", "ordinal", "verify"}


def test_cmd_bobw_symmetric_expectations(instance_file, capsys):
    inst = Instance.from_rows([[Fraction(1, 2)] * 6] * 3)
    path = instance_file(inst)
    assert main(["bobw", path, "--seed", "7"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert len(set(payload["perAgentExAnte"])) == 1
    assert payload["sample"]["seed"] == 7


def test_cmd_gen_hard1_alpha_field(capsys):
    assert main(["gen", "hard1", "--n", "5", "--i", "5"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha"] == "5/6"


def test_cmd_gen_hard2(capsys):
    assert main(["gen", "hard2", "--n", "6", "--i", "4", "--k1", "3", "--k2", "0"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha"] == "5/6"
    assert payload["targetAgent"] == 3


def test_t_is_read_only_by_hard2_and_defaults_to_3(capsys):
    argv = ["gen", "hard2", "--n", "6", "--i", "4", "--k1", "3", "--k2", "0"]
    assert main(argv) == EXIT_OK
    default = capsys.readouterr().out
    assert json.loads(default)["t"] == 3
    assert main([*argv, "--t", "3"]) == EXIT_OK
    assert capsys.readouterr().out == default
    assert main(["demo", "hard1", "--n", "4", "--i", "3", "--t", "7"]) == EXIT_INPUT
    assert capsys.readouterr().err == "input error: mmskit demo: argument --t: not read with hard1\n"


def test_cmd_demo_hard1(capsys):
    assert main(["demo", "hard1", "--n", "6", "--i", "4"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["reductionCount"] == 0
    assert payload["unsatisfied"]


def test_cmd_demo_tight_reports_that_bag_filling_ran_out_of_goods(capsys):
    assert main(["demo", "ordinalTight", "--n", "5"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["ranOutOfGoods"] is True


def test_tight_demo_allocation_fails_at_its_own_d(tmp_path, capsys):
    # The raw bag-filling output on the tight family is short of the share
    # at the family's d, while the full pipeline succeeds at 4*ceil(n/3).
    assert main(["gen", "ordinalTight", "--n", "5"]) == EXIT_OK
    gen_payload = json.loads(capsys.readouterr().out)
    inst_path = tmp_path / "tight.json"
    inst_path.write_text(json.dumps(gen_payload))
    assert main(["demo", "ordinalTight", "--n", "5"]) == EXIT_OK
    demo_payload = json.loads(capsys.readouterr().out)
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(json.dumps(demo_payload["allocation"]))
    d = str(gen_payload["d"])
    assert main(["verify", str(inst_path), str(alloc_path), "--mode", "1ood", "--d", d]) == EXIT_OK
    verify_payload = json.loads(capsys.readouterr().out)
    assert not verify_payload["allOk"]
    assert main(["ordinal", str(inst_path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["allOk"]


def test_cmd_verify_round_trip(instance_file, tmp_path, capsys):
    inst = random_instance(random.Random(5), 3, 8)
    path = instance_file(inst)
    assert main(["ordinal", path]) == EXIT_OK
    ordinal_payload = json.loads(capsys.readouterr().out)
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(json.dumps(ordinal_payload["allocation"]))
    d = str(ordinal_payload["d"])
    assert main(["verify", path, str(alloc_path), "--mode", "1ood", "--d", d]) == EXIT_OK
    verify_payload = json.loads(capsys.readouterr().out)
    assert verify_payload["allOk"] == ordinal_payload["allOk"]


def test_cmd_verify_tmms_mode(instance_file, tmp_path, capsys):
    inst, _ = random_normalized_ordered(random.Random(6), 3, 7)
    path = instance_file(inst)
    assert main(["rbf", path]) == EXIT_OK
    rbf_payload = json.loads(capsys.readouterr().out)
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(json.dumps(rbf_payload["allocation"]))
    assert main(["verify", path, str(alloc_path), "--mode", "tmms"]) == EXIT_OK
    verify_payload = json.loads(capsys.readouterr().out)
    assert verify_payload["allOk"]


@pytest.mark.parametrize(
    "producer, inst, mode",
    [
        ("ordinal", random_instance(random.Random(8), 2, 6), ["--mode", "1ood", "--d", "4"]),
        ("rbf", Instance.from_rows([["1/2"] * 4] * 2), ["--mode", "tmms"]),
    ],
    ids=["ordinal", "rbf"],
)
def test_verify_reads_the_file_that_ordinal_and_rbf_write(instance_file, tmp_path, capsys, producer, inst, mode):
    # Both nest the allocation under "allocation"; verify takes it from there.
    path = instance_file(inst)
    out = tmp_path / "out.json"
    assert main([producer, path, "--output", str(out)]) == EXIT_OK
    assert main(["verify", path, str(out), *mode]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["allOk"] is True


def test_output_flag_writes_file(instance_file, tmp_path, capsys):
    path = instance_file(Instance.from_rows([[1, 2, 3]]))
    out = tmp_path / "result.json"
    assert main(["mms", path, "--d", "1", "--output", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["results"][0]["value"] == "6"
    assert capsys.readouterr().out == ""


def test_deterministic_output(instance_file, capsys):
    inst, _ = random_normalized_ordered(random.Random(7), 3, 7)
    path = instance_file(inst)
    main(["rbf", path])
    first = capsys.readouterr().out
    main(["rbf", path])
    second = capsys.readouterr().out
    assert first == second


# ---------------------------------------------------------------------------
# Malformed input


_UNIT_PAIR = {"agents": 2, "goods": 4, "valuations": [["1/2"] * 4] * 2}
_UNIT_PAIR_ALLOCATION = {"bundles": [[0, 1], [2, 3]]}
_ONE_ROW = {"agents": 1, "goods": 3, "valuations": [[1, 2, 3]]}
_NO_AGENTS = {"agents": 0, "goods": 2, "valuations": []}
# (n, row shared by all n agents, subcommands that reject it). On the last row
# bobw finishes every run and its default-threshold guarantee check rejects it.
_SHORT_SHARE_ROWS = [
    (2, ["3/4", "3/4", "1/2"], ("rbf", "bobw")),
    (3, ["27/35", "27/35", "24/35", "24/35", "3/35"], ("rbf", "bobw")),
    (3, ["2/3", "2/3", "3/5", "3/5", "2/5", "1/15"], ("rbf", "bobw")),
]


# A 4 KB file of valid JSON nested deeper than the parser recurses.
_NESTED_TOO_DEEPLY = "[" * 2000 + "]" * 2000
_LONG_LIST = [1] * 100_000  # a 300,000-character repr

# (files, argv) of each malformed invocation; the golden corpus replays the rbf and bobw rows.
# A file given as a string is written as is.
MALFORMED_INPUTS = [
    (
        {"inst": {"agents": 1, "goods": 3, "valuations": ["123"]}},
        ["mms", "{inst}", "--d", "1"],
    ),
    (
        {"inst": {"agents": True, "goods": 1, "valuations": [[1]]}},
        ["mms", "{inst}", "--d", "1"],
    ),
    (
        {"inst": _UNIT_PAIR, "alloc": {"bundles": [5, []]}},
        ["verify", "{inst}", "{alloc}", "--mode", "1ood", "--d", "2"],
    ),
    ({"inst": _UNIT_PAIR}, ["rbf", "{inst}", "--ranking", "a,b"]),
    ({"inst": _UNIT_PAIR}, ["rbf", "{inst}", "--thresholds", "1,1,1"]),
    ({"inst": _UNIT_PAIR}, ["rbf", "{inst}", "--ranking", "0,1,2"]),
    (
        {"inst": _UNIT_PAIR, "alloc": _UNIT_PAIR_ALLOCATION},
        ["verify", "{inst}", "{alloc}", "--mode", "tmms", "--thresholds", "1,1,1"],
    ),
    (
        {"inst": _UNIT_PAIR, "alloc": _UNIT_PAIR_ALLOCATION},
        ["verify", "{inst}", "{alloc}", "--mode", "tmms", "--ranking", "0,1,2"],
    ),
    # Only mms, ordinal and verify search, so only they take a budget.
    ({"inst": _UNIT_PAIR}, ["rbf", "{inst}", "--node-budget", "7"]),
    ({"inst": _ONE_ROW}, ["mms", "{inst}", "--d", "2", "--node-budget", "-5"]),
    ({}, ["mms"]),
    ({"inst": _ONE_ROW}, ["mms", "{inst}", "--d", "x"]),
    # Just over the cap on d, so that a broken cap fails fast.
    ({"inst": _ONE_ROW}, ["mms", "{inst}", "--d", "10001"]),
    (
        {"inst": _ONE_ROW, "alloc": {"bundles": [[0, 1, 2]]}},
        ["verify", "{inst}", "{alloc}", "--mode", "1ood", "--d", "10001"],
    ),
    # With no agents, d is still checked.
    ({"inst": _NO_AGENTS}, ["mms", "{inst}", "--d", "0"]),
    *[
        (
            {"inst": _NO_AGENTS, "alloc": {"bundles": []}},
            ["verify", "{inst}", "{alloc}", "--mode", "1ood", "--d", d],
        )
        for d in ("0", "-3", "20000")
    ],
    # Some agent's values increase; then, ordered, but some agent's total is not n.
    *[
        ({"inst": {"agents": 2, "goods": 4, "valuations": [["1/2"] * 4, row]}}, [command, "{inst}"])
        for row in ([0, 1, 0, 1], ["1/4"] * 4)
        for command in ("rbf", "bobw")
    ],
    # Ordered, every total n, but a good worth more than a unit share.
    *[
        ({"inst": {"agents": 2, "goods": 1, "valuations": [["2"], ["2"]]}}, [command, "{inst}"])
        for command in ("rbf", "bobw")
    ],
    # Ordered, every total n, no good above 1, but an n-share below 1.
    *[
        ({"inst": {"agents": n, "goods": len(row), "valuations": [row] * n}}, [command, "{inst}"])
        for n, row, commands in _SHORT_SHARE_ROWS
        for command in commands
    ],
    # Flags that the chosen mode or family never reads.
    (
        {"inst": _UNIT_PAIR, "alloc": _UNIT_PAIR_ALLOCATION},
        ["verify", "{inst}", "{alloc}", "--mode", "tmms", "--d", "3"],
    ),
    *[
        (
            {"inst": _UNIT_PAIR, "alloc": _UNIT_PAIR_ALLOCATION},
            ["verify", "{inst}", "{alloc}", "--mode", "1ood", "--d", "2", flag, value],
        )
        for flag, value in (("--thresholds", "1,1"), ("--ranking", "1,0"))
    ],
    ({}, ["gen", "ordinalTight", "--n", "3", "--i", "9"]),
    ({}, ["gen", "ordinalTight", "--n", "3", "--epsilon", "1/5"]),
    ({}, ["gen", "hard2", "--n", "6", "--i", "4", "--k1", "3", "--k2", "0", "--epsilon", "1/5"]),
    ({}, ["demo", "hard1", "--n", "4", "--i", "3", "--k1", "7"]),
    ({}, ["demo", "hard1", "--n", "4", "--i", "3", "--k2", "0"]),
    ({}, ["demo", "ordinalTight", "--n", "3", "--k1", "1"]),
    ({}, ["demo", "hard1", "--n", "4", "--i", "3", "--t", "7"]),
    ({}, ["demo", "ordinalTight", "--n", "3", "--t", "9"]),
    ({}, ["gen", "hard1", "--n", "4", "--i", "3", "--t", "7"]),
    ({"inst": _NESTED_TOO_DEEPLY}, ["mms", "{inst}", "--d", "2"]),
    (
        {"inst": _UNIT_PAIR, "alloc": _NESTED_TOO_DEEPLY},
        ["verify", "{inst}", "{alloc}", "--mode", "1ood", "--d", "2"],
    ),
    # A long list where an int, a value and a good index belong: each message
    # echoes a bounded prefix of it.
    ({"inst": {"agents": _LONG_LIST, "goods": 1, "valuations": [[1]]}}, ["mms", "{inst}", "--d", "1"]),
    ({"inst": {"agents": 1, "goods": 1, "valuations": [[_LONG_LIST]]}}, ["mms", "{inst}", "--d", "1"]),
    (
        {"inst": _UNIT_PAIR, "alloc": {"bundles": [[_LONG_LIST], []]}},
        ["verify", "{inst}", "{alloc}", "--mode", "1ood", "--d", "2"],
    ),
    # A long flag value that argparse rejects: its message is cut too.
    ({"inst": _UNIT_PAIR}, ["mms", "{inst}", "--d", "x" * 100_000]),
    ({}, ["gen", "y" * 50_000, "--n", "3"]),
    ({"inst": _UNIT_PAIR}, ["mms", "{inst}", "--d", "2", "--node-budget", "q" * 70_000]),
    # Each literal is under the length cap, but the share's denominator is the
    # product of six 991-digit ints, more digits than Python writes out.
    (
        {"inst": {"agents": 1, "goods": 6, "valuations": [[f"1/{10**990 + k}" for k in range(1, 12, 2)]]}},
        ["mms", "{inst}", "--d", "1"],
    ),
]
MALFORMED_IDS = [
    "string-row", "bool-agents", "int-bundle", "text-ranking", "threshold-count",
    "rank-count", "verify-threshold-count", "verify-rank-count", "rbf-node-budget",
    "negative-flag",
    "missing-args", "non-int-flag", "mms-d-over-cap", "verify-d-over-cap",
    "no-agents-mms-d-0", "no-agents-verify-d-0", "no-agents-verify-d-negative",
    "no-agents-verify-d-over-cap", "rbf-unordered", "bobw-unordered", "rbf-total-not-n",
    "bobw-total-not-n", "rbf-good-over-1", "bobw-good-over-1",
    "rbf-share-3-4", "bobw-share-3-4", "rbf-share-27-35", "bobw-share-27-35", "rbf-share-11-15",
    "bobw-share-11-15", "verify-tmms-d", "verify-1ood-thresholds", "verify-1ood-ranking",
    "gen-ordinal-tight-i", "gen-ordinal-tight-epsilon", "gen-hard2-epsilon", "demo-hard1-k1",
    "demo-hard1-k2", "demo-ordinal-tight-k1", "demo-hard1-t", "demo-ordinal-tight-t", "gen-hard1-t",
    "mms-nested-too-deeply", "verify-nested-too-deeply", "mms-agents-long-list", "mms-cell-long-list",
    "verify-bundle-long-list", "mms-d-long-value", "gen-family-long-value", "mms-node-budget-long-value",
    "mms-share-too-long-to-write",
]


@pytest.mark.parametrize("files, argv", MALFORMED_INPUTS, ids=MALFORMED_IDS)
def test_malformed_input_is_a_one_line_input_error(tmp_path, capsys, files, argv):
    paths = {}
    for name, obj in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
        paths[name] = str(path)
    assert main([arg.format(**paths) for arg in argv]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error: ") and err.count("\n") == 1
    assert len(err.replace(str(tmp_path), "")) <= 300, err[:300]


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["mms", "i.json", "--d", "x" * 1000],
            "mmskit mms: argument --d: invalid int value: '" + "x" * 66 + "... (1035 characters)",
        ),
        (
            ["mms", "i.json", "--d", "1"] + ["z"] * 300,
            "mmskit: unrecognized arguments: " + "z " * 38 + "... (623 characters)",
        ),
    ],
    ids=["invalid-int", "unrecognized"],
)
def test_a_usage_error_is_cut_like_an_echoed_value(capsys, argv, message):
    # argparse echoes the bad argument in full; the parser cuts its message
    # by the rule of core.short_text, after the program name.
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"input error: {message}\n")


@pytest.mark.parametrize("command", ["rbf", "bobw"])
def test_a_short_share_is_reported_with_its_agent_and_value(tmp_path, capsys, command):
    n, row, _ = _SHORT_SHARE_ROWS[-1]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"agents": n, "goods": len(row), "valuations": [row] * n}))
    assert main([command, str(path)]) == EXIT_INPUT
    assert capsys.readouterr() == ("", "input error: agent 0's 3-share is 11/15, below a unit share\n")


@pytest.mark.parametrize("command", ["rbf", "bobw"])
def test_thresholds_equal_to_the_built_in_list_are_judged_like_default(tmp_path, capsys, command):
    n, row, _ = _SHORT_SHARE_ROWS[-1]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"agents": n, "goods": len(row), "valuations": [row] * n}))
    assert main([command, str(path), "--thresholds", "1,6/7,7/9"]) == EXIT_INPUT
    assert capsys.readouterr() == ("", "input error: agent 0's 3-share is 11/15, below a unit share\n")


def _forced_structure_miss(monkeypatch):
    monkeypatch.setattr(verify, "check_transcript", lambda tr: ("forced",))


def _forced_target_miss(monkeypatch):
    check = verify.check_targets
    monkeypatch.setattr(
        verify, "check_targets",
        lambda *args, **kwargs: tuple(dataclasses.replace(c, ok=False) for c in check(*args, **kwargs)),
    )


@pytest.fixture(params=[_forced_structure_miss, _forced_target_miss], ids=["structure", "target"])
def forced_miss(request, monkeypatch):
    """Every truthful run fails one of its checks, as a broken allocator would."""
    request.param(monkeypatch)


@pytest.mark.parametrize("command", ["rbf", "bobw"])
def test_a_default_threshold_run_that_fails_its_checks_is_a_bug(tmp_path, capsys, forced_miss, command):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_UNIT_PAIR))
    assert main([command, str(path)]) == EXIT_GUARANTEE
    assert capsys.readouterr() == (
        "",
        "guarantee violation (this is a bug): "
        "a default-threshold run violated its guarantee or structure checks\n",
    )


def test_a_custom_threshold_run_reports_its_failed_checks(tmp_path, capsys, forced_miss):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_UNIT_PAIR))
    assert main(["bobw", str(path), "--thresholds", "1,1"]) == EXIT_OK
    capsys.readouterr()
    assert main(["rbf", str(path), "--thresholds", "1,1"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert not (payload["allOk"] and payload["structureOk"])
    run = run_rbf_truthful(instance_from_json(_UNIT_PAIR), ThresholdList.constant(2, 1))
    assert run.structure or not all(c.ok for c in run.report)


def test_one_bobw_op_values_and_checks_each_rotation_once(monkeypatch, instance_file, capsys):
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("check_targets", "check_transcript"):
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    for module in [m for name, m in sys.modules.items() if name.startswith("mmskit.")]:
        if hasattr(module, "bundle_value"):
            monkeypatch.setattr(module, "bundle_value", counted("bundle_value", module.bundle_value))
    monkeypatch.setattr(Instance, "check_goods", counted("check_goods", Instance.check_goods))
    inst, _ = random_normalized_ordered(random.Random(6), 6, 14)
    assert main(["bobw", instance_file(inst)]) == EXIT_OK
    # check_targets checks each rotation's 6 bundles and unallocated goods once, and sums them itself
    assert calls == {"check_targets": 6, "check_transcript": 6, "check_goods": 42}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rbf", "{inst}", "--thresholds", "1,1,1"], "expected 2 thresholds, got 3"),
        (["rbf", "{inst}", "--ranking", "0,1,2"], "ranking covers 3 agents, expected 2"),
        (["bobw", "{inst}", "--thresholds", "1,1,1"], "expected 2 thresholds, got 3"),
        (
            ["verify", "{inst}", "{alloc}", "--mode", "tmms", "--thresholds", "1,1,1"],
            "expected 2 thresholds, got 3",
        ),
        (
            ["verify", "{inst}", "{alloc}", "--mode", "tmms", "--ranking", "0,1,2"],
            "ranking covers 3 agents, expected 2",
        ),
    ],
    ids=["rbf-thresholds", "rbf-ranking", "bobw-thresholds", "verify-thresholds", "verify-ranking"],
)
def test_list_lengths_are_reported_in_one_wording(tmp_path, capsys, argv, message):
    paths = {}
    for name, obj in (("inst", _UNIT_PAIR), ("alloc", _UNIT_PAIR_ALLOCATION)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        paths[name] = str(path)
    assert main([arg.format(**paths) for arg in argv]) == EXIT_INPUT
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize(
    "files, argv, message",
    [
        ({"inst": _NO_AGENTS}, ["ordinal", "{inst}"], "n must be >= 1, got 0"),
        ({"inst": _NO_AGENTS}, ["bobw", "{inst}", "--thresholds", "1"], "n must be >= 1, got 0"),
        ({"inst": _ONE_ROW}, ["mms", "{inst}", "--d", "2", "--node-budget", "-5"], "node_budget must be >= 0, got -5"),
        ({"inst": _UNIT_PAIR}, ["bobw", "{inst}", "--seed", "-1"], "seed must be >= 0, got -1"),
        (
            {"inst": _UNIT_PAIR}, ["bobw", "{inst}", "--seed", str(2**64)],
            f"seed must be <= {2**64 - 1}, got {2**64}",
        ),
        ({"inst": {**_ONE_ROW, "agents": True}}, ["mms", "{inst}", "--d", "1"], "agents must be an integer, got True"),
        ({"inst": {**_ONE_ROW, "goods": -1}}, ["mms", "{inst}", "--d", "1"], "goods must be >= 0, got -1"),
        ({"inst": _ONE_ROW}, ["mms", "{inst}", "--d", "1", "--agent", "1"], "agent must be <= 0, got 1"),
        ({"inst": _UNIT_PAIR}, ["rbf", "{inst}", "--ranking", "0,2"], "rank must be <= 1, got 2"),
        ({}, ["gen", "hard2", "--n", "4", "--k1", "1", "--k2", "0"], "i must be an integer, got None"),
        ({}, ["demo", "hard1", "--n", "5", "--i", "6"], "i must be <= 5, got 6"),
        # verify checks the allocation's goods before it searches.
        (
            {"inst": _UNIT_PAIR, "alloc": {"bundles": [[0, 99], [1]]}},
            ["verify", "{inst}", "{alloc}", "--mode", "1ood", "--d", "2", "--node-budget", "0"],
            "good must be <= 3, got 99",
        ),
        (
            {"inst": _UNIT_PAIR, "alloc": {**_UNIT_PAIR_ALLOCATION, "unallocated": [99]}},
            ["verify", "{inst}", "{alloc}", "--mode", "tmms"],
            "good must be <= 3, got 99",
        ),
    ],
    ids=[
        "ordinal-no-agents", "bobw-no-agents", "negative-node-budget", "negative-seed", "seed-over-64-bits",
        "bool-agents", "negative-goods", "agent-out-of-range", "rank-out-of-range", "hard2-without-i",
        "hard1-i-over-n", "verify-good-out-of-range", "verify-unallocated-out-of-range",
    ],
)
def test_integer_arguments_are_reported_in_one_wording(tmp_path, capsys, files, argv, message):
    paths = {}
    for name, obj in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        paths[name] = str(path)
    assert main([arg.format(**paths) for arg in argv]) == EXIT_INPUT
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "hard1", "--n", "0", "--i", "3"],
        # Just over the family cap, so that a broken cap fails fast.
        ["gen", "hard2", "--n", "4", "--i", "2", "--k1", "1", "--k2", "0", "--t", "2000"],
        ["gen", "ordinalTight", "--n", "100"],
        ["demo", "ordinalTight", "--n", "100"],
    ],
    ids=["hard1-zero-n", "hard2-large-t", "gen-tight-large-n", "demo-tight-large-n"],
)
def test_family_parameters_are_checked_before_anything_is_built(capsys, argv):
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mms", "--help"])
    assert exc.value.code == 0
    assert "--d" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# One parser per process


@pytest.fixture
def fresh_parser():
    build_parser.cache_clear()
    yield
    build_parser.cache_clear()


def test_the_parser_is_built_on_the_first_call_only(monkeypatch, fresh_parser, instance_file, capsys):
    built = []

    class Counting(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", Counting)
    path = instance_file(Instance.from_rows([["1/2"] * 4] * 2))
    counts = []
    for argv in (
        ["mms", path, "--d", "2"],
        ["mms", path, "--d", "x"],
        ["bobw", path],
        ["gen", "ordinalTight", "--n", "3"],
        ["verify", path, path, "--mode", "tmms"],
    ):
        before = len(built)
        main(argv)
        counts.append(len(built) - before)
    assert counts == [8, 0, 0, 0, 0]  # mmskit and its seven subcommands, once


def test_no_flag_leaks_into_a_later_call(instance_file, capsys):
    path = instance_file(Instance.from_rows([["1/2"] * 4] * 2))
    outputs = []
    for argv in (
        ["mms", path, "--d", "2", "--agent", "1"],
        ["mms", path, "--d", "2"],
        ["bobw", path, "--seed", "7"],
        ["bobw", path],
    ):
        assert main(argv) == EXIT_OK
        outputs.append(json.loads(capsys.readouterr().out))
    assert [r["agent"] for r in outputs[0]["results"]] == [1]
    assert [r["agent"] for r in outputs[1]["results"]] == [0, 1]
    assert outputs[2]["sample"]["seed"] == 7
    assert "sample" not in outputs[3]


def test_a_usage_error_leaves_the_next_call_as_a_fresh_process_runs_it(instance_file, capsys):
    path = instance_file(Instance.from_rows([["1/2"] * 4] * 2))
    argv = ["mms", path, "--d", "2"]
    assert main(["mms", path, "--d", "x"]) == EXIT_INPUT
    capsys.readouterr()
    code = main(argv)
    out, err = capsys.readouterr()
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    fresh = subprocess.run(
        [sys.executable, "-m", "mmskit.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert code == EXIT_OK and err == ""


# ---------------------------------------------------------------------------
# Fuzzed list flags


@pytest.fixture(scope="module")
def unit_share_files(tmp_path_factory):
    """Instance and allocation files of 2 and 3 agents, each agent's share 1."""
    root = tmp_path_factory.mktemp("unit")
    files = {}
    for n in (2, 3):
        inst = {"agents": n, "goods": 2 * n, "valuations": [["1/2"] * (2 * n)] * n}
        alloc = {"bundles": [[2 * i, 2 * i + 1] for i in range(n)]}
        for name, obj in (("inst", inst), ("alloc", alloc)):
            path = root / f"{name}{n}.json"
            path.write_text(json.dumps(obj))
            files[name, n] = str(path)
    return files


# Raw text, or valid lists of 1 to 4 entries, so that the library's length checks run too.
_LIST_TEXT = st.text(alphabet="0123456789/,-. e", max_size=30)
_THRESHOLD_LISTS = st.lists(st.sampled_from(["1", "9/10", "3/4", "1/2"]), min_size=1, max_size=4).map(
    lambda taus: ",".join(sorted(taus, key=Fraction, reverse=True))
)
_RANK_LISTS = st.integers(1, 4).flatmap(lambda k: st.permutations([str(r) for r in range(k)])).map(",".join)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["rbf", "bobw", "verify"]),
    n=st.sampled_from([2, 3]),
    thresholds=st.none() | _LIST_TEXT | _THRESHOLD_LISTS,
    ranking=st.none() | _LIST_TEXT | _RANK_LISTS,
)
def test_list_flags_end_in_a_result_or_one_input_error(
    unit_share_files, command, n, thresholds, ranking
):
    argv = [command, unit_share_files["inst", n]]
    if command == "verify":
        argv += [unit_share_files["alloc", n], "--mode", "tmms"]
    if thresholds is not None:
        argv += ["--thresholds", thresholds]
    if ranking is not None and command != "bobw":  # bobw runs every rotation
        argv += ["--ranking", ranking]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stderr = err.getvalue()
    assert "Traceback" not in stderr
    if code == EXIT_OK:
        assert stderr == ""
    else:
        assert code == EXIT_INPUT
        assert stderr.startswith("input error: ") and stderr.count("\n") == 1


# ---------------------------------------------------------------------------
# Fuzzed files and flags, every subcommand

# Any JSON scalar or a short nested list, so that each field meets every type.
_JSON_VALUES = st.recursive(
    st.integers(-3, 1000) | st.booleans() | st.floats(allow_nan=False) | st.none()
    | st.sampled_from(["1/2", "1/3", "2", "-1", "x", "1e5", ""]),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=4,
)
_FLAG_VALUES = st.sampled_from(["-1", "0", "x", "2.5"])


def _or_junk(draw, value, odds=10):
    """``value``, or one time in ``odds`` any JSON value."""
    return draw(_JSON_VALUES) if draw(st.integers(1, odds)) == 1 else value


def _flag(draw):
    """A count from 1 to 6, or one time in four a value out of range or not an int."""
    return draw(_FLAG_VALUES) if draw(st.integers(1, 4)) == 1 else str(draw(st.integers(1, 6)))


# Odd text for --thresholds, --ranking and --epsilon: a zero denominator, empty
# parts, a float that is not finite or overflows, and a 5000-digit literal.
_ODD_TEXT = st.sampled_from(["1/0", ",", "nan", "1e999999", "0,,1", "9" * 5000, "", "-1/2", "x"])


def _text_flag(draw, valid):
    """A draw of ``valid``, or one time in three odd text."""
    return draw(_ODD_TEXT) if draw(st.integers(1, 3)) == 1 else draw(valid)


def _list_of(items, n):
    """A comma list of n items, give or take one."""
    return st.integers(max(n - 1, 0), n + 1).flatmap(lambda k: st.lists(items, min_size=k, max_size=k)).map(",".join)


def _add_list_and_rational_flags(draw, argv, n):
    """Append --thresholds and --ranking where ``argv`` reads them (rbf, bobw
    and verify --mode tmms; bobw has no ranking), or --epsilon to gen hard1,
    each for n agents and each at times left out."""
    if argv[:2] == ["gen", "hard1"]:
        if draw(st.booleans()):
            argv += ["--epsilon", _text_flag(draw, st.sampled_from(["1/12", "1/100", "1/2", "2/3", "0", "1"]))]
        return
    if argv[0] not in ("rbf", "bobw") and "tmms" not in argv:
        return
    if draw(st.booleans()):
        taus = st.sampled_from(["1", "3/4", "6/7", "1/2", "0", "0.75"])
        argv += ["--thresholds", _text_flag(draw, st.just("default") | _list_of(taus, n))]
    if argv[0] != "bobw" and draw(st.booleans()):
        ranks = st.just("identity") | st.permutations([str(r) for r in range(n)]).map(",".join)
        argv += ["--ranking", _text_flag(draw, ranks | _list_of(st.sampled_from(["0", "1", "5"]), n))]


@st.composite
def _invocations(draw, command):
    """Instance and allocation files and an argv for ``command``.

    Most files are well formed, so that runs also reach the allocators: rows
    of random values, or of n/m each with m a multiple of n (ordered, every
    total n and every n-share 1, as rbf and bobw need), and bundles dealt
    round-robin. Any field may be replaced by junk.
    For verify, one allocation file in four names, in a bundle or as
    unallocated, a good that is not one: the instance's good count, or
    negative, a bool or a float. Also returns whether it does. The thresholds,
    ranking and epsilon flags come from ``_add_list_and_rational_flags``.
    """
    if draw(st.integers(0, 3)):  # m a multiple of n, so every n-share is 1
        n = draw(st.integers(1, 4))
        m = n * draw(st.integers(1, 8 // n))
        value = st.just(f"{n}/{m}")
    else:
        n, m = draw(st.integers(0, 4)), draw(st.integers(0, 8))
        value = st.integers(0, 1000) | st.sampled_from(["1/2", "2/3", "0"])
    rows = [[_or_junk(draw, draw(value), odds=100) for _ in range(m)] for _ in range(n)]
    goods = _or_junk(draw, m)
    bundles = _or_junk(draw, [[g for g in range(m) if g % n == a] for a in range(n)])
    unallocated = []
    bad_good = command == "verify" and not draw(st.integers(0, 3))
    if bad_good:
        member = goods if draw(st.booleans()) else draw(st.sampled_from([-1, True, False, 0.5, 2.0]))
        lists = [b for b in bundles if isinstance(b, list)] if isinstance(bundles, list) else []
        draw(st.sampled_from([unallocated, *lists])).append(member)
    files = {
        "inst": {"agents": _or_junk(draw, n), "goods": goods, "valuations": _or_junk(draw, rows)},
        "alloc": {"bundles": bundles, "unallocated": unallocated},
    }
    if command in ("gen", "demo"):
        family = draw(st.sampled_from(["ordinalTight", "hard1", "hard2"]))
        argv = [command, family]
        for flag in ("--n", "--i", "--k1", "--k2", "--t")[: {"ordinalTight": 1, "hard1": 2}.get(family, 5)]:
            if draw(st.integers(0, 9)):
                argv += [flag, _flag(draw)]
        _add_list_and_rational_flags(draw, argv, n)
        return files, argv, bad_good
    argv = [command, "{inst}"]
    if command == "verify":
        argv += ["{alloc}", "--mode", draw(st.sampled_from(["1ood", "tmms"]))]
    _add_list_and_rational_flags(draw, argv, n)
    if (command == "mms" or "1ood" in argv) and draw(st.integers(0, 9)):
        argv += ["--d", _flag(draw)]
    elif "tmms" in argv and not draw(st.integers(0, 9)):  # tmms does not read --d
        argv += ["--d", _flag(draw)]
    if command == "mms" and draw(st.booleans()):
        argv += ["--agent", _flag(draw)]
    if command == "bobw" and draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(-1, 2**64)))]
    if command in ("mms", "ordinal", "verify"):  # the default budget could search for minutes
        argv += ["--node-budget", str(draw(st.integers(-2, 10**4)))]
    return files, argv, bad_good


def _run_fuzzed(root, files, argv) -> int:
    """Write ``files`` as JSON under ``root``, run the CLI on ``argv`` with
    their paths, and check that it ends in an exit code and at most one line."""
    paths = {}
    for name, obj in files.items():
        paths[name] = str(root / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.format(**paths) for arg in argv])
    stderr = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr and stderr.count("\n") <= 1
    assert (stderr == "") == (code == EXIT_OK)
    assert code == EXIT_OK or out.getvalue() == ""
    return code


def test_every_subcommand_ends_in_an_exit_code_and_at_most_one_line(tmp_path_factory):
    # Each subcommand runs its own derandomized examples. rbf, bobw and verify
    # must also reach their allocators and checks: each ends in exit 0 in a
    # few of its examples, not only at a bad file or flag.
    exits = collections.Counter()
    for command in ("mms", "ordinal", "rbf", "bobw", "gen", "demo", "verify"):

        @settings(max_examples=25, deadline=None, derandomize=True)
        @given(invocation=_invocations(command))
        def run(invocation):
            files, argv, bad_good = invocation
            code = _run_fuzzed(tmp_path_factory.mktemp("fuzz"), files, argv)
            if bad_good:
                assert code == EXIT_INPUT
            exits[argv[0], code] += 1

        run()
    assert min(exits[command, EXIT_OK] for command in ("rbf", "bobw", "verify")) >= 3, exits


@st.composite
def _flagged_argvs(draw):
    """rbf, bobw, verify --mode tmms or gen hard1 on well-formed unit-share
    files, so that each drawn flag is parsed and, when valid, run."""
    argv = list(draw(st.sampled_from([
        ("rbf", "{inst}"),
        ("bobw", "{inst}"),
        ("verify", "{inst}", "{alloc}", "--mode", "tmms"),
        ("gen", "hard1", "--n", "4", "--i", "3"),
    ])))
    _add_list_and_rational_flags(draw, argv, 2)
    return argv


@settings(max_examples=100, deadline=None, derandomize=True)
@given(argv=_flagged_argvs())
def test_the_list_and_rational_flags_end_in_an_exit_code_and_at_most_one_line(tmp_path_factory, argv):
    _run_fuzzed(tmp_path_factory.mktemp("flags"), {"inst": _UNIT_PAIR, "alloc": _UNIT_PAIR_ALLOCATION}, argv)


# ---------------------------------------------------------------------------
# Library and CLI agree


def _ordinal_payload(inst: Instance) -> dict:
    result = run_1_out_of_d(inst)
    return {
        "d": result.d,
        "allocation": allocation_to_json(result.allocation),
        "perAgent": [
            {"agent": c.agent, "value": str(c.value), "share": str(c.target), "ok": c.ok}
            for c in result.report
        ],
        "allOk": all(c.ok for c in result.report),
        "earlyTermination": False,  # run_1_out_of_d raises on a run that ran out of goods
    }


def _rbf_payload(inst: Instance, ranking: PriorityRanking) -> dict:
    thresholds = priority_thresholds(inst.num_agents)
    run = run_rbf_truthful(inst, thresholds, ranking)
    alloc, transcript = run.allocation, run.transcript
    structure = check_transcript(transcript)
    report = check_t_mms(inst, alloc, ranking, thresholds)  # every n-share is 1
    return {
        "allocation": allocation_to_json(alloc),
        "transcript": transcript_to_json(transcript),
        "thresholds": thresholds_to_json(thresholds),
        **report_to_json(report),
        "structureOk": not structure,
        "structureViolations": list(structure),
    }


def _demo_payload(spec: HardInstanceSpec) -> dict:
    report = demonstrate_failure(spec)
    shortfalls = [
        {"agent": c.agent, "value": str(c.value), "target": str(c.target)} for c in report.shortfalls
    ]
    return {
        "family": report.family,
        "n": report.n,
        "thresholds": thresholds_to_json(report.thresholds),
        "witnessAgent": shortfalls[0]["agent"],
        "witnessValue": shortfalls[0]["value"],
        "witnessTarget": shortfalls[0]["target"],
        "unsatisfied": shortfalls,
        "reductionCount": len(report.transcript.reductions),
        "ranOutOfGoods": report.transcript.ran_out_of_goods,
        "allocation": allocation_to_json(report.allocation),
    }


@st.composite
def _agreement_cases(draw):
    """(argv with ``{inst}`` for the instance file, instance or None, the library's payload)."""
    command = draw(st.sampled_from(["ordinal", "rbf", "demo"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if command == "ordinal":
        n = draw(st.integers(2, 5))
        inst = random_instance(rng, n, draw(st.integers(n, 10)), max_value=draw(st.sampled_from([3, 1000])))
        return ["ordinal", "{inst}"], inst, _ordinal_payload(inst)
    if command == "rbf":
        n = draw(st.integers(2, 5))
        inst, _ = random_normalized_ordered(rng, n, draw(st.integers(n, 3 * n + 2)), d=n)
        ranks = draw(st.permutations(range(n)))
        argv = ["rbf", "{inst}", "--ranking", ",".join(map(str, ranks))]
        return argv, inst, _rbf_payload(inst, PriorityRanking(tuple(ranks)))
    family = draw(st.sampled_from(["ordinalTight", "hard1", "hard2"]))
    n = draw(st.integers({"ordinalTight": 2, "hard1": 3, "hard2": 4}[family], 6))
    if family == "ordinalTight":
        spec = HardInstanceSpec(family, n)
    elif family == "hard1":
        spec = HardInstanceSpec(family, n, i=draw(st.integers(3, n)))
    else:
        k1 = draw(st.integers(1, (n - 1) // 2))
        k2 = draw(st.integers(0, n - 2 * k1))
        spec = HardInstanceSpec(family, n, i=draw(st.integers(k1 + k2 + 1, n)), k1=k1, k2=k2, t=3)
    flags = [(f"--{k}", getattr(spec, k)) for k in ("n", "i", "k1", "k2", "t") if getattr(spec, k) is not None]
    return ["demo", family, *(str(x) for flag in flags for x in flag)], None, _demo_payload(spec)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_agreement_cases())
def test_cli_json_is_the_library_result(tmp_path_factory, case):
    argv, inst, payload = case
    path = str(tmp_path_factory.mktemp("agree") / "instance.json")
    if inst is not None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(instance_to_json(inst), fh)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([arg.format(inst=path) for arg in argv]) == EXIT_OK
    assert json.loads(out.getvalue()) == payload
