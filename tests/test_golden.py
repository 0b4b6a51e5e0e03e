"""The golden corpora: every invocation prints, writes and returns what it
did when ``golden_cli.json`` was written, and the share oracle returns the
values and witnesses it did when ``golden_oracle.json`` was written (see
``golden.py``)."""

import json
import tempfile

import golden


def test_cli_outputs_match_the_golden_corpus():
    with open(golden.CORPUS, encoding="utf-8") as fh:
        expected = json.load(fh)
    cases = list(golden.invocations())
    assert sorted(key for key, _, _ in cases) == sorted(expected)
    with tempfile.TemporaryDirectory() as workdir:
        changed = [
            f"{key}: mmskit {' '.join(argv)} with files {sorted(files)}"
            for key, files, argv in cases
            if golden.digest(files, argv, workdir) != expected[key]
        ]
    assert changed == [], "outputs differ from the golden corpus:\n" + "\n".join(changed)


def test_oracle_witnesses_match_the_golden_digest():
    with open(golden.ORACLE_CORPUS, encoding="utf-8") as fh:
        expected = json.load(fh)
    assert expected == {"cases": golden.ORACLE_CASES, "sha256": golden.oracle_digest()}
