"""Golden outputs: every byte a `uur` command prints, pinned in tools/corpus.jsonl.

Each line of the corpus is one JSON array: [argv, exit code, SHA-256 of
stdout, stderr text], with the argv split on spaces. Each line runs
through `cli.main` at an 80-column terminal (argparse wraps help to
COLUMNS; the help digests come from Python 3.11's argparse) in a directory
holding the problem files of tools/input_files.json, and any change to its
exit code or to a printed byte fails here. A new command is appended as a
new line and an existing line is never edited, so a changed pin always
shows in a diff as a removed line. The tests split the corpus into the ex1
block-size matrix, other commands that succeed without and with --input,
and refusals; each runs its lines the same way.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import pytest

from uur import bounds, cli

CORPUS_FILE = Path(__file__).resolve().parent.parent / "tools" / "corpus.jsonl"
LINES = [json.loads(line) for line in CORPUS_FILE.read_text(encoding="utf-8").splitlines()]
# argv -> (exit code, SHA-256 of stdout, stderr)
CORPUS = {argv: tuple(pin) for argv, *pin in LINES}

# `uur bounds --example ex1 --dim n --m m --format f` at n = 7, 8 and 9 for
# every block size m = 1 .. n-1 (below, at and above n/2; odd and even n).
EX1_MATRIX = re.compile(r"bounds --example ex1 --dim ([789]) --m (\d) --format (json|csv)")


def ex1_key(argv: str):
    match = EX1_MATRIX.fullmatch(argv)
    return match and (int(match[1]), int(match[2]), match[3])


EX1 = {ex1_key(argv): argv for argv in CORPUS if ex1_key(argv)}
REST = [argv for argv in CORPUS if not ex1_key(argv)]
REFUSALS = [argv for argv in REST if CORPUS[argv][0] != 0]
SUCCESSES = [argv for argv in REST if CORPUS[argv][0] == 0]
INPUT_COMMANDS = [argv for argv in SUCCESSES if "--input" in argv.split()]
OTHER_COMMANDS = [argv for argv in SUCCESSES if "--input" not in argv.split()]


def test_corpus_is_well_formed(problem_dir):
    argvs = [line[0] for line in LINES]
    assert len(set(argvs)) == len(argvs), [a for a in argvs if argvs.count(a) > 1]
    for line in LINES:
        assert len(line) == 4, line
        argv, code, digest, err = line
        assert " ".join(argv.split()) == argv and code in {0, 1, 2, 3}, line
        assert re.fullmatch(r"[0-9a-f]{64}", digest) and isinstance(err, str), line
    read = {re.search(r"--input (\S+)", argv)[1] for argv in argvs if "--input " in argv}
    assert {path.name for path in problem_dir.iterdir()} <= read


def test_matrix_covers_every_block_size():
    for n in (7, 8, 9):
        for fmt in ("json", "csv"):
            assert sorted(m for (d, m, f) in EX1 if d == n and f == fmt) == list(range(1, n))


@pytest.mark.parametrize("n, m, fmt", sorted(EX1))
def test_ex1_bounds_stdout_is_unchanged(run_line, n, m, fmt):
    assert run_line(EX1[n, m, fmt]) == CORPUS[EX1[n, m, fmt]]


@pytest.mark.parametrize("command", OTHER_COMMANDS)
def test_other_stdout_is_unchanged(run_line, command):
    assert run_line(command) == CORPUS[command]


@pytest.mark.parametrize("command", INPUT_COMMANDS)
def test_input_file_stdout_is_unchanged(run_line, command):
    assert run_line(command) == CORPUS[command]


@pytest.mark.parametrize("command", REFUSALS)
def test_refusal_stderr_is_unchanged(run_line, command):
    assert run_line(command) == CORPUS[command]


def test_check_with_corrupted_split_bound_fails_unchanged(capsys, monkeypatch):
    # Adding 2e-6 to every split bound breaks the chains of five suites; the
    # digest pins the FAIL line and each counterexample line.
    real = bounds.split_bound
    monkeypatch.setattr(bounds, "split_bound",
                        lambda pair, subset: real(pair, subset) + 2e-6)
    assert cli.main("check --seed 3 --trials 10".split()) == 1
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "a8cbb9235cb5b71a60d485c831ddf30d76164eaac6f595a8babc215a126eba6f"
