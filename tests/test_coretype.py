"""tools/coretype.py on a stand-in corpus: its child process, its report and its exit status."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "coretype", Path(__file__).resolve().parent.parent / "tools" / "coretype.py")
coretype = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(coretype)

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"  # SHA-256 of no stdout


def test_each_line_is_reported_beside_its_pin_and_a_moved_line_exits_1(tmp_path, monkeypatch, capsys):
    # Refusals print no stdout whatever the kernel, so the stand-in lines hold under any OPENBLAS_CORETYPE;
    # the last pins a wrong digest and a wrong stderr, and moves.
    lines = [["sweep --example ex1 --steps 0", 2, EMPTY, "error: steps must be >= 1, got 0\n"],
             ["check --trials 0", 2, EMPTY, "error: trials must be >= 1, got 0\n"],
             ["check --trials 0", 2, "0" * 64, "error: trials must be >= 2\n"]]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    monkeypatch.setattr(coretype, "CORPUS", corpus)
    assert coretype.main(["Prescott"]) == 1
    report = capsys.readouterr().out.splitlines()
    assert report[0].startswith("OPENBLAS_CORETYPE=Prescott: OpenBLAS kernel ")
    assert report[1:] == [
        f"same  {EMPTY[:16]} {EMPTY[:16]} sweep --example ex1 --steps 0",
        f"same  {EMPTY[:16]} {EMPTY[:16]} check --trials 0",
        f"MOVED 0000000000000000 {EMPTY[:16]} check --trials 0 (stderr differs)",
        "2 of 3 corpus lines match their pins under OPENBLAS_CORETYPE=Prescott"]
    corpus.write_text("".join(json.dumps(line) + "\n" for line in lines[:2]), encoding="utf-8")
    assert coretype.main(["Prescott"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "2 of 2 corpus lines match their pins under OPENBLAS_CORETYPE=Prescott")


def test_without_a_coretype_it_prints_its_usage_and_starts_no_child(monkeypatch, capsys):
    monkeypatch.setattr(coretype.subprocess, "run", lambda *args, **kwargs: sys.exit("no child expected"))
    assert coretype.main([]) == 2
    assert capsys.readouterr().err == "usage: coretype.py CORETYPE\n"
