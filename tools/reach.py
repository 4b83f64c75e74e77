#!/usr/bin/env python3
"""The statements of `src/uur` that no line of tools/corpus.jsonl runs.

    python3 tools/reach.py

Run from anywhere; it imports `uur` from this repository's `src`. A stdlib
line tracer (`sys.settrace`) is installed before `uur` is imported, so
module-level statements count too. Then every corpus line runs in process
through `cli.main`, as tests/test_golden.py runs it: at an 80-column
terminal, in a temporary directory holding the problem files of
tools/input_files.json. The traced run takes about 10 s on a 2-core host.

A statement is an `ast` statement or `except` clause whose own lines (its
header, without the statements it holds) carry bytecode; it ran if the
tracer saw one of those lines. The report lists each statement that never
ran under its file and enclosing function, with its first source line, then
one summary line: the statements that never ran, of all, and how many
corpus lines matched their pinned exit code, stdout digest and stderr (a
line that does not shows that tracing changed what it measures).
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "uur"


def code_lines(path: Path) -> set[int]:
    """Every line number that carries bytecode in the module at path, nested code objects too."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for *_, line in code.co_lines() if line is not None)
        todo.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def statements(path: Path):
    """(function, first line, own lines) of each statement or except clause of the module at path."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.stmt, ast.excepthandler)):
                inner = {line for sub in ast.iter_child_nodes(child)
                         if isinstance(sub, (ast.stmt, ast.excepthandler))
                         for line in range(sub.lineno, sub.end_lineno + 1)}
                first = min([child.lineno] + [d.lineno for d in getattr(child, "decorator_list", ())])
                yield scope, child.lineno, set(range(first, child.end_lineno + 1)) - inner
            name = getattr(child, "name", None) if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
            yield from walk(child, f"{scope}.{name}" if name and scope else name or scope)

    yield from walk(ast.parse(path.read_text(encoding="utf-8")), "")


def trace(files: set[str], hits: set):
    """Install a tracer that records (file, line) of every line event in files."""
    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    sys.settrace(global_)


def run_corpus() -> tuple[int, int]:
    """Run every corpus line through cli.main; (lines that match their pins, lines)."""
    from uur import cli

    corpus = (ROOT / "tools" / "corpus.jsonl").read_text(encoding="utf-8")
    lines = [json.loads(line) for line in corpus.splitlines()]
    files = json.loads((ROOT / "tools" / "input_files.json").read_text(encoding="utf-8"))
    matched = 0
    cwd = os.getcwd()
    columns = os.environ.get("COLUMNS")
    with tempfile.TemporaryDirectory() as directory:
        for name, document in files.items():
            Path(directory, name).write_text(json.dumps(document), encoding="utf-8")
        os.chdir(directory)
        os.environ["COLUMNS"] = "80"  # argparse wraps help and usage to the terminal
        try:
            for argv, code, digest, err in lines:
                out, errors = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(errors):
                    got = cli.main(argv.split())
                matched += (got, hashlib.sha256(out.getvalue().encode()).hexdigest(),
                            errors.getvalue()) == (code, digest, err)
        finally:
            os.chdir(cwd)
            if columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = columns
    return matched, len(lines)


def main() -> int:
    paths = sorted(PACKAGE.glob("*.py"))
    hits: set = set()
    trace({str(path) for path in paths}, hits)
    sys.path.insert(0, str(PACKAGE.parent))
    try:
        matched, lines = run_corpus()
    finally:
        sys.settrace(None)
    total = unrun = 0
    for path in paths:
        executable, source = code_lines(path), path.read_text(encoding="utf-8").splitlines()
        missed = {}
        for scope, first, own in statements(path):
            if not own & executable:
                continue  # a docstring, pass-free header or comment: nothing to run
            total += 1
            if not any((str(path), line) in hits for line in own):
                unrun += 1
                missed.setdefault(scope or "<module>", []).append(first)
        for scope, firsts in missed.items():
            print(f"{path.relative_to(ROOT)}:{scope}")
            for line in firsts:
                print(f"  {line}: {source[line - 1].strip()}")
    print(f"{unrun} of {total} statements in src/uur never ran; "
          f"{matched} of {lines} corpus lines matched their pins")
    return 0


if __name__ == "__main__":
    sys.exit(main())
