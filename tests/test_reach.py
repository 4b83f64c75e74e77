"""The statement analysis and line tracer of tools/reach.py, on a small module: the corpus is not run here."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "reach", Path(__file__).resolve().parent.parent / "tools" / "reach.py")
reach = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(reach)

SOURCE = '''"""Doc."""

import math


def f(x):
    """Doc."""
    try:
        y = math.sqrt(x)
    except ValueError:
        return None
    if y > 1:
        return (y +
                1)
    return y
'''


def test_a_statement_is_its_own_lines_that_carry_bytecode(tmp_path):
    # A compound statement owns its header, not the statements it holds; a
    # function's docstring compiles to no line, so it is no statement.
    path = tmp_path / "mod.py"
    path.write_text(SOURCE, encoding="utf-8")
    executable = reach.code_lines(path)
    found = [(scope, first, sorted(own)) for scope, first, own in reach.statements(path) if own & executable]
    assert found == [("", 1, [1]), ("", 3, [3]), ("", 6, [6]), ("f", 8, [8]), ("f", 9, [9]), ("f", 10, [10]),
                     ("f", 11, [11]), ("f", 12, [12]), ("f", 13, [13, 14]), ("f", 15, [15])]


def test_the_tracer_records_each_line_a_call_runs(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(SOURCE, encoding="utf-8")
    spec = importlib.util.spec_from_file_location("mod", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    hits, previous = set(), sys.gettrace()
    reach.trace({str(path)}, hits)
    try:
        module.f(4.0)
        module.f(0.25)
    finally:
        sys.settrace(previous)
    assert sorted(line for _, line in hits) == [8, 9, 12, 13, 14, 15]  # never the except clause
    assert {name for name, _ in hits} == {str(path)}
