"""The package's public namespace: `from uur import *` exports what `uur` imports."""

from __future__ import annotations

import ast
from pathlib import Path

import uur


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse(Path(uur.__file__).read_text())
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names}
    assert set(uur.__all__) == imported | {"__version__"}
    assert len(uur.__all__) == len(set(uur.__all__))
    assert [name for name in uur.__all__ if not hasattr(uur, name)] == []
