#!/usr/bin/env python3
"""Each corpus line's stdout digest under another OpenBLAS kernel, next to its pin.

    python3 tools/coretype.py CORETYPE

Run from anywhere; it imports `uur` from this repository's `src`. Every line
of tools/corpus.jsonl runs in one child process whose environment sets
OPENBLAS_CORETYPE=CORETYPE (for example Haswell or Sandybridge), which
numpy's OpenBLAS reads when numpy is imported. The child runs the lines with
tools/reach.py's corpus runner, as tests/test_golden.py does: through
`cli.main` at an 80-column terminal, in a temporary directory holding the
problem files of tools/input_files.json.

The report names the kernel the child's OpenBLAS picked, then prints one row
per corpus line: "same" or "MOVED", the first 16 hex digits of the pinned
and of the child's stdout digest, and the argv (a line whose exit code or
stderr moved says so too). One summary line follows. The exit status is 1
when any line moved, else 0. Two trees whose reports are identical under one
kernel depend on that kernel in the same way.
"""

from __future__ import annotations

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tools" / "corpus.jsonl"


def blas_kernel(symbol: str = "scipy_openblas_get_corename64_") -> str:
    """The OpenBLAS kernel numpy's bundled library picked, or "unknown" (as tests/conftest.py reads it)."""
    from numpy._core import _multiarray_umath
    corename = getattr(ctypes.CDLL(_multiarray_umath.__file__), symbol, None)
    if corename is None:
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def run_lines(corpus: Path) -> None:
    """In the child: print the kernel, then [exit code, stdout digest, stderr] of each corpus line as JSON."""
    sys.path.insert(0, str(ROOT / "src"))
    import reach  # the child runs with tools/ on its path

    print(json.dumps(blas_kernel()), flush=True)
    for _, got in reach.run_lines(corpus):
        print(json.dumps(got), flush=True)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: coretype.py CORETYPE", file=sys.stderr)
        return 2
    child = (f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); import coretype; "
             f"coretype.run_lines(coretype.Path({str(CORPUS)!r}))")
    env = {**os.environ, "OPENBLAS_CORETYPE": argv[0]}
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True)
    if done.returncode:
        sys.stderr.write(done.stderr)
        return done.returncode
    kernel, *results = [json.loads(line) for line in done.stdout.splitlines()]
    pins = [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]
    print(f"OPENBLAS_CORETYPE={argv[0]}: OpenBLAS kernel {kernel}")
    moved = 0
    for (line, code, digest, err), (got_code, got_digest, got_err) in zip(pins, results, strict=True):
        same = (got_code, got_digest, got_err) == (code, digest, err)
        moved += not same
        notes = "".join([f" (exit {got_code}, pinned {code})" if got_code != code else "",
                         " (stderr differs)" if got_err != err else ""])
        print(f"{'same ' if same else 'MOVED'} {digest[:16]} {got_digest[:16]} {line}{notes}")
    print(f"{len(pins) - moved} of {len(pins)} corpus lines match their pins under OPENBLAS_CORETYPE={argv[0]}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
