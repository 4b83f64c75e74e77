"""Run a corpus of `uur` commands on this tree and on a git revision; print every difference.

Usage: python tools/compare_outputs.py REV

REV (a commit, branch or tag) is extracted with `git archive` into a
temporary directory. Each line of tools/corpus.txt (blank lines and lines
starting with # are skipped) is one argv, split like a shell line, and
runs as `python -m uur.cli ARGV` once with PYTHONPATH at this tree's src
and once at REV's, each at COLUMNS=80, because argparse wraps help to the
terminal width, and in a fresh working directory that holds only the
problem files of tools/input_files.json (file name -> JSON document), so
`bounds --input pure.json` finds its file. Every (argv, stream) whose
bytes or exit code differ is printed. Exits 1 if anything differs, 0 if
nothing does.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tools" / "corpus.txt"
INPUT_FILES = ROOT / "tools" / "input_files.json"


def read_corpus(path: Path) -> list[str]:
    lines = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def extract(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run(src: Path, line: str, files: dict[str, object]) -> dict[str, object]:
    env = {**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80"}
    with tempfile.TemporaryDirectory() as cwd:
        for name, document in files.items():
            (Path(cwd) / name).write_text(json.dumps(document), encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "uur.cli", *shlex.split(line)],
                              cwd=cwd, env=env, capture_output=True)
    return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def shorten(value: object, limit: int = 300) -> str:
    text = repr(value)
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} chars)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare this tree against")
    args = parser.parse_args(argv)
    corpus = read_corpus(CORPUS)
    files = json.loads(INPUT_FILES.read_text(encoding="utf-8"))
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        extract(args.rev, Path(tmp))
        for line in corpus:
            theirs, ours = run(Path(tmp) / "src", line, files), run(ROOT / "src", line, files)
            streams = [name for name in ours if ours[name] != theirs[name]]
            differing += bool(streams)
            for name in streams:
                print(f"DIFF {line}  [{name}]")
                print(f"  {args.rev}: {shorten(theirs[name])}")
                print(f"  tree: {shorten(ours[name])}")
    print(f"{len(corpus)} commands, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
