"""The package root names nothing but its version: each function and class is `uur.<module>.<name>`.

The README's library example is run here, so a rename cannot leave it stale.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_import_uur_exposes_only_the_version():
    # A fresh interpreter: in this one, imported submodules are attributes of the package.
    probe = ("import json, uur; print(json.dumps([uur.__file__, uur.__version__, "
             "sorted(n for n in vars(uur) if not n.startswith('_'))]))")
    out = subprocess.run([sys.executable, "-c", probe], cwd=SRC, check=True,
                         capture_output=True, text=True).stdout
    path, version, public = json.loads(out)
    assert Path(path).resolve().parent == SRC / "uur"
    assert (version, public) == ("0.1.0", [])


def test_readme_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})  # the example asserts its own report
