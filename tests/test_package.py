"""The package root names nothing but its version: each function and class is `uur.<module>.<name>`.

The README's library example is run here, so a rename cannot leave it stale.
"""

from __future__ import annotations

import ast
import json
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from uur import errors, moments

from conftest import blas_kernel, libc, pytest_report_header

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


def test_errors_defines_one_refusal_type_and_the_search_cap():
    # Nothing tells refusals apart by type except the CLI, which exits 3 on
    # SearchSpaceTooLarge and 2 on every other ValueError.
    defined = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and obj.__module__ == errors.__name__}
    assert defined == {"UurError", "SearchSpaceTooLarge"}
    assert errors.UurError.__bases__ == (ValueError,)
    assert errors.SearchSpaceTooLarge.__bases__ == (errors.UurError,)


def test_moments_has_one_delta_vector_form():
    # delta_stack forms every delta vector of the program; the per-item forms
    # it replaced are tests/oracles.py's bit-for-bit references for it.
    assert not [name for name in ("delta_vector", "modulus_pair", "correlation", "variance_pure")
                if hasattr(moments, name)]
    assert not hasattr(moments.ModulusPair, "from_deltas")


def test_no_module_raises_a_plain_value_error():
    # Every refusal is a UurError (errors.py); the tests of each module pin its messages.
    raised = [(path.name, node.lineno) for path in sorted((SRC / "uur").glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
              and getattr(node.exc.func, "id", None) == "ValueError"]
    assert raised == []


# numpy functions whose ndarray method, attribute or broadcast product computes the same bits
# (a.sum(), x.dot(y), z.real, M.trace(axis1=..., axis2=...), w.clip(lo, None), linalg.vector_norm,
# a[:, None] * b[None, :], ...): on vectors of 2-16 entries the wrapper costs more than the arithmetic.
WRAPPERS = {"sum", "min", "max", "dot", "real", "trace", "linalg.norm", "kron", "clip", "roll",
            "outer", "einsum", "diagonal"}


def _dotted(node) -> str:
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return getattr(node, "id", "")


def test_no_module_calls_a_numpy_wrapper_of_an_array_method():
    calls = [(path.name, node.lineno, name) for path in sorted((SRC / "uur").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and (name := _dotted(node.func)).startswith("np.")
             and name.removeprefix("np.") in WRAPPERS]
    assert calls == []
    imports = [node.module for path in sorted((SRC / "uur").glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy")]
    assert imports == []  # every numpy name is spelt np.<name>, which the walk above sees


def test_no_module_calls_the_builtin_sum():
    # From Python 3.12 the builtin sum of floats is compensated (Neumaier), so
    # it no longer adds left to right; the program adds with += where order matters.
    calls = [(path.name, node.lineno) for path in sorted((SRC / "uur").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"]
    assert calls == []


def test_report_header_names_numpy_and_the_blas_kernel(pytestconfig, monkeypatch):
    # ... and the C library, whose pow a Python float's ** is.
    header = pytest_report_header(pytestconfig)
    assert header == f"numpy {np.__version__}, OpenBLAS kernel {blas_kernel()}, {libc()}"
    assert blas_kernel("no_such_symbol") == "unknown"
    monkeypatch.setattr(platform, "libc_ver", lambda: ("glibc", "2.36"))
    assert libc() == "glibc 2.36"
    monkeypatch.setattr(platform, "libc_ver", lambda: ("", ""))  # e.g. musl or macOS
    assert libc() == "libc unknown"


def test_readme_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})  # the example asserts its own report


def test_benchmark_entry_points_resolve():
    # perfbench/probe.py parses a first command and builds a RunConfig from it;
    # perfbench/worker.py imports these seven modules, wraps bounds'
    # functions by name and runs cli.main in-process. A rename or a merged
    # module breaks the benchmark; here it fails in a fresh interpreter first.
    probe = "\n".join([
        "import uur",
        "from uur import bounds, cli, linalg, moments, sampling, scenarios, selfcheck",
        "args = cli.build_parser().parse_args(['bounds', '--example', 'ex5'])",
        "cli.RunConfig(**vars(args))",
        "assert callable(bounds.bound_report) and callable(bounds.best_split_bound)",
        "raise SystemExit(cli.main(['sweep', '--example', 'ex5', '--steps', '2']))",
    ])
    proc = subprocess.run([sys.executable, "-c", probe], cwd=SRC, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("theta,variance_product,")
