"""Shared fixtures, a header naming the arithmetic, and a one-line pass/fail
report for the acceptance tests."""

from __future__ import annotations

import ctypes
import hashlib
import json
import platform
import re
from pathlib import Path

import numpy as np
import pytest

from uur import cli, errors, moments, sampling

from oracles import random_state, random_unitary

_ACCEPTANCE: dict[str, str] = {}


def blas_kernel(symbol: str = "scipy_openblas_get_corename64_") -> str:
    """The OpenBLAS kernel numpy's bundled library picked for this CPU, or "unknown".

    dlsym on numpy's extension module also searches the libraries it links.
    """
    from numpy._core import _multiarray_umath
    corename = getattr(ctypes.CDLL(_multiarray_umath.__file__), symbol, None)
    if corename is None:
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def libc() -> str:
    """The C library and its version, e.g. "glibc 2.36", or "libc unknown"."""
    name, version = platform.libc_ver()
    return f"{name} {version}" if name else "libc unknown"


def pytest_report_header(config):
    # The corpus digests hold for one arithmetic: other BLAS kernels round
    # vdot, matrix products, QR and eigh differently, and a Python float's
    # ** is the C library's pow, which another libm may round differently.
    return f"numpy {np.__version__}, OpenBLAS kernel {blas_kernel()}, {libc()}"


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    if item.module.__name__ == "test_acceptance":
        _ACCEPTANCE[item.name] = report.outcome.upper()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE):
        outcome = _ACCEPTANCE[name]
        marker = "PASS" if outcome == "PASSED" else "FAIL"
        terminalreporter.write_line(f"{marker}  {name}")


@pytest.fixture(scope="session")
def problem_dir(tmp_path_factory):
    """The problem files of tools/input_files.json, under their names: a
    report's "source" prints the path as given."""
    files = Path(__file__).resolve().parent.parent / "tools" / "input_files.json"
    directory = tmp_path_factory.mktemp("problems")
    for name, document in json.loads(files.read_text(encoding="utf-8")).items():
        (directory / name).write_text(json.dumps(document), encoding="utf-8")
    return directory


@pytest.fixture
def run_line(problem_dir, monkeypatch, capsys):
    """Runs an argv of tools/corpus.jsonl as the corpus does: in problem_dir
    at an 80-column terminal. Returns (exit code, SHA-256 of stdout, stderr)."""
    monkeypatch.chdir(problem_dir)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help and usage to the terminal

    def run(argv: str) -> tuple[int, str, str]:
        code = cli.main(argv.split())
        out = capsys.readouterr()
        return code, hashlib.sha256(out.out.encode()).hexdigest(), out.err

    return run


@pytest.fixture
def rng():
    return sampling.trial_generator(seed=1234, trial=0)


@pytest.fixture
def pair_case():
    """A generic unitary pair and state in dimension 4, fixed seed."""
    gen = sampling.trial_generator(seed=99, trial=0)
    A = random_unitary(gen, 4)
    B = random_unitary(gen, 4)
    psi = random_state(gen, 4)
    return A, B, psi


@pytest.fixture
def squarings(monkeypatch):
    """The pairs whose squares are formed, one entry per formation: numpy's
    under "squares", C pow's under "pow_terms"."""
    formed = {"squares": [], "pow_terms": []}
    for name, pairs in formed.items():
        def counting(pair, name=name, pairs=pairs, real=vars(moments.ModulusPair)[name].fget):
            if name not in vars(pair):  # each property keeps its value in the pair's dict under its name
                pairs.append(pair)
            return real(pair)

        monkeypatch.setattr(moments.ModulusPair, name, property(counting))
    return formed


def random_pair(seed: int, trial: int, dim: int):
    gen = sampling.trial_generator(seed=seed, trial=trial)
    A = random_unitary(gen, dim)
    B = random_unitary(gen, dim)
    psi = random_state(gen, dim)
    return A, B, psi


def refused(message: str):
    """pytest.raises for a UurError whose message is exactly `message`."""
    return pytest.raises(errors.UurError, match=rf"\A{re.escape(message)}\Z")


def assert_same_bits(got, want):
    """got == want entry by entry, with the sign bit of every real and imaginary part equal
    (== alone takes -0.0 for 0.0)."""
    __tracebackhide__ = True
    got, want = np.asarray(got), np.asarray(want)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
    assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


def assert_close(a, b, tol=1e-10, label=""):
    __tracebackhide__ = True
    if abs(a - b) > tol:
        pytest.fail(f"{label or 'values'} differ by {abs(a - b):.3e}: {a!r} vs {b!r}")


def max_abs(M) -> float:
    return float(np.max(np.abs(M)))
