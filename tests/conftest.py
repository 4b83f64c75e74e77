"""Shared fixtures plus a one-line pass/fail report for the acceptance tests."""

from __future__ import annotations

import re

import numpy as np
import pytest

from uur import errors, sampling

from oracles import random_unitary

_ACCEPTANCE: dict[str, str] = {}


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


@pytest.fixture
def rng():
    return sampling.trial_generator(seed=1234, trial=0)


@pytest.fixture
def pair_case():
    """A generic unitary pair and state in dimension 4, fixed seed."""
    gen = sampling.trial_generator(seed=99, trial=0)
    A = random_unitary(gen, 4)
    B = random_unitary(gen, 4)
    psi = sampling.random_state(gen, 4)
    return A, B, psi


def random_pair(seed: int, trial: int, dim: int):
    gen = sampling.trial_generator(seed=seed, trial=trial)
    A = random_unitary(gen, dim)
    B = random_unitary(gen, dim)
    psi = sampling.random_state(gen, dim)
    return A, B, psi


def refused(message: str):
    """pytest.raises for a UurError whose message is exactly `message`."""
    return pytest.raises(errors.UurError, match=rf"\A{re.escape(message)}\Z")


def assert_close(a, b, tol=1e-10, label=""):
    __tracebackhide__ = True
    if abs(a - b) > tol:
        pytest.fail(f"{label or 'values'} differ by {abs(a - b):.3e}: {a!r} vs {b!r}")


def max_abs(M) -> float:
    return float(np.max(np.abs(M)))
