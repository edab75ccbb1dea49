"""Shared fixtures and the acceptance-summary report hook."""

from __future__ import annotations

import os

import pytest

from tfshell.atomic_data import load_bundled

# Filled by test_acceptance via record_criterion; printed after the run so
# the one-line-per-criterion summary survives pytest's output capture.
ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


@pytest.fixture(scope="session")
def bundled():
    return load_bundled()


@pytest.fixture(autouse=True)
def no_unreaped_child_processes():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"test left a child process behind (waitpid: pid {pid}, status {status})")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for label, ok, detail in ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"{label}: {'PASS' if ok else 'FAIL'} - {detail}")
