import os
import sys

import pytest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance criterion PASS/FAIL lines after the run."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "REPORT_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def forked(monkeypatch):
    """enumeration.split_sum forks, whatever the host's CPU count."""
    if not hasattr(os, "fork"):
        pytest.skip("os.fork is not available")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def unforked(monkeypatch):
    """enumeration.split_sum sees one usable CPU; a fork would raise."""

    def no_fork():
        raise AssertionError("split_sum forked with one usable CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
