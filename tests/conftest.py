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
    """enumeration.fork_parts forks, whatever the host's CPU count.

    fork_parts splits enumerate_fields, the scalar-oracle sweep of
    cli._audit (verify check 5) and the tuple sweep of verify check 6.
    """
    if not hasattr(os, "fork"):
        pytest.skip("os.fork is not available")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def unforked(monkeypatch):
    """enumeration.fork_parts, under enumerate_fields and verify checks 5
    and 6, sees one usable CPU; a fork would raise."""

    def no_fork():
        raise AssertionError("fork_parts forked with one usable CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
