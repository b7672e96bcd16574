"""Shared pytest plumbing for the acceptance suite.

Tests named ``test_criterion_NN_*`` get a one-line PASS/FAIL verdict in a
terminal section after the run, so the verdicts survive output capture.
Success notes are supplied by the tests through the ``criterion`` fixture;
failures are read off the test reports directly.

BLAS runs on one thread, as in the benchmark, so that a box test takes
the same time whether or not another process keeps a second core busy.
A thread count set by the caller stands.
"""

import os
import sys

import pytest

# BLAS reads its thread count once, when numpy is first imported
if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before the BLAS thread pin")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

NOTES = pytest.StashKey()


def pytest_configure(config):
    config.stash[NOTES] = {}


@pytest.fixture
def criterion(request):
    """Record a short success note for the enclosing acceptance test."""

    def note(text):
        request.config.stash[NOTES][request.node.nodeid] = text

    return note


def _criterion_number(nodeid):
    tail = nodeid.split("::test_criterion_", 1)[1]
    return int(tail.split("_", 1)[0])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    verdicts = {}
    for key in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(key, []):
            nodeid = getattr(rep, "nodeid", "")
            if "::test_criterion_" not in nodeid:
                continue
            if key != "error" and getattr(rep, "when", "call") != "call":
                continue
            num = _criterion_number(nodeid)
            ok = verdicts.get(num, (True, ""))[0] and key == "passed"
            note = config.stash[NOTES].get(nodeid, "") if ok else ""
            verdicts[num] = (ok, note)
    if not verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(verdicts):
        ok, note = verdicts[num]
        line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}"
        if note:
            line += f" - {note}"
        terminalreporter.line(line)
