"""Shared pytest hooks: print one status line per acceptance criterion;
run the CLI in a child capped in address space."""

import os
import subprocess
import sys

import pytest

# the child caps its own address space before it imports numpy: a
# preexec_fn runs between fork and exec, which is unsafe while the
# engine's threads run in the pytest process
CAPPED_CLI = """
import resource, runpy
resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, resource.getrlimit(resource.RLIMIT_AS)[1]))
runpy.run_module("telulab.cli", run_name="__main__", alter_sys=True)
"""


@pytest.fixture
def capped_cli():
    """``run(argv)``: ``python -m telulab.cli argv`` in a child whose
    address space is capped at 2 GiB, so a request past it fails at once
    under any overcommit setting; returns (exit code, stderr)."""

    def run(argv):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        child = subprocess.run(
            [sys.executable, "-c", CAPPED_CLI, *map(str, argv)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        return child.returncode, child.stderr

    return run


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" in nodeid and getattr(report, "when", "") == "call":
                outcomes[nodeid] = status
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if (
                "test_acceptance" in nodeid
                and getattr(report, "when", "") == "setup"
                and status in ("failed", "error")
            ):
                outcomes.setdefault(nodeid, status)
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for nodeid in sorted(outcomes):
        name = nodeid.split("::")[-1]
        status = "PASS" if outcomes[nodeid] == "passed" else "FAIL"
        terminalreporter.write_line(f"{status}  {name}")
