import os

import pytest


def pytest_runtest_logreport(report):
    # One visible pass/fail line per acceptance criterion.
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        verdict = "PASS" if report.passed else "FAIL"
        print(f"\nACCEPTANCE {name}: {verdict}", flush=True)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test after which this process still has a child, running or
    unreaped: the package starts no process, and every subprocess a test
    starts is waited for before the test ends."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process outlived the test (waitpid gave pid {pid}, status {status})")
