import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

TEST_TIME_LIMIT_S = 120  # generous: the slowest test takes a few seconds


@pytest.fixture(autouse=True)
def _time_limit():
    """Fail a test that runs past TEST_TIME_LIMIT_S instead of hanging the suite.

    Uses SIGALRM, so it does nothing where that signal does not exist.
    """
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran past its {TEST_TIME_LIMIT_S} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    reports = []
    for key in ("passed", "failed", "error"):
        reports.extend(r for r in terminalreporter.stats.get(key, [])
                       if getattr(r, "when", None) == "call")
    acceptance = sorted(
        (r for r in reports if "test_acceptance.py::" in r.nodeid),
        key=lambda r: r.nodeid,
    )
    if not acceptance:
        return
    terminalreporter.section("acceptance criteria")
    for r in acceptance:
        status = "PASS" if r.passed else "FAIL"
        terminalreporter.write_line(f"{status} {r.nodeid.split('::')[-1]}")
