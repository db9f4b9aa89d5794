"""A hang budget for every test, from the standard library alone.

Before each test ``faulthandler`` is armed to dump every thread's stack to
stderr and end the process once ``HANG_BUDGET_S`` seconds have passed; it is
disarmed when the test finishes.  A test that hangs then fails the run with
the stack of the loop it hangs in, instead of stalling until the CI job's
own timeout.  The budget is far above the slowest test (about 2 s).
"""

from __future__ import annotations

import faulthandler
import os
import sys

import pytest

HANG_BUDGET_S = 120

_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # Output capture is suspended while plugins are configured, so fd 2 is
    # still the real stderr here.  During a test it is a capture file, whose
    # content is lost when faulthandler ends the process.
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def hang_budget(pytestconfig):
    faulthandler.dump_traceback_later(
        HANG_BUDGET_S, exit=True, file=pytestconfig.stash[_STDERR]
    )
    yield
    faulthandler.cancel_dump_traceback_later()
