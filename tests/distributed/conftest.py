"""Distributed-suite safety net: hard per-test deadline + leak check.

The mp backend forks real worker processes, and its failure modes are
exactly the ones that hang test suites: a collective waiting on a peer
that will never answer, a worker that outlived its supervisor.  Every
test in this package therefore runs under a hard ``SIGALRM`` deadline
(a hung test fails loudly instead of stalling CI), and a test that
leaves a child process alive or a shared-memory segment of this
process's sessions in ``/dev/shm`` **fails** — after the strays are
removed, so one test's leak cannot deadlock or pollute the next.
"""

import signal

import pytest

from tests.conftest import reap_distributed_leaks

#: Generous relative to the slowest test here (a few seconds), tight
#: relative to CI patience.
HARD_TIMEOUT_S = 90


@pytest.fixture(autouse=True)
def _hard_deadline_and_leak_check(request):
    def on_alarm(signum, frame):
        raise TimeoutError(
            f"{request.node.nodeid} exceeded the hard {HARD_TIMEOUT_S}s "
            "distributed-test deadline (hung collective / stuck worker?)"
        )

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(HARD_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
        # run_mp and MpEchoGroup.close clean up after themselves on
        # every path; whatever is left is a bug in the test or in them.
        leaks = reap_distributed_leaks()
    assert not leaks, f"{request.node.nodeid} left behind: {leaks}"
