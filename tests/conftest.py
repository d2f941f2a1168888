"""Fixtures shared by the test modules: every test must reap the child
processes it starts, and `forks` records the ones os.fork starts."""
import os

import pytest


@pytest.fixture(autouse=True)
def no_unreaped_child():
    """Fails the test if it leaves a child process unreaped, still running
    or ended and not waited for."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    if pid == 0:
        pytest.fail("the test left a child process running")
    pytest.fail(f"the test left child {pid} unreaped (wait status {status})")


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes os.fork starts during the test, in the
    order they start."""
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", recorded)
    return pids
