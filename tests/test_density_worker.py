"""The cross-check's density worker (`epdiff._rest_of`): every way out of
`epdiff.cross_validate` reaps it and writes nothing twice, and the
comparisons and aborts are those of the density flow run in process, bit
for bit.

Each run writes its comparisons to a file as the CLI writes
comparison.csv: a header still in the file's buffer when the worker is
forked, then one line per comparison as it is made. A worker that flushed
what it inherited would write the header twice.
"""
import os
import signal
import threading
import time

import pytest

from densgeo import epdiff as ep, geodesic as ge

from test_lean_epdiff import smooth_state

K, T, DT = 2, 0.1, 0.01  # 10 steps, a comparison at each


def cross_check(path, n=16, out=None):
    """cross_validate on 2-D smooth data, its comparisons written to the
    file path; out, when given, is called with each after it is
    written."""
    state = smooth_state(2, n, K)
    with open(path, "w") as fh:
        fh.write("header\n")

        def write(*comparison):
            fh.write(repr(comparison) + "\n")
            if out is not None:
                out(*comparison)
        ep.cross_validate(state.rho, state.p, K, T, DT, out=write)


def written(path, capfd):
    """The comparisons written to path, after checking that the header and
    each line were written once and nothing went to stdout or stderr."""
    lines = path.read_text().splitlines()
    assert lines[0] == "header"
    assert len(set(lines)) == len(lines)
    assert capfd.readouterr() == ("", "")
    return lines[1:]


def assert_reaped(pids):
    """One worker was forked, and it has been waited for."""
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)


def failing(step, at, message):
    """The step (ops, y, dt) -> (y, reason), failing with message at its
    call number `at`."""
    calls = []

    def wrapped(ops, y, dt):
        calls.append(1)
        y, reason = step(ops, y, dt)
        return y, message if len(calls) == at else reason
    return wrapped


@pytest.fixture
def in_process(tmp_path, monkeypatch):
    """A function running `cross_check` with no os.fork, so that the
    density flow runs in process; returns the comparisons and what it
    raised, if anything."""
    def run(**kw):
        path = tmp_path / "in_process.csv"
        with monkeypatch.context() as patch:
            patch.delattr(os, "fork")
            try:
                cross_check(path, **kw)
            except Exception as exc:
                return path.read_text().splitlines()[1:], exc
        return path.read_text().splitlines()[1:], None
    return run


def test_completed_check(tmp_path, capfd, forks, in_process):
    path = tmp_path / "forked.csv"
    cross_check(path)
    assert_reaped(forks)
    rows = written(path, capfd)
    assert len(rows) == 11
    assert rows == in_process()[0]


def test_worker_ignores_sigint(tmp_path, capfd, forks, in_process):
    """A Ctrl-C reaches the whole process group; the worker ignores it and
    leaves the interrupt to the caller. Sent to the worker alone, it
    changes nothing."""
    def out(t, *rest):
        if t == 0.0:
            os.kill(forks[0], signal.SIGINT)
    path = tmp_path / "forked.csv"
    cross_check(path, out=out)
    assert_reaped(forks)
    assert written(path, capfd) == in_process()[0]


def test_runs_in_process_while_another_thread_runs(tmp_path, capfd, forks,
                                                    in_process):
    """A fork copies only the calling thread, so with another Python
    thread running the density flow stays in process."""
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        cross_check(tmp_path / "threaded.csv")
    finally:
        release.set()
        other.join()
    assert forks == []
    assert written(tmp_path / "threaded.csv", capfd) == in_process()[0]


def test_density_abort(tmp_path, capfd, forks, in_process, monkeypatch):
    """The worker's abort has the message and time of the density flow's
    abort in process, and the comparisons before it are kept. The
    worker counts the steps in its own copy of the patch, so both runs
    fail at the same step."""
    monkeypatch.setattr(ge, "step_rk4", failing(
        ge.step_rk4, 5, "forced density failure"))
    path = tmp_path / "forked.csv"
    with pytest.raises(ge.SolverAbort) as info:
        cross_check(path)
    assert_reaped(forks)
    rows, expected = in_process()
    assert str(info.value) == str(expected) == "t=0.05: forced density failure"
    assert info.value.time == expected.time == 0.05
    assert written(path, capfd) == rows
    assert len(rows) == 5


def test_epdiff_abort(tmp_path, capfd, forks, in_process, monkeypatch):
    """EPDiff's abort is raised once the worker's stream is drained and
    the density flow has none."""
    flow_step = ep._flow_step
    monkeypatch.setattr(ep, "_flow_step", failing(
        flow_step, 5, "forced EPDiff failure"))
    rows, expected = in_process()
    monkeypatch.setattr(ep, "_flow_step", failing(  # a fresh step count
        flow_step, 5, "forced EPDiff failure"))
    path = tmp_path / "forked.csv"
    with pytest.raises(ge.SolverAbort, match="^t=0.05: forced EPDiff failure$"):
        cross_check(path)
    assert_reaped(forks)
    assert str(expected) == "t=0.05: forced EPDiff failure"
    assert written(path, capfd) == rows


def test_out_raises(tmp_path, capfd, forks):
    """An exception from out, such as a failed write, is raised as it is."""
    def out(t, *rest):
        if t > 0.025:
            raise OSError("no space left")
    path = tmp_path / "forked.csv"
    with pytest.raises(OSError, match="no space left"):
        cross_check(path, out=out)
    assert_reaped(forks)
    assert len(written(path, capfd)) == 4


def test_interrupt_with_the_worker_blocked(tmp_path, capfd, forks):
    """A KeyboardInterrupt from out leaves at once, with the worker blocked
    on a full pipe: at 2-D n 64 its 10 snapshots take 320 KB, and the
    pipe holds 64 KB. The worker is killed and reaped."""
    def out(t, *rest):
        time.sleep(0.2)  # the worker fills the pipe
        raise KeyboardInterrupt
    path = tmp_path / "forked.csv"
    with pytest.raises(KeyboardInterrupt):
        cross_check(path, n=64, out=out)
    assert_reaped(forks)
    assert len(written(path, capfd)) == 1


def test_worker_ending_early_is_a_clear_error(tmp_path, capfd, forks,
                                              monkeypatch):
    """A worker that ends without saying how the density flow ended (here
    it writes nothing) is a RuntimeError, not a hang or an EOFError."""
    monkeypatch.setattr(ep, "_stream", lambda density, pipe: None)
    path = tmp_path / "forked.csv"
    with pytest.raises(RuntimeError, match="worker ended without its final"):
        cross_check(path)
    assert_reaped(forks)
    assert len(written(path, capfd)) == 1
