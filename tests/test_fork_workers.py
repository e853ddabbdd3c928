"""The --jobs workers are forked children of run_chunked: a worker's
exception or death comes back to the parent as an exception, a failure in
the parent kills the children, and no child outlives the call, nor flushes
what the parent had buffered."""

import os
import signal
import subprocess
import sys
import time

import pytest

from capelli import report

ITEMS = list(range(10))  # with 2 processes the child runs the odd items


@pytest.fixture(autouse=True)
def two_processes_and_a_deadline(monkeypatch):
    """run_chunked forks one child; a call still blocked after 30 s raises
    TimeoutError.  Afterwards no child of this process is left."""
    monkeypatch.setattr(report, "_available_cpus", lambda: 2)

    def expire(signum, frame):
        raise TimeoutError("run_chunked still blocked after 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_on(target, exc):
    def worker(item):
        if item == target:
            raise exc
        return item
    return worker


def test_results_come_back_in_item_order():
    # a lambda: the child inherits the worker, nothing is pickled to it
    assert report.run_chunked(lambda x: x * x, ITEMS, 2) == [
        x * x for x in ITEMS]


def test_an_exception_in_a_child_is_raised_in_the_parent():
    with pytest.raises(ValueError, match=r"^bad item 3$"):
        report.run_chunked(fail_on(3, ValueError("bad item 3")), ITEMS, 2)


def test_an_exception_that_does_not_pickle_comes_back_as_its_repr():
    class Local(Exception):
        pass

    with pytest.raises(RuntimeError, match=r"^Local\('odd'\)$"):
        report.run_chunked(fail_on(5, Local("odd")), ITEMS, 2)


def test_a_child_that_dies_raises_with_its_exit_status():
    def die_on_3(item):
        if item == 3:
            os._exit(7)
        return item

    with pytest.raises(RuntimeError, match="exit status 7"):
        report.run_chunked(die_on_3, ITEMS, 2)


@pytest.mark.parametrize("exc", [ValueError("bad item 0"), KeyboardInterrupt()])
def test_an_exception_in_the_parent_kills_the_child(exc):
    def worker(item):
        if item == 0:
            raise exc
        time.sleep(60)  # the child's share, cut short by SIGKILL

    start = time.monotonic()
    with pytest.raises(type(exc)):
        report.run_chunked(worker, ITEMS, 2)
    assert time.monotonic() - start < 20


def test_a_child_flushes_none_of_the_parents_buffered_output():
    # stdout is a pipe here, so the line written first sits in the buffer
    # that the child inherits
    script = ("import sys\n"
              "from capelli import report\n"
              "report._available_cpus = lambda: 2\n"
              "sys.stdout.write('written once\\n')\n"
              "assert report.run_chunked(str, range(4), 2) == list('0123')\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "written once\n"


def test_the_cli_prints_one_document_at_any_jobs():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    argv = [sys.executable, "-m", "capelli.cli", "verify", "--type", "I",
            "--N", "3", "--n", "3", "--variant", "DX", "--dmax", "3"]
    outs = {}
    for jobs in ("1", "2"):
        proc = subprocess.run(argv + ["--jobs", jobs], env=env,
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs[jobs] = proc.stdout
    assert outs["2"] == outs["1"]
    assert outs["1"].count(b'"reports"') == 1


def test_importing_the_cli_loads_no_process_pool():
    script = ("import sys\n"
              "import capelli, capelli.cli\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] in "
              "('multiprocessing', 'concurrent')))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
