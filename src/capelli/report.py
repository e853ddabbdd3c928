"""Pass/fail reports for operator-identity sweeps, and the forked workers
that run a sweep's monomial batches: with n processes, process w (the
parent being 0) checks every n-th batch from batch w."""

from __future__ import annotations

import os
import pickle
import signal
from dataclasses import dataclass, field
from typing import Callable, NoReturn, Sequence


@dataclass
class Report:
    """Outcome of sweeping one operator identity over a monomial grid.

    ``params`` holds the sweep parameters (n, variant, dmax, ...) and is
    flattened into the JSON document.  ``failures`` entries are dicts of
    serialized polynomials, e.g. {"monomial": ..., "lhs": ..., "rhs": ...}.
    """

    identity: str
    kind: str
    params: dict
    checked_count: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        out: dict = {"identity": self.identity, "kind": self.kind}
        out.update(self.params)
        out["checked_count"] = self.checked_count
        out["failures"] = self.failures
        return out


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _run_share(worker: Callable, share: Sequence, fd: int) -> NoReturn:
    """In a forked child: pickle (True, results) or (False, exception) to
    the pipe fd, then leave at once, running no atexit handler and flushing
    none of the stdio buffers inherited from the parent."""
    code = 1
    try:
        try:
            payload = pickle.dumps((True, [worker(item) for item in share]))
        except Exception as exc:
            try:
                payload = pickle.dumps((False, exc))
                pickle.loads(payload)
            except Exception:
                payload = pickle.dumps((False, RuntimeError(repr(exc))))
        with open(fd, "wb", closefd=False) as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def run_chunked(worker: Callable, items: Sequence, jobs: int) -> list:
    """Apply worker to each item, results in item order.

    The items run in n = min(jobs, len(items), CPUs available) processes:
    the parent forks n - 1 children and process w (the parent being 0)
    applies worker to items[w::n], which spreads the costly high-degree
    tail of a graded grid evenly.  The children inherit the items and the
    per-process caches and pipe back only their pickled results.  With
    n <= 1, or without os.fork, the items run in process.

    A worker's exception is raised again here (as a RuntimeError holding
    its repr if it does not pickle), and a child that dies raises
    RuntimeError with its exit status.  If the parent raises, it kills the
    children.  Every child is reaped before this returns or raises.
    """
    workers = min(jobs, len(items), _available_cpus())
    if workers <= 1 or not hasattr(os, "fork"):
        return [worker(item) for item in items]
    pids, fds, payloads = [], [], None
    try:
        for w in range(1, workers):
            fds.extend(os.pipe())
            pid = os.fork()
            if pid == 0:
                _run_share(worker, items[w::workers], fds[-1])
            pids.append(pid)
            os.close(fds.pop())  # the write end, which the child now holds
        mine = [worker(item) for item in items[::workers]]
        payloads = [open(fd, "rb", closefd=False).read() for fd in fds]
    finally:
        for fd in fds:
            os.close(fd)
        if payloads is None:  # the parent raised
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    results = [None] * len(items)
    results[::workers] = mine
    for w, (payload, status) in enumerate(zip(payloads, statuses), 1):
        if not payload:
            raise RuntimeError(
                f"worker process {w} of {workers} died with exit status "
                f"{os.waitstatus_to_exitcode(status)}")
        ok, value = pickle.loads(payload)
        if not ok:
            raise value
        results[w::workers] = value
    return results
