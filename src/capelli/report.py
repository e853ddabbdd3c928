"""Pass/fail reports for operator-identity sweeps, and the pool that runs a
sweep's monomial batches, grouped into at most 4 * jobs tasks."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import ceil
from typing import Callable, Sequence


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


def run_chunked(worker: Callable, items: Sequence, jobs: int) -> list:
    """Apply worker to each item, results in item order.

    With jobs > 1 and more than one item, the items run in a process pool,
    grouped into at most 4 * jobs contiguous tasks; worker must be a module
    level function (or a partial of one) so it pickles.  Results come back
    in item order either way, keeping sweep reports deterministic.  The pool
    has at most one worker per item and per CPU available to this process,
    however large jobs is: a forking pool starts every worker at its first
    task.
    """
    if jobs <= 1 or len(items) <= 1:
        return [worker(item) for item in items]
    workers = min(jobs, len(items), _available_cpus())
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, items,
                             chunksize=ceil(len(items) / (4 * jobs))))
