"""Pass/fail reports for operator-identity sweeps, plus chunked parallel runs."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence


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


def chunked(items: Sequence, nchunks: int) -> list[list]:
    """Split items into at most nchunks contiguous runs of near-equal size."""
    n = len(items)
    nchunks = max(1, min(nchunks, n))
    step, extra = divmod(n, nchunks)
    out, pos = [], 0
    for i in range(nchunks):
        size = step + (1 if i < extra else 0)
        out.append(list(items[pos:pos + size]))
        pos += size
    return out


def run_chunked(worker: Callable, items: Sequence, jobs: int) -> list:
    """Apply worker to chunks of items, preserving chunk order.

    With jobs > 1 the chunks run in a process pool; worker must be a module
    level function (or a partial of one) so it pickles.  Results come back in
    submission order either way, keeping sweep reports deterministic.
    """
    chunks = chunked(items, max(1, jobs) * 4 if jobs > 1 else 1)
    if jobs <= 1 or len(chunks) <= 1:
        return [worker(c) for c in chunks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, chunks))


def merge_counts(results: Iterable[tuple[int, list]]) -> tuple[int, list]:
    """Combine (checked_count, failures) pairs from run_chunked workers."""
    total, failures = 0, []
    for count, fails in results:
        total += count
        failures.extend(fails)
    return total, failures
