"""A sweep cuts its graded-lex grid into _BATCH-monomial batches once, and the
pool's unit of work is one batch: each _sweep_chunk call checks the next
batch, in grid order, however many jobs run, and the report does not depend
on how the batches are grouped into pool tasks."""

import json

import pytest

from capelli import algebra, report
from capelli.algebra import AlgebraKind, check_heisenberg, monomials_upto
from capelli.contraction import verify_contraction
from capelli.determinants import capelli_shift, verify_capelli

II2 = AlgebraKind.type_ii(2)
II4 = AlgebraKind.type_ii(4)


@pytest.fixture
def pools(monkeypatch):
    """[max_workers, chunksize] of every pool built; the pool maps in process."""
    built = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.record = [max_workers]
            built.append(self.record)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            self.record.append(chunksize)
            return map(fn, items)

    monkeypatch.setattr(report, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(report, "_available_cpus", lambda: 3)
    return built


@pytest.fixture
def batches_checked(monkeypatch):
    """The monomials handed to each _sweep_chunk call, in call order."""
    seen = []
    real = algebra._sweep_chunk

    def recording(kind, check, label_key, monos):
        seen.append(list(monos))
        return real(kind, check, label_key, monos)

    monkeypatch.setattr(algebra, "_sweep_chunk", recording)
    return seen


# jobs -> the pools built for the 9 batches of II(4) at dmax 3: at most
# 4 * jobs tasks, so jobs 2 groups the batches 2, 2, 2, 2, 1
POOLS_FOR_9_BATCHES = {1: [], 2: [[2, 2]], 3: [[3, 1]]}


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_each_check_call_gets_the_next_batch(pools, batches_checked, jobs):
    grid = list(monomials_upto(II4, 3))
    assert len(grid) == 286
    step = algebra._BATCH
    assert check_heisenberg(II4, 3, jobs).passed
    assert batches_checked == [grid[i:i + step]
                               for i in range(0, len(grid), step)]
    assert len(batches_checked) == 9
    assert pools == POOLS_FOR_9_BATCHES[jobs]


def test_a_one_batch_grid_starts_no_pool(pools, batches_checked):
    grid = list(monomials_upto(II2, 2))
    assert len(grid) <= algebra._BATCH
    assert check_heisenberg(II2, 2, jobs=4).passed
    assert batches_checked == [grid]
    assert pools == []


def mutated_capelli(jobs):
    shifts = [capelli_shift(II4, "DX", 4, i) for i in range(1, 5)]
    shifts[2] -= 1
    return verify_capelli(II4, 4, "DX", 3, jobs, tuple(shifts))


@pytest.mark.parametrize("run, passes", [
    (mutated_capelli, False),
    (lambda jobs: verify_contraction(II4, 3, jobs=jobs), True)],
    ids=["capelli-DX-mutated", "contraction"])
def test_reports_are_byte_identical_across_jobs(run, passes):
    texts = {jobs: json.dumps(run(jobs).to_json()) for jobs in (1, 2, 3)}
    assert texts[2] == texts[1]
    assert texts[3] == texts[1]
    serial = json.loads(texts[1])
    assert serial["checked_count"] > 0
    assert (not serial["failures"]) == passes
