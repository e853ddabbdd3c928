"""A sweep cuts its graded-lex grid into _BATCH-monomial batches once, and a
batch is the unit of work of the --jobs processes: each _sweep_chunk call
checks one batch, the parent checks every n-th batch from the first, and
the report does not depend on how the batches are shared out."""

import json
import os

import pytest

from capelli import algebra, report
from capelli.algebra import AlgebraKind, check_heisenberg, monomials_upto
from capelli.contraction import verify_contraction
from capelli.determinants import capelli_shift, verify_capelli

II2 = AlgebraKind.type_ii(2)
II4 = AlgebraKind.type_ii(4)


@pytest.fixture
def forks(monkeypatch):
    """One entry per child that run_chunked forks, with 3 CPUs available;
    the forks are real."""
    forked = []
    real_fork = os.fork

    def counting_fork():
        forked.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(report, "_available_cpus", lambda: 3)
    return forked


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


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_each_check_call_gets_the_next_batch(forks, batches_checked, jobs):
    grid = list(monomials_upto(II4, 3))
    assert len(grid) == 286
    step = algebra._BATCH
    batches = [grid[i:i + step] for i in range(0, len(grid), step)]
    assert len(batches) == 9
    serial = check_heisenberg(II4, 3, 1)
    assert serial.passed and serial.checked_count > 0
    assert batches_checked == batches
    assert forks == []
    batches_checked.clear()
    assert check_heisenberg(II4, 3, jobs).to_json() == serial.to_json()
    # the children's calls happen in their own processes
    assert batches_checked == batches[::jobs]
    assert len(forks) == jobs - 1


def test_a_one_batch_grid_starts_no_pool(forks, batches_checked):
    grid = list(monomials_upto(II2, 2))
    assert len(grid) <= algebra._BATCH
    assert check_heisenberg(II2, 2, jobs=4).passed
    assert batches_checked == [grid]
    assert forks == []


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
