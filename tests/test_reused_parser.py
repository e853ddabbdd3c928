"""main builds its parser once per process and reuses it: $CAPELLI_JOBS is
still read on every call, and a usage error still names its own
subcommand, whatever ran before."""

import os

import pytest

import capelli.cli as cli
from capelli import report
from capelli.cli import JOBS_ENV, main

# II(4) up to degree 4: 1,001 monomials, 4 batches, so --jobs 3 forks two
SWEEP = ["verify", "--type", "II", "--N", "4", "--identity", "heisenberg",
         "--dmax", "4"]


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


@pytest.mark.parametrize("calls", [
    [("1", [], 0), ("3", [], 2)],
    [("3", ["--jobs", "1"], 0), ("1", ["--jobs", "2"], 1)],
], ids=["from-env", "explicit-jobs-wins"])
def test_each_call_reads_the_jobs_variable(monkeypatch, capsys, forks, calls):
    cli._parsers.cache_clear()  # built by the first call below, then reused
    outputs = []
    for env, extra, forked in calls:
        monkeypatch.setenv(JOBS_ENV, env)
        forks.clear()
        assert main(SWEEP + extra) == 0
        assert len(forks) == forked
        outputs.append(capsys.readouterr().out)
    assert cli._parsers.cache_info().misses == 1
    assert outputs[0] == outputs[1]
    assert '"checked_count":256256' in outputs[0]


@pytest.mark.parametrize("argv, message", [
    (["verify", "--type", "I", "--N", "2", "--dmax", "2"],
     "--n is required for the capelli identity"),
    (["verify", "--type", "I", "--N", "2", "--n", "1", "--dmax", "2",
      "--jobs", "x"], "argument --jobs: invalid int value: 'x'"),
], ids=["refused-by-the-command", "refused-by-argparse"])
def test_a_usage_error_after_another_command(capsys, argv, message):
    assert main(["norm", "--type", "I", "--N", "2", "--nu", "2,1"]) == 0
    assert capsys.readouterr().out == '{"kind":"I(2,2)","nu":[2,1],"value":"3"}\n'
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: capelli verify ")
    assert f"capelli verify: error: {message}\n" in captured.err
