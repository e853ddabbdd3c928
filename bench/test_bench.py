"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import calibrate  # noqa: E402
import round as bench_round  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Per-layer metrics that must be positive in a smoke run of each workload:
# the layers that workload exercises.
EXERCISED = {
    "capelli": [
        "determinants.capelli_rhs_apply.calls",
        "determinants.capelli_rhs_apply.self_s",
        "determinants.capelli_rhs_apply.incl_s",
        "determinants.apply_E.calls", "determinants.apply_E.self_s",
        "determinants.apply_E.zero_frac",
        "algebra.apply_partial.calls", "algebra.apply_partial.self_s",
        "algebra.apply_partial.zero_frac",
        "determinants.diffop_apply.self_s", "determinants.build.self_s",
        "algebra.compare.self_s", "algebra.format_poly.calls",
        "algebra.format_poly.self_s", "report.run_chunked.self_s",
        "report.jobs2_speedup", "cli.self_s", "cli.output_bytes",
    ],
    "brackets": [
        "determinants.apply_E.calls", "determinants.apply_E.self_s",
        "determinants.apply_E.zero_frac",
        "algebra.apply_partial.calls", "algebra.apply_partial.self_s",
        "algebra.apply_partial.zero_frac",
        "algebra.mul_z.self_s", "algebra.poly_add.self_s",
        "contraction.apply_generator.calls",
        "contraction.apply_generator.self_s",
    ],
    "states": [
        "algebra.poly_mul.self_s", "algebra.bargmann_inner.self_s",
        "extremal.extremal_poly.incl_s", "algebra.max_poly_terms",
        "determinants.build.self_s", "determinants.apply_E.calls",
        "contraction.apply_generator.calls",
        "contraction.build_rep_matrices.incl_s",
        "cli.self_s", "cli.output_bytes",
    ],
    "rpa": [
        "rpa.fock_build_s", "rpa.eigh_s", "rpa.fock_dim",
        "rpa.fock_matrix_bytes", "rpa.solve_rpa.incl_s",
        "rpa.fock_max_deviation", "rpa.normalization_residual_max",
        "cli.self_s", "cli.output_bytes",
    ],
}


def _failed_ops(doc):
    return [op["name"] for op in doc["ops"] if not op["ok"]]


def test_wrong_expected_digest_counts_as_failed(tmp_path):
    expected = workloads.load_expected()
    expected["capelli.III4.n4.XD.d1"] = dict(
        expected["capelli.III4.n4.XD.d1"], sha256="0" * 64)
    doc = bench_round.run_round("capelli", 1, str(tmp_path), smoke=True,
                                expected=expected)
    assert _failed_ops(doc) == ["capelli.III4.n4.XD.d1"]


def test_mutated_sweep_that_passes_counts_as_failed(tmp_path, monkeypatch):
    # The correct XD shifts for I(2,2), n=2: the sweep passes, so the check
    # that it must fail has to count the operation as failed.
    monkeypatch.setitem(workloads.MUTATED_SMOKE, "shifts", (1, 0))
    doc = bench_round.run_round("capelli", 1, str(tmp_path), smoke=True)
    assert _failed_ops(doc) == ["capelli.mutated.I22.n2.XD.d2"]


def test_sweep_with_failures_counts_as_failed():
    op = workloads.SMOKE["brackets"][0]
    good = workloads.load_expected()[op.name]
    text = json.dumps({"reports": [{"checked_count": 10, "failures": [{}]}]})
    expected = {op.name: dict(good, sha256=workloads.digest(text))}
    ok, _, reason, _ = workloads.check_output(op, expected, 0, text,
                                              {op.name: workloads.digest(text)})
    assert not ok and "failures" in reason


def test_rpa_frequency_off_its_gap_counts_as_failed():
    op = workloads.SMOKE["rpa"][0]
    doc = {"stable": True, "frequencies": [1.0], "fock_gaps": [1.0 + 1e-3],
           "fock_max_deviation": 1e-3, "X": [[1.0]], "Y": [[0.0]]}
    ok, _, reason, _ = workloads.check_output(op, {}, 0, json.dumps(doc), {})
    assert not ok and "Fock gap" in reason


def _bindings():
    import numpy.linalg

    import capelli
    from capelli import algebra, determinants

    names = ["capelli"] + [f"capelli.{m}" for m in
                           ("algebra", "determinants", "extremal",
                            "contraction", "rpa", "report", "cli")]
    snap = {n: dict(vars(sys.modules[n])) for n in names}
    snap["Poly"] = dict(vars(algebra.Poly))
    snap["DiffOp"] = dict(vars(determinants.DiffOp))
    snap["eigh"] = {"eigh": numpy.linalg.eigh}
    return snap, capelli


def test_tracer_restores_every_binding():
    before, capelli = _bindings()
    original = capelli.algebra.apply_partial
    tracer = Tracer()
    with tracer:
        # every namespace holding the function now holds the same wrapper
        wrapped = capelli.algebra.apply_partial
        assert wrapped is not original
        assert capelli.determinants.apply_partial is wrapped
        assert capelli.contraction.apply_partial is wrapped
        assert capelli.extremal.apply_partial is wrapped
        assert capelli.apply_partial is wrapped
        f = capelli.Poly.from_monomial(capelli.AlgebraKind.type_ii(2),
                                       (((1, 1), 1),))
        assert capelli.apply_partial(f, 2, 2).is_zero()
        assert (f + f) == f * 2
    after, _ = _bindings()
    for space, attrs in before.items():
        for attr, obj in attrs.items():
            assert after[space][attr] is obj, f"{space}.{attr} not restored"
    stats = tracer.summary()
    assert stats["algebra.apply_partial"]["zero"] == 1
    assert stats["algebra.poly_add"]["calls"] == 1
    assert stats["algebra.compare"]["calls"] == 1


def test_scaling_cancels_machine_speed_but_not_program_speed():
    # a machine twice as slow doubles both the operation and the references
    assert calibrate.scale(2.0, [0.2, 0.3, 0.2]) == pytest.approx(
        calibrate.scale(1.0, [0.1, 0.15, 0.1]))
    # a program twice as slow on the same machine doubles the scaled time
    assert calibrate.scale(2.0, [0.1, 0.1]) == pytest.approx(
        2 * calibrate.scale(1.0, [0.1, 0.1]))


def test_references_are_not_traced():
    calibrate.reference("dense")  # as a round does, before tracing starts
    with Tracer() as tracer:
        assert calibrate.reference("dense") > 0
        assert calibrate.reference("python") > 0
    assert tracer.summary().get("rpa.eigh", {}).get("calls", 0) == 0


def _run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--smoke"], cwd=cwd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_traced_run_reports_every_per_layer_metric(workload):
    result = _run(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER_UNITS)
    for name in EXERCISED[workload]:
        assert result["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_untraced_run_reports_every_end_to_end_metric(workload):
    result = _run(workload, 0)
    assert result["correct"]
    assert result["attempted"] >= run.MIN_ROUNDS * len(workloads.SMOKE[workload])
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    record = os.path.join(BENCH, "out", f"record-{workload}-seed3-trace0.json")
    with open(record, encoding="utf-8") as fh:
        assert len(json.load(fh)["setup_s"]) >= run.SETUP_SAMPLES


def test_commit_is_recorded_only_inside_a_git_checkout(tmp_path):
    assert len(run._commit(ROOT)) == 40 or not os.path.isdir(
        os.path.join(ROOT, ".git"))
    assert run._commit(str(tmp_path)) == "unknown (not a git checkout)"


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload",
         "capelli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
