"""Capelli benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload capelli --seed 1 --seconds 32 --trace 0

Run from the root of a checkout (the directory holding src/capelli).  Each
round of the workload runs in a fresh process (bench/round.py), because a
user of the capelli command pays the imports and the cached operator
builders on every invocation.  Rounds repeat until the next one would end
past --seconds, with at least MIN_ROUNDS of them; set-up-only processes
then fill the rest of --seconds, and at least SETUP_SAMPLES of them run.

--trace 0 reports the end-to-end metrics from untraced rounds.  --trace 1
adds one traced round and reports the per-layer metrics.  Either way the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give every metric with its unit
and the environment.  The full record (environment, every round) goes to
bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import calibrate
import workloads

BENCH_DIR = workloads.BENCH_DIR
OUT_DIR = os.path.join(BENCH_DIR, "out")
MIN_ROUNDS = 2
SETUP_SAMPLES = 10
RUN_DEADLINE_S = 170  # a run must end within 180 s, whatever its rounds do
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "checks_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mib": "MiB"}

# Per-layer metric -> unit.  A metric whose layer does not run on a workload
# reads 0 there (see README.md).
PER_LAYER_UNITS = {
    "determinants.capelli_rhs_apply.calls": "count",
    "determinants.capelli_rhs_apply.self_s": "s",
    "determinants.capelli_rhs_apply.incl_s": "s",
    "determinants.apply_E.calls": "count",
    "determinants.apply_E.self_s": "s",
    "determinants.apply_E.zero_frac": "fraction",
    "algebra.apply_partial.calls": "count",
    "algebra.apply_partial.self_s": "s",
    "algebra.apply_partial.zero_frac": "fraction",
    "algebra.mul_z.self_s": "s",
    "algebra.poly_add.self_s": "s",
    "algebra.poly_mul.self_s": "s",
    "algebra.bargmann_inner.self_s": "s",
    "extremal.extremal_poly.incl_s": "s",
    "algebra.max_poly_terms": "terms",
    "determinants.diffop_apply.self_s": "s",
    "determinants.build.self_s": "s",
    "algebra.compare.self_s": "s",
    "algebra.format_poly.calls": "count",
    "algebra.format_poly.self_s": "s",
    "contraction.apply_generator.calls": "count",
    "contraction.apply_generator.self_s": "s",
    "contraction.build_rep_matrices.incl_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "report.run_chunked.self_s": "s",
    "report.jobs2_speedup": "ratio",
    "rpa.fock_build_s": "s",
    "rpa.eigh_s": "s",
    "rpa.fock_dim": "count",
    "rpa.fock_matrix_bytes": "bytes-computed",
    "rpa.solve_rpa.incl_s": "s",
    "rpa.fock_max_deviation": "abs",
    "rpa.normalization_residual_max": "abs",
    "trace.wall_s": "s",
    "trace.overhead_frac": "fraction",
}

BUILDERS = ("determinants.det_z", "determinants.det_partial",
            "determinants.pfaffian_z", "determinants.pfaffian_partial")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def round_env(root: str) -> dict:
    """The pinned environment of every round process."""
    env = dict(os.environ)
    env.pop("CAPELLI_JOBS", None)  # --jobs is always given explicitly
    for var in THREAD_VARS:
        env[var] = str(_nproc())
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: str) -> str:
    """The checked-out commit; git is kept from looking above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        proc = None
    if proc is None or proc.returncode != 0:
        return "unknown (not a git checkout)"
    return proc.stdout.strip()


def _source_digest(root: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "capelli")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def spawn_round(root, workload, seed, deadline, trace=False, smoke=False,
                setup_only=False, spans=None) -> dict:
    """Run bench/round.py in a fresh process; its set-up time is measured
    from just before the spawn until the round reports its inputs ready."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "round.py"),
           "--workload", workload, "--seed", str(seed), "--out-dir", OUT_DIR]
    cmd += ["--trace"] * trace + ["--smoke"] * smoke
    cmd += ["--setup-only"] * setup_only + (["--spans", spans] if spans else [])
    reference = calibrate.reference("python")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=round_env(root),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": "round killed at the run's deadline"}
    finished = time.monotonic()
    lines = out.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except ValueError:
        doc = None
    if doc is None:
        return {"error": f"round exited {proc.returncode}: {err.strip()[-400:]}"}
    doc["setup_s"] = doc["ready"] - spawned
    doc["setup_references_s"] = [reference, doc.pop("setup_reference_s")]
    doc["process_s"] = finished - spawned
    if "ops" in doc:
        doc["wall_s"] = sum(op["wall_s"] for op in doc["ops"])
        doc["scaled_s"] = sum(op["scaled_s"] for op in doc["ops"])
    return doc


def tail_line(samples: list) -> str:
    """Median plus the highest percentile with at least ten samples beyond."""
    n = len(samples)
    text = f"median {statistics.median(samples):.4f} s over {n} rounds"
    if n <= 10:
        return text + f"; max {max(samples):.4f} s (no percentile has ten samples beyond it)"
    ordered = sorted(samples)
    pct = 100.0 * (n - 10) / n
    return text + f"; p{pct:.1f} {ordered[n - 11]:.4f} s"


def _ratio_of_medians(rounds, num: str, den: str) -> float:
    ratios = []
    for r in rounds:
        walls = {op["name"]: op["wall_s"] for op in r["ops"]}
        if num in walls and den in walls:
            ratios.append(walls[num] / walls[den])
    return statistics.median(ratios) if ratios else 0.0


def per_layer_metrics(traced: dict, untraced: list, ops) -> dict:
    """Per-layer metrics from the traced round (and the untraced ones)."""
    stats = traced.get("trace", {})

    def get(name, field):
        return stats.get(name, {}).get(field, 0)

    def zero_frac(name):
        calls = get(name, "calls")
        return get(name, "zero") / calls if calls else 0.0

    m = {}
    for name in ("determinants.capelli_rhs_apply", "determinants.apply_E",
                 "algebra.apply_partial"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_s")
    m["determinants.capelli_rhs_apply.incl_s"] = get(
        "determinants.capelli_rhs_apply", "incl_s")
    m["determinants.apply_E.zero_frac"] = zero_frac("determinants.apply_E")
    m["algebra.apply_partial.zero_frac"] = zero_frac("algebra.apply_partial")
    for name in ("algebra.mul_z", "algebra.poly_add", "algebra.poly_mul",
                 "algebra.bargmann_inner", "determinants.diffop_apply",
                 "algebra.compare", "algebra.format_poly",
                 "contraction.apply_generator", "report.run_chunked"):
        m[f"{name}.self_s"] = get(name, "self_s")
    m["algebra.format_poly.calls"] = get("algebra.format_poly", "calls")
    m["contraction.apply_generator.calls"] = get("contraction.apply_generator",
                                                 "calls")
    m["extremal.extremal_poly.incl_s"] = get("extremal.extremal_poly", "incl_s")
    m["contraction.build_rep_matrices.incl_s"] = get(
        "contraction.build_rep_matrices", "incl_s")
    m["algebra.max_poly_terms"] = max(
        (s["max_terms"] for s in stats.values()), default=0)
    m["determinants.build.self_s"] = sum(get(b, "self_s") for b in BUILDERS)
    m["cli.self_s"] = get("cli.main", "self_s")
    m["cli.output_bytes"] = sum(op["output_bytes"] for op in traced["ops"])
    jobs_pair = [op for op in ops if op.same_as is not None]
    m["report.jobs2_speedup"] = (_ratio_of_medians(
        untraced, jobs_pair[0].same_as, jobs_pair[0].name) if jobs_pair else 0.0)
    m["rpa.fock_build_s"] = get("rpa.fock_oracle", "self_s")
    m["rpa.eigh_s"] = get("rpa.eigh", "incl_s")
    m["rpa.solve_rpa.incl_s"] = get("rpa.solve_rpa", "incl_s")
    extras = [op["extras"] for op in traced["ops"] if op["extras"]]
    for metric, key in (("rpa.fock_dim", "fock_dim"),
                        ("rpa.fock_matrix_bytes", "fock_matrix_bytes"),
                        ("rpa.fock_max_deviation", "fock_max_deviation"),
                        ("rpa.normalization_residual_max",
                         "normalization_residual")):
        m[metric] = max((e[key] for e in extras), default=0)
    m["trace.wall_s"] = traced["wall_s"]
    m["trace.overhead_frac"] = traced["scaled_s"] / scaled_wall(untraced) - 1
    return m


def scaled_wall(rounds: list) -> float:
    """The workload's time at reference speed: the sum over its operations
    of each one's median scaled time across the rounds."""
    names = [op["name"] for op in rounds[0]["ops"]]
    return sum(statistics.median(r["ops"][i]["scaled_s"] for r in rounds)
               for i in range(len(names)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="capelli benchmark")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small operations, for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "capelli", "__init__.py")):
        print("bench/run.py: no src/capelli here; run it from the root of a "
              "capelli checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    ops = workloads.operations(args.workload, args.smoke)

    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    rounds, broken = [], []
    while time.monotonic() < deadline:
        doc = spawn_round(root, args.workload, args.seed, deadline,
                          smoke=args.smoke)
        (broken if "error" in doc else rounds).append(doc)
        done = rounds + broken
        elapsed = time.monotonic() - start
        typical = statistics.median(d.get("process_s", 0) for d in done)
        if len(done) >= MIN_ROUNDS and (args.trace
                                        or elapsed + typical > args.seconds):
            break
    setups = [r["setup_s"] for r in rounds]
    setup_refs = [t for r in rounds for t in r["setup_references_s"]]
    probe_errors = []
    while (not args.trace and not probe_errors and time.monotonic() < deadline
           and (len(setups) < SETUP_SAMPLES
                or time.monotonic() - start < args.seconds)):
        doc = spawn_round(root, args.workload, args.seed, deadline,
                          smoke=args.smoke, setup_only=True)
        if "error" in doc:
            probe_errors.append(doc["error"])
        else:
            setups.append(doc["setup_s"])
            setup_refs += doc["setup_references_s"]
    traced = None
    if args.trace:
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        traced = spawn_round(root, args.workload, args.seed, deadline,
                             trace=True, smoke=args.smoke, spans=spans)
        (broken if "error" in traced else rounds).append(traced)

    for doc in rounds:
        expected_home = os.path.join(root, "src", "capelli")
        if os.path.realpath(doc["env"]["capelli"]) != os.path.realpath(expected_home):
            print(f"bench/run.py: imported capelli from {doc['env']['capelli']}, "
                  f"not from this checkout", file=sys.stderr)
            return 2
    attempted = len(ops) * (len(rounds) + len(broken))
    failed = len(ops) * len(broken) + sum(
        not op["ok"] for r in rounds for op in r["ops"])
    untraced = [r for r in rounds if r is not traced]

    if not untraced or (args.trace and "error" in traced):
        metrics = {}
    elif args.trace:
        values = per_layer_metrics(traced, untraced, ops)
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in PER_LAYER_UNITS.items()}
    else:
        wall = scaled_wall(untraced)
        checks = sum(op["checks"] for op in untraced[0]["ops"])
        values = {"wall_s": wall, "checks_per_s": checks / wall,
                  "setup_s": calibrate.scale(statistics.median(setups),
                                             setup_refs),
                  "peak_rss_mib": statistics.median(
                      r["peak_rss_kib"] for r in untraced) / 1024}
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}

    env = {"commit": _commit(root), "source_sha256": _source_digest(root),
           "python": platform.python_version(),
           "numpy": rounds[0]["env"]["numpy"] if rounds else "unknown",
           "nproc": _nproc(), "cpu": _cpu_model(),
           "threads": {v: round_env(root)[v] for v in THREAD_VARS}}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "env": env, "metrics": metrics,
              "rounds": [{k: v for k, v in r.items() if k != "trace"}
                         for r in rounds], "broken": broken,
              "setup_s": setups, "setup_references_s": setup_refs,
              "probe_errors": probe_errors}
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"# workload {args.workload}, seed {args.seed}, "
          f"{len(untraced)} untraced rounds" + (", 1 traced" if traced else ""))
    print(f"# env {json.dumps(env)}")
    if untraced:
        print(f"# measured wall {tail_line([r['wall_s'] for r in untraced])}")
        print(f"# scaled wall {tail_line([r['scaled_s'] for r in untraced])}")
    if setups:
        print(f"# measured set-up median {statistics.median(setups):.4f} s over"
              f" {len(setups)} processes")
    print(f"# times are scaled to a machine on which the reference computation"
          f" takes {calibrate.REFERENCE_S} s (bench/calibrate.py)")
    for r in rounds:
        for op in r["ops"]:
            if not op["ok"]:
                print(f"# FAILED {op['name']}: {op['reason']}")
    for d in broken:
        print(f"# FAILED round: {d['error']}")
    for error in probe_errors:
        print(f"# FAILED set-up probe: {error}")
    if args.trace:
        print("# work inside forked --jobs 2 workers is not traced; the parent's"
              " wait shows as report.run_chunked.self_s")
    for k, v in metrics.items():
        print(f"{k:42s} {v['value']!r:>24} {v['unit']}")
    correct = failed == 0 and not probe_errors and bool(metrics)
    result = {"correct": correct, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
