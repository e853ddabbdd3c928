"""Run every workload on several seeds and write a BENCH_<label>.json summary.

    python3 bench/collect.py --label seed

For each workload: ten untraced runs, on seeds 1 to 10, and one traced run
on seed 1.  The summary holds, per end-to-end metric, the median, the
quartiles and the spread (quartile distance over median), the per-layer
metrics of the traced run, the operations attempted and failed, and the
environment of the last run.  Run it from the root of a checkout; it takes
about (seeds + 2) x 30 s per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads

BENCH_DIR = workloads.BENCH_DIR
SEEDS = range(1, 11)


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(_run_seconds()),
           "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    env = next(json.loads(line[6:]) for line in lines if line.startswith("# env "))
    return json.loads(lines[-1]), env


def _run_seconds() -> int:
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return json.load(fh)["run_seconds"]


def summarize(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    summary: dict = {"runs_per_workload": len(SEEDS), "workloads": {}}
    for workload in workloads.WORKLOADS:
        values: dict = {}
        attempted = failed = 0
        for seed in SEEDS:
            result, env = _run(workload, seed, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        traced, env = _run(workload, SEEDS[0], 1)
        summary["env"] = env
        summary["workloads"][workload] = {
            "attempted": attempted + traced["attempted"],
            "failed": failed + traced["failed"],
            "end_to_end": {k: summarize(v) for k, v in values.items()},
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        print(workload, {k: (round(v["median"], 4), round(v["spread"], 4))
                         for k, v in summary["workloads"][workload][
                             "end_to_end"].items()}, "(median, spread)",
              flush=True)
    path = os.path.join(BENCH_DIR, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
