"""One round of a workload, in a fresh process.

Usage (started by run.py, with PYTHONPATH set to the checkout's src/):

    python3 bench/round.py --workload capelli --seed 1 [--trace] [--smoke]
                           [--setup-only] [--spans FILE]

The imports below are part of the round's set-up, as they are for a user of
the capelli command.  The round writes the RPA inputs, reports the moment
its inputs are ready, runs every operation in order, bracketing each with a
run of the workload's reference computation (calibrate.py), checks each
output, and prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

import numpy

import capelli
import calibrate
import capelli.cli
import workloads


def _run_op(op, expected, digests, inputs, smoke):
    """Time one operation, then check it outside the timed region."""
    buf = io.StringIO()
    rc, report, error = None, None, ""
    start = time.perf_counter()
    try:
        if op.check == "mutated":
            p = workloads.mutated_params(smoke)
            report = capelli.verify_capelli(
                capelli.AlgebraKind.type_i(p["p"], p["q"]), p["n"], p["side"],
                p["dmax"], shifts=p["shifts"])
        else:
            argv = list(op.argv)
            if op.rpa_input is not None:
                argv += ["--input", inputs[op.rpa_input]]
            with contextlib.redirect_stdout(buf):
                rc = capelli.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        error = f"exit {exc.code}"
    except Exception as exc:  # an operation that raises is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    text = buf.getvalue()
    digests[op.name] = workloads.digest(text)
    extras = {}
    if error:
        ok, checks, reason = False, 0, error
    elif op.check == "mutated":
        ok, checks, reason = workloads.check_mutated(
            report, workloads.mutated_params(smoke))
    else:
        try:
            ok, checks, reason, extras = workloads.check_output(
                op, expected, rc, text, digests)
        except (ValueError, KeyError, TypeError) as exc:  # malformed output
            ok, checks, reason = False, 0, f"unreadable output: {exc!r}"
    return {"name": op.name, "wall_s": wall, "ok": ok, "checks": checks,
            "reason": reason, "output_bytes": len(text.encode("utf-8")),
            "extras": extras}


def run_round(workload, seed, out_dir, trace=False, smoke=False,
              setup_only=False, spans_path=None, expected=None):
    """Run one round in this process and return its result document."""
    inputs = {}
    for name, ham in workloads.hamiltonians(seed).items():
        inputs[name] = os.path.join(out_dir, f"h-{name}-seed{seed}.json")
        with open(inputs[name], "w", encoding="utf-8") as fh:
            json.dump(ham, fh)
    doc = {"ready": time.monotonic()}
    # The parent ran the same reference just before it spawned this process.
    doc["setup_reference_s"] = calibrate.reference("python")
    if setup_only:
        return doc
    if expected is None:
        expected = workloads.load_expected()
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
    digests: dict = {}
    results = []
    kind = workloads.REFERENCE_KIND[workload]
    references = [calibrate.reference(kind)]
    with tracer or contextlib.nullcontext():
        for index, op in enumerate(workloads.operations(workload, smoke)):
            if tracer is not None:
                tracer.op = index
            results.append(_run_op(op, expected, digests, inputs, smoke))
            references.append(calibrate.reference(kind))
    for result in results:
        result["scaled_s"] = calibrate.scale(result["wall_s"], references)
    doc["ops"] = results
    doc["reference_s"] = references
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    doc["peak_rss_kib"] = self_kib + child_kib
    doc["env"] = {"python": sys.version.split()[0],
                  "numpy": numpy.__version__,
                  "capelli": os.path.dirname(capelli.__file__)}
    if tracer is not None:
        doc["trace"] = tracer.summary()
        if spans_path:
            tracer.write_spans(spans_path)
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    doc = run_round(args.workload, args.seed, args.out_dir, trace=args.trace,
                    smoke=args.smoke, setup_only=args.setup_only,
                    spans_path=args.spans)
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
