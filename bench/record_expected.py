"""Record the expected output of every exact operation into expected.json.

    PYTHONPATH=src python3 bench/record_expected.py

The file committed with the benchmark was recorded at the seed commit, so
every run checks that default CLI output is byte-identical to it.  Re-record
only when a change alters the output on purpose, and say so.
"""

from __future__ import annotations

import contextlib
import io
import json

import capelli.cli
import workloads


def main() -> None:
    expected = {}
    for table in (workloads.WORKLOADS, workloads.SMOKE):
        for ops in table.values():
            for op in ops:
                if op.check in ("rpa", "mutated"):
                    continue
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = capelli.cli.main(list(op.argv))
                if rc != 0:
                    raise SystemExit(f"{op.name} exited {rc}")
                text = buf.getvalue()
                entry = {"sha256": workloads.digest(text)}
                if op.check == "sweep":
                    entry["checked_counts"] = [
                        r["checked_count"] for r in json.loads(text)["reports"]]
                elif op.check == "export":
                    entry["lines"] = len(text.splitlines())
                expected[op.name] = entry
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
