"""The four benchmark workloads: their operations, inputs and output checks.

Each workload is one closed-loop client that issues its operations in
order, each as `capelli.cli.main(argv)` in-process with stdout captured,
except for one library call (the mutated-shift Capelli sweep).  The exact
workloads enumerate every monomial, so the seed does not touch them; the
seed only draws the two random RPA Hamiltonians.

This module imports neither capelli nor numpy at import time, so the
harness process can use it without paying for them.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")

# Written down before measuring: the Fock oracle's truncation error on these
# inputs is far below this, and a wrong frequency is off by far more.
FREQ_TOL = 1e-6

# The mutated-shift library sweep: I(3,3), n=3, XD, dmax 3, shifts (3,1,0)
# instead of (2,1,0).  It must fail, after checking all 220 monomials.
MUTATED = {"p": 3, "q": 3, "n": 3, "side": "XD", "dmax": 3,
           "shifts": (3, 1, 0), "checked_count": 220}
MUTATED_SMOKE = {"p": 2, "q": 2, "n": 2, "side": "XD", "dmax": 2,
                 "shifts": (2, 1), "checked_count": 15}


@dataclass(frozen=True)
class Op:
    """One operation.  check is one of: sweep, oracle, export, mutated, rpa."""

    name: str
    check: str
    argv: tuple = ()
    same_as: Optional[str] = None  # output must equal this op's, byte for byte
    rpa_input: Optional[str] = None  # Hamiltonian name, for rpa ops
    nmax: int = 0


def _verify(name, kind, *rest, jobs=1, same_as=None):
    argv = ("verify", "--type", kind[0], *kind[1:], *rest, "--jobs", str(jobs))
    return Op(name, "sweep", argv, same_as=same_as)


def _rpa(name, ham, nmax):
    return Op(name, "rpa", ("rpa", "--fock-check", str(nmax)),
              rpa_input=ham, nmax=nmax)


I44 = ("I", "--N", "4")
I33 = ("I", "--N", "3")

WORKLOADS = {
    "capelli": [
        _verify("capelli.III6.n6.XD.d2", ("III", "--N", "6"),
                "--n", "6", "--variant", "XD", "--dmax", "2"),
        _verify("capelli.I44.n4.DX.d3.jobs1", I44,
                "--n", "4", "--variant", "DX", "--dmax", "3"),
        _verify("capelli.I44.n4.DX.d3.jobs2", I44,
                "--n", "4", "--variant", "DX", "--dmax", "3", jobs=2,
                same_as="capelli.I44.n4.DX.d3.jobs1"),
        _verify("capelli.II4.n4.DX.d3", ("II", "--N", "4"),
                "--n", "4", "--variant", "DX", "--dmax", "3"),
        _verify("capelli.II3.n3.both.d4", ("II", "--N", "3"),
                "--n", "3", "--dmax", "4"),
        Op("capelli.mutated.I33.n3.XD.d3", "mutated"),
    ],
    "brackets": [
        _verify("heisenberg.II4.d3", ("II", "--N", "4"),
                "--identity", "heisenberg", "--dmax", "3"),
        _verify("heisenberg.III5.d3", ("III", "--N", "5"),
                "--identity", "heisenberg", "--dmax", "3"),
        _verify("contraction.I33.d2", I33,
                "--identity", "contraction", "--dmax", "2"),
        _verify("contraction.II3.d3.k1/3", ("II", "--N", "3"),
                "--identity", "contraction", "--dmax", "3", "--k", "1/3"),
        _verify("contraction.III4.d3", ("III", "--N", "4"),
                "--identity", "contraction", "--dmax", "3"),
    ],
    "states": [
        Op("norm.I44.7654", "oracle",
           ("norm", "--type", *I44, "--nu", "7,6,5,4", "--oracle")),
        Op("norm.III6.444444", "oracle",
           ("norm", "--type", "III", "--N", "6", "--nu", "4,4,4,4,4,4",
            "--oracle")),
        Op("norm.II4.6664", "oracle",
           ("norm", "--type", "II", "--N", "4", "--nu", "6,6,6,4", "--oracle")),
        Op("matel.I44.5432.k4", "oracle",
           ("matel", "--type", *I44, "--nu", "5,4,3,2", "--k", "4", "--oracle")),
        Op("matel.III6.333322.k3", "oracle",
           ("matel", "--type", "III", "--N", "6", "--nu", "3,3,3,3,2,2",
            "--k", "3", "--oracle")),
        Op("export.III5.d5", "export",
           ("export", "--type", "III", "--N", "5", "--dmax", "5")),
        Op("export.I33.d5.k1/2", "export",
           ("export", "--type", *I33, "--dmax", "5", "--k", "1/2")),
    ],
    "rpa": [
        _rpa("rpa.random3.nmax14", "random3", 14),
        _rpa("rpa.random2.nmax40", "random2", 40),
        _rpa("rpa.degenerate3.nmax12", "degenerate3", 12),
    ],
}

# The reference computation (bench/calibrate.py) that each workload's times
# are rescaled by: rpa spends its time in numpy.linalg.eigh, the rest in
# pure-Python polynomial arithmetic.
REFERENCE_KIND = {"capelli": "python", "brackets": "python",
                  "states": "python", "rpa": "dense"}

# The same operation kinds at small sizes, for the benchmark's own tests.
I22 = ("I", "--N", "2")
SMOKE = {
    "capelli": [
        _verify("capelli.III4.n4.XD.d1", ("III", "--N", "4"),
                "--n", "4", "--variant", "XD", "--dmax", "1"),
        _verify("capelli.I22.n2.DX.d2.jobs1", I22,
                "--n", "2", "--variant", "DX", "--dmax", "2"),
        _verify("capelli.I22.n2.DX.d2.jobs2", I22,
                "--n", "2", "--variant", "DX", "--dmax", "2", jobs=2,
                same_as="capelli.I22.n2.DX.d2.jobs1"),
        _verify("capelli.II2.n2.both.d2", ("II", "--N", "2"),
                "--n", "2", "--dmax", "2"),
        Op("capelli.mutated.I22.n2.XD.d2", "mutated"),
    ],
    "brackets": [
        _verify("heisenberg.II2.d2", ("II", "--N", "2"),
                "--identity", "heisenberg", "--dmax", "2"),
        _verify("contraction.II2.d1.k1/3", ("II", "--N", "2"),
                "--identity", "contraction", "--dmax", "1", "--k", "1/3"),
    ],
    "states": [
        Op("norm.I22.21", "oracle",
           ("norm", "--type", *I22, "--nu", "2,1", "--oracle")),
        Op("matel.III4.11.k1", "oracle",
           ("matel", "--type", "III", "--N", "4", "--nu", "1,1", "--k", "1",
            "--oracle")),
        Op("export.II2.d2.k1/2", "export",
           ("export", "--type", "II", "--N", "2", "--dmax", "2", "--k", "1/2")),
    ],
    "rpa": [
        _rpa("rpa.random2.nmax8", "random2", 8),
        _rpa("rpa.degenerate3.nmax8", "degenerate3", 8),
    ],
}


def operations(workload: str, smoke: bool = False) -> list[Op]:
    return (SMOKE if smoke else WORKLOADS)[workload]


def mutated_params(smoke: bool) -> dict:
    return MUTATED_SMOKE if smoke else MUTATED


def load_expected() -> dict:
    """op name -> {"sha256": ..., "checked_counts": [...]}, taken at the seed."""
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---- RPA inputs ----

def hamiltonians(seed: int) -> dict:
    """The RPA inputs as JSON-ready dicts {"E0", "V", "W"}.

    The two random ones are stable by construction: V diagonal in [1, 2]
    and W of scale 0.1, so the pairing is weak, the ground state's Fock
    boundary weight stays far below the oracle's tolerance, and the Fock
    dimensions stay fixed.  The degenerate one, V = 2 I3 and W = 0.1 ones,
    keeps the known normalization residual of degenerate modes visible.
    """
    import numpy as np

    rng = np.random.default_rng(seed)

    def random_h(modes):
        V = np.diag(rng.uniform(1.0, 2.0, modes))
        W = rng.uniform(-0.1, 0.1, (modes, modes))
        return {"E0": float(rng.uniform(-1.0, 1.0)), "V": V.tolist(),
                "W": ((W + W.T) / 2).tolist()}

    return {
        "random3": random_h(3),
        "random2": random_h(2),
        "degenerate3": {"E0": 0.0, "V": (2.0 * np.eye(3)).tolist(),
                        "W": (0.1 * np.ones((3, 3))).tolist()},
    }


# ---- output checks ----

def _parse_matrix(rows):
    """The CLI writes real matrices as numbers, complex ones as [re, im]."""
    import numpy as np

    return np.array([[complex(*x) if isinstance(x, list) else x for x in row]
                     for row in rows])


def normalization_residual(X, Y) -> float:
    """max |X+X - Y+Y - I| over every entry, off-diagonal ones included."""
    import numpy as np

    X, Y = _parse_matrix(X), _parse_matrix(Y)
    gram = X.conj().T @ X - Y.conj().T @ Y
    return float(np.max(np.abs(gram - np.eye(len(gram)))))


def check_output(op: Op, expected: dict, rc, text: str,
                 digests: dict) -> tuple[bool, int, str, dict]:
    """Check one CLI operation's output: (ok, checks, reason, extras).

    checks counts what the output verified: checked_count for sweeps, one per
    oracle comparison, one per exported matrix, one per RPA frequency.
    """
    if rc != 0:
        return False, 0, f"exit code {rc}", {}
    if op.check == "rpa":
        return _check_rpa(op, text)
    want = expected.get(op.name)
    if want is None:
        return False, 0, "no recorded digest for this operation", {}
    if digests[op.name] != want["sha256"]:
        return False, 0, "output differs from the recorded digest", {}
    if op.same_as is not None and digests[op.name] != digests.get(op.same_as):
        return False, 0, f"output differs from {op.same_as}", {}
    if op.check == "sweep":
        reports = json.loads(text)["reports"]
        counts = [r["checked_count"] for r in reports]
        if any(r["failures"] for r in reports):
            return False, 0, "sweep reported failures", {}
        if counts != want["checked_counts"] or min(counts) <= 0:
            return False, 0, f"checked_count {counts}", {}
        return True, sum(counts), "", {}
    if op.check == "oracle":
        if json.loads(text).get("match") is not True:
            return False, 0, "closed form does not match the oracle", {}
        return True, 1, "", {}
    if op.check == "export":
        lines = text.splitlines()
        if len(lines) != want["lines"]:
            return False, 0, f"{len(lines)} matrices", {}
        return True, len(lines), "", {}
    return False, 0, f"unknown check {op.check!r}", {}


def _check_rpa(op: Op, text: str) -> tuple[bool, int, str, dict]:
    doc = json.loads(text)
    if doc.get("stable") is not True:
        return False, 0, "Hamiltonian reported unstable", {}
    freqs, gaps = doc["frequencies"], doc["fock_gaps"]
    worst = max(min(abs(g - w) for g in gaps) for w in freqs)
    modes = len(freqs)
    extras = {"fock_max_deviation": doc["fock_max_deviation"],
              "normalization_residual": normalization_residual(doc["X"],
                                                               doc["Y"]),
              "fock_dim": (op.nmax + 1) ** modes,
              "fock_matrix_bytes": 8 * (op.nmax + 1) ** (2 * modes)}
    if worst > FREQ_TOL or doc["fock_max_deviation"] > FREQ_TOL:
        return False, 0, f"frequency off its Fock gap by {worst:.3e}", extras
    return True, modes, "", extras


def check_mutated(report, params: dict) -> tuple[bool, int, str]:
    """The mutated sweep must fail, having checked every monomial."""
    if report.passed:
        return False, 0, "mutated sweep passed"
    if report.checked_count != params["checked_count"]:
        return False, 0, f"checked_count {report.checked_count}"
    return True, report.checked_count, ""
