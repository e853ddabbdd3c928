"""Fixed reference computations that measure how fast the machine runs now.

The benchmark's host is shared: the speed of one pure-Python loop moves by a
factor of two from one ten-second phase to the next, and CPU time moves with
wall time, so the swings come from the machine, not from the scheduler.  Each
timed operation is therefore bracketed by runs of a reference computation,
and its time is rescaled to a machine on which that reference takes
REFERENCE_S:

    scaled = measured * REFERENCE_S / median(references run around it)

The median over a round's references, rather than the two next to one
operation, keeps one slow reference from skewing an operation by a quarter.

The references use no capelli code, so a change to the package moves the
scaled times exactly as it moves the measured ones, while a change in machine
speed cancels out.  There are two, because the two kinds of slowdown do not
move together:

- "python": the work of the exact layers and of start-up (dicts keyed by
  exponent tuples, big-integer and Fraction arithmetic);
- "dense": a fixed dense symmetric eigenproblem under the same BLAS threads
  as the rpa workload, whose time `numpy.linalg.eigh` dominates.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# A round figure near what each reference takes on the 2-vCPU x86-64 VM the
# benchmark was tuned on; scaled times are seconds on a machine of that speed.
REFERENCE_S = 0.1

_PYTHON_REPEATS = 70
_DENSE_DIM = 700
_DENSE_REPEATS = 2
_dense = None  # (matrix, eigh), bound on first use


def _poly_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for mf, cf in f.items():
        for mg, cg in g.items():
            m = tuple(a + b for a, b in zip(mf, mg))
            c = out.get(m, 0) + cf * cg
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return out


def _python_work() -> int:
    f = {(1, 0, 0, 0): 3, (0, 1, 0, 0): -2, (0, 0, 1, 0): 5, (0, 0, 0, 1): 7,
         (1, 1, 0, 0): Fraction(1, 3)}
    g = dict(f)
    for _ in range(3):
        g = _poly_mul(g, f)
    total = sum(Fraction(c) / (1 + sum(m)) for m, c in g.items())
    return len(g) + total.denominator % 7


def reference(kind: str = "python") -> float:
    """Run the fixed reference computation of `kind` once; return its seconds.

    The garbage collector is off meanwhile: a collection walks every object
    the program under test holds, which would make the reference's time
    depend on the program."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _timed(kind)
    finally:
        if enabled:
            gc.enable()


def _timed(kind: str) -> float:
    global _dense
    if kind == "dense":
        if _dense is None:  # built and warmed up outside the timing; eigh is
            import numpy   # bound here, before a tracer can wrap it

            a = numpy.random.default_rng(0).standard_normal((_DENSE_DIM,) * 2)
            _dense = (a + a.T, numpy.linalg.eigh)
            _dense[1](_dense[0])
        matrix, eigh = _dense
        start = time.perf_counter()
        for _ in range(_DENSE_REPEATS):
            eigh(matrix)
        return time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(_PYTHON_REPEATS):
        _python_work()
    return time.perf_counter() - start


def scale(measured: float, references: list) -> float:
    """`measured` seconds rescaled to the reference machine's speed, given
    the times of references run around the measurement."""
    return measured * REFERENCE_S / statistics.median(references)
