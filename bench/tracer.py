"""Span recorder that wraps the capelli package from the outside.

`Tracer.install()` replaces every public function of the seven capelli
modules, the three private sweep-chunk workers, a few `Poly`/`DiffOp`
methods and `numpy.linalg.eigh` with timing wrappers; `Tracer.restore()`
puts every original object back.  Nothing under `src/` is edited.

A module that did `from .algebra import apply_partial` holds its own
binding of the function, so each original is replaced in every `capelli.*`
namespace that holds it, under whatever attribute name it is bound.

Per span name the tracer keeps the call count, inclusive time (recursion
counted once), self time (inclusive minus the time of child spans), the
number of calls that returned the zero polynomial, and the largest term
count of any returned polynomial.  Raw spans (id, parent, operation, name,
start, end) are kept in memory for the first `RAW_SPANS_PER_NAME` calls of
each name, because hot kernels run millions of times; counts and times
cover every call.  Work done inside forked `--jobs` workers is not seen:
the parent's wait shows up as `report.run_chunked` self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

MODULES = ("algebra", "determinants", "extremal", "contraction", "rpa",
           "report", "cli")

# Private sweep workers, wrapped so that run_chunked's self time is only the
# dispatch and the wait for pool workers, not the sweep loop itself.
SWEEP_CHUNKS = (("algebra", "_heisenberg_chunk"),
                ("determinants", "_capelli_chunk"),
                ("contraction", "_contraction_chunk"))

# (module, class, attribute, span name)
METHODS = (("algebra", "Poly", "__add__", "algebra.poly_add"),
           ("algebra", "Poly", "__mul__", "algebra.poly_mul"),
           ("algebra", "Poly", "__rmul__", "algebra.poly_mul"),
           ("algebra", "Poly", "__eq__", "algebra.compare"),
           ("determinants", "DiffOp", "apply", "determinants.diffop_apply"))

RAW_SPANS_PER_NAME = 2000


class _Stat:
    __slots__ = ("calls", "incl", "self", "zero", "max_terms", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.incl = 0.0
        self.self = 0.0
        self.zero = 0
        self.max_terms = 0
        self.depth = 0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        self.spans: list[tuple] = []
        self.op = None  # identifier shared by the spans of one operation
        self._stack: list[list] = []  # frames: [child_s, recorded span id]
        self._next_id = 0
        self._patches: list[tuple] = []  # (owner, attribute, original)

    # ---- recording ----

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, _Stat())
        stack = self._stack
        clock = time.perf_counter
        poly_type = importlib.import_module("capelli.algebra").Poly

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            span_id = None
            if stat.calls < RAW_SPANS_PER_NAME:
                span_id = self._next_id
                self._next_id += 1
            frame = [0.0, span_id if span_id is not None else parent]
            stack.append(frame)
            stat.calls += 1
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat.depth -= 1
                dur = end - start
                if not stat.depth:
                    stat.incl += dur
                stat.self += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if span_id is not None:
                    self.spans.append((span_id, parent, self.op, name,
                                       start, end))
            if isinstance(result, poly_type):
                size = len(result.terms)
                if not size:
                    stat.zero += 1
                elif size > stat.max_terms:
                    stat.max_terms = size
            return result

        return wrapper

    # ---- patching ----

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced callable in every capelli namespace binding it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import numpy.linalg

        package = importlib.import_module("capelli")
        modules = {short: importlib.import_module(f"capelli.{short}")
                   for short in MODULES}
        originals: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (not attr.startswith("_") and callable(obj)
                        and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    originals[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for short, attr in SWEEP_CHUNKS:
            obj = getattr(modules[short], attr)
            originals[id(obj)] = (obj, self.wrap(f"{short}.sweep_chunk", obj))
        for namespace in (package, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(namespace, attr, hit[1])
        for short, cls_name, attr, name in METHODS:
            cls = getattr(modules[short], cls_name)
            self._set(cls, attr, self.wrap(name, vars(cls)[attr]))
        # capelli.rpa calls np.linalg.eigh through the numpy.linalg module.
        self._set(numpy.linalg, "eigh", self.wrap("rpa.eigh", numpy.linalg.eigh))

    def restore(self) -> None:
        """Put back every original binding, most recent patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ---- results ----

    def summary(self) -> dict:
        return {name: {"calls": s.calls, "incl_s": s.incl, "self_s": s.self,
                       "zero": s.zero, "max_terms": s.max_terms}
                for name, s in self.stats.items() if s.calls}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")
