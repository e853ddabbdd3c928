"""Exact polynomial representations of three matrix Heisenberg algebras.

Variables are matrix entries z[a,b].  Kind I is a general p x q array of
independent entries; kind II is symmetric (z[a,b] = z[b,a]); kind III is
antisymmetric (z[a,b] = -z[b,a], zero diagonal).  A polynomial is a sparse
dict from monomials to exact rational coefficients, over canonical pairs only
(row-major for kind I, a <= b for kind II, a < b for kind III).

Poly and DiffOp key a monomial by one packed int (Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007): variable k of kind.variables() owns bits [32k, 32k +
32), whose top bit is a guard, so a product of monomials is a sum of keys,
z[v] adds 1 << shift(v) and d[v] reads (key >> shift(v)) & _EXP_MAX.  Two
exponents up to _EXP_MAX never carry into the next field, so a raise past
_EXP_MAX shows as a set guard bit, which every raising kernel refuses with
ValueError instead of wrapping, and Poly.__pow__ refuses a power whose
exponents would pass _EXP_MAX before it multiplies anything.
_Layout.exponents reads a key's little-endian bytes, the same on any host:
field k's low byte when no field holds 256 or more (one AND with
_Layout.wide, bits 8-31 of every field, guard bits included), else each
field's 4 bytes, guard bit with them; a key at or above 1 << (32 * fields),
or a negative one, raises OverflowError.
The edges speak the tuple form, ((a, b), exponent) pairs sorted by pair:
monomials_upto, Poly.make, from_monomial, coefficient, format_poly (which
orders terms by it), parse_poly, weight.

The sweeps and the matrix export run each kernel on a batch of monomials at
once.  The batch m_0 ... m_{B-1} is the one polynomial sum_i t^i m_i, keyed
pack(m_i) | i << T, where T = 32 * (number of variables) lies above every
guard bit: t is a spectator field that no kernel reads or writes
(_Layout.batch builds a batch and _Layout.split takes one apart by tag).
Every operator the checks apply is linear and touches variable fields only,
so the t^i part of an image is the image of m_i, terms of different
monomials never merge or cancel, and the guard bits still catch an
overflow in any variable field.  A sweep check therefore keeps four rules:
it is linear in f; it never multiplies two batches (an operator or a fixed
polynomial times a batch is fine); it never reads unpack, exponents or
degree of a batch; and it returns the same number of triples, in the same
order, for every monomial.  exponents raises OverflowError on a tagged key
rather than read its variable fields without the tag.

The conjugate lowering operators d[a,b] are scaled partial derivatives:

    kind I:    d[a,b] = d/dz[a,b]          [d[a,b], z[c,d]] = d_ac d_bd
    kind II:   d[a,b] = (1+delta_ab) d/dz[a,b]
                                           [d[a,b], z[c,d]] = d_ac d_bd + d_bc d_ad
    kind III:  d[a,b] = d/dz[a,b] = -d[b,a]
                                           [d[a,b], z[c,d]] = d_ac d_bd - d_bc d_ad

One symmetry sign per kind (AlgebraKind._sign: I 0, II +1, III -1) fixes
its fold z[b,a] = sign z[a,b], its doubled diagonal and its vanishing one
(d[a,a] scales by 1 + sign).  _Layout.fold tabulates the fold of every valid
pair once per kind, and the kernels read that table, not the family.

The Bargmann pairing <f|g> substitutes d[a,b] for z[a,b] in f and applies the
resulting operator to g, keeping the constant term.  It is always computed by
operator application here, never read off a norm table, so the closed-form
norm results elsewhere in the package are checked against it, not by it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import chain, combinations_with_replacement, groupby
from math import factorial, prod
from operator import add, or_, sub
from typing import Iterator, Optional, Union

from .report import Report, run_chunked

Rational = Union[int, Fraction]
Var = tuple[int, int]
Monomial = tuple[tuple[Var, int], ...]

_SIGNS = {"I": 0, "II": 1, "III": -1}  # see AlgebraKind._sign


@dataclass(frozen=True)
class AlgebraKind:
    """One of the three algebra flavors with its index bounds.

    rows/cols are the matrix dimensions: p x q for kind I, N x N for kinds
    II and III (rows == cols there).
    """

    family: str
    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.family not in _SIGNS:
            raise ValueError(f"unknown algebra family {self.family!r}")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if self._sign and self.rows != self.cols:
            raise ValueError("kinds II and III need a square index range")

    @classmethod
    def type_i(cls, p: int, q: int) -> "AlgebraKind":
        return cls("I", p, q)

    @classmethod
    def type_ii(cls, n: int) -> "AlgebraKind":
        return cls("II", n, n)

    @classmethod
    def type_iii(cls, n: int) -> "AlgebraKind":
        return cls("III", n, n)

    @property
    def label(self) -> str:
        if self.family == "I":
            return f"I({self.rows},{self.cols})"
        return f"{self.family}({self.rows})"

    @property
    def det_bound(self) -> int:
        """Largest n for which the n x n leading minor exists."""
        return min(self.rows, self.cols)

    @property
    def _sign(self) -> int:
        """z[b,a] = sign z[a,b], or independent entries for sign 0."""
        return _SIGNS[self.family]

    def index_pairs(self) -> list[Var]:
        """All valid (possibly non-canonical) index pairs, row-major."""
        return [(a, b) for a in range(1, self.rows + 1)
                for b in range(1, self.cols + 1) if a != b or self._sign >= 0]

    def variables(self) -> list[Var]:
        """Canonical variable index pairs in sorted (row-major) order."""
        return [(a, b) for a, b in self.index_pairs() if a <= b or not self._sign]

    def _missing(self, name: str, a: int, b: int) -> ValueError:
        """The error for a pair the fold table lacks."""
        if 1 <= a <= self.rows and 1 <= b <= self.cols:
            return ValueError(f"{name}[{a},{b}] vanishes identically "
                              f"for kind {self.family}")
        return ValueError(f"index pair ({a},{b}) out of range for {self.label}")

    def z_canonical(self, a: int, b: int) -> tuple[Var, int]:
        """Canonical variable and sign for z[a,b]; raises on invalid pairs."""
        try:
            return self._layout.fold[a, b][0]
        except KeyError:
            raise self._missing("z", a, b) from None

    def partial_canonical(self, a: int, b: int) -> tuple[Var, int]:
        """Canonical variable and scale factor for the operator d[a,b]."""
        try:
            return self._layout.fold[a, b][1]
        except KeyError:
            raise self._missing("d", a, b) from None

    def commutator_scalar(self, a: int, b: int, c: int, d: int) -> int:
        """The scalar [d[a,b], z[c,d]] from the kind's delta pattern."""
        return int(a == c and b == d) + self._sign * int(b == c and a == d)

    @cached_property
    def _layout(self) -> "_Layout":
        """The bit fields of this kind's packed monomial keys, built once."""
        return _Layout(self)


def monomial_from_vars(varlist: tuple[Var, ...]) -> Monomial:
    """Fold a sorted tuple of variables (with repeats) into a monomial."""
    return tuple((v, len(list(run))) for v, run in groupby(varlist))


def _graded(items, dmax: int) -> Iterator[tuple]:
    """Sorted multisets of items of size <= dmax, by size then lex: the one
    graded-lex order of every basis.  Raises ValueError at once for dmax < 0,
    which would give an empty grid, so no sweep or matrix export can report a
    check of nothing."""
    if dmax < 0:
        raise ValueError(f"degree bound dmax must be >= 0, got {dmax}")
    return chain.from_iterable(combinations_with_replacement(items, d)
                               for d in range(dmax + 1))


def monomials_upto(kind: AlgebraKind, dmax: int) -> Iterator[Monomial]:
    """Canonical monomials of total degree <= dmax in graded lex order.

    _graded orders them and the export's packed keys (sums of field units,
    see contraction._rep_matrices), and refuses dmax < 0 with ValueError.
    """
    return map(monomial_from_vars, _graded(kind.variables(), dmax))


_FIELD_BITS = 32
_EXP_MAX = (1 << (_FIELD_BITS - 1)) - 1  # largest exponent a field holds


class _Layout:
    """The packed-key bit fields of one kind (see the module docstring)."""

    def __init__(self, kind: AlgebraKind) -> None:
        self.label = kind.label
        self.fields = [(v, _FIELD_BITS * k)
                       for k, v in enumerate(kind.variables())]
        self.shift = dict(self.fields)
        self.unit = {v: 1 << shift for v, shift in self.fields}
        self.guard = sum(unit << (_FIELD_BITS - 1) for unit in self.unit.values())
        self.wide = sum(unit * 0xFFFFFF00 for unit in self.unit.values())
        self.tag = _FIELD_BITS * len(self.fields)  # the spectator field's shift
        self.low = (1 << self.tag) - 1  # masks a tag off a key
        self.nbytes = self.tag // 8
        # (a, b) -> ((v, z sign), (v, d scale)); see the module docstring
        sign = kind._sign
        self.fold = {}
        for a, b in kind.index_pairs():
            v = (a, b) if a <= b or not sign else (b, a)
            z = 1 if v == (a, b) else sign
            self.fold[a, b] = ((v, z), (v, 1 + sign if a == b else z))

    def check(self, keys: int) -> None:
        """Refuse keys (one key, or the OR of several) with a set guard bit."""
        if keys & self.guard:
            raise ValueError(f"an exponent of {self.label} exceeds {_EXP_MAX}, "
                             "the largest a packed monomial holds")

    def pack(self, mono: Monomial) -> int:
        key = 0
        for v, e in mono:
            if v not in self.shift or not 0 <= e <= _EXP_MAX:
                raise ValueError(f"no monomial of {self.label} holds z{v}^{e}")
            key += e << self.shift[v]
        self.check(key)
        return key

    def exponents(self, key: int) -> list[int]:
        data = key.to_bytes(self.nbytes, "little")
        if key & self.wide:
            return [int.from_bytes(data[i:i + 4], "little")
                    for i in range(0, self.nbytes, 4)]
        return list(data[::4])  # every field below 256: its low byte

    def unpack(self, key: int) -> Monomial:
        return tuple((v, e) for (v, _), e in zip(self.fields, self.exponents(key))
                     if e)

    def batch(self, keys) -> dict:
        """The terms of sum_i t^i m_i for the packed monomials m_i of keys."""
        return {key | i << self.tag: 1 for i, key in enumerate(keys)}

    def split(self, terms: dict) -> dict:
        """Batch terms by tag: i -> the terms of the image of m_i, untagged."""
        low, out = self.low, {}
        for m, c in terms.items():
            out.setdefault(m >> self.tag, {})[m & low] = c
        return out


def _drop_zeros(terms: dict) -> dict:
    """Delete the zero coefficients of terms and return terms itself.  It
    works in place because a filtered copy doubles the peak."""
    for m in [m for m, c in terms.items() if not c]:
        del terms[m]
    return terms


@dataclass(frozen=True)
class Poly:
    """Sparse polynomial over one algebra kind; treat instances as immutable.

    terms maps packed monomial keys (see the module docstring) to nonzero
    coefficients; format_poly and coefficient give the tuple form.
    """

    kind: AlgebraKind
    terms: dict

    @classmethod
    def make(cls, kind: AlgebraKind, terms: dict) -> "Poly":
        """From tuple monomials to coefficients, zero coefficients dropped."""
        out: dict = {}
        for mono, c in terms.items():
            key = kind._layout.pack(mono)
            out[key] = out.get(key, 0) + c
        return cls(kind, _drop_zeros(out))

    @classmethod
    def zero(cls, kind: AlgebraKind) -> "Poly":
        return cls(kind, {})

    @classmethod
    def constant(cls, kind: AlgebraKind, c: Rational) -> "Poly":
        return cls(kind, {0: c} if c else {})

    @classmethod
    def from_monomial(cls, kind: AlgebraKind, mono: Monomial,
                      c: Rational = 1) -> "Poly":
        return cls(kind, {kind._layout.pack(mono): c} if c else {})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono: Monomial) -> Rational:
        return self.terms.get(self.kind._layout.pack(mono), 0)

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        exponents = self.kind._layout.exponents
        return max((sum(exponents(m)) for m in self.terms), default=-1)

    def _require_same_kind(self, other: "Poly") -> None:
        if self.kind is not other.kind and self.kind != other.kind:
            raise ValueError("polynomials belong to different algebra kinds")

    def _combine(self, other: "Poly", op) -> "Poly":
        """self op other for op add or sub, in one pass over other's terms."""
        self._require_same_kind(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = op(terms.get(m, 0), c)
            if s:
                terms[m] = s
            elif m in terms:
                del terms[m]
        return Poly(self.kind, terms)

    def __add__(self, other: "Poly") -> "Poly":
        return self._combine(other, add)

    def __neg__(self) -> "Poly":
        return Poly(self.kind, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self._combine(other, sub)

    def __mul__(self, other: Union["Poly", Rational]) -> "Poly":
        """The product with a polynomial, or with a rational s = p/q.

        The one scaling rule of the package: an int coefficient c becomes
        c*p when q = 1 and Fraction(c*p, q) otherwise, so an int polynomial
        stays in ints at every integer-valued s, Fraction(3) included; a
        Fraction coefficient becomes c*s.  Each Fraction(c*p, q) is built
        once per distinct c and shared by its terms (it is immutable).  s = 0
        gives the zero polynomial and s = 1 returns self, uncopied.  Any
        other operand is NotImplemented, so f * 0.5 raises TypeError.
        """
        if isinstance(other, Poly):
            self._require_same_kind(other)
            terms: dict = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = m1 + m2
                    terms[m] = terms.get(m, 0) + c1 * c2
            self.kind._layout.check(reduce(or_, _drop_zeros(terms), 0))
            return Poly(self.kind, terms)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 1:
            return self
        if not other:
            return Poly.zero(self.kind)
        p, q = other.numerator, other.denominator
        if q == 1:
            return Poly(self.kind, {m: c * p for m, c in self.terms.items()})
        terms, memo = {}, {}
        for m, c in self.terms.items():
            if not isinstance(c, int):
                terms[m] = c * other
            elif (s := memo.get(c)) is None:
                terms[m] = memo[c] = Fraction(c * p, q)
            else:
                terms[m] = s
        return Poly(self.kind, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        # over Q the top power of a variable in f^n is n times that in f
        exponents = self.kind._layout.exponents
        top = max((max(exponents(m), default=0) for m in self.terms), default=0)
        if n * top > _EXP_MAX:
            raise ValueError(f"an exponent of {self.kind.label} exceeds "
                             f"{_EXP_MAX} in the power {n} of a polynomial "
                             f"with exponents up to {top}")
        if len(self.terms) == 1:  # one term: its power at once, not n products
            return Poly(self.kind, {m * n: c**n for m, c in self.terms.items()})
        out = Poly.constant(self.kind, 1)
        for _ in range(n):
            out = out * self
        return out

    def __str__(self) -> str:
        return format_poly(self)


def variable(kind: AlgebraKind, a: int, b: int) -> Poly:
    """z[a,b] as a polynomial, canonicalized (sign folded for kind III)."""
    v, sign = kind.z_canonical(a, b)
    return Poly(kind, {kind._layout.unit[v]: sign})


def mul_z(f: Poly, a: int, b: int) -> Poly:
    """Multiply by z[a,b]; exact, degree raises by one."""
    v, sign = f.kind.z_canonical(a, b)
    layout = f.kind._layout
    unit = layout.unit[v]
    terms = ({m + unit: c for m, c in f.terms.items()} if sign == 1 else
             {m + unit: c * sign for m, c in f.terms.items()})
    layout.check(reduce(or_, terms, 0))
    return Poly(f.kind, terms)


def apply_partial(f: Poly, a: int, b: int) -> Poly:
    """Apply d[a,b] with the kind's scale convention; exact."""
    v, mult = f.kind.partial_canonical(a, b)
    shift = f.kind._layout.shift[v]
    unit, field = 1 << shift, _EXP_MAX << shift
    terms: dict = {}
    for m, c in f.terms.items():
        if e := m & field:  # distinct images: no collisions
            terms[m - unit] = c * mult * (e >> shift)
    return Poly(f.kind, terms)


def bargmann_inner(f: Poly, g: Poly) -> Fraction:
    """Bargmann pairing <f|g>: f with z -> d applied to g, constant term kept.

    Rational coefficients are their own conjugates, so no conjugation shows
    up explicitly.  Orthogonality of distinct monomials and the kind II
    diagonal doubling (<z[1,1] | z[1,1]> = 2) both emerge from the operator
    convention rather than being assumed.

    A term weighs prod(e!) over its exponents (times scale^e on kind II's
    diagonal).  A key with every field below 256 is weighed by a per-call
    memo keyed on its low bytes of 2 or more, in field order: exact, as
    0! = 1! = 1.  Kind II and wider keys are weighed from their exponents.
    """
    f._require_same_kind(g)
    layout = f.kind._layout
    scaled = [(k, scale) for k, (v, _) in enumerate(layout.fields)
              if (scale := layout.fold[v][1][1]) != 1]
    wide, nbytes, memo = layout.wide, layout.nbytes, {}
    total = 0  # an int sum while the coefficients are ints
    for key, fc in f.terms.items():
        # The derivative monomial annihilates every basis monomial except its
        # own exponent pattern (a surviving variable or a vanished derivative
        # kills the constant term), so only the matching key contributes.
        gc = g.terms.get(key, 0)
        if not gc:
            continue
        if scaled or key & wide:  # kind II's diagonal, or a field >= 256
            exps = layout.exponents(key)
            w = prod(map(factorial, exps)) * prod(scale ** exps[k]
                                                  for k, scale in scaled)
        else:
            big = key.to_bytes(nbytes, "little")[::4].translate(None, b"\0\1")
            if (w := memo.get(big)) is None:
                w = memo[big] = prod(map(factorial, big))
        total += fc * gc * w
    return Fraction(total)


def weight(f: Poly):
    """Common weight of every monomial under the diagonal operators.

    Kinds II/III return a length-N tuple w with w[i-1] counting appearances
    of row/column index i (diagonal variables of kind II count twice).  Kind
    I returns a pair (row_weight, col_weight) of tuples; the lowering
    operator R[b,b] eigenvalue is minus the col_weight entry.  Returns None
    when monomials disagree; raises on the zero polynomial.
    """
    if f.is_zero():
        raise ValueError("weight of the zero polynomial is undefined")
    kind = f.kind
    weights = set()
    for key in f.terms:
        row, col = [0] * kind.rows, [0] * kind.cols
        for (i, a), e in kind._layout.unpack(key):
            row[i - 1] += e
            col[a - 1] += e
        weights.add((tuple(row), tuple(col)) if kind.family == "I"
                    else tuple(map(add, row, col)))
    return weights.pop() if len(weights) == 1 else None


# ---- identity sweeps ----

# Monomials per check call, and the --jobs unit of work: _sweep cuts the
# grid into batches once.  A bracket image has about one term per monomial,
# so larger batches spread each kernel call's fixed cost over more terms:
# in process, the bench's bracket sweeps took 0.179 s at 32, 0.136 s at 128,
# 0.135 s at 256 and 0.130 s at 512 (2-vCPU Xeon).  Larger batches also keep
# more images alive (the I(5,5) XD dmax 5 proof peaks at 84 MiB, 81 at 32)
# and leave fewer to share under --jobs: at 512 the 969 monomials of
# I(4,4) dmax 3 make 2 batches, so a third process gets no work.
_BATCH = 256


def _sweep_chunk(kind: AlgebraKind, check, label_key: Optional[str],
                 monos: list[Monomial]) -> tuple[int, list]:
    """Check one batch: (checks counted, failure records in batch order)."""
    layout = kind._layout
    triples = check(Poly(kind, layout.batch(map(layout.pack, monos))))
    wrong = [(label, layout.split(lhs.terms), layout.split(rhs.terms))
             for label, lhs, rhs in triples if lhs != rhs]
    failures = []
    for i, mono in enumerate(monos):
        for label, lhs, rhs in wrong:
            lhs_i, rhs_i = lhs.get(i, {}), rhs.get(i, {})
            if lhs_i != rhs_i:
                record = {"monomial": format_poly(
                    Poly.from_monomial(kind, mono))}
                if label_key is not None:
                    record[label_key] = label
                record["lhs"] = format_poly(Poly(kind, lhs_i))
                record["rhs"] = format_poly(Poly(kind, rhs_i))
                failures.append(record)
    return len(monos) * len(triples), failures


def _sweep(identity: str, kind: AlgebraKind, params: dict, check,
           jobs: int, label_key: Optional[str] = None) -> Report:
    """Sweep one operator identity over every monomial of degree <= dmax.

    check(f) returns the list of (label, lhs, rhs) triples that the
    identity asserts for f.  The engine cuts the graded-lex grid once into
    batches of _BATCH monomials and calls check once per batch, f being
    their tagged sum (see the module docstring for the rules check must
    keep), and counts each triple once per monomial of the batch.  Only a
    triple whose sides differ on the batch is split by tag; each monomial
    on which its sides differ becomes a failure record {"monomial",
    label_key, "lhs", "rhs"} (label_key None leaves the label out), ordered
    by monomial, then by triple.  With jobs > 1 forked processes share the
    batches (see report.run_chunked); reports are byte-identical
    regardless of jobs.  A sweep that checks nothing raises ValueError
    rather than passing.
    """
    grid = list(monomials_upto(kind, params["dmax"]))
    batches = [grid[i:i + _BATCH] for i in range(0, len(grid), _BATCH)]
    worker = partial(_sweep_chunk, kind, check, label_key)
    checked, failures = 0, []
    for count, fails in run_chunked(worker, batches, jobs):
        checked += count
        failures += fails
    if checked == 0:
        raise ValueError(f"the {identity} sweep of {kind.label} up to dmax "
                         f"{params['dmax']} checks nothing")
    return Report(identity=identity, kind=kind.label, params=params,
                  checked_count=checked, failures=failures)


def _apply_zd(op: tuple, f: Poly) -> Poly:
    """z[a,b] f for op ("z", a, b), d[a,b] f for ("d", a, b).

    The kernels are looked up here at call time, so a patched or traced
    mul_z or apply_partial reaches every caller, forked --jobs workers too.
    """
    tag, a, b = op
    if tag == "z":
        return mul_z(f, a, b)
    if tag == "d":
        return apply_partial(f, a, b)
    raise ValueError(f"unknown operator tag {tag!r}")


# One commutator check serves both bracket sweeps: check_heisenberg binds it
# to _apply_zd, and contraction._contraction_chunk wraps it to run on
# unscaled generators through apply_generator.  The checks keep their *_chunk
# names because bench/tracer.py wraps algebra._heisenberg_chunk,
# determinants._capelli_chunk and contraction._contraction_chunk as the
# sweep-worker spans, and the tests patch _contraction_chunk.  They return
# lists, not generators, so a span covers the work it names.  Reversed checks
# [A, B] and [B, A] share their two second-order images, built once per batch.

def _heisenberg_chunk(apply, gens: list, checks: list, f: Poly) -> list:
    # Every generator acts on f once.  A check (label, i, j, expected)
    # expects sum c * images[k] for a list [(c, k)], else expected times f;
    # each distinct expectation is built once per call.  It compares
    # A(B f) = gens[i](images[j]) with B(A f) + rhs (B(A f) alone for a zero
    # rhs) instead of subtracting, and forms lhs = A(B f) - B(A f) only when
    # they differ.  A passing triple is (label, rhs, rhs), so a passing batch
    # keeps no left sides alive and the engine's compare of the two is an
    # identity check.  Check (i, j) builds ab and ba once; its partner (j, i)
    # reads them swapped into its own slot, and for i == j, ba is ab.
    images = [apply(g, f) for g in gens]
    expectations: dict = {}
    width = len(gens)
    slot: list = [None] * width ** 2  # check (i, j) sits at i * width + j
    for n, (_, i, j, _) in enumerate(checks):
        slot[i * width + j] = n
    out: list = [None] * len(checks)

    def verdict(n: int, ab: Poly, ba: Poly) -> None:
        label, _, _, expected = checks[n]
        listed = isinstance(expected, list)
        key = tuple(expected) if listed else expected
        if key not in expectations:
            expectations[key] = (sum((c * images[k] for c, k in expected),
                                     Poly.zero(f.kind))
                                 if listed else expected * f)
        rhs = expectations[key]
        lhs = rhs if ab == (ba + rhs if rhs.terms else ba) else ab - ba
        out[n] = (label, lhs, rhs)

    for n, (_, i, j, _) in enumerate(checks):
        if out[n] is None:
            ab = apply(gens[i], images[j])
            ba = ab if i == j else apply(gens[j], images[i])
            verdict(n, ab, ba)
            partner = slot[j * width + i]
            if partner is not None and out[partner] is None:
                verdict(partner, ba, ab)
    return out


def check_heisenberg(kind: AlgebraKind, dmax: int, jobs: int = 1) -> Report:
    """Verify [d[a,b], z[c,d]] = delta pattern on all monomials up to dmax.

    Every ordered index pair is exercised, including the aliased ones
    (kind II z[2,1], kind III sign-flipped pairs), so the canonicalization
    layer is part of what gets checked.
    """
    pairs = kind.index_pairs()
    gens = [("d", a, b) for a, b in pairs] + [("z", c, d) for c, d in pairs]
    checks = [(f"[d[{a},{b}],z[{c},{d}]]", i, len(pairs) + j,
               kind.commutator_scalar(a, b, c, d))
              for i, (a, b) in enumerate(pairs) for j, (c, d) in enumerate(pairs)]
    check = partial(_heisenberg_chunk, _apply_zd, gens, checks)
    return _sweep("heisenberg", kind, {"dmax": dmax}, check, jobs,
                  label_key="commutator")


# ---- text format ----
#
# A polynomial prints as terms joined by " + " / " - ", each term being
# "c * z[a,b]^e * ..." with c a nonnegative "num/den" rational and terms in
# lexicographic monomial order; the zero polynomial prints as "0".

_TERM_RE = re.compile(r"\s*((?:[+-]\s*)*)([^+-]+)")  # signs, then factors
_FACTOR_RE = re.compile(r"\s*(?:z\[\s*(\d+)\s*,\s*(\d+)\s*\](?:\s*\^\s*(\d+))?"
                        r"|(\d+(?:\s*/\s*\d+)?))\s*")


def format_rational(c: Rational) -> str:
    """Exact decimal-free rendering: "num/den", or "num" for integers."""
    return str(Fraction(c))


def format_poly(f: Poly) -> str:
    if f.is_zero():
        return "0"
    unpack = f.kind._layout.unpack
    parts: list[str] = []
    for mono, c in sorted((unpack(m), c) for m, c in f.terms.items()):
        body = " * ".join([format_rational(abs(c))]
                          + [f"z[{a},{b}]^{e}" for (a, b), e in mono])
        sign = ("" if c > 0 else "-") if not parts else ("+ " if c > 0 else "- ")
        parts.append(sign + body)
    return " ".join(parts)


def parse_poly(kind: AlgebraKind, text: str) -> Poly:
    """Parse the text format back into a polynomial; whitespace-insensitive.

    Accepts omitted coefficients ("z[1,2]"), omitted exponents, repeated
    factors, and non-canonical index pairs (folded per the kind).  Raises
    ValueError on anything unparsable or out of range.
    """
    if not text.strip():
        raise ValueError("empty polynomial text")
    terms: dict[Monomial, Rational] = {}
    pos, end = 0, len(text.rstrip())
    while pos < end:
        m = _TERM_RE.match(text, pos)
        factors = m and [_FACTOR_RE.fullmatch(p) for p in m.group(2).split("*")]
        if not factors or None in factors:
            raise ValueError("unparsable polynomial text near "
                             f"{text[pos:].strip()[:20]!r}")
        coeff: Rational = -1 if m.group(1).count("-") % 2 else 1
        exps: dict[Var, int] = {}
        for a, b, e, num in (factor.groups() for factor in factors):
            if num:
                try:
                    coeff *= Fraction(num.replace(" ", ""))
                except ZeroDivisionError:
                    near = text[pos:].strip()[:20]
                    raise ValueError("zero denominator in polynomial text "
                                     f"near {near!r}") from None
                continue
            v, sign = kind.z_canonical(int(a), int(b))
            e = int(e or 1)
            coeff *= sign ** (e % 2)
            exps[v] = exps.get(v, 0) + e
        if coeff:
            mono = tuple(sorted(exps.items()))
            terms[mono] = terms.get(mono, 0) + coeff
        pos = m.end()
    return Poly.make(kind, terms)
