"""Exact polynomial representations of three matrix Heisenberg algebras.

Variables are matrix entries z[a,b].  Kind I is a general p x q array of
independent entries; kind II is symmetric (z[a,b] = z[b,a]); kind III is
antisymmetric (z[a,b] = -z[b,a], zero diagonal).  A polynomial is a sparse
dict from monomials to exact rational coefficients, where a monomial is a
tuple of ((a, b), exponent) pairs sorted by index pair, over canonical pairs
only (row-major for kind I, a <= b for kind II, a < b for kind III).

The conjugate lowering operators d[a,b] are scaled partial derivatives:

    kind I:    d[a,b] = d/dz[a,b]          [d[a,b], z[c,d]] = d_ac d_bd
    kind II:   d[a,b] = (1+delta_ab) d/dz[a,b]
                                           [d[a,b], z[c,d]] = d_ac d_bd + d_bc d_ad
    kind III:  d[a,b] = d/dz[a,b] = -d[b,a]
                                           [d[a,b], z[c,d]] = d_ac d_bd - d_bc d_ad

The Bargmann pairing <f|g> substitutes d[a,b] for z[a,b] in f and applies the
resulting operator to g, keeping the constant term.  It is always computed by
operator application here, never read off a norm table, so the closed-form
norm results elsewhere in the package are checked against it, not by it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement
from typing import Iterator, Optional, Union

from .report import Report, merge_counts, run_chunked

Rational = Union[int, Fraction]
Var = tuple[int, int]
Monomial = tuple[tuple[Var, int], ...]

_FAMILIES = ("I", "II", "III")


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
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown algebra family {self.family!r}")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if self.family != "I" and self.rows != self.cols:
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

    def index_pairs(self) -> list[Var]:
        """All valid (possibly non-canonical) index pairs, row-major."""
        if self.family == "I":
            return [(i, a) for i in range(1, self.rows + 1)
                    for a in range(1, self.cols + 1)]
        if self.family == "II":
            return [(i, j) for i in range(1, self.rows + 1)
                    for j in range(1, self.rows + 1)]
        return [(i, j) for i in range(1, self.rows + 1)
                for j in range(1, self.rows + 1) if i != j]

    def variables(self) -> list[Var]:
        """Canonical variable index pairs in sorted (row-major) order."""
        if self.family == "I":
            return self.index_pairs()
        if self.family == "II":
            return [(i, j) for i in range(1, self.rows + 1)
                    for j in range(i, self.rows + 1)]
        return [(i, j) for i in range(1, self.rows + 1)
                for j in range(i + 1, self.rows + 1)]

    def _check_range(self, a: int, b: int) -> None:
        if not (1 <= a <= self.rows and 1 <= b <= self.cols):
            raise ValueError(f"index pair ({a},{b}) out of range for {self.label}")

    def z_canonical(self, a: int, b: int) -> tuple[Var, int]:
        """Canonical variable and sign for z[a,b]; raises on invalid pairs."""
        self._check_range(a, b)
        if self.family == "I":
            return (a, b), 1
        if self.family == "II":
            return ((a, b) if a <= b else (b, a)), 1
        if a == b:
            raise ValueError(f"z[{a},{a}] vanishes identically for kind III")
        return ((a, b), 1) if a < b else ((b, a), -1)

    def partial_canonical(self, a: int, b: int) -> tuple[Var, int]:
        """Canonical variable and scale factor for the operator d[a,b]."""
        self._check_range(a, b)
        if self.family == "I":
            return (a, b), 1
        if self.family == "II":
            if a == b:
                return (a, a), 2
            return ((a, b) if a < b else (b, a)), 1
        if a == b:
            raise ValueError(f"d[{a},{a}] vanishes identically for kind III")
        return ((a, b), 1) if a < b else ((b, a), -1)

    def commutator_scalar(self, a: int, b: int, c: int, d: int) -> int:
        """The scalar [d[a,b], z[c,d]] from the kind's delta pattern."""
        first = int(a == c) * int(b == d)
        if self.family == "I":
            return first
        cross = int(b == c) * int(a == d)
        return first + cross if self.family == "II" else first - cross


def monomial_degree(mono: Monomial) -> int:
    return sum(e for _, e in mono)


def monomial_from_vars(varlist: tuple[Var, ...]) -> Monomial:
    """Fold a sorted tuple of variables (with repeats) into a monomial."""
    out: list[tuple[Var, int]] = []
    for v in varlist:
        if out and out[-1][0] == v:
            out[-1] = (v, out[-1][1] + 1)
        else:
            out.append((v, 1))
    return tuple(out)


def monomials_upto(kind: AlgebraKind, dmax: int) -> Iterator[Monomial]:
    """Canonical monomials of total degree <= dmax in graded lex order.

    Raises ValueError at once for dmax < 0, which would give an empty grid:
    every sweep and matrix export enumerates its basis here, so none of them
    can report a check of nothing.
    """
    if dmax < 0:
        raise ValueError(f"degree bound dmax must be >= 0, got {dmax}")
    varlist = kind.variables()
    return (monomial_from_vars(combo) for d in range(dmax + 1)
            for combo in combinations_with_replacement(varlist, d))


@dataclass(frozen=True)
class Poly:
    """Sparse polynomial over one algebra kind; treat instances as immutable."""

    kind: AlgebraKind
    terms: dict

    @classmethod
    def make(cls, kind: AlgebraKind, terms: dict) -> "Poly":
        return cls(kind, {m: c for m, c in terms.items() if c})

    @classmethod
    def zero(cls, kind: AlgebraKind) -> "Poly":
        return cls(kind, {})

    @classmethod
    def constant(cls, kind: AlgebraKind, c: Rational) -> "Poly":
        return cls.make(kind, {(): c})

    @classmethod
    def from_monomial(cls, kind: AlgebraKind, mono: Monomial,
                      c: Rational = 1) -> "Poly":
        return cls.make(kind, {mono: c})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono: Monomial) -> Rational:
        return self.terms.get(mono, 0)

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        return max((monomial_degree(m) for m in self.terms), default=-1)

    def _require_same_kind(self, other: "Poly") -> None:
        if self.kind != other.kind:
            raise ValueError("polynomials belong to different algebra kinds")

    def __add__(self, other: "Poly") -> "Poly":
        self._require_same_kind(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            elif m in terms:
                del terms[m]
        return Poly(self.kind, terms)

    def __neg__(self) -> "Poly":
        return Poly(self.kind, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: Union["Poly", Rational]) -> "Poly":
        if isinstance(other, Poly):
            self._require_same_kind(other)
            terms: dict = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = _monomial_mul(m1, m2)
                    s = terms.get(m, 0) + c1 * c2
                    if s:
                        terms[m] = s
                    elif m in terms:
                        del terms[m]
            return Poly(self.kind, terms)
        if not other:
            return Poly.zero(self.kind)
        return Poly(self.kind, {m: c * other for m, c in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.constant(self.kind, 1)
        for _ in range(n):
            out = out * self
        return out

    def __str__(self) -> str:
        return format_poly(self)


def _monomial_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    exps: dict[Var, int] = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def variable(kind: AlgebraKind, a: int, b: int) -> Poly:
    """z[a,b] as a polynomial, canonicalized (sign folded for kind III)."""
    v, sign = kind.z_canonical(a, b)
    return Poly(kind, {((v, 1),): sign})


def mul_z(f: Poly, a: int, b: int) -> Poly:
    """Multiply by z[a,b]; exact, degree raises by one."""
    v, sign = f.kind.z_canonical(a, b)
    terms: dict = {}
    for mono, c in f.terms.items():
        terms[_bump(mono, v)] = c * sign
    return Poly(f.kind, terms)


def _bump(mono: Monomial, v: Var) -> Monomial:
    for idx, (w, e) in enumerate(mono):
        if w == v:
            return mono[:idx] + ((v, e + 1),) + mono[idx + 1:]
        if w > v:
            return mono[:idx] + ((v, 1),) + mono[idx:]
    return mono + ((v, 1),)


def apply_partial(f: Poly, a: int, b: int) -> Poly:
    """Apply d[a,b] with the kind's scale convention; exact."""
    v, mult = f.kind.partial_canonical(a, b)
    terms: dict = {}
    for mono, c in f.terms.items():
        for idx, (w, e) in enumerate(mono):
            if w == v:
                if e > 1:
                    reduced = mono[:idx] + ((v, e - 1),) + mono[idx + 1:]
                else:
                    reduced = mono[:idx] + mono[idx + 1:]
                terms[reduced] = terms.get(reduced, 0) + c * mult * e
                break
            if w > v:
                break
    return Poly.make(f.kind, terms)


def bargmann_inner(f: Poly, g: Poly) -> Fraction:
    """Bargmann pairing <f|g>: f with z -> d applied to g, constant term kept.

    Rational coefficients are their own conjugates, so no conjugation shows
    up explicitly.  Orthogonality of distinct monomials and the kind II
    diagonal doubling (<z[1,1] | z[1,1]> = 2) both emerge from the operator
    convention rather than being assumed.
    """
    f._require_same_kind(g)
    kind = f.kind
    diag_double = kind.family == "II"
    total = Fraction(0)
    for fmono, fc in f.terms.items():
        # The derivative monomial annihilates every basis monomial except its
        # own exponent pattern (a surviving variable or a vanished derivative
        # kills the constant term), so only the matching key contributes.
        gc = g.terms.get(fmono, 0)
        if not gc:
            continue
        scale = fc
        if diag_double:
            for (i, j), e in fmono:
                if i == j:
                    scale *= 1 << e
        val = 1
        for _, e in fmono:
            for k in range(2, e + 1):
                val *= k
        total += scale * gc * val
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
    result = None
    for mono in f.terms:
        if kind.family == "I":
            row = [0] * kind.rows
            col = [0] * kind.cols
            for (i, a), e in mono:
                row[i - 1] += e
                col[a - 1] += e
            w = (tuple(row), tuple(col))
        else:
            vec = [0] * kind.rows
            for (i, j), e in mono:
                vec[i - 1] += e
                vec[j - 1] += e
            w = tuple(vec)
        if result is None:
            result = w
        elif result != w:
            return None
    return result


# ---- identity sweeps ----

def _sweep_chunk(kind: AlgebraKind, check, label_key: Optional[str],
                 monos: list[Monomial]) -> tuple[int, list]:
    count = 0
    failures = []
    for mono in monos:
        f = Poly.from_monomial(kind, mono)
        for label, lhs, rhs in check(f):
            count += 1
            if lhs != rhs:
                record = {"monomial": format_poly(f)}
                if label_key is not None:
                    record[label_key] = label
                record["lhs"] = format_poly(lhs)
                record["rhs"] = format_poly(rhs)
                failures.append(record)
    return count, failures


def _sweep(identity: str, kind: AlgebraKind, params: dict, check,
           jobs: int, label_key: Optional[str] = None) -> Report:
    """Sweep one operator identity over every monomial of degree <= dmax.

    check(f) returns the list of (label, lhs, rhs) triples that the
    identity asserts for the polynomial f; each triple is one check, and an
    unequal one becomes a failure record {"monomial", label_key, "lhs",
    "rhs"} (label_key None leaves the label out).  check must pickle (a
    partial of a module-level function) so jobs > 1 can shard the monomial
    grid; reports are byte-identical regardless of jobs.  A sweep that
    checks nothing raises ValueError rather than passing.
    """
    monos = list(monomials_upto(kind, params["dmax"]))
    worker = partial(_sweep_chunk, kind, check, label_key)
    checked, failures = merge_counts(run_chunked(worker, monos, jobs))
    if checked == 0:
        raise ValueError(f"the {identity} sweep of {kind.label} up to dmax "
                         f"{params['dmax']} checks nothing")
    return Report(identity=identity, kind=kind.label, params=params,
                  checked_count=checked, failures=failures)


# The per-polynomial checks keep their *_chunk names: bench/tracer.py wraps
# algebra._heisenberg_chunk, determinants._capelli_chunk and
# contraction._contraction_chunk as the sweep-worker spans.  They return
# lists, not generators, so a span covers the work it names.

def _heisenberg_chunk(table: list, f: Poly) -> list:
    # The checks share one rhs per distinct scalar.  The returned list keeps
    # every lhs and rhs alive until the engine compares them, and each live
    # object adds garbage-collector work: one product per check made
    # check_heisenberg(II(4), 3) about 20% slower.
    multiples: dict = {}
    out = []
    for a, b, row in table:
        df = apply_partial(f, a, b)
        for c, d, label, scalar in row:
            lhs = apply_partial(mul_z(f, c, d), a, b) - mul_z(df, c, d)
            if scalar not in multiples:
                multiples[scalar] = scalar * f
            out.append((label, lhs, multiples[scalar]))
    return out


def check_heisenberg(kind: AlgebraKind, dmax: int, jobs: int = 1) -> Report:
    """Verify [d[a,b], z[c,d]] = delta pattern on all monomials up to dmax.

    Every ordered index pair is exercised, including the aliased ones
    (kind II z[2,1], kind III sign-flipped pairs), so the canonicalization
    layer is part of what gets checked.
    """
    pairs = kind.index_pairs()
    table = [(a, b, [(c, d, f"[d[{a},{b}],z[{c},{d}]]",
                      kind.commutator_scalar(a, b, c, d)) for c, d in pairs])
             for a, b in pairs]
    check = partial(_heisenberg_chunk, table)
    return _sweep("heisenberg", kind, {"dmax": dmax}, check, jobs,
                  label_key="commutator")


# ---- text format ----
#
# A polynomial prints as terms joined by " + " / " - ", each term being
# "c * z[a,b]^e * ..." with c a nonnegative "num/den" rational and terms in
# lexicographic monomial order; the zero polynomial prints as "0".

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<var>z\[\s*(?P<a>\d+)\s*,\s*(?P<b>\d+)\s*\]"
    r"(?:\s*\^\s*(?P<exp>\d+))?)"
    r"|(?P<num>\d+(?:\s*/\s*\d+)?)"
    r"|(?P<op>[+\-*]))")


def format_rational(c: Rational) -> str:
    """Exact decimal-free rendering: "num/den", or "num" for integers."""
    return str(Fraction(c))


def format_poly(f: Poly) -> str:
    if f.is_zero():
        return "0"
    parts: list[str] = []
    for mono in sorted(f.terms):
        c = f.terms[mono]
        mag = c if c > 0 else -c
        factors = [format_rational(mag)]
        factors += [f"z[{a},{b}]^{e}" for (a, b), e in mono]
        body = " * ".join(factors)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def parse_poly(kind: AlgebraKind, text: str) -> Poly:
    """Parse the text format back into a polynomial; whitespace-insensitive.

    Accepts omitted coefficients ("z[1,2]"), omitted exponents, repeated
    factors, and non-canonical index pairs (folded per the kind).  Raises
    ValueError on anything unparsable or out of range.
    """
    tokens: list = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ValueError(f"unparsable polynomial text near {rest[:20]!r}")
        if m.group("var"):
            exp = int(m.group("exp")) if m.group("exp") else 1
            tokens.append(("var", int(m.group("a")), int(m.group("b")), exp))
        elif m.group("num"):
            tokens.append(("num", Fraction(m.group("num").replace(" ", ""))))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    if not tokens:
        raise ValueError("empty polynomial text")

    total = Poly.zero(kind)
    i = 0
    while i < len(tokens):
        sign = 1
        while i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        coeff: Rational = sign
        mono_exps: dict[Var, int] = {}
        msign = 1
        saw_factor = False
        expect_factor = True
        while i < len(tokens):
            tok = tokens[i]
            if tok[0] == "op":
                if tok[1] == "*":
                    if expect_factor:
                        raise ValueError("misplaced '*' in polynomial text")
                    expect_factor = True
                    i += 1
                    continue
                break
            if not expect_factor and tok[0] in ("num", "var"):
                raise ValueError("missing operator between factors")
            if tok[0] == "num":
                coeff = coeff * tok[1]
            else:
                _, a, b, exp = tok
                v, s = kind.z_canonical(a, b)
                if exp % 2:
                    msign *= s
                if exp:
                    mono_exps[v] = mono_exps.get(v, 0) + exp
            saw_factor = True
            expect_factor = False
            i += 1
        if not saw_factor:
            raise ValueError("empty term in polynomial text")
        mono = tuple(sorted(mono_exps.items()))
        c = coeff * msign
        total = total + Poly.make(kind, {mono: c})
    return total
