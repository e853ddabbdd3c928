"""Determinantal operators and the Capelli-type operator identities.

For each algebra kind the leading n x n minor determinant x_n = det(z) and
its conjugate nabla_n = det(d) satisfy an exact operator identity

    x_n nabla_n = det[ E_ij + s_i delta_ij ]   (variant XD)
    nabla_n x_n = det[ E_ij + t_i delta_ij ]   (variant DX)

where E_ij = sum_{s<=n} z[i,s] d[j,s] and the noncommutative determinant is
column-ordered: sum_sigma sgn(sigma) M[sigma(1),1] ... M[sigma(n),n], with
the column-n factor applied first.  The diagonal shifts depend on kind and
variant:

    kind I:   XD  n - i        DX  n + 1 - i
    kind II:  XD  n - i        DX  n + 2 - i
    kind III: XD  n - 1 - i    DX  n + 1 - i

For kind III, x_n vanishes identically at odd n while the shifted
determinant does not (n = 1, XD gives E_11 - 1 which is -1 on constants),
so the identity is asserted for even n only; verify_capelli rejects odd n.
At even n = 2m the determinant is the square of the Pfaffian phi_m, also
built here together with its conjugate box_m.  One permutation table and
one matching table feed the symbolic builders and the numeric ones alike.

The column determinant is applied by Laplace expansion from the rightmost
column (Caracciolo, Sokal and Sportiello, "Noncommutative determinants,
Cauchy-Binet formulae, and Capelli-type identities I", 2009): after columns
n, ..., k have acted, the partial result depends only on the set S of rows
they used, so the expansion keeps one polynomial per row subset instead of
one product per permutation.  Placing row r in column k contributes the
sign (-1)^#{s in S : s < r}, the inversions it forms with the rows already
placed to its right.  That costs n 2^(n-1) applications of E instead of
n n!.

Both left sides come from one symbol in normal order, every z left of every
d.  For P(d) = sum_beta c_beta d^beta and q acting by multiplication,
P(d) q = sum_gamma (1/gamma!) (d^gamma q) (d_zeta^gamma P)(d), so the part of
d^b in nabla_n x_n is sum_{beta >= b} c_beta C(beta, b) d^(beta - b) x_n, with
C(beta, b) = prod_v C(beta_v, b_v) and d the plain derivative (DiffOp folds
the kind's scales into c_beta); x_n nabla_n is its gamma = 0 slice, the parts
of degree n, c_b x_n each.  A part of degree above dmax annihilates every
monomial of degree <= dmax, so a sweep builds only the others (the full
I(6,6) symbols hold 1.18 million terms for DX, 518,400 for XD).  _apply_normal
applies it, and a DiffOp, which has no z part: z^m meets each sub-monomial b
with weight m!/(m - b)!, and the part of d^b adds c_ab z^(m - b + a) per z^a.
A b holding more of a variable than every part of the symbol meets no part,
so the walk stops at the symbol's caps (at most 1 for kind I, 2 off the kind
II diagonal).  The symbol carries its caps and degree range, read from its
keys.  Its build keeps only the symbol, and drops in place the coefficients
that cancel (1,080 in the III(6) DX symbol at dmax 6).

verify_capelli sweeps the identity over every monomial up to a degree bound
and reports failures exactly; it is the arbiter for the ordering and shift
conventions above.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial, reduce
from itertools import chain, combinations, compress, permutations
from math import comb, perm as _falling
from operator import or_
from typing import Optional, Sequence

from .algebra import (_EXP_MAX, _FIELD_BITS, AlgebraKind, Poly, _drop_zeros,
                      _sweep)
# Only bench/tracer.py and bench/test_bench.py look these kernels up here.
from .algebra import apply_partial, mul_z  # noqa: F401
from .report import Report

CAPELLI_SIDES = ("XD", "DX")


def _perm_sign(seq: Sequence[int]) -> int:
    return -1 if sum(a > b for a, b in combinations(seq, 2)) % 2 else 1


def _sub_monomials(fields, exps, caps, bottom: int, top: int, weigh,
                   w) -> list:
    """(b, w * prod_v weigh(exps_v, b_v), |b|) for every sub-monomial b of
    the monomial with exponents exps, b_v <= caps_v in every field v and
    bottom <= |b| <= top."""
    if sum(exps) < bottom:  # below the operator's degree: no map(min) pass
        return []
    rest = sum(map(min, exps, caps))  # the most |b| gains from fields ahead
    if rest < bottom:
        return []
    subs = [(0, w, 0)]
    for (_, shift), e, cap in compress(zip(fields, exps, caps), exps):
        t = e if e < cap else cap  # the most of this field b can take
        rest -= t
        if t == 1:  # b takes 0 or 1 of the e factors, of weight 1 or e
            step, least, grown = 1 << shift, bottom - rest, []
            for sub in subs:
                b, wb, k = sub
                if k >= least:
                    grown.append(sub)
                if k < top:
                    grown.append((b + step, wb * e, k + 1))
            subs = grown
        elif t:  # b takes j of the e factors and can still reach bottom
            subs = [(b + (j << shift), wb * weigh(e, j), k + j)
                    for b, wb, k in subs for j in range(
                        max(0, bottom - k - rest), min(t, top - k) + 1)]
    return subs


class _Symbol(dict):
    """groups[b] = {a: c_ab} of sum_b (sum_a c_ab z^a) d^b, with what the walk
    reads from its keys: caps, the largest exponent any b holds in each field
    (no group meets a sub-monomial past them), and bottom and top, min/max |b|."""

    def __init__(self, groups: dict, layout):
        super().__init__(groups)
        self.caps, degrees = [0] * len(layout.fields), set()
        for b in self:
            exps = layout.exponents(b)
            self.caps = list(map(max, self.caps, exps))
            degrees.add(sum(exps))
        self.bottom, self.top = min(degrees, default=0), max(degrees, default=0)


def _apply_normal(symbol: _Symbol, f: Poly) -> Poly:
    """Apply symbol's operator to f; a batch tag passes through untouched."""
    layout = f.kind._layout
    low, caps, out = layout.low, symbol.caps, {}
    for m, zc in f.terms.items():
        for b, w, _ in _sub_monomials(layout.fields, layout.exponents(m & low),
                                      caps, symbol.bottom, symbol.top,
                                      _falling, zc):
            for a, c in symbol.get(b, {}).items():
                key = m - b + a
                out[key] = out.get(key, 0) + w * c
    layout.check(reduce(or_, out, 0))  # every key written
    return Poly(f.kind, _drop_zeros(out))


@dataclass(frozen=True)
class DiffOp:
    """Polynomial in the plain derivatives d/dz[v] over canonical variables.

    terms maps packed monomial keys (see capelli.algebra) to coefficients.
    Kind-dependent scale factors (the kind II diagonal doubling, kind III
    sign folding) are absorbed into the coefficients at construction time,
    so apply() is _apply_normal with no z part, z^m to m!/(m - dm)! z^(m - dm).
    """

    kind: AlgebraKind
    terms: dict

    @cached_property
    def _symbol(self) -> _Symbol:
        return _Symbol({dm: {0: dc} for dm, dc in self.terms.items()},
                       self.kind._layout)

    def apply(self, f: Poly) -> Poly:
        if f.kind != self.kind:
            raise ValueError("operator and polynomial kinds differ")
        return _apply_normal(self._symbol, f)


def _check_minor(kind: AlgebraKind, n: int) -> None:
    if not 1 <= n <= kind.det_bound:
        raise ValueError(
            f"minor size {n} out of range for {kind.label} (max {kind.det_bound})")


def _leibniz(n: int):
    """Each permutation sigma of 1..n: its entries (i, sigma(i)) and sigma."""
    return ((enumerate(sigma, 1), sigma)
            for sigma in permutations(range(1, n + 1)))


def _matchings(n: int):
    """Each perfect matching of 1..n: its pairs (a, b) and their sequence."""
    return ((pairs, chain.from_iterable(pairs))
            for pairs in all_pairings(tuple(range(1, n + 1))))


def _expand(kind: AlgebraKind, expansion, side: int) -> dict:
    """The terms of an expansion (_leibniz or _matchings) over z (side 0) or
    d (side 1), each entry read from the kind's fold table.  A term through
    a vanishing entry (the kind III diagonal) is skipped before its sign."""
    fold, unit, terms = kind._layout.fold, kind._layout.unit, {}
    for entries, seq in expansion:
        coeff, key = 1, 0
        for entry in entries:
            if entry not in fold:
                break
            v, factor = fold[entry][side]
            coeff *= factor
            key += unit[v]
        else:
            terms[key] = terms.get(key, 0) + coeff * _perm_sign(seq)
    return _drop_zeros(terms)


def _evaluate(rows: Sequence[Sequence], expansion) -> Fraction:
    """The sum of an expansion's signed products of entries of rows."""
    total = Fraction(0)
    for entries, seq in expansion:
        term = Fraction(_perm_sign(seq))
        for i, j in entries:
            term *= rows[i - 1][j - 1]
        total += term
    return total


@lru_cache(maxsize=None)
def det_z(kind: AlgebraKind, n: int) -> Poly:
    """The leading n x n minor determinant of z as a polynomial.

    Permutation expansion; fine for the supported n <= 6.  For kind III and
    odd n every permutation hits a diagonal entry or cancels, so the result
    is the zero polynomial.
    """
    _check_minor(kind, n)
    return Poly(kind, _expand(kind, _leibniz(n), 0))


@lru_cache(maxsize=None)
def det_partial(kind: AlgebraKind, n: int) -> DiffOp:
    """The conjugate minor determinant nabla_n = det(d), built once per (kind, n)."""
    _check_minor(kind, n)
    return DiffOp(kind, _expand(kind, _leibniz(n), 1))


# ---- Pfaffians (kind III) ----

def all_pairings(items: tuple) -> list[tuple]:
    """All perfect matchings as tuples of (a, b) pairs with a < b and the
    smallest free element always paired first; (2m-1)!! of them."""
    if not items:
        return [()]
    first, rest = items[0], items[1:]
    return [((first, rest[k]),) + tail for k in range(len(rest))
            for tail in all_pairings(rest[:k] + rest[k + 1:])]


def _pfaffian_terms(kind: AlgebraKind, m: int, side: int) -> dict:
    if kind.family != "III":
        raise ValueError("Pfaffians only exist for kind III")
    if m < 0 or 2 * m > kind.rows:
        raise ValueError(f"Pfaffian block 2*{m} out of range for {kind.label}")
    return _expand(kind, _matchings(2 * m), side)


@lru_cache(maxsize=None)
def pfaffian_z(kind: AlgebraKind, m: int) -> Poly:
    """phi_m: the Pfaffian of the leading 2m x 2m block of the kind III z.

    Sum over perfect matchings of {1..2m} with matching signs; the
    coefficient of z[1,2] z[3,4] ... is +1.  phi_0 = 1.
    """
    return Poly(kind, _pfaffian_terms(kind, m, 0))


@lru_cache(maxsize=None)
def pfaffian_partial(kind: AlgebraKind, m: int) -> DiffOp:
    """box_m: the conjugate Pfaffian in the derivatives, same expansion."""
    return DiffOp(kind, _pfaffian_terms(kind, m, 1))


def determinant_value(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant of a small square matrix of rationals (Leibniz sum)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    return _evaluate(rows, _leibniz(n))


def pfaffian_value(rows: Sequence[Sequence]) -> Fraction:
    """Exact Pfaffian of an antisymmetric matrix of even size (matching sum)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    if n % 2:
        raise ValueError("Pfaffian needs even size")
    for i in range(n):
        if rows[i][i]:
            raise ValueError("matrix has a nonzero diagonal entry")
        for j in range(i + 1, n):
            if rows[i][j] != -rows[j][i]:
                raise ValueError("matrix is not antisymmetric")
    return _evaluate(rows, _matchings(n))


# ---- bilinear generators ----
#
# Every bilinear generator has the E pattern E_ij = sum_s z[i,s] d[j,s]:
# L_ij is E_ij over all columns, and R_ab = -sum_s z[s,b] d[s,a] is minus
# E_ba of the transposed matrix.  Such a generator sends each variable w of
# a monomial to at most one variable v: w serves a single d[j,s], and that
# derivative is paired with the single z[i,s].  A table of rows
# (shift of w, unit of w, unit of v, factor), with factor the d scale times
# the z sign, lets one pass over each packed monomial lower w and raise v,
# for every s at once.
#
# What the generator does to z^m depends only on the w-part of m, m & mask,
# where mask covers every w field of the table: each w of exponent e > 0
# gives the move (unit of v - unit of w, factor * e), added to m and scaled
# into the coefficient, and a w-part of 0 gives no move at all.  A table
# remembers the moves of the first _MOVES_CAP w-parts it meets and computes
# the others afresh.  The memo is keyed by w-parts, never by whole keys, and
# holds no caller's factor: it stores the operator, not its images.

_MOVES_CAP = 1024  # w-parts per table; export III(5) at dmax 5 meets 125


class _ETable(list):
    """A generator's rows (shift of w, unit of w, unit of v, factor), the
    mask of its w fields and its move memo (see the comment above)."""

    def __init__(self, rows):
        super().__init__(rows)
        self.mask = reduce(or_, (_EXP_MAX << row[0] for row in self), 0)
        self.moves: dict = {}
        self._steps = [(shift, unit_v - unit_w, scale)  # deltas every move shares
                       for shift, unit_w, unit_v, scale in self]

    def moves_of(self, part: int) -> tuple:
        moves = tuple([(delta, scale * e) for shift, delta, scale in self._steps
                       if (e := (part >> shift) & _EXP_MAX)])
        if len(self.moves) < _MOVES_CAP:
            self.moves[part] = moves
        return moves


@lru_cache(maxsize=None)
def _e_table(kind: AlgebraKind, i: int, j: int, ncols: int,
             transpose: bool = False) -> _ETable:
    """Variable map of E_ij = sum_{s<=ncols} z[i,s] d[j,s] (see apply_E),
    or with transpose of sum_{s<=ncols} z[s,i] d[s,j] (see apply_R)."""
    layout = kind._layout
    rows = []
    for s in range(1, ncols + 1):
        zi, dj = ((s, i), (s, j)) if transpose else ((i, s), (j, s))
        z, d = layout.fold.get(zi), layout.fold.get(dj)
        if z is None or d is None:  # z[i,i] or d[j,j] of kind III
            continue
        (v, sign), (w, scale) = z[0], d[1]
        rows.append((layout.shift[w], layout.unit[w], layout.unit[v],
                     scale * sign))
    return _ETable(rows)


def _add_bilinear(terms: dict, table: _ETable, factor, out: dict) -> int:
    """Add factor times the generator with variable map table, applied to
    terms, into out (zero coefficients are left for the caller to drop).
    Returns the OR of the keys written, for the caller's overflow check."""
    mask, memo, raised = table.mask, table.moves, 0
    for m, c in terms.items():
        part = m & mask
        if not part:  # no w variable: the generator kills z^m
            continue
        moves = memo.get(part)
        if moves is None:
            moves = table.moves_of(part)
        cf = c * factor
        for delta, k in moves:
            image = m + delta
            raised |= image
            out[image] = out.get(image, 0) + cf * k
    return raised


def _apply_bilinear(f: Poly, table: _ETable, factor) -> Poly:
    """factor times the generator with variable map table applied to f."""
    out: dict = {}
    f.kind._layout.check(_add_bilinear(f.terms, table, factor, out))
    return Poly(f.kind, _drop_zeros(out))


def apply_E(f: Poly, i: int, j: int, ncols: int) -> Poly:
    """E_ij = sum_{s<=ncols} z[i,s] d[j,s] applied to f.

    For kind III the s = i term carries z[i,i] = 0 and the s = j term
    carries d[j,j] = 0, so both are skipped.
    """
    kind = f.kind
    if not (1 <= i <= kind.rows and 1 <= j <= kind.rows):
        raise ValueError(f"generator rows ({i},{j}) out of range for {kind.label}")
    if not 1 <= ncols <= kind.cols:
        raise ValueError(f"column bound {ncols} out of range for {kind.label}")
    return _apply_bilinear(f, _e_table(kind, i, j, ncols), 1)


def apply_L(f: Poly, i: int, j: int) -> Poly:
    """Kind I row generator L_ij = sum_a z[i,a] d[j,a] (full column range)."""
    if f.kind.family != "I":
        raise ValueError("L generators belong to kind I")
    return apply_E(f, i, j, f.kind.cols)


def apply_R(f: Poly, alpha: int, beta: int) -> Poly:
    """Kind I column generator R_ab = -sum_i z[i,b] d[i,a], minus E_ba of
    the transposed matrix."""
    kind = f.kind
    if kind.family != "I":
        raise ValueError("R generators belong to kind I")
    if not (1 <= alpha <= kind.cols and 1 <= beta <= kind.cols):
        raise ValueError(f"generator columns ({alpha},{beta}) out of range")
    return _apply_bilinear(f, _e_table(kind, beta, alpha, kind.rows, True), -1)


# ---- Capelli right-hand side ----

def capelli_shift(kind: AlgebraKind, side: str, n: int, i: int) -> int:
    """Diagonal shift added to E_ii in row i of the column determinant."""
    if side not in CAPELLI_SIDES:
        raise ValueError(f"variant must be one of {CAPELLI_SIDES}")
    _check_minor(kind, n)
    if not 1 <= i <= n:
        raise ValueError(f"row {i} out of range 1..{n}")
    if side == "XD":
        return n - 1 - i if kind.family == "III" else n - i
    return n + 2 - i if kind.family == "II" else n + 1 - i


def _capelli_shifts(kind: AlgebraKind, n: int, side: str,
                    shifts: Optional[Sequence[int]]) -> tuple:
    """Check a Capelli determinant's arguments, then return its shifts,
    by default capelli_shift's, which are computed to check the variant."""
    _check_minor(kind, n)
    default = tuple(capelli_shift(kind, side, n, i) for i in range(1, n + 1))
    if shifts is not None and len(shifts) != n:
        raise ValueError(f"need {n} diagonal shifts, got {len(shifts)}")
    return default if shifts is None else tuple(shifts)


def capelli_rhs_apply(f: Poly, n: int, side: str,
                      shifts: Optional[Sequence[int]] = None) -> Poly:
    """Apply det[E_ij + shift_i delta_ij] to f, column-ordered.

    Laplace expansion over row subsets (see the module docstring): walking
    the columns k = n, ..., 1, the polynomial G(S) for the set S of rows
    already placed feeds G(S + {r}) += (-1)^#{s in S : s < r}
    (E_rk + shift_r delta_rk) G(S) for every row r not in S.  Cancelled
    terms are deleted from each state in place, and an empty state is
    dropped.  The full set of rows holds the result after n 2^(n-1)
    applications of E (n n! for the permutation sum).

    shifts overrides the per-row diagonal shifts (used by the mutation
    sensitivity tests); by default they come from capelli_shift.
    """
    kind = f.kind
    shifts = _capelli_shifts(kind, n, side, shifts)
    states = {0: f.terms} if f.terms else {}  # row bitmask -> terms
    raised = 0
    for col in range(n, 0, -1):  # rightmost factor acts first
        nxt: dict = {}
        for used, terms in states.items():
            for row in range(1, n + 1):
                bit = 1 << (row - 1)
                if used & bit:
                    continue
                sign = -1 if (used & (bit - 1)).bit_count() % 2 else 1
                out = nxt.setdefault(used | bit, {})
                raised |= _add_bilinear(terms, _e_table(kind, row, col, n),
                                        sign, out)
                shift = sign * shifts[row - 1] if row == col else 0
                if shift:
                    for mono, c in terms.items():
                        out[mono] = out.get(mono, 0) + shift * c
        for used, out in list(nxt.items()):
            if not _drop_zeros(out):
                del nxt[used]
        states = nxt
    kind._layout.check(raised)
    return Poly(kind, states.get((1 << n) - 1, {}))


def _derivative(memo: dict, gamma: int) -> dict:
    """d^gamma of memo[0], one d_v at a time from its top field down; every
    step is stored in memo, which the caller owns."""
    if gamma not in memo:
        shift = (gamma.bit_length() - 1) & -_FIELD_BITS  # its top field
        memo[gamma] = {m - (1 << shift): c * e for m, c in
                       _derivative(memo, gamma - (1 << shift)).items()
                       if (e := (m >> shift) & _EXP_MAX)}
    return memo[gamma]


@lru_cache(maxsize=None)
def _capelli_symbol(kind: AlgebraKind, n: int, side: str, dmax: int) -> _Symbol:
    """x_n nabla_n (XD: parts of degree n) or nabla_n x_n (DX) in normal
    order, parts of degree <= dmax only; the d^gamma x_n memo is per call."""
    layout, memo, groups = kind._layout, {0: det_z(kind, n).terms}, {}
    bottom = n if side == "XD" else 0
    for beta, cb in det_partial(kind, n).terms.items():
        exps = layout.exponents(beta)
        for b, w, _ in _sub_monomials(layout.fields, exps, exps, bottom, dmax,
                                      comb, cb):
            group = groups.setdefault(b, {})
            for a, c in _derivative(memo, beta - b).items():
                group[a] = group.get(a, 0) + w * c
    for group in groups.values():
        _drop_zeros(group)
    return _Symbol(groups, layout)


def _capelli_chunk(n: int, side: str, shifts: tuple, dmax: int,
                   f: Poly) -> list:
    # The symbol comes from its per-process cache, so the check takes plain
    # parameters and each --jobs process builds it at most once.
    lhs = _apply_normal(_capelli_symbol(f.kind, n, side, dmax), f)
    return [(None, lhs, capelli_rhs_apply(f, n, side, shifts))]


def verify_capelli(kind: AlgebraKind, n: int, side: str, dmax: int,
                   jobs: int = 1,
                   shifts: Optional[Sequence[int]] = None) -> Report:
    """Sweep one Capelli identity over all monomials of degree <= dmax.

    Exact comparison, one failure record per offending monomial.  Kind III
    restricts to even n (see the module docstring).  The monomial grid may
    be sharded across processes with jobs > 1; reports are byte-identical
    regardless of jobs.
    """
    shifts = _capelli_shifts(kind, n, side, shifts)
    if kind.family == "III" and n % 2:
        raise ValueError("kind III identities hold for even n only (x_n = 0 "
                         "at odd n while the shifted determinant is nonzero)")
    check = partial(_capelli_chunk, n, side, shifts, dmax)
    return _sweep("capelli", kind, {"n": n, "variant": side, "dmax": dmax},
                  check, jobs)
