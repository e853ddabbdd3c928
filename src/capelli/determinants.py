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

The DX left side nabla_n x_n is applied in normal order, every z left of
every d.  For P(d) = sum_beta c_beta d^beta and q acting by multiplication,
P(d) q = sum_gamma (1/gamma!) (d^gamma q) (d_zeta^gamma P)(d), so the part
of d^b is sum_{beta >= b} c_beta C(beta, b) d^(beta - b) x_n, with
C(beta, b) = prod_v C(beta_v, b_v) and d the plain derivative (DiffOp folds
the kind's scales into c_beta).  A part of degree above dmax annihilates
every monomial of degree <= dmax, so a sweep builds only the others (the
full I(6,6) symbol would hold 1.18 million terms).  _apply_normal applies
it, and a DiffOp, which has no z part: z^m meets each sub-monomial b with
weight m!/(m - b)!, and the part of d^b adds c_ab z^(m - b + a) per z^a.

verify_capelli sweeps the identity over every monomial up to a degree bound
and reports failures exactly; it is the arbiter for the ordering and shift
conventions above.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial, reduce
from itertools import chain, combinations, permutations
from math import comb, perm as _falling
from operator import or_
from typing import Optional, Sequence

from .algebra import _EXP_MAX, _FIELD_BITS, AlgebraKind, Poly, _sweep
# Re-exported: callers and bench/test_bench.py look these kernels up here.
from .algebra import apply_partial, mul_z  # noqa: F401
from .report import Report

CAPELLI_SIDES = ("XD", "DX")


def _perm_sign(seq: Sequence[int]) -> int:
    return -1 if sum(a > b for a, b in combinations(seq, 2)) % 2 else 1


def _sub_monomials(fields, exps, bottom: int, top: int, weigh, w) -> list:
    """(b, w * prod_v weigh(exps_v, b_v), |b|) for every sub-monomial b of
    the monomial with exponents exps and bottom <= |b| <= top."""
    rest = sum(exps)  # the degree of the fields not walked yet
    subs = [(0, w, 0)] if rest >= bottom else []
    for (_, shift), e in zip(fields, exps):
        if e:  # b takes j of the e factors and can still reach bottom
            rest -= e
            subs = [(b + (j << shift), wb * weigh(e, j), k + j)
                    for b, wb, k in subs for j in range(
                        max(0, bottom - k - rest), min(e, top - k) + 1)]
    return subs


def _apply_normal(groups: dict, bottom: int, top: int, f: Poly) -> Poly:
    """Apply sum_b (sum_a c_ab z^a) d^b, as groups[b] = {a: c_ab} for
    bottom <= |b| <= top, to f; a batch tag passes through untouched."""
    layout = f.kind._layout
    low, out = layout.low, {}
    for m, zc in f.terms.items():
        for b, w, _ in _sub_monomials(layout.fields, layout.exponents(m & low),
                                      bottom, top, _falling, zc):
            for a, c in groups.get(b, {}).items():
                key = m - b + a
                out[key] = out.get(key, 0) + w * c
    layout.check(reduce(or_, out, 0))  # every key written
    return Poly(f.kind, {m: c for m, c in out.items() if c})


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
    def _symbol(self) -> tuple:
        degrees = [sum(self.kind._layout.exponents(dm)) for dm in self.terms]
        return ({dm: {0: dc} for dm, dc in self.terms.items()},
                min(degrees, default=0), max(degrees, default=0))

    def apply(self, f: Poly) -> Poly:
        if f.kind != self.kind:
            raise ValueError("operator and polynomial kinds differ")
        return _apply_normal(*self._symbol, f)


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
    return {m: c for m, c in terms.items() if c}


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


@lru_cache(maxsize=None)
def _e_tables(kind: AlgebraKind, n: int) -> list:
    """_e_table(kind, row, col, n) at [col - 1][row - 1], one lookup per call."""
    return [[_e_table(kind, row, col, n) for row in range(1, n + 1)]
            for col in range(1, n + 1)]


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


def _apply_bilinear(f: Poly, table: list, factor) -> Poly:
    """factor times the generator with variable map table (an _ETable, or a
    plain list of rows, which gets a memo of its own) applied to f."""
    if not isinstance(table, _ETable):
        table = _ETable(table)
    out: dict = {}
    f.kind._layout.check(_add_bilinear(f.terms, table, factor, out))
    return Poly(f.kind, {m: c for m, c in out.items() if c})


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
    (E_rk + shift_r delta_rk) G(S) for every row r not in S.  States that
    cancel to zero are dropped at once.  The full set of rows holds the
    result after n 2^(n-1) applications of E (n n! for the permutation sum).

    shifts overrides the per-row diagonal shifts (used by the mutation
    sensitivity tests); by default they come from capelli_shift.
    """
    kind = f.kind
    shifts = _capelli_shifts(kind, n, side, shifts)
    states = {0: f.terms} if f.terms else {}  # row bitmask -> terms
    tables = _e_tables(kind, n)
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
                raised |= _add_bilinear(terms, tables[col - 1][row - 1], sign,
                                        out)
                shift = shifts[row - 1] if row == col else 0
                if shift:
                    for mono, c in terms.items():
                        out[mono] = out.get(mono, 0) + sign * shift * c
        states = {}
        for used, out in nxt.items():
            kept = {m: c for m, c in out.items() if c}
            if kept:
                states[used] = kept
    kind._layout.check(raised)
    return Poly(kind, states.get((1 << n) - 1, {}))


@lru_cache(maxsize=None)
def _dx_symbol(kind: AlgebraKind, n: int, dmax: int) -> tuple:
    """nabla_n x_n in normal order, d parts of degree <= dmax only, as the
    (groups, bottom, top) that _apply_normal takes (see the module docstring)."""
    layout = kind._layout

    @lru_cache(maxsize=None)
    def deriv(gamma: int) -> dict:  # d^gamma x_n, one d_v at a time
        if not gamma:
            return det_z(kind, n).terms
        shift = (gamma.bit_length() - 1) & -_FIELD_BITS  # its top field
        terms = deriv(gamma - (1 << shift)).items()
        return {m - (1 << shift): c * e for m, c in terms
                if (e := (m >> shift) & _EXP_MAX)}

    groups: dict = {}
    for beta, cb in det_partial(kind, n).terms.items():
        for b, w, _ in _sub_monomials(layout.fields, layout.exponents(beta),
                                      0, dmax, comb, cb):
            group = groups.setdefault(b, {})
            for a, c in deriv(beta - b).items():
                group[a] = group.get(a, 0) + w * c
    return ({b: {a: c for a, c in g.items() if c} for b, g in groups.items()},
            0, min(n, dmax))


def _capelli_chunk(n: int, side: str, shifts: tuple, dmax: int,
                   f: Poly) -> list:
    # The operators come from their per-process caches, so the check takes
    # plain parameters and each --jobs process builds them at most once.
    kind = f.kind
    lhs = (det_z(kind, n) * det_partial(kind, n).apply(f) if side == "XD"
           else _apply_normal(*_dx_symbol(kind, n, dmax), f))
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
