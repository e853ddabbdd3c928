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
built here together with its conjugate box_m.

The column determinant is applied by Laplace expansion from the rightmost
column (Caracciolo, Sokal and Sportiello, "Noncommutative determinants,
Cauchy-Binet formulae, and Capelli-type identities I", 2009): after columns
n, ..., k have acted, the partial result depends only on the set S of rows
they used, so the expansion keeps one polynomial per row subset instead of
one product per permutation.  Placing row r in column k contributes the
sign (-1)^#{s in S : s < r}, the inversions it forms with the rows already
placed to its right.  That costs n 2^(n-1) applications of E instead of
n n!.

verify_capelli sweeps the identity over every monomial up to a degree bound
and reports failures exactly; it is the arbiter for the ordering and shift
conventions above.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import permutations
from typing import Optional, Sequence

from .algebra import AlgebraKind, Poly, _bump, _sweep
# Re-exported: callers and bench/test_bench.py look these kernels up here.
from .algebra import apply_partial, mul_z  # noqa: F401
from .report import Report

CAPELLI_SIDES = ("XD", "DX")


def _perm_sign(seq: Sequence[int]) -> int:
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


@dataclass(frozen=True)
class DiffOp:
    """Polynomial in the plain derivatives d/dz[v] over canonical variables.

    Kind-dependent scale factors (the kind II diagonal doubling, kind III
    sign folding) are absorbed into the coefficients at construction time,
    so apply() is a bare falling-factorial evaluation.
    """

    kind: AlgebraKind
    terms: dict

    def apply(self, f: Poly) -> Poly:
        if f.kind != self.kind:
            raise ValueError("operator and polynomial kinds differ")
        out: dict = {}
        for zmono, zc in f.terms.items():
            base = dict(zmono)
            for dmono, dc in self.terms.items():
                coeff = dc * zc
                exps = dict(base)
                for v, k in dmono:
                    e = exps.get(v, 0)
                    if e < k:
                        coeff = 0
                        break
                    for t in range(e, e - k, -1):
                        coeff *= t
                    exps[v] = e - k
                if coeff:
                    mono = tuple(sorted((v, e) for v, e in exps.items() if e))
                    s = out.get(mono, 0) + coeff
                    if s:
                        out[mono] = s
                    elif mono in out:
                        del out[mono]
        return Poly(self.kind, out)


def _check_minor(kind: AlgebraKind, n: int) -> None:
    if not 1 <= n <= kind.det_bound:
        raise ValueError(
            f"minor size {n} out of range for {kind.label} (max {kind.det_bound})")


def _det_terms(kind: AlgebraKind, n: int, canonical) -> dict:
    """Permutation expansion of the leading n x n minor of the matrix whose
    (a, b) entry canonical(a, b) gives as (variable, factor)."""
    _check_minor(kind, n)
    terms: dict = {}
    for perm in permutations(range(1, n + 1)):
        if kind.family == "III" and any(i == perm[i - 1] for i in range(1, n + 1)):
            continue
        coeff = _perm_sign(perm)
        exps: dict = {}
        for i in range(1, n + 1):
            v, factor = canonical(i, perm[i - 1])
            coeff *= factor
            exps[v] = exps.get(v, 0) + 1
        mono = tuple(sorted(exps.items()))
        s = terms.get(mono, 0) + coeff
        if s:
            terms[mono] = s
        elif mono in terms:
            del terms[mono]
    return terms


@lru_cache(maxsize=None)
def det_z(kind: AlgebraKind, n: int) -> Poly:
    """The leading n x n minor determinant of z as a polynomial.

    Permutation expansion; fine for the supported n <= 6.  For kind III and
    odd n every permutation hits a diagonal entry or cancels, so the result
    is the zero polynomial.
    """
    return Poly(kind, _det_terms(kind, n, kind.z_canonical))


@lru_cache(maxsize=None)
def det_partial(kind: AlgebraKind, n: int) -> DiffOp:
    """The conjugate minor determinant nabla_n = det(d), built once per (kind, n)."""
    return DiffOp(kind, _det_terms(kind, n, kind.partial_canonical))


# ---- Pfaffians (kind III) ----

def all_pairings(items: tuple) -> list[tuple]:
    """All perfect matchings as tuples of (a, b) pairs with a < b and the
    smallest free element always paired first; (2m-1)!! of them."""
    if not items:
        return [()]
    first, rest = items[0], items[1:]
    out = []
    for k in range(len(rest)):
        pair = (first, rest[k])
        remaining = rest[:k] + rest[k + 1:]
        for tail in all_pairings(remaining):
            out.append((pair,) + tail)
    return out


def _matching_sign(pairs: tuple) -> int:
    flat = [x for pair in pairs for x in pair]
    return _perm_sign(flat)


def _pfaffian_terms(kind: AlgebraKind, m: int) -> dict:
    """Matching expansion of the leading 2m x 2m Pfaffian (kind III only).

    Every pair (a, b) of a matching has a < b, so z[a,b] and d[a,b] are
    both the canonical variable (a, b) with factor +1, and one expansion
    serves phi_m and box_m.
    """
    if kind.family != "III":
        raise ValueError("Pfaffians only exist for kind III")
    if m < 0 or 2 * m > kind.rows:
        raise ValueError(f"Pfaffian block 2*{m} out of range for {kind.label}")
    terms: dict = {}
    for pairs in all_pairings(tuple(range(1, 2 * m + 1))):
        mono = tuple(sorted((pair, 1) for pair in pairs))
        terms[mono] = terms.get(mono, 0) + _matching_sign(pairs)
    return terms


@lru_cache(maxsize=None)
def pfaffian_z(kind: AlgebraKind, m: int) -> Poly:
    """phi_m: the Pfaffian of the leading 2m x 2m block of the kind III z.

    Sum over perfect matchings of {1..2m} with matching signs; the
    coefficient of z[1,2] z[3,4] ... is +1.  phi_0 = 1.
    """
    return Poly.make(kind, _pfaffian_terms(kind, m))


@lru_cache(maxsize=None)
def pfaffian_partial(kind: AlgebraKind, m: int) -> DiffOp:
    """box_m: the conjugate Pfaffian in the derivatives, same expansion."""
    return DiffOp(kind, _pfaffian_terms(kind, m))


def determinant_value(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant of a small square matrix of rationals (Leibniz sum)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    total = Fraction(0)
    for perm in permutations(range(n)):
        term = Fraction(_perm_sign([p + 1 for p in perm]))
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


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
    total = Fraction(0)
    for pairs in all_pairings(tuple(range(n))):
        term = Fraction(_matching_sign(pairs))
        for a, b in pairs:
            term *= rows[a][b]
        total += term
    return total


# ---- bilinear generators ----
#
# A bilinear generator sum_s z[a,s] d[b,s] sends each variable w of a
# monomial to at most one variable v: w serves a single d[b,s], and that
# derivative is paired with the single z[a,s].  A table w -> (v, factor),
# with factor the d scale times the z sign, lets one pass over each
# monomial lower w and raise v, for every s at once.

@lru_cache(maxsize=None)
def _e_table(kind: AlgebraKind, i: int, j: int, ncols: int) -> dict:
    """Variable map of E_ij = sum_{s<=ncols} z[i,s] d[j,s] (see apply_E)."""
    table = {}
    for s in range(1, ncols + 1):
        if kind.family == "III" and (s == i or s == j):
            continue
        w, scale = kind.partial_canonical(j, s)
        v, sign = kind.z_canonical(i, s)
        table[w] = (v, scale * sign)
    return table


def _add_bilinear(terms: dict, table: dict, factor, out: dict) -> None:
    """Add factor times the generator with variable map table, applied to
    terms, into out (zero coefficients are left for the caller to drop)."""
    for mono, c in terms.items():
        cf = c * factor
        for idx, (w, e) in enumerate(mono):
            hit = table.get(w)
            if hit is None:
                continue
            v, scale = hit
            if v == w:
                image = mono
            elif e > 1:
                image = _bump(mono[:idx] + ((w, e - 1),) + mono[idx + 1:], v)
            else:
                image = _bump(mono[:idx] + mono[idx + 1:], v)
            out[image] = out.get(image, 0) + cf * scale * e


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
    out: dict = {}
    _add_bilinear(f.terms, _e_table(kind, i, j, ncols), 1, out)
    return Poly.make(kind, out)


def apply_L(f: Poly, i: int, j: int) -> Poly:
    """Kind I row generator L_ij = sum_a z[i,a] d[j,a] (full column range)."""
    if f.kind.family != "I":
        raise ValueError("L generators belong to kind I")
    return apply_E(f, i, j, f.kind.cols)


def apply_R(f: Poly, alpha: int, beta: int) -> Poly:
    """Kind I column generator R_ab = -sum_i z[i,b] d[i,a]."""
    kind = f.kind
    if kind.family != "I":
        raise ValueError("R generators belong to kind I")
    if not (1 <= alpha <= kind.cols and 1 <= beta <= kind.cols):
        raise ValueError(f"generator columns ({alpha},{beta}) out of range")
    table = {(i, alpha): ((i, beta), 1) for i in range(1, kind.rows + 1)}
    out: dict = {}
    _add_bilinear(f.terms, table, -1, out)
    return Poly.make(kind, out)


# ---- Capelli right-hand side ----

def capelli_shift(kind: AlgebraKind, side: str, n: int, i: int) -> int:
    """Diagonal shift added to E_ii in row i of the column determinant."""
    if side not in CAPELLI_SIDES:
        raise ValueError(f"variant must be one of {CAPELLI_SIDES}")
    if side == "XD":
        return n - 1 - i if kind.family == "III" else n - i
    return n + 2 - i if kind.family == "II" else n + 1 - i


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
    _check_minor(kind, n)
    if shifts is None:
        shifts = [capelli_shift(kind, side, n, i) for i in range(1, n + 1)]
    elif len(shifts) != n:
        raise ValueError(f"need {n} diagonal shifts, got {len(shifts)}")
    states = {0: f.terms} if f.terms else {}  # row bitmask -> terms
    for col in range(n, 0, -1):  # rightmost factor acts first
        nxt: dict = {}
        for used, terms in states.items():
            for row in range(1, n + 1):
                bit = 1 << (row - 1)
                if used & bit:
                    continue
                sign = -1 if (used & (bit - 1)).bit_count() % 2 else 1
                out = nxt.setdefault(used | bit, {})
                _add_bilinear(terms, _e_table(kind, row, col, n), sign, out)
                shift = shifts[row - 1] if row == col else 0
                if shift:
                    for mono, c in terms.items():
                        out[mono] = out.get(mono, 0) + sign * shift * c
        states = {}
        for used, out in nxt.items():
            kept = {m: c for m, c in out.items() if c}
            if kept:
                states[used] = kept
    return Poly(kind, states.get((1 << n) - 1, {}))


def _capelli_chunk(xn: Poly, nabla: DiffOp, n: int, side: str,
                   shifts: Optional[tuple], f: Poly) -> list:
    if side == "XD":
        lhs = xn * nabla.apply(f)
    else:
        lhs = nabla.apply(xn * f)
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
    _check_minor(kind, n)
    if side not in CAPELLI_SIDES:
        raise ValueError(f"variant must be one of {CAPELLI_SIDES}")
    if kind.family == "III" and n % 2:
        raise ValueError("kind III identities hold for even n only (x_n = 0 "
                         "at odd n while the shifted determinant is nonzero)")
    check = partial(_capelli_chunk, det_z(kind, n), det_partial(kind, n), n,
                    side, tuple(shifts) if shifts is not None else None)
    return _sweep("capelli", kind, {"n": n, "variant": side, "dmax": dmax},
                  check, jobs)
