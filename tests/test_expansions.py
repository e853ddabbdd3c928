"""The minor and Pfaffian builders against sums written out here.

det_z, det_partial, pfaffian_z and pfaffian_partial are compared with
permutation and matching sums built from the public z_canonical,
partial_canonical and Poly.make, with signs from cycle counts and from
expansion along the first row.  determinant_value is compared with Fraction
Gaussian elimination and pfaffian_value with expansion along the first row,
on seeded random rational matrices, singular ones included.
"""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from capelli.algebra import AlgebraKind, Poly, monomial_from_vars
from capelli.determinants import (det_partial, det_z, determinant_value,
                                  pfaffian_partial, pfaffian_value,
                                  pfaffian_z)

KINDS = ([AlgebraKind.type_i(p, q) for p in range(1, 5) for q in range(1, 5)]
         + [AlgebraKind.type_i(6, 6)]
         + [AlgebraKind.type_ii(N) for N in range(1, 7)]
         + [AlgebraKind.type_iii(N) for N in range(1, 7)])
MINORS = [(kind, n) for kind in KINDS for n in range(1, kind.det_bound + 1)]
PFAFFIANS = [(AlgebraKind.type_iii(N), m) for N in range(1, 7)
             for m in range(N // 2 + 1)]


def cycle_sign(sigma) -> int:
    """(-1)^(n - number of cycles) for sigma a permutation of 0..n-1."""
    seen, cycles = set(), 0
    for start in range(len(sigma)):
        if start not in seen:
            cycles += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = sigma[i]
    return -1 if (len(sigma) - cycles) % 2 else 1


def entry_of(kind, side):
    return kind.z_canonical if side == "z" else kind.partial_canonical


def minor_sum(kind, n, side) -> Poly:
    """sum_sigma sgn(sigma) prod_i M[i, sigma(i)], M = z or d, skipping
    every permutation through an entry that vanishes."""
    entry, terms = entry_of(kind, side), {}
    for sigma in permutations(range(n)):
        try:
            factors = [entry(i + 1, sigma[i] + 1) for i in range(n)]
        except ValueError:  # z[i,i] or d[i,i] of kind III
            continue
        coeff = cycle_sign(sigma)
        for _, c in factors:
            coeff *= c
        mono = monomial_from_vars(tuple(sorted(v for v, _ in factors)))
        terms[mono] = terms.get(mono, 0) + coeff
    return Poly.make(kind, terms)


def pfaffian_sum(kind, idx, side) -> dict:
    """Pf M_idx by expansion along its first row: sum over the partner
    idx[k] of (-1)^(k-1) M[idx[0], idx[k]] Pf M_(idx without both), as
    sorted variable tuples to coefficients."""
    if not idx:
        return {(): 1}
    entry, out = entry_of(kind, side), {}
    for k in range(1, len(idx)):
        v, c = entry(idx[0], idx[k])
        rest = idx[1:k] + idx[k + 1:]
        for vs, coeff in pfaffian_sum(kind, rest, side).items():
            key = tuple(sorted(vs + (v,)))
            out[key] = out.get(key, 0) + (-1) ** (k - 1) * c * coeff
    return out


@pytest.mark.parametrize("kind, n", MINORS,
                         ids=[f"{kind.label}-n{n}" for kind, n in MINORS])
def test_minors_match_the_permutation_sum(kind, n):
    assert det_z(kind, n).terms == minor_sum(kind, n, "z").terms
    assert det_partial(kind, n).terms == minor_sum(kind, n, "d").terms


@pytest.mark.parametrize("kind, m", PFAFFIANS,
                         ids=[f"{kind.label}-m{m}" for kind, m in PFAFFIANS])
def test_pfaffians_match_the_first_row_expansion(kind, m):
    for side, built in (("z", pfaffian_z(kind, m).terms),
                        ("d", pfaffian_partial(kind, m).terms)):
        terms = pfaffian_sum(kind, tuple(range(1, 2 * m + 1)), side)
        expected = Poly.make(kind, {monomial_from_vars(vs): c
                                    for vs, c in terms.items()})
        assert built == expected.terms


def gauss_det(rows) -> Fraction:
    """Fraction Gaussian elimination with row swaps."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(len(a)):
        pivot = next((r for r in range(col, len(a)) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, len(a)):
            ratio = a[r][col] / a[col][col]
            for c in range(col, len(a)):
                a[r][c] -= ratio * a[col][c]
    return det


def first_row_pfaffian(rows) -> Fraction:
    """Pf A = sum_{j>0} (-1)^(j-1) A[0][j] Pf A with rows and columns 0, j cut."""
    n = len(rows)
    if not n:
        return Fraction(1)
    total = Fraction(0)
    for j in range(1, n):
        keep = [k for k in range(1, n) if k != j]
        minor = [[rows[r][c] for c in keep] for r in keep]
        total += (-1) ** (j - 1) * rows[0][j] * first_row_pfaffian(minor)
    return total


def rational(rng):
    return Fraction(rng.randrange(-9, 10), rng.randrange(1, 6))


def random_square(rng, n, singular):
    rows = [[rational(rng) for _ in range(n)] for _ in range(n)]
    if singular and n:  # the last row is a combination of the others
        weights = [rational(rng) for _ in range(n - 1)]
        rows[-1] = [sum((w * row[c] for w, row in zip(weights, rows)),
                        Fraction(0)) for c in range(n)]
    return rows


def random_antisymmetric(rng, n, singular):
    if singular:  # u v^T - v u^T has rank at most 2
        u = [rational(rng) for _ in range(n)]
        v = [rational(rng) for _ in range(n)]
        return [[u[i] * v[j] - v[i] * u[j] for j in range(n)] for i in range(n)]
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rational(rng)
            rows[j][i] = -rows[i][j]
    return rows


@pytest.mark.parametrize("n", range(7))
def test_determinant_value_matches_elimination(n):
    rng = random.Random(240 + n)
    for singular in (False, True):
        for _ in range(4):
            rows = random_square(rng, n, singular)
            value = determinant_value(rows)
            assert value == gauss_det(rows)
            if singular and n:
                assert value == 0
    assert determinant_value([]) == Fraction(1)


@pytest.mark.parametrize("n", range(0, 7, 2))
def test_pfaffian_value_matches_first_row_expansion(n):
    rng = random.Random(260 + n)
    for singular in (False, True):
        for _ in range(4):
            rows = random_antisymmetric(rng, n, singular)
            value = pfaffian_value(rows)
            assert value == first_row_pfaffian(rows)
            if singular and n >= 4:
                assert value == 0
    assert pfaffian_value([]) == Fraction(1)
