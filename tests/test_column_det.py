"""Differential tests: the row-subset column determinant and the one-pass
bilinear kernel against the plain permutation and per-column expansions."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from capelli.algebra import AlgebraKind, Poly, apply_partial, monomials_upto, \
    mul_z
from capelli.determinants import CAPELLI_SIDES, apply_E, apply_R, \
    capelli_rhs_apply, capelli_shift

I33 = AlgebraKind.type_i(3, 3)
I23 = AlgebraKind.type_i(2, 3)
I32 = AlgebraKind.type_i(3, 2)
II3 = AlgebraKind.type_ii(3)
III4 = AlgebraKind.type_iii(4)
III5 = AlgebraKind.type_iii(5)


# ---- oracles: the expansions the package used before ----

def perm_sign(seq):
    inv = sum(1 for a in range(len(seq)) for b in range(a + 1, len(seq))
              if seq[a] > seq[b])
    return -1 if inv % 2 else 1


def oracle_apply_E(f, i, j, ncols):
    """sum_s z[i,s] d[j,s], one derivative and one product per column."""
    out = Poly.zero(f.kind)
    for s in range(1, ncols + 1):
        if f.kind.family == "III" and (s == i or s == j):
            continue
        out = out + mul_z(apply_partial(f, j, s), i, s)
    return out


def oracle_apply_R(f, alpha, beta):
    out = Poly.zero(f.kind)
    for i in range(1, f.kind.rows + 1):
        out = out + mul_z(apply_partial(f, i, alpha), i, beta)
    return -out


def oracle_rhs(f, n, shifts):
    """det[E_ij + shift_i delta_ij] f summed over all n! permutations."""
    out = Poly.zero(f.kind)
    for perm in permutations(range(1, n + 1)):
        g = f
        for col in range(n, 0, -1):  # rightmost factor acts first
            row = perm[col - 1]
            h = oracle_apply_E(g, row, col, n)
            if row == col:
                h = h + shifts[row - 1] * g
            g = h
            if g.is_zero():
                break
        out = out + perm_sign(perm) * g
    return out


# ---- capelli_rhs_apply ----

def shift_sets(kind, side, n):
    """The default shifts and every +-1 perturbation of one of them."""
    base = [capelli_shift(kind, side, n, i) for i in range(1, n + 1)]
    yield base
    for row in range(n):
        for bump in (-1, 1):
            shifts = list(base)
            shifts[row] += bump
            yield shifts


CASES = [(kind, n, dmax)
         for kind, dmax in ((I33, 2), (I23, 3), (I32, 3), (II3, 2),
                            (III4, 2), (III5, 1))
         for n in range(1, kind.det_bound + 1)]


@pytest.mark.parametrize("kind,n,dmax", CASES,
                         ids=[f"{k.label}-n{n}" for k, n, _ in CASES])
def test_rhs_matches_permutation_expansion(kind, n, dmax):
    monos = list(monomials_upto(kind, dmax))
    for side in CAPELLI_SIDES:
        for shifts in shift_sets(kind, side, n):
            for mono in monos:
                f = Poly.from_monomial(kind, mono)
                assert capelli_rhs_apply(f, n, side, shifts) == \
                    oracle_rhs(f, n, shifts), (side, shifts, mono)


def test_rhs_default_shifts_on_a_sum():
    # shifts=None takes capelli_shift; a many-term input shares row-subset
    # states between its monomials, and the zero polynomial has no states
    rng = random.Random(5)
    f = random_poly(II3, rng, 6)
    for side in CAPELLI_SIDES:
        shifts = [capelli_shift(II3, side, 3, i) for i in (1, 2, 3)]
        assert capelli_rhs_apply(f, 3, side) == oracle_rhs(f, 3, shifts)
    assert capelli_rhs_apply(Poly.zero(II3), 3, "XD").is_zero()


# ---- apply_E / apply_R ----

def random_poly(kind, rng, nterms, dmax=3):
    monos = list(monomials_upto(kind, dmax))
    terms = {}
    for mono in rng.sample(monos, min(nterms, len(monos))):
        terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return Poly.make(kind, terms)


@pytest.mark.parametrize("kind", [I33, I23, I32, II3, III4, III5],
                         ids=lambda k: k.label)
def test_apply_E_matches_per_column_sum(kind):
    rng = random.Random(kind.rows * 10 + kind.cols)
    polys = [random_poly(kind, rng, 25) for _ in range(3)]
    # squares of every variable, so the kind II diagonal doubling and
    # exponents above one are always exercised
    polys.append(Poly.make(kind, {((v, 2),): 1 for v in kind.variables()}))
    for f in polys:
        for i in range(1, kind.rows + 1):
            for j in range(1, kind.rows + 1):
                for ncols in range(1, kind.cols + 1):
                    assert apply_E(f, i, j, ncols) == \
                        oracle_apply_E(f, i, j, ncols), (i, j, ncols)


def test_apply_E_kind_conventions():
    z = lambda kind, a, b: Poly.from_monomial(kind, (((a, b), 1),))
    # kind II: d[1,1] z[1,1]^2 = 2 * 2 z[1,1], then times z[1,1]
    sq = Poly.from_monomial(II3, (((1, 1), 2),))
    assert apply_E(sq, 1, 1, 1) == 4 * sq
    # kind III: E_21 z[1,3] = z[2,3] d[1,3] z[1,3] = z[2,3]; E_31 skips s=3
    assert apply_E(z(III4, 1, 3), 2, 1, 4) == z(III4, 2, 3)
    assert apply_E(z(III4, 1, 3), 3, 1, 4).is_zero()
    # kind III: E_12 = sum_{s != 1,2} z[1,s] d[2,s] has no d[2,1] term
    assert apply_E(z(III4, 1, 2), 1, 2, 4).is_zero()
    # d[3,2] = -d[2,3]: E_13 z[2,3] = z[1,2] d[3,2] z[2,3] = -z[1,2]
    assert apply_E(z(III4, 2, 3), 1, 3, 4) == -1 * z(III4, 1, 2)


def test_apply_R_matches_per_row_sum():
    rng = random.Random(7)
    for kind in (I33, I23, I32):
        f = random_poly(kind, rng, 25)
        for a in range(1, kind.cols + 1):
            for b in range(1, kind.cols + 1):
                assert apply_R(f, a, b) == oracle_apply_R(f, a, b), (a, b)
