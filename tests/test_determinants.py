"""Minor determinants, Pfaffians, bilinear generators, Capelli sweeps."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from capelli.algebra import AlgebraKind, Poly, monomials_upto, variable
from capelli.determinants import (apply_E, apply_L, apply_R, capelli_rhs_apply,
                                  capelli_shift, det_partial, det_z,
                                  determinant_value, pfaffian_partial,
                                  pfaffian_value, pfaffian_z, verify_capelli)

I22 = AlgebraKind.type_i(2, 2)
II2 = AlgebraKind.type_ii(2)
III2 = AlgebraKind.type_iii(2)
III4 = AlgebraKind.type_iii(4)
III6 = AlgebraKind.type_iii(6)


def const(kind, c=1):
    return Poly.constant(kind, c)


# ---- x_n and nabla_n ----

def test_det_z_general():
    v = lambda a, b: variable(I22, a, b)
    assert det_z(I22, 1) == v(1, 1)
    assert det_z(I22, 2) == v(1, 1) * v(2, 2) - v(1, 2) * v(2, 1)


def test_det_z_symmetric():
    v = lambda a, b: variable(II2, a, b)
    assert det_z(II2, 2) == v(1, 1) * v(2, 2) - v(1, 2) ** 2


def test_det_z_antisymmetric():
    assert det_z(III2, 2) == variable(III2, 1, 2) ** 2
    assert det_z(III4, 1).is_zero()
    assert det_z(III4, 3).is_zero()


def test_det_bounds():
    with pytest.raises(ValueError):
        det_z(I22, 3)
    with pytest.raises(ValueError):
        det_z(I22, 0)
    assert det_z(AlgebraKind.type_i(2, 3), 2).degree() == 2
    with pytest.raises(ValueError):
        det_partial(I22, 3)


def test_det_cache_identity():
    assert det_z(II2, 2) is det_z(II2, 2)
    assert det_partial(II2, 2) is det_partial(II2, 2)


def test_nabla_on_x():
    # nabla_2 x_2 on the constant: 2 (kind I), 6 (kind II), 2 (kind III)
    for kind, expect in [(I22, 2), (II2, 6), (III2, 2)]:
        x2 = det_z(kind, 2)
        assert det_partial(kind, 2).apply(x2) == const(kind, expect)


def test_diffop_kind_mismatch():
    with pytest.raises(ValueError):
        det_partial(I22, 2).apply(const(II2))


# ---- Pfaffians ----

def test_pfaffian_small():
    assert pfaffian_z(III4, 0) == const(III4)
    assert pfaffian_z(III4, 1) == variable(III4, 1, 2)


def test_pfaffian_two_blocks():
    v = lambda a, b: variable(III4, a, b)
    assert pfaffian_z(III4, 2) == \
        v(1, 2) * v(3, 4) - v(1, 3) * v(2, 4) + v(1, 4) * v(2, 3)


def test_pfaffian_conjugate_pairing():
    # box_2 phi_2 = 3 on the constant: three matchings, each of norm 1
    phi = pfaffian_z(III4, 2)
    assert pfaffian_partial(III4, 2).apply(phi) == const(III4, 3)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_pfaffian_square_is_determinant(m):
    assert pfaffian_z(III6, m) ** 2 == det_z(III6, 2 * m)


def test_pfaffian_wrong_kind():
    with pytest.raises(ValueError):
        pfaffian_z(II2, 1)
    with pytest.raises(ValueError):
        pfaffian_z(III4, 3)
    with pytest.raises(ValueError):
        pfaffian_partial(II2, 1)
    with pytest.raises(ValueError):
        pfaffian_partial(III4, 3)


# ---- numeric determinant / Pfaffian ----

def test_determinant_value():
    assert determinant_value([[1, 2], [3, 4]]) == -2
    assert determinant_value([[Fraction(1, 2)]]) == Fraction(1, 2)
    assert determinant_value(
        [[2, 0, 1], [1, 1, 0], [0, 3, 1]]) == 2 + 3 - 0  # cofactor check
    with pytest.raises(ValueError):
        determinant_value([[1, 2, 3], [4, 5, 6]])


def test_pfaffian_value():
    assert pfaffian_value([[0, 5], [-5, 0]]) == 5
    rows = [[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 6], [-3, -5, -6, 0]]
    assert pfaffian_value(rows) == 1 * 6 - 2 * 5 + 3 * 4
    assert pfaffian_value(rows) ** 2 == determinant_value(rows)


def test_pfaffian_value_validation():
    with pytest.raises(ValueError):
        pfaffian_value([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        pfaffian_value([[1, 1], [-1, 0]])
    with pytest.raises(ValueError):
        pfaffian_value([[0]])


def test_pfaffian_value_random_square():
    rng = random.Random(31)
    for _ in range(20):
        n = 2 * rng.randrange(1, 4)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                rows[j][i] = -rows[i][j]
        assert pfaffian_value(rows) ** 2 == determinant_value(rows)


# ---- bilinear generators ----

def test_apply_E_weights():
    assert apply_E(variable(I22, 1, 1), 1, 1, 2) == variable(I22, 1, 1)
    assert apply_E(variable(II2, 1, 1), 1, 1, 2) == 2 * variable(II2, 1, 1)
    assert apply_E(variable(III2, 1, 2), 1, 1, 2) == variable(III2, 1, 2)


def test_apply_E_offdiagonal():
    assert apply_E(variable(I22, 2, 1), 1, 2, 2) == variable(I22, 1, 1)
    assert apply_E(variable(II2, 2, 2), 1, 2, 2) == 2 * variable(II2, 1, 2)


def test_apply_L_examples():
    assert apply_L(variable(I22, 2, 1), 1, 2) == variable(I22, 1, 1)
    assert apply_L(variable(I22, 1, 2), 1, 2).is_zero()


def test_apply_R_examples():
    # R moves column labels and carries an overall minus sign
    assert apply_R(variable(I22, 1, 1), 1, 2) == -variable(I22, 1, 2)
    assert apply_R(variable(I22, 1, 2), 2, 1) == -variable(I22, 1, 1)
    assert apply_R(variable(I22, 1, 1), 2, 1).is_zero()
    assert apply_R(variable(I22, 1, 1), 1, 1) == -variable(I22, 1, 1)


def test_apply_E_range_checks():
    with pytest.raises(ValueError):
        apply_E(const(I22), 3, 1, 2)
    with pytest.raises(ValueError):
        apply_E(const(I22), 1, 1, 3)
    with pytest.raises(ValueError):
        apply_R(const(II2), 1, 2)


# ---- Capelli shifts and right-hand side ----

def test_shift_table():
    assert [capelli_shift(I22, "XD", 2, i) for i in (1, 2)] == [1, 0]
    assert [capelli_shift(I22, "DX", 2, i) for i in (1, 2)] == [2, 1]
    assert [capelli_shift(II2, "XD", 2, i) for i in (1, 2)] == [1, 0]
    assert [capelli_shift(II2, "DX", 2, i) for i in (1, 2)] == [3, 2]
    assert [capelli_shift(III4, "XD", 2, i) for i in (1, 2)] == [0, -1]
    assert [capelli_shift(III4, "DX", 2, i) for i in (1, 2)] == [2, 1]
    with pytest.raises(ValueError):
        capelli_shift(I22, "XX", 2, 1)


def test_shift_refuses_a_minor_size_or_row_out_of_range():
    # both returned a shift before: -3 and 9
    with pytest.raises(ValueError, match=r"^row 5 out of range 1\.\.2$"):
        capelli_shift(I22, "XD", 2, 5)
    with pytest.raises(ValueError, match=r"^minor size 9 out of range for "
                                         r"I\(2,2\) \(max 2\)$"):
        capelli_shift(I22, "XD", 9, 0)
    with pytest.raises(ValueError, match="variant must be one of"):
        capelli_shift(I22, "XX", 9, 0)
    for n, i in [(0, 0), (-1, 1), (2, 0), (2, -1), (2, 3)]:
        with pytest.raises(ValueError):
            capelli_shift(I22, "DX", n, i)


@pytest.mark.parametrize("kind", [I22, AlgebraKind.type_i(2, 3),
                                  AlgebraKind.type_i(4, 3), II2,
                                  AlgebraKind.type_ii(4), III4,
                                  AlgebraKind.type_iii(5)],
                         ids=lambda kind: kind.label)
def test_shift_in_range_keeps_its_value(kind):
    for n in range(1, kind.det_bound + 1):
        for i in range(1, n + 1):
            xd = n - 1 - i if kind.family == "III" else n - i
            dx = n + 2 - i if kind.family == "II" else n + 1 - i
            assert capelli_shift(kind, "XD", n, i) == xd
            assert capelli_shift(kind, "DX", n, i) == dx


def test_rhs_on_constants_matches_shift_product():
    # only the identity permutation survives on constants
    for kind, expect in [(I22, 2), (II2, 6), (III4, 2)]:
        assert capelli_rhs_apply(const(kind), 2, "DX") == const(kind, expect)
        assert capelli_rhs_apply(const(kind), 2, "XD").is_zero()


def test_odd_block_breaks_on_constants():
    # x_1 = 0 for the antisymmetric kind but the shifted determinant is not:
    # this is why verify_capelli rejects odd n there.
    lhs = det_z(III2, 1) * const(III2)
    assert lhs.is_zero()
    assert capelli_rhs_apply(const(III2), 1, "XD") == const(III2, -1)
    assert capelli_rhs_apply(const(III2), 1, "DX") == const(III2, 1)


def _row_ordered_rhs(f, n, side):
    """Alternative expansion sum_sigma sgn(sigma) M[1,s(1)] ... M[n,s(n)],
    rightmost factor first.  Kept only to pin down that it is NOT the
    correct ordering for these identities."""
    kind = f.kind
    total = Poly.zero(kind)
    for perm in permutations(range(1, n + 1)):
        sign = 1
        for x in range(n):
            for y in range(x + 1, n):
                if perm[x] > perm[y]:
                    sign = -sign
        g = f
        for row in range(n, 0, -1):
            col = perm[row - 1]
            h = apply_E(g, row, col, n)
            if row == col:
                h = h + capelli_shift(kind, side, n, row) * g
            g = h
        total = total + sign * g
    return total


def test_column_ordering_is_the_correct_one():
    f = variable(I22, 2, 1)
    lhs = det_partial(I22, 2).apply(det_z(I22, 2) * f)
    assert lhs == 3 * f
    assert capelli_rhs_apply(f, 2, "DX") == 3 * f
    assert _row_ordered_rhs(f, 2, "DX") == 4 * f


@pytest.mark.parametrize("kind,n", [(I22, 1), (I22, 2), (II2, 1), (II2, 2),
                                    (III4, 2)])
@pytest.mark.parametrize("side", ["XD", "DX"])
def test_capelli_sweeps(kind, n, side):
    report = verify_capelli(kind, n, side, dmax=3)
    assert report.passed
    assert report.checked_count == len(list(monomials_upto(kind, 3)))
    doc = report.to_json()
    assert doc["identity"] == "capelli"
    assert doc["n"] == n and doc["variant"] == side and doc["dmax"] == 3


def test_capelli_full_block():
    report = verify_capelli(III4, 4, "DX", dmax=2)
    assert report.passed


def test_capelli_rejects_bad_arguments():
    with pytest.raises(ValueError):
        verify_capelli(I22, 3, "XD", 2)
    with pytest.raises(ValueError):
        verify_capelli(I22, 2, "XX", 2)
    with pytest.raises(ValueError):
        verify_capelli(III4, 3, "XD", 2)
    with pytest.raises(ValueError):
        capelli_rhs_apply(const(I22), 2, "DX", shifts=(1, 2, 3))


def test_shift_override_detects_mutation():
    good = verify_capelli(I22, 2, "DX", 2, shifts=(2, 1))
    assert good.passed
    bad = verify_capelli(I22, 2, "DX", 2, shifts=(3, 1))
    assert not bad.passed
    assert bad.failures[0]["monomial"] == "1"
    pooled = verify_capelli(I22, 2, "DX", 2, jobs=2, shifts=(3, 1))
    assert pooled.to_json() == bad.to_json()


def test_capelli_parallel_matches_serial():
    serial = verify_capelli(II2, 2, "DX", 3, jobs=1)
    parallel = verify_capelli(II2, 2, "DX", 3, jobs=2)
    assert serial.to_json() == parallel.to_json()
