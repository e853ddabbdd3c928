"""Extremal states: norms, ladders, matrix elements, exact radicals."""

import itertools
from fractions import Fraction

import pytest

from capelli.algebra import AlgebraKind, Poly, bargmann_inner, variable, weight
from capelli.determinants import (capelli_rhs_apply, capelli_shift, det_z,
                                  pfaffian_partial, pfaffian_z)
from capelli.extremal import (ExtremalLabel, RadicalValue, double_factorial,
                              extremal_poly, is_extremal, ladder_eigenvalue,
                              matel_bruteforce, matel_extremal,
                              matel_shifted_weight, matel_step_variable,
                              norm_closed_form, pfaffian_ladder_eigenvalue)

I22 = AlgebraKind.type_i(2, 2)
I33 = AlgebraKind.type_i(3, 3)
II2 = AlgebraKind.type_ii(2)
II3 = AlgebraKind.type_ii(3)
III2 = AlgebraKind.type_iii(2)
III4 = AlgebraKind.type_iii(4)


def norm(kind, nu):
    return norm_closed_form(ExtremalLabel(kind, tuple(nu)))


def oracle_norm(kind, nu):
    f = extremal_poly(ExtremalLabel(kind, tuple(nu)))
    return bargmann_inner(f, f)


# ---- double factorial ----

def test_double_factorial():
    assert [double_factorial(n) for n in (-1, 0, 1, 2, 3, 6, 7)] == \
        [1, 1, 1, 2, 3, 48, 105]
    with pytest.raises(ValueError):
        double_factorial(-2)


# ---- RadicalValue ----

def test_radical_canonicalization():
    assert RadicalValue(1, 8) == RadicalValue(2, 2)
    assert RadicalValue(1, Fraction(2, 3)) == RadicalValue(Fraction(1, 3), 6)
    assert RadicalValue(5, 1).radicand == 1
    assert RadicalValue(1, 12) == RadicalValue(2, 3)


def test_radical_zero():
    z = RadicalValue(0, 7)
    assert z == RadicalValue.zero()
    assert z.radicand == 1 and z.is_zero()
    assert not RadicalValue(1, 2).is_zero()


def test_radical_from_square():
    assert RadicalValue.from_square(Fraction(49, 4)) == RadicalValue(Fraction(7, 2))
    assert RadicalValue.from_square(8) == RadicalValue(2, 2)
    assert RadicalValue.from_square(0).is_zero()
    with pytest.raises(ValueError):
        RadicalValue.from_square(-1)
    with pytest.raises(ValueError):
        RadicalValue(1, -4)


def test_radical_products():
    r2 = RadicalValue(1, 2)
    assert r2 * r2 == RadicalValue(2)
    assert r2 * RadicalValue(1, 3) == RadicalValue(1, 6)
    assert RadicalValue(1, 6) * RadicalValue(1, 10) == RadicalValue(2, 15)
    assert 3 * RadicalValue(Fraction(1, 2), 5) == RadicalValue(Fraction(3, 2), 5)
    assert (0 * r2).is_zero()
    assert (r2 * RadicalValue.zero()).is_zero()


def test_radical_squared_and_float():
    assert RadicalValue(Fraction(3, 2), 5).squared() == Fraction(45, 4)
    assert abs(RadicalValue(1, 2).to_float() - 2 ** 0.5) < 1e-15
    assert RadicalValue(Fraction(3, 2), 5).to_json() == \
        {"coeff": "3/2", "radicand": "5"}


# ---- labels ----

def test_label_validation():
    ExtremalLabel(I22, (2, 1))
    ExtremalLabel(III4, (1, 1, 0))
    with pytest.raises(ValueError):
        ExtremalLabel(I22, (1, 2))
    with pytest.raises(ValueError):
        ExtremalLabel(I22, (-1,))
    with pytest.raises(ValueError):
        ExtremalLabel(I22, (1, 1, 1))
    with pytest.raises(ValueError):
        ExtremalLabel(II2, (1,))
    with pytest.raises(ValueError):
        ExtremalLabel(III4, (2, 1))
    with pytest.raises(ValueError):
        ExtremalLabel(III4, (1, 1, 1))


def test_label_exponents():
    assert ExtremalLabel(I22, (2, 1)).exponents == (1, 1)
    assert ExtremalLabel(II2, (4, 2)).exponents == (1, 1)
    assert ExtremalLabel(III4, (3, 3, 1, 1)).exponents == (2, 1)
    assert ExtremalLabel(III4, (2, 2, 0, 0)).exponents == (2, 0)


# ---- state construction ----

def test_extremal_poly_factors():
    assert extremal_poly(ExtremalLabel(I22, (1,))) == variable(I22, 1, 1)
    assert extremal_poly(ExtremalLabel(II2, (2,))) == variable(II2, 1, 1)
    assert extremal_poly(ExtremalLabel(III2, (1, 1))) == variable(III2, 1, 2)
    assert extremal_poly(ExtremalLabel(I22, (1, 1))) == det_z(I22, 2)
    assert extremal_poly(ExtremalLabel(III4, (1, 1, 1, 1))) == pfaffian_z(III4, 2)
    assert extremal_poly(ExtremalLabel(I22, ())) == Poly.constant(I22, 1)


def test_extremal_poly_weight_matches_label():
    for kind, nu in [(I33, (3, 1, 0)), (II3, (4, 2, 2)), (III4, (2, 2, 1, 1))]:
        f = extremal_poly(ExtremalLabel(kind, nu))
        w = weight(f)
        if kind.family == "I":
            assert w == (nu, nu)
        else:
            assert w == nu


def test_is_extremal_accepts_constructed_states():
    for kind, nu in [(I22, (2, 1)), (I33, (2, 2, 1)), (II2, (4, 2)),
                     (II3, (2, 2, 0)), (III4, (2, 2, 2, 2)), (III4, (3, 3, 1, 1))]:
        assert is_extremal(extremal_poly(ExtremalLabel(kind, nu)))


def test_is_extremal_rejects_lowered_states():
    assert not is_extremal(variable(I22, 2, 1))       # row raising fails
    assert not is_extremal(variable(I22, 1, 2))       # column raising fails
    assert not is_extremal(variable(II2, 1, 2))
    assert not is_extremal(variable(AlgebraKind.type_iii(3), 1, 3))
    with pytest.raises(ValueError):
        is_extremal(Poly.zero(I22))
    with pytest.raises(ValueError):
        is_extremal(variable(I22, 1, 1) + variable(I22, 2, 2))


# ---- norms ----

def test_norm_pinned_values():
    assert norm(I22, (1,)) == 1
    assert norm(I22, (1, 1)) == 2
    assert norm(I22, (2, 1)) == 3
    assert norm(II2, (2,)) == 2
    assert norm(II2, (2, 2)) == 6
    assert norm(III2, (1, 1)) == 1
    assert norm(III2, (2, 2)) == 2
    assert norm(III4, (1, 1, 1, 1)) == 3
    assert norm(I22, ()) == 1


def test_norm_matches_oracle():
    grids = [
        (I22, [(), (1,), (2,), (3,), (1, 1), (2, 1), (2, 2), (3, 1), (3, 3)]),
        (II2, [(), (2,), (4,), (2, 2), (4, 2), (4, 4)]),
        (III4, [(), (1, 1), (2, 2), (3, 3), (1, 1, 1, 1), (2, 2, 1, 1),
                (2, 2, 2, 2), (3, 3, 1, 1)]),
    ]
    for kind, nus in grids:
        for nu in nus:
            assert norm(kind, nu) == oracle_norm(kind, nu), (kind.label, nu)


def test_norm_padding_invariance():
    assert norm(I33, (2, 1)) == norm(I33, (2, 1, 0))
    assert norm(II3, (4,)) == norm(II3, (4, 0, 0))
    assert norm(III4, (2, 2)) == norm(III4, (2, 2, 0, 0))
    assert norm(AlgebraKind.type_iii(5), (2, 2)) == \
        norm(AlgebraKind.type_iii(5), (2, 2, 0, 0, 0))


# ---- ladder eigenvalues ----

def test_ladder_norm_recursion_general():
    # <x_n psi | x_n psi> = ladder * <psi|psi>, so the one-step ladder value
    # links adjacent closed-form norms
    for nu in [(0, 0), (1, 0), (2, 1), (3, 3)]:
        up = tuple(v + 1 for v in nu)
        assert norm(I22, up) == ladder_eigenvalue(I22, 2, 1, nu) * norm(I22, nu)


def test_ladder_norm_recursion_symmetric():
    for nu in [(0, 0), (2, 0), (4, 2)]:
        up = tuple(v + 2 for v in nu)
        assert norm(II2, up) == ladder_eigenvalue(II2, 2, 1, nu) * norm(II2, nu)


def test_ladder_norm_recursion_pfaffian():
    for nu in [(0, 0, 0, 0), (1, 1, 0, 0), (2, 2, 1, 1), (3, 3, 3, 3)]:
        up = tuple(v + 1 for v in nu)
        assert norm(III4, up) == \
            pfaffian_ladder_eigenvalue(nu, 2) * norm(III4, nu)


def test_pfaffian_ladder_values():
    assert pfaffian_ladder_eigenvalue((), 1) == 1
    assert pfaffian_ladder_eigenvalue((1, 1), 1) == 2
    assert pfaffian_ladder_eigenvalue((2, 2), 1) == 3
    assert pfaffian_ladder_eigenvalue((), 2) == 3
    with pytest.raises(ValueError):
        pfaffian_ladder_eigenvalue((1, 1, 1, 1), 1)


def test_pfaffian_ladder_oracle():
    # box_m (phi_m Phi_nu) = X_nu Phi_nu by direct operator application
    for m, nus in [(1, [(), (1, 1), (2, 2)]), (2, [(), (1, 1), (2, 2, 1, 1)])]:
        kind = AlgebraKind.type_iii(2 * m)
        box = pfaffian_partial(kind, m)
        phi = pfaffian_z(kind, m)
        for nu in nus:
            state = extremal_poly(ExtremalLabel(kind, nu))
            assert box.apply(phi * state) == \
                pfaffian_ladder_eigenvalue(nu, m) * state, (m, nu)


def test_ladder_pfaffian_odd_powers():
    # box_m^p phi_m^p Phi_nu = ladder_eigenvalue(III(2m), m, p, nu) Phi_nu at
    # odd p, which the minor ladder x_{2m} = phi_m^2 does not reach; at p = 1
    # the value is X_nu
    for m in (1, 2):
        kind = AlgebraKind.type_iii(2 * m)
        box = pfaffian_partial(kind, m)
        phi = pfaffian_z(kind, m)
        for pairs in itertools.combinations_with_replacement(range(3, -1, -1), m):
            nu = tuple(v for v in pairs for _ in range(2))
            state = extremal_poly(ExtremalLabel(kind, nu))
            for p in (1, 3):
                out = phi ** p * state
                for _ in range(p):
                    out = box.apply(out)
                assert out == ladder_eigenvalue(kind, m, p, nu) * state, \
                    (m, nu, p)
            assert ladder_eigenvalue(kind, m, 1, nu) == \
                pfaffian_ladder_eigenvalue(nu, m)


def test_pfaffian_block_identity():
    # prod_{i<=2m} (nu_i + 2m + 1 - i) factorizes through adjacent X values
    for m, nus in [(1, [(0, 0), (1, 1), (4, 4)]),
                   (2, [(0, 0, 0, 0), (2, 2, 0, 0), (3, 3, 1, 1)])]:
        for nu in nus:
            lhs = 1
            for i in range(1, 2 * m + 1):
                lhs *= nu[i - 1] + 2 * m + 1 - i
            up = tuple(v + 1 for v in nu)
            assert lhs == pfaffian_ladder_eigenvalue(up, m) * \
                pfaffian_ladder_eigenvalue(nu, m), (m, nu)


def test_ladder_matches_capelli_diagonal():
    # the DX determinant acts on extremal states by its diagonal product
    for kind, n, nus in [(I22, 2, [(0, 0), (2, 1), (3, 3)]),
                         (II2, 2, [(0, 0), (2, 2), (4, 0)]),
                         (III4, 2, [(1, 1)]), (III4, 4, [(1, 1, 1, 1)])]:
        for nu in nus:
            f = extremal_poly(ExtremalLabel(kind, nu))
            for side in ("XD", "DX"):
                scalar = 1
                for i in range(1, n + 1):
                    scalar *= nu[i - 1] + capelli_shift(kind, side, n, i)
                assert capelli_rhs_apply(f, n, side) == scalar * f, \
                    (kind.label, n, side, nu)
            if kind.family == "III":
                expect = ladder_eigenvalue(kind, n // 2, 2, nu)
            else:
                expect = ladder_eigenvalue(kind, n, 1, nu)
            got = 1
            for i in range(1, n + 1):
                got *= nu[i - 1] + capelli_shift(kind, "DX", n, i)
            assert got == expect


def test_ladder_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ladder_eigenvalue(I22, 2, -1, (1,))
    with pytest.raises(ValueError):
        ladder_eigenvalue(I22, 3, 1, ())
    with pytest.raises(ValueError):
        ladder_eigenvalue(I22, 1, 1, (2, 1))
    with pytest.raises(ValueError):
        ladder_eigenvalue(III4, 1, 1, (1, 1, 1, 1))


# ---- matrix elements ----

def test_step_variables():
    assert matel_step_variable(I22, 2) == (2, 2)
    assert matel_step_variable(III4, 2) == (3, 4)


def test_shifted_weights():
    assert matel_shifted_weight(I22, (2, 1), 1) == (3, 1)
    assert matel_shifted_weight(I22, (2, 1), 2) == (2, 2)
    assert matel_shifted_weight(I22, (1, 1), 2) is None
    assert matel_shifted_weight(II2, (2, 2), 2) is None  # step is 2
    assert matel_shifted_weight(II2, (4, 2), 2) == (4, 4)
    assert matel_shifted_weight(III4, (2, 2), 1) == (3, 3)
    assert matel_shifted_weight(III4, (2, 2, 1, 1), 2) == (2, 2, 2, 2)
    assert matel_shifted_weight(III4, (2, 2, 2, 2), 2) is None
    assert matel_shifted_weight(I22, (), 1) == (1,)
    with pytest.raises(ValueError):
        matel_shifted_weight(I22, (1,), 3)
    with pytest.raises(ValueError):
        matel_shifted_weight(III4, (1, 1), 3)


def test_matel_pinned_values():
    assert matel_extremal(I22, (), 1) == RadicalValue(1)
    assert matel_extremal(I22, (1,), 1) == RadicalValue(1, 2)
    assert matel_extremal(II2, (), 1) == RadicalValue(1, 2)
    assert matel_extremal(III4, (1, 1), 1) == RadicalValue(1, 2)
    assert matel_extremal(I22, (2, 1), 2) == RadicalValue(1)
    assert matel_extremal(I22, (1, 1), 2).is_zero()


def test_matel_matches_oracle():
    grids = [
        (I22, [(), (1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2)], [1, 2]),
        (II2, [(), (2,), (2, 2), (4, 2)], [1, 2]),
        (III4, [(), (1, 1), (2, 2), (1, 1, 1, 1), (2, 2, 1, 1)], [1, 2]),
    ]
    for kind, nus, ks in grids:
        for nu in nus:
            for k in ks:
                value = matel_extremal(kind, nu, k)
                shifted = matel_shifted_weight(kind, nu, k)
                if shifted is None:
                    assert value.is_zero(), (kind.label, nu, k)
                    continue
                ket = extremal_poly(ExtremalLabel(kind, nu))
                bra = extremal_poly(ExtremalLabel(kind, shifted))
                a, b = matel_step_variable(kind, k)
                amp = matel_bruteforce(bra, ("z", a, b), ket)
                expect = Fraction(amp * amp,
                                  oracle_norm(kind, shifted) * oracle_norm(kind, nu))
                assert value.squared() == expect, (kind.label, nu, k)
                assert value.coeff > 0


def test_matel_bruteforce_operators():
    z11 = variable(I22, 1, 1)
    assert matel_bruteforce(z11, None, z11) == 1
    assert matel_bruteforce(z11, ("z", 1, 1), Poly.constant(I22, 1)) == 1
    assert matel_bruteforce(Poly.constant(I22, 1), ("d", 1, 1), z11) == 1
    with pytest.raises(ValueError):
        matel_bruteforce(z11, ("q", 1, 1), z11)
