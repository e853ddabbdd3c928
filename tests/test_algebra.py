"""Core polynomial layer: canonicalization, operators, pairing, text format."""

import math
import pickle
import random
from fractions import Fraction

import pytest

from capelli.algebra import (AlgebraKind, Poly, apply_partial, bargmann_inner,
                             check_heisenberg, format_poly, monomial_from_vars,
                             monomials_upto, mul_z, parse_poly, variable,
                             weight)

I22 = AlgebraKind.type_i(2, 2)
II2 = AlgebraKind.type_ii(2)
III2 = AlgebraKind.type_iii(2)
III4 = AlgebraKind.type_iii(4)

ALL_KINDS = [I22, AlgebraKind.type_i(2, 3), II2, AlgebraKind.type_ii(3),
             III2, AlgebraKind.type_iii(3), III4]


def random_poly(rng, kind, nterms=4, dmax=3):
    varlist = kind.variables()
    terms = {}
    for _ in range(nterms):
        d = rng.randrange(dmax + 1)
        mono = monomial_from_vars(tuple(sorted(rng.choice(varlist)
                                               for _ in range(d))))
        terms[mono] = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
    return Poly.make(kind, terms)


# ---- kinds and canonicalization ----

def test_kind_validation():
    with pytest.raises(ValueError):
        AlgebraKind("IV", 2, 2)
    with pytest.raises(ValueError):
        AlgebraKind.type_ii(0)
    with pytest.raises(ValueError):
        AlgebraKind("II", 2, 3)


def test_variable_counts():
    assert len(AlgebraKind.type_i(3, 4).variables()) == 12
    assert len(AlgebraKind.type_ii(3).variables()) == 6
    assert len(AlgebraKind.type_iii(4).variables()) == 6


def test_symmetric_aliasing():
    assert variable(II2, 2, 1) == variable(II2, 1, 2)


def test_antisymmetric_aliasing():
    assert variable(III2, 2, 1) == -variable(III2, 1, 2)
    with pytest.raises(ValueError):
        variable(III2, 1, 1)
    with pytest.raises(ValueError):
        apply_partial(variable(III2, 1, 2), 2, 2)


def test_out_of_range_indices():
    with pytest.raises(ValueError):
        variable(I22, 3, 1)
    with pytest.raises(ValueError):
        mul_z(Poly.constant(II2, 1), 1, 3)


# ---- derivative and multiplication semantics ----

def test_symmetric_diagonal_derivative_doubles():
    z11 = variable(II2, 1, 1)
    assert apply_partial(z11 * z11, 1, 1) == 4 * z11


def test_offdiagonal_derivative_unit():
    # [d12, z21] = 1 for the symmetric kind: both alias the same variable
    f = Poly.constant(II2, 1)
    assert apply_partial(mul_z(f, 2, 1), 1, 2) == f


def test_antisymmetric_derivative_sign():
    z12 = variable(III2, 1, 2)
    assert apply_partial(z12, 2, 1) == Poly.constant(III2, -1)


def test_a_one_term_power_equals_repeated_products():
    # a one-term power is formed at once: exponents times n, coefficient ** n
    for kind in ALL_KINDS:
        x = variable(kind, 1, 2) * variable(kind, 2, 1) ** 2
        for term in (x * Fraction(-2, 3), x * 5, Poly.constant(kind, -3)):
            product = Poly.constant(kind, 1)
            for n in range(6):
                assert term ** n == product
                product = product * term


def test_degree_and_zero():
    assert Poly.zero(I22).degree() == -1
    assert Poly.constant(I22, 3).degree() == 0
    assert (variable(I22, 1, 1) ** 3).degree() == 3
    assert variable(I22, 1, 2) - variable(I22, 1, 2) == Poly.zero(I22)


def test_mixed_kind_arithmetic_rejected():
    with pytest.raises(ValueError):
        variable(I22, 1, 1) + variable(II2, 1, 1)


# ---- one-pass subtraction ----

def test_subtraction_is_adding_the_negation():
    f = Poly.make(II2, {(((1, 1), 1),): Fraction(1, 3),
                        (((1, 2), 2),): Fraction(-5, 7), (): 2})
    partly = Poly.make(II2, {(((1, 1), 1),): Fraction(1, 3),
                             (((2, 2), 1),): Fraction(4, 9)})
    for g in (partly, f, Poly.zero(II2), 3 * f):
        diff = f - g
        assert diff == f + (-g)
        assert all(c for c in diff.terms.values())  # no zero kept
    assert f - f == Poly.zero(II2) and (f - f).terms == {}
    # partial cancellation drops exactly the cancelled monomial
    assert (f - partly).terms.keys() == {II2._layout.pack(()),
                                         II2._layout.pack((((1, 2), 2),)),
                                         II2._layout.pack((((2, 2), 1),))}
    assert (f - partly).coefficient((((2, 2), 1),)) == Fraction(-4, 9)
    rng = random.Random(9)
    for kind in ALL_KINDS:
        for _ in range(20):
            g, h = random_poly(rng, kind), random_poly(rng, kind)
            assert g - h == g + (-h)
            assert g - h + h == g


def test_subtraction_across_kinds_rejected():
    with pytest.raises(ValueError, match="different algebra kinds"):
        variable(I22, 1, 1) - variable(II2, 1, 1)
    with pytest.raises(ValueError, match="different algebra kinds"):
        variable(II2, 1, 1) - variable(III2, 1, 2)
    with pytest.raises(ValueError, match="different algebra kinds"):
        Poly.zero(II2) - Poly.zero(AlgebraKind.type_ii(3))


def test_equal_but_distinct_kinds_still_combine():
    twin = AlgebraKind.type_ii(3)
    assert twin is not AlgebraKind.type_ii(3) and twin == AlgebraKind.type_ii(3)
    f = variable(AlgebraKind.type_ii(3), 1, 2)
    g = variable(twin, 2, 1)
    assert (f - g).is_zero() and f + g == 2 * f
    thawed = pickle.loads(pickle.dumps(f))
    assert thawed.kind is not f.kind
    assert (thawed - f).is_zero() and (f - thawed).is_zero()
    assert thawed + f == 2 * f


# ---- Bargmann pairing ----

def test_pairing_diagonal_doubling():
    z11 = variable(II2, 1, 1)
    assert bargmann_inner(z11, z11) == 2
    assert bargmann_inner(z11 * z11, z11 * z11) == 8  # 2! * 2^2


def test_pairing_antisymmetric_power():
    z12 = variable(III2, 1, 2)
    for p in range(5):
        assert bargmann_inner(z12 ** p, z12 ** p) == math.factorial(p)


def test_pairing_orthogonality():
    a = variable(I22, 1, 1)
    b = variable(I22, 1, 2)
    assert bargmann_inner(a, b) == 0
    assert bargmann_inner(a * a, a * b) == 0


def test_pairing_symmetry_and_adjointness_random():
    rng = random.Random(2024)
    for kind in ALL_KINDS:
        for _ in range(5):
            f = random_poly(rng, kind)
            g = random_poly(rng, kind)
            assert bargmann_inner(f, g) == bargmann_inner(g, f)
            for (a, b) in kind.index_pairs():
                lhs = bargmann_inner(mul_z(f, a, b), g)
                rhs = bargmann_inner(f, apply_partial(g, a, b))
                assert lhs == rhs, (kind.label, a, b)


# ---- weights ----

def test_weight_examples():
    assert weight(variable(II2, 1, 1)) == (2, 0)
    assert weight(variable(III4, 1, 2)) == (1, 1, 0, 0)
    assert weight(variable(I22, 1, 2)) == ((1, 0), (0, 1))
    assert weight(variable(I22, 1, 1) + variable(I22, 2, 2)) is None
    with pytest.raises(ValueError):
        weight(Poly.zero(I22))


def test_weight_additivity_random():
    rng = random.Random(7)
    for kind in ALL_KINDS:
        varlist = kind.variables()
        for _ in range(10):
            mono = monomial_from_vars(tuple(sorted(
                rng.choice(varlist) for _ in range(rng.randrange(4)))))
            f = Poly.from_monomial(kind, mono)
            a, b = rng.choice(varlist)
            before = weight(f)
            after = weight(mul_z(f, a, b))
            delta = weight(variable(kind, a, b))
            if kind.family == "I":
                assert after == (tuple(x + y for x, y in zip(before[0], delta[0])),
                                 tuple(x + y for x, y in zip(before[1], delta[1])))
            else:
                assert after == tuple(x + y for x, y in zip(before, delta))


# ---- monomial enumeration ----

def test_monomial_enumeration_graded():
    monos = list(monomials_upto(II2, 2))
    assert monos[0] == ()
    degs = [sum(e for _, e in m) for m in monos]
    assert degs == sorted(degs)
    # 1 + 3 + 6 for three symmetric variables
    assert len(monos) == 10
    assert len(set(monos)) == 10


# ---- Heisenberg sweep ----

@pytest.mark.parametrize("kind", [I22, II2, AlgebraKind.type_ii(3), III4])
def test_heisenberg_relations(kind):
    report = check_heisenberg(kind, dmax=3)
    assert report.passed
    assert report.checked_count == \
        len(kind.index_pairs()) ** 2 * len(list(monomials_upto(kind, 3)))
    doc = report.to_json()
    assert doc["identity"] == "heisenberg"
    assert doc["dmax"] == 3
    assert doc["failures"] == []


def test_heisenberg_parallel_matches_serial():
    serial = check_heisenberg(II2, 3, jobs=1)
    parallel = check_heisenberg(II2, 3, jobs=2)
    assert serial.to_json() == parallel.to_json()


# ---- text format ----

def test_format_examples():
    assert format_poly(Poly.zero(I22)) == "0"
    assert format_poly(Poly.constant(I22, Fraction(-3, 2))) == "-3/2"
    f = variable(I22, 1, 1) * variable(I22, 2, 2) - variable(I22, 1, 2) * variable(I22, 2, 1)
    assert format_poly(f) == \
        "1 * z[1,1]^1 * z[2,2]^1 - 1 * z[1,2]^1 * z[2,1]^1"


def test_parse_whitespace_and_defaults():
    f = parse_poly(I22, "  z[1,1] ^ 2*3/2  -  z[2 , 1]  + 4 ")
    expect = Fraction(3, 2) * variable(I22, 1, 1) ** 2 - variable(I22, 2, 1) \
        + Poly.constant(I22, 4)
    assert f == expect


def test_parse_folds_aliases():
    assert parse_poly(II2, "z[2,1]") == variable(II2, 1, 2)
    assert parse_poly(III2, "z[2,1]^3") == -(variable(III2, 1, 2) ** 3)


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_poly(I22, "z[1,1] !!")
    with pytest.raises(ValueError):
        parse_poly(I22, "")
    with pytest.raises(ValueError):
        parse_poly(I22, "2 z[1,1]")  # juxtaposition without an operator
    with pytest.raises(ValueError):
        parse_poly(I22, "z[9,9]")
    with pytest.raises(ValueError):
        parse_poly(III2, "z[1,1]")


def test_roundtrip_random():
    rng = random.Random(99)
    for kind in ALL_KINDS:
        for _ in range(10):
            f = random_poly(rng, kind, nterms=5)
            assert parse_poly(kind, format_poly(f)) == f


def test_serializer_deterministic_order():
    f = variable(I22, 2, 2) + variable(I22, 1, 1)
    g = variable(I22, 1, 1) + variable(I22, 2, 2)
    assert format_poly(f) == format_poly(g)
    assert format_poly(f) == "1 * z[1,1]^1 + 1 * z[2,2]^1"
