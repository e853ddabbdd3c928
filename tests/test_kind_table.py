"""Differential tests: each kind's fold table and symmetry sign against the
per-family index conventions they replaced.

The oracles below are the per-family branches that AlgebraKind carried
before one symmetry sign fixed every kind's fold: each is compared with the
table-driven method over every index pair around the valid range, for the
same result or the same ValueError message.
"""

import random
from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from capelli.algebra import AlgebraKind, Poly, bargmann_inner, monomials_upto

KINDS = [AlgebraKind.type_i(1, 1), AlgebraKind.type_i(2, 3),
         AlgebraKind.type_i(3, 2), AlgebraKind.type_ii(1),
         AlgebraKind.type_ii(3), AlgebraKind.type_iii(2),
         AlgebraKind.type_iii(4)]


# ---- the per-family oracles ----

def oracle_index_pairs(kind):
    if kind.family == "I":
        return [(i, a) for i in range(1, kind.rows + 1)
                for a in range(1, kind.cols + 1)]
    if kind.family == "II":
        return [(i, j) for i in range(1, kind.rows + 1)
                for j in range(1, kind.rows + 1)]
    return [(i, j) for i in range(1, kind.rows + 1)
            for j in range(1, kind.rows + 1) if i != j]


def oracle_variables(kind):
    if kind.family == "I":
        return oracle_index_pairs(kind)
    if kind.family == "II":
        return [(i, j) for i in range(1, kind.rows + 1)
                for j in range(i, kind.rows + 1)]
    return [(i, j) for i in range(1, kind.rows + 1)
            for j in range(i + 1, kind.rows + 1)]


def oracle_check_range(kind, a, b):
    if not (1 <= a <= kind.rows and 1 <= b <= kind.cols):
        raise ValueError(f"index pair ({a},{b}) out of range for {kind.label}")


def oracle_z_canonical(kind, a, b):
    oracle_check_range(kind, a, b)
    if kind.family == "I":
        return (a, b), 1
    if kind.family == "II":
        return ((a, b) if a <= b else (b, a)), 1
    if a == b:
        raise ValueError(f"z[{a},{a}] vanishes identically for kind III")
    return ((a, b), 1) if a < b else ((b, a), -1)


def oracle_partial_canonical(kind, a, b):
    oracle_check_range(kind, a, b)
    if kind.family == "I":
        return (a, b), 1
    if kind.family == "II":
        if a == b:
            return (a, a), 2
        return ((a, b) if a < b else (b, a)), 1
    if a == b:
        raise ValueError(f"d[{a},{a}] vanishes identically for kind III")
    return ((a, b), 1) if a < b else ((b, a), -1)


def oracle_commutator_scalar(kind, a, b, c, d):
    first = int(a == c) * int(b == d)
    if kind.family == "I":
        return first
    cross = int(b == c) * int(a == d)
    return first + cross if kind.family == "II" else first - cross


def oracle_bargmann_inner(f, g):
    """<f|g> with the kind II diagonal doubled explicitly."""
    total = Fraction(0)
    for key, fc in f.terms.items():
        term = fc * g.terms.get(key, 0)
        for (a, b), e in f.kind._layout.unpack(key):
            term *= factorial(e) * (2 ** e if f.kind.family == "II" and a == b
                                    else 1)
        total += term
    return total


def outcome(method, *args):
    """method(*args), or the message of the ValueError it raises."""
    try:
        return method(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


# ---- the comparisons ----

@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_index_pairs_and_variables_match(kind):
    assert kind.index_pairs() == oracle_index_pairs(kind)
    assert kind.variables() == oracle_variables(kind)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_canonical_pairs_match_around_the_range(kind):
    for a, b in product(range(kind.rows + 2), range(kind.cols + 2)):
        assert (outcome(kind.z_canonical, a, b)
                == outcome(oracle_z_canonical, kind, a, b)), (a, b)
        assert (outcome(kind.partial_canonical, a, b)
                == outcome(oracle_partial_canonical, kind, a, b)), (a, b)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_commutator_scalar_matches_on_every_quadruple(kind):
    span = range(max(kind.rows, kind.cols) + 2)
    for a, b, c, d in product(span, repeat=4):
        assert (kind.commutator_scalar(a, b, c, d)
                == oracle_commutator_scalar(kind, a, b, c, d)), (a, b, c, d)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_bargmann_inner_matches_explicit_doubling(kind):
    rng = random.Random(7)
    pool = [Poly.from_monomial(kind, mono) for mono in monomials_upto(kind, 3)]
    for _ in range(40):
        support = rng.sample(pool, min(len(pool), 5))  # so f and g overlap
        f, g = Poly.zero(kind), Poly.zero(kind)
        for _ in range(4):
            f = f + rng.choice(support) * Fraction(rng.randint(-9, 9),
                                                   rng.randint(1, 4))
            g = g + rng.choice(support) * rng.randint(-9, 9)
        assert bargmann_inner(f, g) == oracle_bargmann_inner(f, g)
        assert bargmann_inner(f, f) == oracle_bargmann_inner(f, f)
