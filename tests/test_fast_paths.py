"""The exact-state fast paths against per-term references.

bargmann_inner weighs a term of a narrow key from a memo on its exponent
bytes of 2 or more; the reference here weighs every term on its own, from
the tuple form.  Poly * Fraction(p, q) builds one Fraction per distinct int
coefficient and shares it; the references are Fraction(c*p, q) per term and
the count of distinct value objects.  The matrix export builds its basis as
packed keys; the reference is the pack of each monomial of monomials_upto.
"""

import random
from fractions import Fraction
from math import factorial

import pytest

from capelli.algebra import AlgebraKind, Poly, bargmann_inner, monomials_upto
from capelli.contraction import _rep_matrices, apply_generator, \
    basis_monomials, build_rep_matrices, default_generators
from capelli.extremal import ExtremalLabel, extremal_poly

I44 = AlgebraKind.type_i(4, 4)
II3 = AlgebraKind.type_ii(3)
III4 = AlgebraKind.type_iii(4)
STATES = [(I44, (5, 4, 3, 2)), (I44, (4, 4, 2, 1)), (II3, (6, 4, 2)),
          (III4, (4, 4, 2, 2))]


def reference_inner(f, g):
    """sum fc * gc * prod(e!), times 2^e on kind II's diagonal, term by term."""
    layout = f.kind._layout
    total = 0
    for key, fc in f.terms.items():
        gc = g.terms.get(key, 0)
        for (a, b), e in layout.unpack(key):
            gc *= factorial(e)
            if f.kind.family == "II" and a == b:
                gc *= 2 ** e
        total += fc * gc
    return total


def state(kind, nu):
    return extremal_poly(ExtremalLabel(kind, nu))


def overlapping(f, seed):
    """Half of f's terms with new coefficients, plus terms f does not have."""
    rng = random.Random(seed)
    keys = list(f.terms)
    terms = {key: rng.choice([-3, -1, 2, 5])
             for key in rng.sample(keys, len(keys) // 2)}
    units = list(f.kind._layout.unit.values())
    for key in rng.sample(keys, 5):
        terms[key + rng.choice(units)] = 7  # one degree up: not in f
    return Poly(f.kind, terms)


@pytest.mark.parametrize("kind, nu", STATES,
                         ids=[f"{k.label}-{nu}" for k, nu in STATES])
def test_extremal_pairings_match_the_per_term_weights(kind, nu):
    psi = state(kind, nu)
    assert max(max(kind._layout.exponents(key)) for key in psi.terms) >= 2
    assert bargmann_inner(psi, psi) == reference_inner(psi, psi)
    third = psi * Fraction(1, 3)
    assert bargmann_inner(third, psi) == reference_inner(third, psi)
    assert bargmann_inner(third, third) == Fraction(reference_inner(psi, psi), 9)


@pytest.mark.parametrize("kind, nu", STATES,
                         ids=[f"{k.label}-{nu}" for k, nu in STATES])
def test_pairings_of_partly_overlapping_states(kind, nu):
    f = state(kind, nu)
    g = overlapping(f, kind.label)
    shared = f.terms.keys() & g.terms.keys()
    assert shared and shared != f.terms.keys() and shared != g.terms.keys()
    for a, b in ((f, g), (g, f), (g * Fraction(-2, 7), f)):
        assert bargmann_inner(a, b) == reference_inner(a, b) != 0


@pytest.mark.parametrize("kind", [I44, II3, III4], ids=lambda k: k.label)
def test_a_key_past_a_byte_keeps_its_exact_weight(kind):
    u, v, w = kind.variables()[:3]
    # narrow and wide keys in one state, the wide ones past the byte at u
    f = Poly.make(kind, {((u, 256), (v, 2)): 3, ((u, 300),): Fraction(1, 5),
                         ((u, 2), (v, 2)): -1, ((v, 3), (w, 1)): 4})
    g = Poly.make(kind, {((u, 256), (v, 2)): 2, ((u, 300),): 1,
                         ((u, 2), (v, 2)): 6, ((w, 1),): 9})
    assert bargmann_inner(f, g) == reference_inner(f, g)
    assert bargmann_inner(f, f) == reference_inner(f, f)


# ---- Poly * Fraction(p, q) ----

def int_poly(kind, seed, choices=(-6, -2, -1, 1, 3, 4, 10 ** 30 + 1)):
    rng = random.Random(seed)
    return Poly.make(kind, {mono: rng.choice(choices)
                            for mono in monomials_upto(kind, 4)})


@pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(-2, 3),
                               Fraction(10 ** 40, 7)], ids=str)
@pytest.mark.parametrize("kind", [I44, II3, III4], ids=lambda k: k.label)
def test_one_shared_fraction_per_distinct_int_coefficient(kind, s):
    f = int_poly(kind, kind.label)
    p, q = s.numerator, s.denominator
    for scaled in (f * s, s * f):
        assert scaled.terms.keys() == f.terms.keys()
        for key, c in f.terms.items():
            value = scaled.terms[key]
            assert type(value) is Fraction and value == Fraction(c * p, q)
        objects = {id(value) for value in scaled.terms.values()}
        assert len(objects) == len(set(f.terms.values())) == 7


def test_a_state_scaled_by_one_half_shares_its_fractions():
    psi = state(I44, (5, 4, 3, 2))
    half = psi * Fraction(1, 2)
    assert len({id(c) for c in half.terms.values()}) \
        == len(set(psi.terms.values())) < len(psi.terms)
    assert half.terms == {m: Fraction(c, 2) for m, c in psi.terms.items()}


@pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(-2, 3), Fraction(3),
                               5], ids=str)
def test_mixed_int_and_fraction_coefficients_scale_exactly(s):
    f = Poly.make(II3, {(((1, 1), 2),): 3, (((1, 2), 1),): Fraction(3),
                        (((2, 2), 1),): Fraction(5, 6), (((1, 3), 2),): 3,
                        (((3, 3), 1),): Fraction(-5, 6), (((2, 3), 1),): -4})
    scaled = f * s
    assert scaled.terms == {m: c * s for m, c in f.terms.items()}
    for m, c in f.terms.items():
        want = int if isinstance(c, int) and Fraction(s).denominator == 1 \
            else Fraction
        assert type(scaled.terms[m]) is want


@pytest.mark.parametrize("s", [Fraction(3), Fraction(-4, 1), 7], ids=str)
def test_an_integer_scale_keeps_ints(s):
    f = int_poly(I44, "ints")
    scaled = f * s
    assert scaled.terms == {m: c * int(s) for m, c in f.terms.items()}
    assert all(type(c) is int for c in scaled.terms.values())


# ---- the export basis ----

@pytest.mark.parametrize("kind", [AlgebraKind.type_i(2, 3), II3, III4],
                         ids=lambda k: k.label)
@pytest.mark.parametrize("d", range(5))
def test_the_export_keys_are_the_packed_graded_basis(monkeypatch, kind, d):
    layout = kind._layout
    seen, batch = [], layout.batch

    def spy(keys):
        seen.append(keys)
        return batch(keys)

    monkeypatch.setattr(layout, "batch", spy)
    matrices = _rep_matrices(kind, default_generators(kind), d)
    want = [layout.pack(m) for m in monomials_upto(kind, d)]
    assert seen == [want]
    assert want == [layout.pack(m) for m in basis_monomials(kind, d)]
    assert {m.dim for m in matrices} == {len(want)}


@pytest.mark.parametrize("kind", [AlgebraKind.type_i(2, 3), II3, III4],
                         ids=lambda k: k.label)
def test_each_export_column_is_the_image_of_its_basis_monomial(kind):
    basis = list(monomials_upto(kind, 3))
    index = {mono: i for i, mono in enumerate(basis)}
    gens = default_generators(kind, Fraction(1, 2))
    for m in build_rep_matrices(kind, gens, 3):
        g = next(gen for gen in gens if gen.name == m.name)
        want, overflow = {}, 0
        for col, mono in enumerate(basis):
            image = apply_generator(g, Poly.from_monomial(kind, mono))
            for key, c in image.terms.items():
                row = index.get(kind._layout.unpack(key))
                if row is None:
                    overflow += 1
                else:
                    want[row, col] = c
        assert m.entries == want and m.overflow_count == overflow, m.name
