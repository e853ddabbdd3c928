"""Differential tests: the packed-integer monomial kernels against the
tuple-form code they replaced, and the refusal of exponent overflow.

The oracles below work on dicts from tuple monomials (((a, b), e) pairs
sorted by variable) to coefficients, as Poly and DiffOp did before their
keys were packed into ints.  Every kernel result is unpacked back to that
form and compared with the oracle's dict.
"""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from capelli.algebra import (_EXP_MAX, AlgebraKind, Poly, apply_partial,
                             bargmann_inner, format_poly, mul_z, parse_poly,
                             variable)
from capelli.determinants import (all_pairings, apply_E, apply_R, det_partial,
                                  pfaffian_partial)

I22 = AlgebraKind.type_i(2, 2)
I23 = AlgebraKind.type_i(2, 3)
I32 = AlgebraKind.type_i(3, 2)
II3 = AlgebraKind.type_ii(3)
III4 = AlgebraKind.type_iii(4)
KINDS = [I23, I32, II3, III4]


# ---- the tuple-form oracles ----

def tuples(f):
    """A Poly's terms in tuple form."""
    return {f.kind._layout.unpack(m): c for m, c in f.terms.items()}


def oracle_monomial_mul(m1, m2):
    exps = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def nonzero(terms):
    return {m: c for m, c in terms.items() if c}


def oracle_mul(f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = oracle_monomial_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return nonzero(out)


def oracle_add(f, g):
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, 0) + c
    return nonzero(out)


def oracle_mul_z(kind, f, a, b):
    v, sign = kind.z_canonical(a, b)
    return {oracle_monomial_mul(m, ((v, 1),)): c * sign for m, c in f.items()}


def oracle_partial(kind, f, a, b):
    v, mult = kind.partial_canonical(a, b)
    out = {}
    for m, c in f.items():
        exps = dict(m)
        e = exps.get(v, 0)
        if e:
            exps[v] = e - 1
            key = tuple(sorted((w, k) for w, k in exps.items() if k))
            out[key] = out.get(key, 0) + c * mult * e
    return nonzero(out)


def oracle_E(kind, f, i, j, ncols):
    out = {}
    for s in range(1, ncols + 1):
        if kind.family == "III" and (s == i or s == j):
            continue
        out = oracle_add(out, oracle_mul_z(kind, oracle_partial(kind, f, j, s),
                                           i, s))
    return out


def oracle_R(kind, f, alpha, beta):
    out = {}
    for i in range(1, kind.rows + 1):
        out = oracle_add(out, oracle_mul_z(kind, oracle_partial(
            kind, f, i, alpha), i, beta))
    return {m: -c for m, c in out.items()}


def oracle_diffop_apply(dterms, f):
    """The falling-factorial loop DiffOp.apply ran on tuple monomials."""
    out = {}
    for zmono, zc in f.items():
        for dmono, dc in dterms.items():
            coeff = dc * zc
            exps = dict(zmono)
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
                out[mono] = out.get(mono, 0) + coeff
    return nonzero(out)


def oracle_nabla(kind, n):
    """det(d) of the leading n x n block by permutation expansion."""
    terms = {}
    for sigma in permutations(range(1, n + 1)):
        if kind.family == "III" and any(i == sigma[i - 1] for i in range(1, n + 1)):
            continue
        inv = sum(1 for a in range(n) for b in range(a + 1, n)
                  if sigma[a] > sigma[b])
        coeff = -1 if inv % 2 else 1
        mono = ()
        for i in range(1, n + 1):
            v, factor = kind.partial_canonical(i, sigma[i - 1])
            coeff *= factor
            mono = oracle_monomial_mul(mono, ((v, 1),))
        terms[mono] = terms.get(mono, 0) + coeff
    return nonzero(terms)


def oracle_box(m):
    """The Pfaffian of the leading 2m x 2m block of d, over matchings."""
    terms = {}
    for pairs in all_pairings(tuple(range(1, 2 * m + 1))):
        flat = [x for pair in pairs for x in pair]
        inv = sum(1 for a in range(len(flat)) for b in range(a + 1, len(flat))
                  if flat[a] > flat[b])
        terms[tuple(sorted((pair, 1) for pair in pairs))] = -1 if inv % 2 else 1
    return terms


def oracle_inner(kind, f, g):
    total = Fraction(0)
    for mono, fc in f.items():
        gc = g.get(mono, 0)
        val = fc * gc
        for (i, j), e in mono:
            for k in range(2, e + 1):
                val *= k
            if kind.family == "II" and i == j:
                val *= 2 ** e
        total += val
    return total


def random_terms(kind, rng, nterms, emax=4):
    """Random tuple-form terms: a few variables each, exponents 1..emax."""
    varlist = kind.variables()
    terms = {}
    for _ in range(nterms):
        chosen = rng.sample(varlist, rng.randint(0, min(3, len(varlist))))
        mono = tuple(sorted((v, rng.randint(1, emax)) for v in chosen))
        terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return nonzero(terms)


def pairs_of(kind, rng, count=6):
    polys = []
    for _ in range(count):
        terms = random_terms(kind, rng, rng.randint(0, 8))
        polys.append((terms, Poly.make(kind, terms)))
    return polys


# ---- the kernels against the oracles ----

@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_make_packs_and_unpacks_the_tuple_form(kind):
    rng = random.Random(5 + kind.rows * 7 + kind.cols)
    for terms, f in pairs_of(kind, rng):
        assert tuples(f) == terms
        for mono, c in terms.items():
            assert f.coefficient(mono) == c
            assert Poly.from_monomial(kind, mono, c) == Poly.make(kind, {mono: c})
        assert parse_poly(kind, format_poly(f)) == f


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_products_and_sums_match_the_oracle(kind):
    rng = random.Random(11 + kind.rows * 7 + kind.cols)
    polys = pairs_of(kind, rng)
    for ft, f in polys:
        for gt, g in polys:
            assert tuples(f * g) == oracle_mul(ft, gt)
            assert tuples(f + g) == oracle_add(ft, gt)
        assert tuples(f ** 2) == oracle_mul(ft, ft)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_first_order_kernels_match_the_oracle(kind):
    rng = random.Random(23 + kind.rows * 7 + kind.cols)
    for ft, f in pairs_of(kind, rng):
        for a, b in kind.index_pairs():
            assert tuples(mul_z(f, a, b)) == oracle_mul_z(kind, ft, a, b)
            assert tuples(apply_partial(f, a, b)) == \
                oracle_partial(kind, ft, a, b)
        for i in range(1, kind.rows + 1):
            for j in range(1, kind.rows + 1):
                for ncols in range(1, kind.cols + 1):
                    assert tuples(apply_E(f, i, j, ncols)) == \
                        oracle_E(kind, ft, i, j, ncols), (i, j, ncols)
        if kind.family == "I":
            for alpha in range(1, kind.cols + 1):
                for beta in range(1, kind.cols + 1):
                    assert tuples(apply_R(f, alpha, beta)) == \
                        oracle_R(kind, ft, alpha, beta)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_diffop_apply_matches_the_falling_factorial_loop(kind):
    rng = random.Random(37 + kind.rows * 7 + kind.cols)
    ops = [(oracle_nabla(kind, n), det_partial(kind, n))
           for n in range(1, kind.det_bound + 1)]
    if kind.family == "III":
        ops += [(oracle_box(m), pfaffian_partial(kind, m)) for m in (0, 1, 2)]
    polys = pairs_of(kind, rng, 10)
    for dterms, op in ops:
        assert {op.kind._layout.unpack(m): c for m, c in op.terms.items()} \
            == dterms
        for ft, f in polys:
            assert tuples(op.apply(f)) == oracle_diffop_apply(dterms, ft)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_bargmann_inner_matches_the_oracle(kind):
    rng = random.Random(41 + kind.rows * 7 + kind.cols)
    polys = pairs_of(kind, rng)
    # shared monomials, so the pairing is not trivially zero
    polys += [(ft, Poly.make(kind, ft)) for ft in
              ({m: c * 3 for m, c in polys[0][0].items()},
               oracle_add(polys[0][0], polys[1][0]))]
    for ft, f in polys:
        for gt, g in polys:
            assert bargmann_inner(f, g) == oracle_inner(kind, ft, gt)


# ---- exponent overflow ----

def test_largest_exponent_works():
    top = Poly.from_monomial(I22, (((1, 1), _EXP_MAX),))
    assert top.degree() == _EXP_MAX
    assert top.coefficient((((1, 1), _EXP_MAX),)) == 1
    # a neighbouring field is untouched by a full one
    both = top * variable(I22, 1, 2)
    assert tuples(both) == {(((1, 1), _EXP_MAX), ((1, 2), 1)): 1}
    assert tuples(mul_z(top, 2, 1)) == {(((1, 1), _EXP_MAX), ((2, 1), 1)): 1}
    assert tuples(apply_partial(top, 1, 1)) == {(((1, 1), _EXP_MAX - 1),): _EXP_MAX}
    assert tuples(det_partial(I22, 1).apply(top)) == \
        {(((1, 1), _EXP_MAX - 1),): _EXP_MAX}
    # E_11 keeps z[1,1] in place: no raise past the field
    assert apply_E(top, 1, 1, 2) == _EXP_MAX * top
    assert "z[1,1]^" + str(_EXP_MAX) in format_poly(top)


def test_one_more_raises_instead_of_wrapping():
    top = Poly.from_monomial(I22, (((1, 1), _EXP_MAX),))
    with pytest.raises(ValueError, match="exceeds"):
        top * variable(I22, 1, 1)
    with pytest.raises(ValueError, match="exceeds"):
        mul_z(top, 1, 1)
    half = Poly.from_monomial(I22, (((1, 1), _EXP_MAX // 2 + 1),))
    with pytest.raises(ValueError, match="exceeds"):
        half ** 2
    # E_12 = z[1,1] d[2,1] + z[1,2] d[2,2] raises z[1,1] from z[2,1]
    raising = Poly.from_monomial(I22, (((1, 1), _EXP_MAX), ((2, 1), 1)))
    with pytest.raises(ValueError, match="exceeds"):
        apply_E(raising, 1, 2, 2)
    # R_12 = -z[1,2] d[1,1] - z[2,2] d[2,1] raises z[1,2] from z[1,1]
    col = Poly.from_monomial(I22, (((1, 1), 1), ((1, 2), _EXP_MAX)))
    with pytest.raises(ValueError, match="exceeds"):
        apply_R(col, 1, 2)


def test_tuple_edges_refuse_what_a_field_cannot_hold():
    with pytest.raises(ValueError):
        Poly.from_monomial(I22, (((1, 1), _EXP_MAX + 1),))
    with pytest.raises(ValueError):
        Poly.from_monomial(I22, (((1, 1), -1),))
    with pytest.raises(ValueError):
        Poly.from_monomial(III4, (((2, 2), 1),))  # not a canonical variable
    with pytest.raises(ValueError):
        parse_poly(I22, f"z[1,1]^{_EXP_MAX} * z[1,1]")
    assert parse_poly(I22, f"z[1,1]^{_EXP_MAX}") == \
        Poly.from_monomial(I22, (((1, 1), _EXP_MAX),))


def test_a_power_past_the_field_is_refused_before_multiplying(monkeypatch):
    z11, z12 = variable(I22, 1, 1), variable(I22, 1, 2)
    big = Poly.from_monomial(I22, (((1, 2), 1 << 30),))
    fine = Poly.from_monomial(I22, (((1, 1), (1 << 30) - 1),)) + z12
    assert tuples(fine ** 2) == {(((1, 1), _EXP_MAX - 1),): 1,
                                 (((1, 1), (1 << 30) - 1), ((1, 2), 1)): 2,
                                 (((1, 2), 2),): 1}
    top = Poly.from_monomial(I22, (((1, 1), _EXP_MAX),))
    assert top ** 1 == top and top ** 0 == Poly.constant(I22, 1)

    def fuse(self, other):
        raise AssertionError("multiplied before refusing the power")

    monkeypatch.setattr(Poly, "__mul__", fuse)
    # the top power of a variable in f^n is n times its top power in f,
    # whichever term holds it
    for f, n in ((z11, 1 << 31), (z11 + big, 2), (top, 2),
                 (-3 * z12, 10 ** 12)):
        with pytest.raises(ValueError, match="exceeds"):
            f ** n
