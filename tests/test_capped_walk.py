"""The sub-monomial walk capped at a symbol's own exponents, and the
Laplace states of the column determinant pruned of cancelled terms.

A symbol's caps hold, field by field, the largest exponent any of its
d-parts holds, so the walk never builds a sub-monomial that no part can
meet.  The references are a brute-force walk over every exponent vector in
tuple form and the permutation sum of the column determinant; neither
shares code with the kernels.
"""

import random
import time
from fractions import Fraction
from itertools import permutations, product
from math import comb, perm as falling

import pytest

from capelli.algebra import (_EXP_MAX, AlgebraKind, Poly, apply_partial,
                             monomials_upto, mul_z)
from capelli.determinants import (_apply_normal, _capelli_symbol, _Symbol,
                                  _sub_monomials, capelli_rhs_apply,
                                  capelli_shift, det_partial, pfaffian_partial)

I22 = AlgebraKind.type_i(2, 2)
I23 = AlgebraKind.type_i(2, 3)
I33 = AlgebraKind.type_i(3, 3)
II3 = AlgebraKind.type_ii(3)
III4 = AlgebraKind.type_iii(4)

# (label, symbol): DiffOp symbols (no z part, one degree) and DX symbols
SYMBOLS = [
    ("I33-nabla3", lambda: det_partial(I33, 3)._symbol),
    ("I23-nabla2", lambda: det_partial(I23, 2)._symbol),
    ("I33-dx2-d3", lambda: _capelli_symbol(I33, 2, "DX", 3)),
    ("II3-nabla3", lambda: det_partial(II3, 3)._symbol),
    ("II3-dx3-d4", lambda: _capelli_symbol(II3, 3, "DX", 4)),
    ("III4-nabla4", lambda: det_partial(III4, 4)._symbol),
    ("III4-box2", lambda: pfaffian_partial(III4, 2)._symbol),
    ("III4-dx4-d3", lambda: _capelli_symbol(III4, 4, "DX", 3)),
]
KIND_OF = {"I33": I33, "I23": I23, "II3": II3, "III4": III4}


def kind_of(label):
    return KIND_OF[label.split("-")[0]]


# ---- the tuple-form oracles ----

def oracle_walk(exps, caps, bottom, top, weigh, w):
    """{b: (weight, |b|)} over every exponent vector b with b_v at most
    exps_v, caps_v and top, by brute force."""
    out = {}
    for b in product(*(range(min(e, cap, top) + 1)
                       for e, cap in zip(exps, caps))):
        if bottom <= sum(b) <= top:
            weight = w
            for e, j in zip(exps, b):
                weight *= weigh(e, j)
            out[b] = (weight, sum(b))
    return out


def walked(layout, exps, caps, bottom, top, weigh, w):
    subs = _sub_monomials(layout.fields, exps, caps, bottom, top, weigh, w)
    out = {tuple(layout.exponents(b)): (wb, k) for b, wb, k in subs}
    assert len(out) == len(subs), "a sub-monomial walked twice"
    return out


def oracle_normal(groups, f, kind):
    """sum_b (sum_a c_ab z^a) d^b f in tuple form, each plain derivative
    taken as its falling factorial."""
    layout, out = kind._layout, {}
    for m, zc in f.terms.items():
        exps = layout.exponents(m)
        for b, group in groups.items():
            need = layout.exponents(b)
            if any(j > e for e, j in zip(exps, need)):
                continue
            weight = zc
            for e, j in zip(exps, need):
                weight *= falling(e, j)
            for a, c in group.items():
                key = tuple(map(lambda e, j, i: e - j + i, exps, need,
                                layout.exponents(a)))
                out[key] = out.get(key, 0) + weight * c
    return {m: c for m, c in out.items() if c}


def as_tuples(f):
    return {tuple(f.kind._layout.exponents(m)): c for m, c in f.terms.items()}


def exponents_around(caps, rng, live=4):
    """An exponent vector that holds up to live fields, each below, at or
    above its cap."""
    exps = [0] * len(caps)
    for v in rng.sample(range(len(caps)), min(live, len(caps))):
        exps[v] = max(0, caps[v] + rng.choice((-1, 0, 1, 2, 3)))
    return exps


# ---- the walk ----

@pytest.mark.parametrize("label,build", SYMBOLS, ids=[s[0] for s in SYMBOLS])
def test_the_capped_walk_matches_a_brute_force_walk(label, build):
    layout = kind_of(label)._layout
    symbol = build()
    caps = symbol.caps
    rng = random.Random(label)
    bounds = [(symbol.bottom, symbol.top), (0, 0), (0, 2), (1, 3), (2, 2),
              (0, 9), (3, 5)]
    for _ in range(60):
        exps = exponents_around(caps, rng)
        for low, high in bounds:
            for weigh in (falling, comb):
                w = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                assert walked(layout, exps, caps, low, high, weigh, w) \
                    == oracle_walk(exps, caps, low, high, weigh, w), \
                    (exps, low, high)


def test_caps_below_at_and_above_every_exponent():
    # every exponent 0..3 against every cap 0..3, in the first, a middle
    # and the last field of II(3)
    layout = II3._layout
    for v, e, cap in product((0, 2, 5), range(4), range(4)):
        caps, exps = [1] * 6, [1, 0, 2, 0, 1, 0]
        caps[v], exps[v] = cap, e
        for low, high in ((0, 6), (1, 2), (3, 3), (4, 6)):
            assert walked(layout, exps, caps, low, high, falling, 1) == \
                oracle_walk(exps, caps, low, high, falling, 1), (v, e, cap)


def test_random_caps_and_exponents():
    layout = I33._layout
    rng = random.Random(91)
    for _ in range(300):
        caps = [rng.randint(0, 3) for _ in range(9)]
        exps = exponents_around(caps, rng, live=5)
        low = rng.randint(0, 4)
        high = low + rng.randint(0, 4)
        assert walked(layout, exps, caps, low, high, comb, 3) == \
            oracle_walk(exps, caps, low, high, comb, 3), (caps, exps, low, high)


def test_the_caps_of_each_kind():
    # kind II: d[a,b] d[b,a] folds to d[a,b]^2 off the diagonal
    assert det_partial(II3, 3)._symbol.caps == [1, 2, 2, 1, 2, 1]
    assert _capelli_symbol(II3, 3, "DX", 4).caps == [1, 2, 2, 1, 2, 1]
    # kind III: the square of the Pfaffian, and the Pfaffian itself
    assert det_partial(III4, 4)._symbol.caps == [2] * 6
    assert pfaffian_partial(III4, 2)._symbol.caps == [1] * 6
    # kind I: every variable once, and none of column 3 for n = 2
    assert det_partial(I33, 3)._symbol.caps == [1] * 9
    assert det_partial(I23, 2)._symbol.caps == [1, 1, 0, 1, 1, 0]
    for label, build in SYMBOLS:
        symbol = build()
        layout = kind_of(label)._layout
        assert isinstance(symbol, _Symbol)
        assert symbol.caps == [max(col) for col in
                               zip(*map(layout.exponents, symbol))], label


# ---- _apply_normal with caps ----

def random_poly(kind, rng, nterms=6, emax=4):
    variables = kind.variables()
    terms = {}
    for _ in range(nterms):
        mono = tuple(sorted((v, rng.randint(1, emax)) for v in
                            rng.sample(variables, rng.randint(0, 4))))
        terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return Poly.make(kind, terms)


@pytest.mark.parametrize("label,build", SYMBOLS, ids=[s[0] for s in SYMBOLS])
def test_a_plain_dict_gives_what_the_symbol_gives(label, build):
    # a symbol rebuilt from a plain copy of its groups derives the same
    # caps and degree range, and both apply as the oracle does
    kind = kind_of(label)
    layout = kind._layout
    symbol = build()
    plain = {b: dict(g) for b, g in symbol.items()}
    assert type(plain) is dict and plain == symbol
    rebuilt = _Symbol(plain, layout)
    assert (rebuilt.caps, rebuilt.bottom, rebuilt.top) == \
        (symbol.caps, symbol.bottom, symbol.top)
    rng = random.Random(label + "-apply")
    polys = [random_poly(kind, rng) for _ in range(6)]
    tagged = Poly(kind, {m | i << layout.tag: c for i, f in enumerate(polys)
                         for m, c in f.terms.items()})
    for f in polys:
        want = oracle_normal(symbol, f, kind)
        assert as_tuples(_apply_normal(symbol, f)) == want
        assert as_tuples(_apply_normal(rebuilt, f)) == want
    assert _apply_normal(rebuilt, tagged) == _apply_normal(symbol, tagged)


def test_a_plain_dict_is_wrapped_on_entry():
    # _Symbol reads caps and degrees from the dict's own keys: d[1,1]^2
    # walks z[1,1]^5 to j = 2
    layout = I22._layout
    z11 = layout.unit[1, 1]
    f = Poly(I22, {5 * z11: 1})
    symbol = _Symbol({2 * z11: {0: 1}}, layout)
    assert (symbol.caps, symbol.bottom, symbol.top) == ([2, 0, 0, 0], 2, 2)
    assert _apply_normal(symbol, f) == Poly(I22, {3 * z11: 20})
    empty = _Symbol({}, layout)
    assert (empty.caps, empty.bottom, empty.top) == ([0] * 4, 0, 0)
    assert _apply_normal(empty, f).is_zero()


def test_an_exponent_at_the_field_limit_is_walked_at_once():
    # z[1,2]^_EXP_MAX meets a cap of 2: the walk takes j <= 2, never
    # range(_EXP_MAX + 1)
    layout = II3._layout
    exps = [0, _EXP_MAX, 0, 0, 0, 1]
    start = time.perf_counter()
    for caps in ([1, 2, 2, 1, 2, 1], [_EXP_MAX] * 6, [0] * 6):
        assert walked(layout, exps, caps, 0, 3, falling, 1) == \
            oracle_walk(exps, caps, 0, 3, falling, 1)
    nabla = det_partial(II3, 3)
    edge = Poly.make(II3, {(((1, 2), _EXP_MAX), ((3, 3), 1)): 1})
    image = nabla.apply(edge)
    assert as_tuples(image) == oracle_normal(nabla._symbol, edge, II3)
    assert not image.is_zero()
    symbol = _capelli_symbol(II3, 3, "DX", 3)
    assert as_tuples(_apply_normal(symbol, edge)) == \
        oracle_normal(symbol, edge, II3)
    assert time.perf_counter() - start < 1.0


# ---- the Laplace states of capelli_rhs_apply ----

def oracle_apply_E(f, i, j, ncols):
    out = Poly.zero(f.kind)
    for s in range(1, ncols + 1):
        if f.kind.family == "III" and s in (i, j):
            continue
        out = out + mul_z(apply_partial(f, j, s), i, s)
    return out


def perm_sign(seq):
    return (-1) ** sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:])


def oracle_products(f, n, shifts):
    """The signed product of each permutation of the column determinant
    applied to f; their sum is the determinant's image."""
    products = []
    for perm in permutations(range(1, n + 1)):
        g = f
        for col in range(n, 0, -1):  # rightmost factor acts first
            row = perm[col - 1]
            h = oracle_apply_E(g, row, col, n)
            g = h + shifts[row - 1] * g if row == col else h
        products.append(perm_sign(perm) * g)
    return products


# x_n nabla_n kills every monomial of degree < n, so on these batches the
# permutation products cancel; at n >= 3 they still do with a shift moved
RHS_CASES = [(I33, 3, "XD", 3), (II3, 3, "XD", 2), (III4, 4, "XD", 2)]


@pytest.mark.parametrize("mutated", [False, True], ids=["true", "mutated"])
@pytest.mark.parametrize("kind,n,side,dmax", RHS_CASES,
                         ids=[f"{k.label}-n{n}-{s}" for k, n, s, _ in RHS_CASES])
def test_the_laplace_states_keep_no_cancelled_term(kind, n, side, dmax,
                                                   mutated):
    shifts = [capelli_shift(kind, side, n, i) for i in range(1, n + 1)]
    if mutated:
        shifts[0] += 1
    layout = kind._layout
    monos = list(monomials_upto(kind, dmax))
    image = capelli_rhs_apply(Poly(kind, layout.batch(map(layout.pack, monos))),
                              n, side, shifts)
    assert all(image.terms.values()), "a zero coefficient was kept"
    images = layout.split(image.terms)
    cancelled = 0
    for i, mono in enumerate(monos):
        products = oracle_products(Poly.from_monomial(kind, mono), n, shifts)
        want = sum(products, Poly.zero(kind))
        assert Poly(kind, images.get(i, {})) == want, mono
        written = set().union(*(g.terms for g in products))
        cancelled += len(written - set(want.terms))
    assert cancelled  # the batch's products cancel somewhere
