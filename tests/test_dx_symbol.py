"""The DX left side from its normal-ordered symbol, and DiffOp.apply as the
symbol's case with no z part.

The reference is the tuple-form falling-factorial loop that DiffOp.apply
ran before its keys were packed (the oracle of tests/test_packed.py),
applied to the tuple-form product x_n f.  It shares no code with the
symbol's kernel.
"""

import random
from fractions import Fraction

import pytest

from capelli.algebra import (_EXP_MAX, AlgebraKind, Poly, format_poly,
                             monomials_upto)
from capelli.determinants import (DiffOp, _apply_normal, _capelli_symbol,
                                  det_partial, det_z, pfaffian_partial,
                                  verify_capelli)

I22 = AlgebraKind.type_i(2, 2)

# (kind, dmax): every monomial up to dmax, at every valid n
SWEPT = [(AlgebraKind.type_i(3, 3), 3), (AlgebraKind.type_i(2, 3), 3),
         (AlgebraKind.type_i(3, 2), 3), (AlgebraKind.type_ii(3), 3),
         (AlgebraKind.type_ii(4), 3), (AlgebraKind.type_iii(4), 3),
         (AlgebraKind.type_iii(6), 2)]
CASES = [(kind, n, dmax) for kind, dmax in SWEPT
         for n in range(1, kind.det_bound + 1)
         if kind.family != "III" or n % 2 == 0]


def case_id(case):
    kind, n, dmax = case
    return f"{kind.label}-n{n}-d{dmax}"


# ---- the tuple-form oracle ----

def tuples(terms, kind):
    return {kind._layout.unpack(m): c for m, c in terms.items()}


def oracle_mul(f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            m = tuple(sorted(exps.items()))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


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
    return {m: c for m, c in out.items() if c}


def oracle_dx(kind, n, f):
    """nabla_n (x_n f), f and the result in tuple form."""
    nabla = tuples(det_partial(kind, n).terms, kind)
    return oracle_diffop_apply(nabla, oracle_mul(tuples(det_z(kind, n).terms,
                                                        kind), f))


def tagged(kind, polys):
    """The batch sum_i t^i f_i of packed polynomials f_i."""
    tag = kind._layout.tag
    return Poly(kind, {m | i << tag: c for i, f in enumerate(polys)
                       for m, c in f.terms.items()})


def random_poly(kind, rng, nterms=5, emax=3):
    variables = kind.variables()
    terms = {}
    for _ in range(nterms):
        mono = tuple(sorted((v, rng.randint(1, emax)) for v in
                            rng.sample(variables, rng.randint(0, 3))))
        terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return Poly.make(kind, terms)


# ---- the DX left side ----

@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_dx_symbol_matches_the_tuple_form_oracle(case):
    kind, n, dmax = case
    layout = kind._layout
    symbol = _capelli_symbol(kind, n, "DX", dmax)
    monos = list(monomials_upto(kind, dmax))
    expected = [oracle_dx(kind, n, {mono: 1}) for mono in monos]
    for mono, want in zip(monos, expected):
        alone = _apply_normal(symbol, Poly.from_monomial(kind, mono))
        assert tuples(alone.terms, kind) == want, format_poly(
            Poly.from_monomial(kind, mono))
    for start in range(0, len(monos), 32):
        batch = Poly(kind, layout.batch(map(layout.pack,
                                            monos[start:start + 32])))
        images = layout.split(_apply_normal(symbol, batch).terms)
        for i, want in enumerate(expected[start:start + 32]):
            assert tuples(images.get(i, {}), kind) == want


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_dx_symbol_matches_the_old_sweep_path(case):
    # nabla.apply(xn * f) left the sweep; it stays an oracle on every kind
    kind, n, dmax = case
    layout = kind._layout
    monos = list(monomials_upto(kind, dmax))[-32:]
    batch = Poly(kind, layout.batch(map(layout.pack, monos)))
    assert _apply_normal(_capelli_symbol(kind, n, "DX", dmax), batch) == \
        det_partial(kind, n).apply(det_z(kind, n) * batch)


@pytest.mark.parametrize("kind", [AlgebraKind.type_i(3, 3),
                                  AlgebraKind.type_ii(4),
                                  AlgebraKind.type_iii(4)],
                         ids=lambda k: k.label)
def test_a_truncated_symbol_agrees_up_to_its_degree(kind):
    layout = kind._layout
    for n in range(2, kind.det_bound + 1, 2 if kind.family == "III" else 1):
        full = _capelli_symbol(kind, n, "DX", n)
        assert (full.bottom, full.top) == (0, n)
        for d in range(n):
            symbol = _capelli_symbol(kind, n, "DX", d)
            assert (symbol.bottom, symbol.top) == (0, d)
            assert symbol == {b: g for b, g in full.items()
                              if sum(layout.exponents(b)) <= d}
            monos = list(monomials_upto(kind, d))
            batch = Poly(kind, layout.batch(map(layout.pack, monos)))
            assert _apply_normal(symbol, batch) == _apply_normal(full, batch)


@pytest.mark.parametrize("kind", [AlgebraKind.type_i(3, 3),
                                  AlgebraKind.type_i(2, 3),
                                  AlgebraKind.type_ii(3), AlgebraKind.type_ii(4),
                                  AlgebraKind.type_iii(4),
                                  AlgebraKind.type_iii(6)],
                         ids=lambda k: k.label)
def test_the_degree_range_read_from_the_keys(kind):
    # the ranges the sweep passed with each symbol before it carried its own
    for n in range(2 if kind.family == "III" else 1, kind.det_bound + 1,
                   2 if kind.family == "III" else 1):
        nabla = det_partial(kind, n)._symbol
        assert (nabla.bottom, nabla.top) == (n, n)
        for dmax in range(n + 3):
            symbol = _capelli_symbol(kind, n, "DX", dmax)
            assert (symbol.bottom, symbol.top) == (0, min(n, dmax)), (n, dmax)


def test_the_symbol_of_nabla_1_x_1():
    # d z = z d + 1: the parts of d^0 and d^1 are 1 and z
    z11 = I22._layout.unit[1, 1]
    assert _capelli_symbol(I22, 1, "DX", 1) == {0: {0: 1}, z11: {z11: 1}}
    assert _capelli_symbol(I22, 1, "DX", 0) == {0: {0: 1}}


def test_the_sweep_passes_dmax_to_the_symbol():
    kind = AlgebraKind.type_i(2, 3)
    _capelli_symbol.cache_clear()
    verify_capelli(kind, 2, "DX", 2)
    verify_capelli(kind, 2, "XD", 3)
    info = _capelli_symbol.cache_info()
    assert (info.currsize, info.misses) == (2, 2)
    assert _capelli_symbol(kind, 2, "DX", 2).top == 2
    xd = _capelli_symbol(kind, 2, "XD", 3)
    assert (xd.bottom, xd.top) == (2, 2)
    assert _capelli_symbol.cache_info().misses == 2  # both read from the cache


@pytest.mark.parametrize("kind", [AlgebraKind.type_ii(3),
                                  AlgebraKind.type_iii(4)],
                         ids=lambda k: k.label)
def test_dx_reports_do_not_depend_on_jobs(kind):
    one = verify_capelli(kind, 2, "DX", 3, jobs=1)
    two = verify_capelli(kind, 2, "DX", 3, jobs=2)
    assert one.passed and one.to_json() == two.to_json()


# ---- DiffOp.apply, the case with no z part ----

def diffops(kind):
    ops = [det_partial(kind, n) for n in range(1, kind.det_bound + 1)]
    if kind.family == "III":
        ops += [pfaffian_partial(kind, m) for m in range(kind.rows // 2 + 1)]
    # mixed degrees and Fraction coefficients
    rng = random.Random(kind.rows * 11 + kind.cols)
    return ops + [DiffOp(kind, random_poly(kind, rng).terms) for _ in range(3)]


@pytest.mark.parametrize("kind", [AlgebraKind.type_i(2, 3),
                                  AlgebraKind.type_i(3, 2),
                                  AlgebraKind.type_ii(3),
                                  AlgebraKind.type_iii(4)],
                         ids=lambda k: k.label)
def test_diffop_apply_matches_the_oracle_alone_and_tagged(kind):
    rng = random.Random(53 + kind.rows * 7 + kind.cols)
    polys = [random_poly(kind, rng) for _ in range(8)] + [Poly.zero(kind)]
    for op in diffops(kind):
        dterms = tuples(op.terms, kind)
        for f in polys:
            want = oracle_diffop_apply(dterms, tuples(f.terms, kind))
            assert tuples(op.apply(f).terms, kind) == want
        images = kind._layout.split(op.apply(tagged(kind, polys)).terms)
        for i, f in enumerate(polys):
            assert tuples(images.get(i, {}), kind) == \
                oracle_diffop_apply(dterms, tuples(f.terms, kind))


def test_diffop_without_terms_or_with_a_constant_term():
    f = Poly.make(I22, {(((1, 1), 2),): Fraction(3, 4), (): 5})
    assert DiffOp(I22, {}).apply(f).is_zero()
    assert DiffOp(I22, {0: Fraction(-2, 3)}).apply(f) == f * Fraction(-2, 3)
    mixed = DiffOp(I22, {0: 1, I22._layout.unit[1, 1]: 1})
    assert mixed.apply(f) == f + Poly.make(I22, {(((1, 1), 1),): Fraction(3, 2)})


# ---- exponent overflow ----

def test_an_exponent_past_the_field_is_refused():
    # the part of d11 d22 holds x_2 = z11 z22 - z12 z21, which raises z12
    symbol = _capelli_symbol(I22, 2, "DX", 2)
    z11_z22 = (((1, 1), 1), ((2, 2), 1))
    edge = Poly.make(I22, {z11_z22 + (((1, 2), _EXP_MAX - 1),): 1})
    image = tuples(_apply_normal(symbol, edge).terms, I22)
    assert image == oracle_dx(I22, 2, tuples(edge.terms, I22))
    assert (((1, 2), _EXP_MAX), ((2, 1), 1)) in image
    over = Poly.make(I22, {(((1, 1), 1), ((1, 2), _EXP_MAX), ((2, 2), 1)): 1})
    with pytest.raises(ValueError, match="exceeds"):
        _apply_normal(symbol, over)
    with pytest.raises(ValueError, match="exceeds"):
        _apply_normal(symbol, tagged(I22, [Poly.constant(I22, 1), over]))
