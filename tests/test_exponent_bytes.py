"""_Layout.exponents reads a key's little-endian bytes, one byte per field
while no field holds 256 or more, and each field's 4 bytes otherwise.

The tests put exponents on both sides of that boundary (255, 256, 257,
2^24 and _EXP_MAX) in the first, a middle and the last field, and compare
the read with the shift-and-mask formula.  The text format, weight and
degree read through unpack, and the Bargmann pairing through exponents,
so a wrong 4-byte read would show in each of them too.
"""

import random
from fractions import Fraction

import pytest

from capelli.algebra import (_EXP_MAX, AlgebraKind, Poly, bargmann_inner,
                             format_poly, parse_poly, weight)
from capelli.extremal import ExtremalLabel, extremal_poly, norm_closed_form

KINDS = [AlgebraKind.type_i(1, 1), AlgebraKind.type_iii(5),
         AlgebraKind.type_ii(6), AlgebraKind.type_i(6, 6)]
VALUES = [255, 256, 257, 1 << 24, _EXP_MAX]


def oracle_exponents(layout, key):
    return [(key >> shift) & _EXP_MAX for _, shift in layout.fields]


def key_of(layout, exps):
    return sum(e << shift for e, (_, shift) in zip(exps, layout.fields))


def boundary_rows(nfields):
    """Each value alone, and beside 255s, in the first, middle, last field."""
    rows = []
    for at in sorted({0, nfields // 2, nfields - 1}):
        for value in VALUES:
            for rest in (0, 1, 255):
                row = [rest] * nfields
                row[at] = value
                rows.append(row)
    return rows


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_the_wide_mask_covers_bits_8_to_31_of_every_field(kind):
    layout = kind._layout
    assert layout.wide == sum(0xFFFFFF00 << shift for _, shift in layout.fields)
    assert layout.wide & layout.guard == layout.guard


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_fields_at_the_byte_boundary_read_as_the_formula(kind):
    layout = kind._layout
    for exps in boundary_rows(len(layout.fields)):
        key = key_of(layout, exps)
        read = layout.exponents(key)
        assert read == oracle_exponents(layout, key) == exps
        assert all(type(e) is int for e in read)
        mono = tuple((v, e) for (v, _), e in zip(layout.fields, exps) if e)
        assert layout.unpack(key) == mono
        assert layout.pack(mono) == key
        assert Poly(kind, {key: 1}).degree() == sum(exps)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_a_tagged_key_with_a_wide_field_still_raises(kind):
    layout = kind._layout
    key = key_of(layout, [256] * len(layout.fields))
    for bad in (key | 1 << layout.tag, -key):
        with pytest.raises(OverflowError):
            layout.exponents(bad)


@pytest.mark.parametrize("kind, nu", [
    (AlgebraKind.type_i(2, 2), (260, 5)),
    (AlgebraKind.type_ii(2), (520, 10))], ids=["I(2,2)", "II(2)"])
def test_pairings_past_a_byte_match_the_closed_form(kind, nu):
    label = ExtremalLabel(kind, nu)
    psi = extremal_poly(label)
    layout = kind._layout
    shift = layout.shift[1, 1]
    assert max((key >> shift) & _EXP_MAX for key in psi.terms) > 255
    # a wrong read fails here, not in the factorial of a huge exponent
    for key in psi.terms:
        assert layout.exponents(key) == oracle_exponents(layout, key)
    assert bargmann_inner(psi, psi) == norm_closed_form(label)


def mixed_poly(kind, seed):
    """Twelve terms whose exponents are drawn from 0 and 254 to 257."""
    rng = random.Random(seed)
    variables = kind.variables()
    terms = {}
    for _ in range(12):
        mono = tuple((v, rng.choice((0, 0, 254, 255, 256, 257)))
                     for v in variables)
        mono = tuple((v, e) for v, e in mono if e) or ((variables[0], 256),)
        terms[mono] = Fraction(rng.randrange(-9, 10) or 1, rng.randrange(1, 5))
    return Poly.make(kind, terms), terms


def oracle_weight(kind, mono):
    row, col = [0] * kind.rows, [0] * kind.cols
    for (i, a), e in mono:
        row[i - 1] += e
        col[a - 1] += e
    if kind.family == "I":
        return tuple(row), tuple(col)
    return tuple(r + c for r, c in zip(row, col))


# per kind, two monomials of one weight with exponents across the byte boundary
SAME_WEIGHT = {
    "I(2,3)": ((((1, 1), 257), ((2, 3), 255)),
               (((1, 1), 2), ((1, 3), 255), ((2, 1), 255))),
    "II(3)": ((((1, 1), 128), ((2, 2), 128)), (((1, 2), 256),)),
    "III(4)": ((((1, 2), 256), ((3, 4), 254)),
               (((1, 2), 2), ((1, 3), 254), ((2, 4), 254))),
}


@pytest.mark.parametrize("kind", [AlgebraKind.type_i(2, 3),
                                  AlgebraKind.type_ii(3),
                                  AlgebraKind.type_iii(4)],
                         ids=lambda k: k.label)
def test_text_weight_and_degree_of_exponents_254_to_257(kind):
    f, terms = mixed_poly(kind, 26)
    text = format_poly(f)
    assert parse_poly(kind, text) == f
    for mono in terms:
        assert " * ".join(f"z[{a},{b}]^{e}" for (a, b), e in mono) in text
        single = Poly.make(kind, {mono: 1})
        assert weight(single) == oracle_weight(kind, mono)
        assert single.degree() == sum(e for _, e in mono)
    assert f.degree() == max(sum(e for _, e in mono) for mono in terms)
    weights = {oracle_weight(kind, mono) for mono in terms}
    assert weight(f) == (weights.pop() if len(weights) == 1 else None)
    m1, m2 = SAME_WEIGHT[kind.label]
    assert oracle_weight(kind, m1) == oracle_weight(kind, m2)
    same = Poly.make(kind, {m1: 1, m2: -1})
    assert weight(same) == oracle_weight(kind, m1)
    assert parse_poly(kind, format_poly(same)) == same
