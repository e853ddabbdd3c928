"""_Layout.exponents reads every 32-bit field of a packed key at once.

The shift-and-mask formula it replaced stays here as the oracle: on seeded
random keys, and on keys with _EXP_MAX in the first and the last field, the
byte-wise read, unpack and Poly.degree must agree with it.  A key with a
tag above the variable fields, or a negative one, must raise rather than be
read without its tag.
"""

import random

import pytest

from capelli.algebra import _EXP_MAX, AlgebraKind, Poly

KINDS = [AlgebraKind.type_i(1, 1), AlgebraKind.type_i(2, 3),
         AlgebraKind.type_iii(5), AlgebraKind.type_ii(6),
         AlgebraKind.type_i(6, 6)]
FIELDS = {"I(1,1)": 1, "I(2,3)": 6, "III(5)": 10, "II(6)": 21, "I(6,6)": 36}


def oracle_exponents(layout, key):
    return [(key >> shift) & _EXP_MAX for _, shift in layout.fields]


def key_of(layout, exps):
    return sum(e << shift for e, (_, shift) in zip(exps, layout.fields))


def exponent_rows(nfields, rng):
    """Edge rows (_EXP_MAX first, last, both, everywhere), then random ones."""
    rows = [[0] * nfields, [_EXP_MAX] * nfields]
    for at in ({0}, {nfields - 1}, {0, nfields - 1}):
        rows.append([_EXP_MAX if k in at else rng.randrange(4)
                     for k in range(nfields)])
    for _ in range(200):
        rows.append([rng.choice((0, 0, 1, 2, 7, rng.randrange(_EXP_MAX + 1)))
                     for _ in range(nfields)])
    return rows


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_exponents_match_the_shift_and_mask_formula(kind):
    layout = kind._layout
    assert len(layout.fields) == FIELDS[kind.label]
    rows = exponent_rows(len(layout.fields), random.Random(13))
    keys = []
    for exps in rows:
        key = key_of(layout, exps)
        keys.append(key)
        assert layout.exponents(key) == oracle_exponents(layout, key) == exps
        mono = tuple((v, e) for (v, _), e in zip(layout.fields, exps) if e)
        assert layout.unpack(key) == mono
        assert layout.pack(mono) == key
        assert Poly(kind, {key: 1}).degree() == sum(exps)
    assert Poly(kind, dict.fromkeys(keys, 1)).degree() == \
        max(sum(oracle_exponents(layout, key)) for key in keys)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_a_tagged_or_negative_key_raises(kind):
    layout = kind._layout
    key = key_of(layout, [_EXP_MAX] + [1] * (len(layout.fields) - 1))
    for bad in (key | 1 << layout.tag, key | 5 << layout.tag, -1, -key):
        with pytest.raises(OverflowError):
            layout.exponents(bad)
        with pytest.raises(OverflowError):
            layout.unpack(bad)
    # the second monomial of a batch carries tag 1
    with pytest.raises(OverflowError):
        Poly(kind, layout.batch([key, key])).degree()


def test_a_kind_without_variables_reads_no_fields():
    layout = AlgebraKind.type_iii(1)._layout
    assert layout.exponents(0) == []
    with pytest.raises(OverflowError):
        layout.exponents(1)
