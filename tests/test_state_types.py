"""The exact-state results keep their types and their rendering.

bargmann_inner sums integer terms as ints and converts once, so it and
gram_diagonal must still return Fraction instances; SparseRepMatrix.to_json
writes str(v) for each entry, which must read as str(Fraction(v)) did for
every int and Fraction entry.
"""

from fractions import Fraction

import pytest

from capelli.algebra import AlgebraKind, Poly, bargmann_inner
from capelli.contraction import SparseRepMatrix, basis_monomials, \
    build_rep_matrices, default_generators, gram_diagonal
from capelli.extremal import ExtremalLabel, extremal_poly

KINDS = [AlgebraKind.type_i(2, 3), AlgebraKind.type_ii(3),
         AlgebraKind.type_iii(4)]
NU = {"I(2,3)": (3, 1), "II(3)": (4, 2, 2), "III(4)": (2, 2, 1, 1)}


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_pairings_of_integer_polynomials_are_fractions(kind):
    psi = extremal_poly(ExtremalLabel(kind, NU[kind.label]))
    assert all(type(c) is int for c in psi.terms.values())
    for f, g in ((psi, psi), (psi, Poly.zero(kind)), (Poly.zero(kind), psi),
                 (Poly.constant(kind, 3), Poly.constant(kind, -2))):
        assert type(bargmann_inner(f, g)) is Fraction
    assert bargmann_inner(Poly.constant(kind, 3),
                          Poly.constant(kind, -2)) == -6
    diagonal = gram_diagonal(kind, basis_monomials(kind, 2))
    assert diagonal and all(type(v) is Fraction and v > 0 for v in diagonal)


ENTRIES = [1, 7, -7, -1, Fraction(3, 1), Fraction(-2, 3), Fraction(4, 6),
           10 ** 60 + 1, -(10 ** 45), Fraction(10 ** 60 + 1, 3),
           Fraction(-(10 ** 40), 10 ** 40 + 7)]


def test_entries_render_as_their_fractions():
    entries = {(i, i % 3): v for i, v in enumerate(ENTRIES)}
    mat = SparseRepMatrix(name="X", kind_label="I(1,1)", basis_degree=0,
                          dim=len(ENTRIES), entries=entries, overflow_count=0)
    triplets = mat.to_json()["triplets"]
    assert triplets == [[r, c, str(Fraction(v))]
                        for (r, c), v in sorted(entries.items())]
    assert [t[2] for t in triplets][:7] == \
        ["1", "7", "-7", "-1", "3", "-2/3", "2/3"]


@pytest.mark.parametrize("k", [1, Fraction(-2, 3)], ids=["k1", "k-2/3"])
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_exported_entries_are_ints_or_fractions(kind, k):
    for mat in build_rep_matrices(kind, default_generators(kind, k), 2):
        assert all(type(v) in (int, Fraction) and v
                   for v in mat.entries.values())
        assert [t[2] for t in mat.to_json()["triplets"]] == \
            [str(Fraction(v)) for _, v in sorted(mat.entries.items())]
