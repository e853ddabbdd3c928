"""The one zero pass of the packed kernels, and the one E-table cache of the
Laplace loop.

algebra._drop_zeros deletes the cancelled coefficients of a kernel's output
dict in place and hands back that same dict.  determinants.capelli_rhs_apply
reads each E table from determinants._e_table's cache, so a sweep builds
each (row, column) table once per process and a repeated sweep builds none.
"""

from fractions import Fraction

import pytest

from capelli.algebra import AlgebraKind, _drop_zeros
from capelli.determinants import _e_table, verify_capelli


THIRD = Fraction(1, 3)


@pytest.mark.parametrize("items, kept", [
    ([(5, 1), (3, 0), (9, -1), (1, 0), (7, 2), (4, 0)],
     [(5, 1), (9, -1), (7, 2)]),
    ([(5, THIRD), (3, Fraction(0)), (9, -THIRD), (1, Fraction(0))],
     [(5, THIRD), (9, -THIRD)]),
    ([(3, 1), (1, Fraction(-2, 5)), (2, -4)],
     [(3, 1), (1, Fraction(-2, 5)), (2, -4)]),
    ([(2, 0), (8, Fraction(0))], []),
    ([], []),
], ids=["int", "Fraction", "no-zero", "all-zero", "empty"])
def test_drop_zeros_deletes_exactly_the_zeros_in_place(items, kept):
    terms = dict(items)
    assert _drop_zeros(terms) is terms
    assert list(terms.items()) == kept


@pytest.mark.parametrize("kind, n, side, dmax, tables", [
    (AlgebraKind.type_i(4, 4), 4, "DX", 3, 16),
    (AlgebraKind.type_iii(6), 6, "XD", 2, 36),
], ids=["I(4,4)-DX-d3", "III(6)-XD-d2"])
def test_the_laplace_loop_builds_each_e_table_once(kind, n, side, dmax,
                                                   tables):
    _e_table.cache_clear()
    assert verify_capelli(kind, n, side, dmax).passed
    assert _e_table.cache_info().misses == tables  # one per (row, column)
    assert verify_capelli(kind, n, side, dmax).passed
    assert _e_table.cache_info().misses == tables  # all read from the cache
