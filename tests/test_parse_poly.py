"""parse_poly reads a large state in one pass and keeps its edges."""

import pytest

from capelli.algebra import AlgebraKind, format_poly, parse_poly, variable
from capelli.extremal import ExtremalLabel, extremal_poly

I44 = AlgebraKind.type_i(4, 4)


def test_roundtrip_of_a_large_extremal_state():
    psi = extremal_poly(ExtremalLabel(I44, (5, 4, 3, 2)))
    assert len(psi.terms) == 1630
    assert parse_poly(I44, format_poly(psi)) == psi


def test_a_trailing_newline_is_accepted():
    assert parse_poly(I44, "2 * z[1,1]^1 - z[2,3]\n") == \
        2 * variable(I44, 1, 1) - variable(I44, 2, 3)


def test_a_text_ending_in_a_sign_is_refused():
    with pytest.raises(ValueError, match="unparsable"):
        parse_poly(I44, "z[1,1] + ")


def test_terms_of_one_monomial_are_summed_and_cancelled():
    assert parse_poly(I44, "z[1,2] * z[1,1] + 2 * z[1,1] * z[1,2]") == \
        3 * variable(I44, 1, 1) * variable(I44, 1, 2)
    assert parse_poly(I44, "z[1,1] - z[1,1]").is_zero()
