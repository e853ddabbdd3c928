"""RadicalValue products: a zero factor gives the canonical zero (0, 1)
through the constructor alone, and nonzero products stay canonical."""

from fractions import Fraction

import pytest

from capelli.extremal import RadicalValue

NONZERO = [RadicalValue(1), RadicalValue(1, 2), RadicalValue(Fraction(-3, 4), 12),
           RadicalValue(Fraction(5, 7), Fraction(2, 3))]
ZEROS = [RadicalValue.zero(), RadicalValue(0, 7), 0, Fraction(0)]


@pytest.mark.parametrize("zero", ZEROS, ids=repr)
@pytest.mark.parametrize("value", NONZERO + [RadicalValue.zero()], ids=repr)
def test_a_zero_factor_gives_the_canonical_zero_in_either_order(value, zero):
    for product in (value * zero, zero * value):
        assert isinstance(product, RadicalValue)
        assert product == RadicalValue.zero()
        assert product.coeff == 0 and product.radicand == 1
        assert product.is_zero()


def _squarefree(n: int) -> bool:
    return all(n % (d * d) for d in range(2, int(n ** 0.5) + 1))


def _sign_and_square(x) -> tuple:
    if isinstance(x, RadicalValue):
        return (x.coeff > 0) - (x.coeff < 0), x.squared()
    x = Fraction(x)
    return (x > 0) - (x < 0), x * x


@pytest.mark.parametrize("a", NONZERO, ids=repr)
@pytest.mark.parametrize("b", NONZERO + [3, Fraction(-2, 5)], ids=repr)
def test_nonzero_products_stay_canonical(a, b):
    # a canonical form is unique, so sign and square fix the exact value
    (sa, qa), (sb, qb) = _sign_and_square(a), _sign_and_square(b)
    for product in (a * b, b * a):
        assert product.radicand.denominator == 1
        assert _squarefree(product.radicand.numerator)
        assert _sign_and_square(product) == (sa * sb, qa * qb)

