"""The XD left side x_n nabla_n from the normal-ordered symbol.

Under the normal-ordering rule, x_n nabla_n is the gamma = 0 slice of the
nabla_n x_n symbol: its parts d^b with |b| = n, each c_b x_n.  The symbol
is checked against that definition, against the DX symbol at the same
dmax, and, applied to a tagged batch, against the product the sweep used to
form, x_n times nabla_n applied to the batch.
"""

import pytest

from capelli.algebra import AlgebraKind, Poly, monomials_upto
from capelli.determinants import (_apply_normal, _capelli_symbol,
                                  det_partial, det_z)

KINDS = [AlgebraKind.type_i(2, 3), AlgebraKind.type_i(3, 2),
         AlgebraKind.type_i(3, 3), AlgebraKind.type_ii(3),
         AlgebraKind.type_ii(4), AlgebraKind.type_iii(4),
         AlgebraKind.type_iii(6)]
# every valid n (even n for kind III), just below, at and just above it
CASES = [(kind, n, dmax) for kind in KINDS
         for n in range(1, kind.det_bound + 1)
         if kind.family != "III" or n % 2 == 0
         for dmax in (n - 1, n, n + 1)]


def case_id(case):
    kind, n, dmax = case
    return f"{kind.label}-n{n}-d{dmax}"


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_the_xd_symbol_is_the_gamma_0_slice(case):
    kind, n, dmax = case
    layout = kind._layout
    symbol = _capelli_symbol(kind, n, "XD", dmax)
    xn = det_z(kind, n).terms
    want = {b: {a: cb * ca for a, ca in xn.items()}
            for b, cb in det_partial(kind, n).terms.items()}
    if dmax < n:  # nabla_n kills every monomial below its degree
        assert symbol == {}
    else:
        assert symbol == want
        assert (symbol.bottom, symbol.top) == (n, n)
    dx = _capelli_symbol(kind, n, "DX", dmax)
    assert symbol == {b: group for b, group in dx.items()
                      if sum(layout.exponents(b)) == n}


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_the_xd_symbol_applies_as_x_n_times_nabla_n(case):
    kind, n, dmax = case
    layout = kind._layout
    monos = list(monomials_upto(kind, dmax))
    sample = monos[:32] + monos[-32:]
    if dmax >= n:  # monomials nabla_n does not kill
        sample += map(layout.unpack, det_z(kind, n).terms)
    batch = Poly(kind, layout.batch(map(layout.pack, dict.fromkeys(sample))))
    want = det_z(kind, n) * det_partial(kind, n).apply(batch)
    assert want.is_zero() == (dmax < n)
    assert _apply_normal(_capelli_symbol(kind, n, "XD", dmax), batch) == want
