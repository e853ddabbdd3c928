"""capelli_rhs_apply and verify_capelli check the minor size, the variant
and the number of diagonal shifts before any work, explicit shifts
included: a sweep refuses a wrong count before it cuts its grid into
batches for the pool."""

import pytest

from capelli import algebra
from capelli.algebra import AlgebraKind, Poly
from capelli.determinants import capelli_rhs_apply, verify_capelli

I33 = AlgebraKind.type_i(3, 3)


def test_a_bogus_variant_with_explicit_shifts_is_refused():
    f = Poly.constant(I33, 1)
    with pytest.raises(ValueError, match="variant must be one of"):
        capelli_rhs_apply(f, 2, "bogus", shifts=[1, 0])
    with pytest.raises(ValueError, match="variant must be one of"):
        verify_capelli(I33, 2, "bogus", 2, shifts=(1, 0))


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_wrong_shift_count_is_refused_before_the_sweep(monkeypatch, jobs):
    calls = []

    def run_chunked(worker, items, jobs):
        calls.append(len(items))
        raise AssertionError("the sweep started")

    monkeypatch.setattr(algebra, "run_chunked", run_chunked)
    with pytest.raises(ValueError, match="need 2 diagonal shifts, got 1"):
        verify_capelli(I33, 2, "XD", 3, jobs=jobs, shifts=(1,))
    assert calls == []


def test_a_wrong_shift_count_is_refused_by_the_right_side():
    with pytest.raises(ValueError, match="need 2 diagonal shifts, got 3"):
        capelli_rhs_apply(Poly.constant(I33, 1), 2, "DX", shifts=[1, 0, 0])
