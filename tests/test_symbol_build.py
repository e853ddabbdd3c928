"""The DX symbol's build keeps only the symbol it returns.

_capelli_symbol memoises each d^gamma x_n for the length of one call, in a
plain dict it owns, and drops the groups' zero coefficients in place.  So
once the symbol is built, nothing of the build waits for the cyclic
collector, and the build's peak stays within twice what the symbol holds.
"""

import gc
import tracemalloc

from capelli.algebra import AlgebraKind
from capelli.determinants import _capelli_symbol, det_partial, det_z


def traced_build(kind, n, dmax):
    """(built, peak, held): the traced size once the DX symbol
    _capelli_symbol(kind, n, "DX", dmax) is built afresh with gc off, the
    peak on the way, and the size once the build's cyclic garbage is
    collected."""
    det_z(kind, n), det_partial(kind, n)  # cached operators, not the build
    _capelli_symbol.cache_clear()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        _capelli_symbol(kind, n, "DX", dmax)
        built, peak = tracemalloc.get_traced_memory()
        # with gc off, everything the build made is in the youngest
        # generation; a full collection would also empty the interpreter's
        # free lists of tuples, which are not garbage
        gc.collect(0)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    return built, peak, held


def test_the_build_leaves_no_cyclic_garbage():
    # a self-calling lru_cache'd closure left 3.9 MiB here for gc
    built, _, held = traced_build(AlgebraKind.type_ii(6), 6, 3)
    assert built - held < 64 * 1024


def test_the_build_peaks_below_twice_what_it_holds():
    # copying the groups to drop their zeros peaked at 4.3 MiB for 1.9 MiB
    _, peak, held = traced_build(AlgebraKind.type_i(5, 5), 5, 5)
    assert peak < 2 * held


def test_the_dx_build_drops_the_coefficients_that_cancel():
    # III(6) DX accumulates 55,216 coefficients at dmax 6, and 1,080 of them
    # cancel to 0; the in-place pass drops those and leaves no group empty
    symbol = _capelli_symbol(AlgebraKind.type_iii(6), 6, "DX", 6)
    coefficients = [c for group in symbol.values() for c in group.values()]
    assert len(coefficients) == 54_136 and all(coefficients)
    assert all(symbol.values())
