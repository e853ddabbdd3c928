"""A bracket check and its reversed partner share their second-order images.

algebra._heisenberg_chunk builds ab = gens[i](images[j]) and
ba = gens[j](images[i]) once for check (i, j), and reads them swapped for
the check (j, i), if the table names it; for i == j, ba is ab.  These
tests run it directly with a counting apply on the contraction tables of
I(2,3), II(3) and III(4), and pin that:
- each batch makes len(gens) first-order applications, and exactly one
  second-order application per distinct ordered pair the checks need
- its triples equal those of the unshared loop kept below, which rebuilds
  both images for every check, on the true table and on one where a single
  h x h check's expectation is wrong but its partner's is not.
"""

from collections import Counter

import pytest

from capelli import algebra, contraction
from capelli.algebra import AlgebraKind, Poly, monomials_upto

I23 = AlgebraKind.type_i(2, 3)
II3 = AlgebraKind.type_ii(3)
III4 = AlgebraKind.type_iii(4)
KINDS = [I23, II3, III4]
DMAX = 2


def unshared_chunk(apply, gens, checks, f):
    """The check loop with both second-order images rebuilt for every check."""
    images = [apply(g, f) for g in gens]
    expectations = {}
    out = []
    for label, i, j, expected in checks:
        listed = isinstance(expected, list)
        key = tuple(expected) if listed else expected
        if key not in expectations:
            expectations[key] = (sum((c * images[k] for c, k in expected),
                                     Poly.zero(f.kind))
                                 if listed else expected * f)
        rhs = expectations[key]
        ab, ba = apply(gens[i], images[j]), apply(gens[j], images[i])
        lhs = rhs if ab == (ba + rhs if rhs.terms else ba) else ab - ba
        out.append((label, lhs, rhs))
    return out


def sweep_table(monkeypatch, module, run):
    """The (gens, checks) of the batch check that run() hands to _sweep."""
    captured = []
    real = module._sweep
    monkeypatch.setattr(module, "_sweep",
                        lambda identity, kind, params, check, *rest, **kw:
                        captured.append(check))
    run()
    monkeypatch.setattr(module, "_sweep", real)
    return captured[0].args[-2:]


def contraction_table(monkeypatch, kind):
    return sweep_table(monkeypatch, contraction,
                       lambda: contraction.verify_contraction(kind, DMAX))


def batches(kind):
    layout = kind._layout
    keys = [layout.pack(mono) for mono in monomials_upto(kind, DMAX)]
    for start in range(0, len(keys), algebra._BATCH):
        yield Poly(kind, layout.batch(keys[start:start + algebra._BATCH]))


def needed_pairs(checks):
    """The ordered pairs (a, b) whose gens[a](images[b]) the checks need."""
    return {(i, j) for _, i, j, _ in checks} | {(j, i) for _, i, j, _ in checks}


def mutated_hh(kind, checks):
    """checks with one h x h expectation negated, its partner left true."""
    nh = len(contraction.h_generators(kind))
    where = {(i, j): n for n, (_, i, j, _) in enumerate(checks)}
    for n, (label, i, j, expected) in enumerate(checks):
        if i < nh and j < nh and i != j and expected and (j, i) in where:
            table = list(checks)
            table[n] = (label, i, j, [(-c, k) for c, k in expected])
            return table, n, where[j, i]
    raise AssertionError(f"{kind.label} has no h x h check to mutate")


def counted_chunk(gens, checks, f):
    """_heisenberg_chunk's triples and the (a, b) of each application."""
    position = {id(g): a for a, g in enumerate(gens)}
    images = {}  # id of a first-order image -> its generator's position
    first, second, keep = [], [], []

    def apply(g, p):
        out = contraction.apply_generator(g, p)
        if p is f:
            first.append(position[id(g)])
            images[id(out)] = position[id(g)]
            keep.append(out)  # hold each image so its id stays its own
        else:
            second.append((position[id(g)], images[id(p)]))
        return out

    triples = algebra._heisenberg_chunk(apply, gens, checks, f)
    return triples, first, second


def assert_same_triples(shared, reference):
    assert len(shared) == len(reference)
    for (label, lhs, rhs), (rlabel, rlhs, rrhs) in zip(shared, reference):
        assert label == rlabel
        assert lhs == rlhs and rhs == rrhs
        assert (lhs is rhs) == (rlhs is rrhs)  # a pass is (label, rhs, rhs)


@pytest.mark.parametrize("mutate", [False, True], ids=["true", "mutated"])
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_each_needed_pair_is_applied_once(monkeypatch, kind, mutate):
    gens, checks = contraction_table(monkeypatch, kind)
    if mutate:
        checks = mutated_hh(kind, checks)[0]
    needed = needed_pairs(checks)
    assert len(needed) < 2 * len(checks)  # the table has reversed pairs
    for f in batches(kind):
        _, first, second = counted_chunk(gens, checks, f)
        assert first == list(range(len(gens)))
        assert Counter(second) == Counter(needed)  # each needed pair once


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_shared_triples_equal_the_unshared_loop(monkeypatch, kind):
    gens, checks = contraction_table(monkeypatch, kind)
    apply = contraction.apply_generator
    for f in batches(kind):
        triples = counted_chunk(gens, checks, f)[0]
        assert all(lhs is rhs for _, lhs, rhs in triples)
        assert_same_triples(triples, unshared_chunk(apply, gens, checks, f))


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_one_mutated_partner_fails_and_the_other_passes(monkeypatch, kind):
    gens, checks = contraction_table(monkeypatch, kind)
    table, wrong, partner = mutated_hh(kind, checks)
    apply = contraction.apply_generator
    failed = 0
    for f in batches(kind):
        triples = counted_chunk(gens, table, f)[0]
        reference = unshared_chunk(apply, gens, table, f)
        assert_same_triples(triples, reference)
        for n, (_, lhs, rhs) in enumerate(triples):
            if n != wrong:
                assert lhs is rhs, table[n][0]
        assert triples[partner][1] is triples[partner][2]
        _, lhs, rhs = triples[wrong]
        if lhs is not rhs:
            failed += 1
            _, i, j, _ = table[wrong]
            ab = apply(gens[i], apply(gens[j], f))
            ba = apply(gens[j], apply(gens[i], f))
            assert lhs == reference[wrong][1] == ab - ba  # sign included
    assert failed


@pytest.mark.parametrize("kind,checks,needed", [
    (AlgebraKind.type_i(3, 3), 729, 1134),
    (AlgebraKind.type_ii(3), 225, 369),
    (AlgebraKind.type_iii(4), 484, 712),
], ids=["I(3,3)", "II(3)", "III(4)"])
def test_the_benchmark_tables_need_fewer_second_order_images(
        monkeypatch, kind, checks, needed):
    # second-order applications per batch: 2 * len(checks) unshared, the
    # distinct ordered pairs shared
    table = contraction_table(monkeypatch, kind)[1]
    assert len(table) == checks
    assert len(needed_pairs(table)) == needed


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_the_heisenberg_table_has_no_reversed_pairs(monkeypatch, kind):
    gens, checks = sweep_table(monkeypatch, algebra,
                               lambda: algebra.check_heisenberg(kind, DMAX))
    assert len(needed_pairs(checks)) == 2 * len(checks)
