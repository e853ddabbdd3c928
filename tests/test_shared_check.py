"""The one commutator check behind both bracket sweeps.

algebra._heisenberg_chunk applies every generator to a sweep batch once and
forms each [A, B] f from those images; check_heisenberg runs it with
_apply_zd, and contraction._contraction_chunk with apply_generator.  These
tests pin what the sharing must keep: a left side equal to its right side
is returned as the right side itself (so a passing batch keeps no left
sides alive), a failing left side is never swapped away, and the
Heisenberg sweep still applies each z/d generator to a batch only once.
"""

import pytest

from capelli import algebra, contraction
from capelli.algebra import AlgebraKind, Poly, monomials_upto

I23 = AlgebraKind.type_i(2, 3)
II3 = AlgebraKind.type_ii(3)
III3 = AlgebraKind.type_iii(3)
KINDS = [I23, II3, III3]
DMAX = 2

SWEEPS = [(algebra, lambda kind: algebra.check_heisenberg(kind, DMAX)),
          (contraction, lambda kind: contraction.verify_contraction(kind, DMAX))]


def sweep_check(monkeypatch, module, run):
    """The batch check that run() hands to module._sweep."""
    captured = []
    monkeypatch.setattr(module, "_sweep",
                        lambda identity, kind, params, check, *rest, **kw:
                        captured.append(check))
    run()
    monkeypatch.undo()
    return captured[0]


def batches(kind):
    layout = kind._layout
    keys = [layout.pack(mono) for mono in monomials_upto(kind, DMAX)]
    for start in range(0, len(keys), algebra._BATCH):
        yield Poly(kind, layout.batch(keys[start:start + algebra._BATCH]))


def unshared_lhs(check, f):
    """Each check's [A, B] f with every image rebuilt, nothing swapped."""
    if check.func is contraction._contraction_chunk:
        apply, (gens, checks) = contraction.apply_generator, check.args
    else:
        apply, gens, checks = check.args
    return [apply(gens[i], apply(gens[j], f)) - apply(gens[j], apply(gens[i], f))
            for _, i, j, _ in checks]


def flip_sign_at(pair, real):
    def mul_z(f, a, b):
        out = real(f, a, b)
        return -out if (a, b) == pair else out
    return mul_z


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_an_equal_lhs_is_returned_as_the_rhs(monkeypatch, kind):
    for module, run in SWEEPS:
        check = sweep_check(monkeypatch, module, lambda: run(kind))
        for f in batches(kind):
            assert all(lhs is rhs for _, lhs, rhs in check(f))
        # with a faulty kernel, only the triples that really hold are swapped
        monkeypatch.setattr(algebra, "mul_z",
                            flip_sign_at((2, 1), algebra.mul_z))
        failed = 0
        for f in batches(kind):
            for (_, lhs, rhs), own in zip(check(f), unshared_lhs(check, f)):
                if own == rhs:
                    assert lhs is rhs
                else:
                    assert lhs is not rhs and lhs == own
                    failed += 1
        monkeypatch.undo()
        assert failed, module.__name__


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_each_zd_generator_acts_on_the_batch_once(monkeypatch, kind):
    # Per call of the Heisenberg check, _apply_zd acts on the batch itself
    # once for each of the 2 * len(index_pairs) distinct z and d generators.
    real_chunk = algebra._heisenberg_chunk
    real_apply = algebra._apply_zd
    sweep_f = []
    calls = []

    def counting_apply(op, f):
        if f is sweep_f[-1]:
            calls[-1].append(op)
        return real_apply(op, f)

    def chunk(apply, gens, checks, f):
        sweep_f.append(f)
        calls.append([])
        out = real_chunk(apply, gens, checks, f)
        assert calls[-1] == gens
        return out

    monkeypatch.setattr(algebra, "_heisenberg_chunk", chunk)
    monkeypatch.setattr(algebra, "_apply_zd", counting_apply)
    assert algebra.check_heisenberg(kind, DMAX).passed
    pairs = kind.index_pairs()
    for applied in calls:
        assert len(applied) == len(set(applied)) == 2 * len(pairs)
    swept = []
    for f in sweep_f:
        for terms in kind._layout.split(f.terms).values():
            swept.append(kind._layout.unpack(*terms))
    assert swept == list(monomials_upto(kind, DMAX))
    assert len(calls) == -(-len(swept) // algebra._BATCH)  # one per batch
