"""The bracket check compares A(B f) with B(A f) + rhs instead of subtracting.

algebra._heisenberg_chunk, behind the Heisenberg sweep and (through
contraction._contraction_chunk) the contraction sweep, forms the left side
A(B f) - B(A f) only for a failing check, and builds each distinct expected
side once per batch.  These tests pin that a passing sweep subtracts
nothing, that equal expectations share one polynomial within a batch, and
that failures, with zero and nonzero expected sides, are reported exactly as
by an oracle that subtracts every time.
"""

from fractions import Fraction
from functools import partial

import pytest

from capelli import algebra, contraction
from capelli.algebra import AlgebraKind, Poly, monomials_upto

I23 = AlgebraKind.type_i(2, 3)
II3 = AlgebraKind.type_ii(3)
III4 = AlgebraKind.type_iii(4)
KINDS = [I23, II3, III4]
DMAX = 2

SWEEPS = {
    "heisenberg": (algebra, lambda kind, k, jobs:
                   algebra.check_heisenberg(kind, DMAX, jobs)),
    "contraction": (contraction, lambda kind, k, jobs:
                    contraction.verify_contraction(kind, DMAX, k, jobs)),
}


def sweep_call(monkeypatch, module, run):
    """The arguments run() hands to module._sweep, as (args, kwargs)."""
    captured = []
    real = module._sweep
    monkeypatch.setattr(module, "_sweep",
                        lambda *args, **kw: captured.append((args, kw)))
    run()
    monkeypatch.setattr(module, "_sweep", real)
    return captured[0]


def check_parts(check):
    """(apply, gens, checks) of a captured bracket check."""
    if check.func is contraction._contraction_chunk:
        return (contraction.apply_generator, *check.args)
    return check.args


def grid_batches(kind):
    grid = list(monomials_upto(kind, DMAX))
    return [grid[i:i + algebra._BATCH]
            for i in range(0, len(grid), algebra._BATCH)]


def scale(g):
    return getattr(g, "scale", 1)


def subtracting_chunk(apply, gens, checks, f):
    """Every check's A(B f) - B(A f) and expected side, rebuilt each time.

    A scalar expectation of the contraction sweep is its k = 1 delta, so it
    is multiplied by t = s_A s_B as the scaled check's sigma is.
    """
    out = []
    for label, i, j, expected in checks:
        a, b = gens[i], gens[j]
        lhs = apply(a, apply(b, f)) - apply(b, apply(a, f))
        if isinstance(expected, list):
            rhs = Poly.zero(f.kind)
            for c, k in expected:
                rhs = rhs + c * apply(gens[k], f)
        else:
            rhs = expected * scale(a) * scale(b) * f
        out.append((label, lhs, rhs))
    return out


def flip_sign_at(pair, real):
    def mul_z(f, a, b):
        out = real(f, a, b)
        return -out if (a, b) == pair else out
    return mul_z


def faulty_kernel(monkeypatch):
    # (2,1) is the non-canonical alias of z[1,2] for kinds II and III
    faulty = flip_sign_at((2, 1), algebra.mul_z)
    monkeypatch.setattr(algebra, "mul_z", faulty)
    monkeypatch.setattr(contraction, "mul_z", faulty)


def scalar_off_by_one(monkeypatch):
    # every scalar expectation one too large: most failing checks then
    # expect a nonzero multiple of f, and kind III's -1 ones expect zero
    real = AlgebraKind.commutator_scalar
    monkeypatch.setattr(AlgebraKind, "commutator_scalar",
                        lambda kind, a, b, c, d: real(kind, a, b, c, d) + 1)


# ---- a passing sweep subtracts nothing ----

@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
@pytest.mark.parametrize("identity", SWEEPS)
def test_a_passing_sweep_never_subtracts(monkeypatch, identity, kind):
    real_sub = Poly.__sub__
    calls = []

    def counting_sub(self, other):
        calls.append(1)
        return real_sub(self, other)

    monkeypatch.setattr(Poly, "__sub__", counting_sub)
    _, run = SWEEPS[identity]
    report = run(kind, 1, 1)
    assert report.passed and report.checked_count > 0
    assert calls == []
    # while a failing check still forms its left side by subtracting
    faulty_kernel(monkeypatch)
    assert not run(kind, 1, 1).passed
    assert calls


# ---- each distinct expected side is built once per batch ----

@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
@pytest.mark.parametrize("identity", SWEEPS)
def test_equal_expectations_share_one_rhs(monkeypatch, identity, kind):
    module, run = SWEEPS[identity]
    (_, _, _, check, *_), _ = sweep_call(monkeypatch, module,
                                         lambda: run(kind, 1, 1))
    _, _, checks = check_parts(check)
    keys = [tuple(e) if isinstance(e, list) else e for *_, e in checks]
    repeated_lists = {key for key in keys
                      if isinstance(key, tuple) and keys.count(key) > 1}
    if identity == "contraction":
        assert repeated_lists  # the memo is exercised on list expectations
    layout = kind._layout
    for monos in grid_batches(kind):
        triples = check(Poly(kind, layout.batch(map(layout.pack, monos))))
        shared = {}
        for key, (_, lhs, rhs) in zip(keys, triples):
            assert lhs is rhs  # the sweep passes
            assert shared.setdefault(key, rhs) is rhs
        assert len({id(rhs) for _, _, rhs in triples}) == len(shared)


# ---- failures are those of a check that subtracts ----

@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
@pytest.mark.parametrize("fault", [faulty_kernel, scalar_off_by_one],
                         ids=["kernel", "scalar"])
@pytest.mark.parametrize("identity, k", [("heisenberg", 1),
                                         ("contraction", 1),
                                         ("contraction", Fraction(1, 3))],
                         ids=["heisenberg", "contraction", "contraction-k1/3"])
def test_failures_match_a_subtracting_oracle(monkeypatch, identity, k, fault,
                                             kind):
    module, run = SWEEPS[identity]
    fault(monkeypatch)
    args, kw = sweep_call(monkeypatch, module, lambda: run(kind, k, 1))
    name, _, params, check, _ = args
    oracle = partial(subtracting_chunk, *check_parts(check))
    label_key = kw["label_key"]
    nonzero_rhs = 0
    for monos in grid_batches(kind):
        got = algebra._sweep_chunk(kind, check, label_key, monos)
        assert got == algebra._sweep_chunk(kind, oracle, label_key, monos)
        nonzero_rhs += sum(record["rhs"] != "0" for record in got[1])
    expected = algebra._sweep(name, kind, params, oracle, 1,
                              label_key=label_key)
    assert not expected.passed
    for jobs in (1, 2):
        assert run(kind, k, jobs).to_json() == expected.to_json()
    if fault is scalar_off_by_one:
        assert nonzero_rhs
