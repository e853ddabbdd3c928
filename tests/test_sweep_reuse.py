"""Differential tests: the Heisenberg and contraction sweeps, which apply each
generator to a monomial once and reuse the image, against the per-check code
they replaced.

The oracles below rebuild every image for every check, as the sweep chunks
did before.  They call the kernels through their modules, so a kernel
patched there reaches the oracles and the sweeps alike.
"""

from functools import partial

import pytest

from capelli import algebra, contraction
from capelli.algebra import AlgebraKind, Poly, monomials_upto

II2 = AlgebraKind.type_ii(2)
I23 = AlgebraKind.type_i(2, 3)
III3 = AlgebraKind.type_iii(3)
KINDS = [II2, I23, III3]
DMAX = 2


# ---- the per-check oracles ----

def oracle_heisenberg_table(kind):
    pairs = kind.index_pairs()
    return [(a, b, [(c, d, f"[d[{a},{b}],z[{c},{d}]]",
                     kind.commutator_scalar(a, b, c, d)) for c, d in pairs])
            for a, b in pairs]


def oracle_heisenberg_chunk(table, f):
    multiples = {}
    out = []
    for a, b, row in table:
        df = algebra.apply_partial(f, a, b)
        for c, d, label, scalar in row:
            lhs = algebra.apply_partial(algebra.mul_z(f, c, d), a, b) \
                - algebra.mul_z(df, c, d)
            if scalar not in multiples:
                multiples[scalar] = scalar * f
            out.append((label, lhs, multiples[scalar]))
    return out


def oracle_contraction_checks(kind, k=1):
    name = contraction._bracket_name
    hgens = contraction.h_generators(kind)
    zgens, dgens = contraction.pair_generators(kind, k)
    checks = []
    for g1 in hgens:
        for g2 in hgens:
            checks.append((name(g1, g2), g1, g2,
                           contraction.h_bracket(kind, g1, g2)))
    for h in hgens:
        for p in zgens + dgens:
            checks.append((name(h, p), h, p,
                           contraction.h_pair_bracket(kind, h, p)))
    for d in dgens:
        for z in zgens:
            checks.append((name(d, z), d, z,
                           k * k * kind.commutator_scalar(d.a, d.b, z.a, z.b)))
    return checks


def oracle_contraction_chunk(checks, f):
    apply = contraction.apply_generator
    out = []
    for label, g1, g2, expected in checks:
        lhs = apply(g1, apply(g2, f)) - apply(g2, apply(g1, f))
        if isinstance(expected, list):
            rhs = Poly.zero(f.kind)
            for c, g in expected:
                rhs = rhs + c * apply(g, f)
        else:
            rhs = expected * f
        out.append((label, lhs, rhs))
    return out


def oracle_heisenberg(kind, jobs):
    return algebra._sweep("heisenberg", kind, {"dmax": DMAX},
                          partial(oracle_heisenberg_chunk,
                                  oracle_heisenberg_table(kind)),
                          jobs, label_key="commutator")


def oracle_contraction(kind, jobs):
    return algebra._sweep("contraction", kind, {"dmax": DMAX, "k": "1"},
                          partial(oracle_contraction_chunk,
                                  oracle_contraction_checks(kind)),
                          jobs, label_key="bracket")


def sweep_check(monkeypatch, module, run):
    """The per-monomial check that run() hands to module._sweep."""
    captured = []
    monkeypatch.setattr(module, "_sweep",
                        lambda identity, kind, params, check, *rest, **kw:
                        captured.append(check))
    run()
    monkeypatch.undo()
    return captured[0]


# ---- the reused images give the same triples ----

@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_heisenberg_triples_match_the_per_check_oracle(monkeypatch, kind):
    check = sweep_check(monkeypatch, algebra,
                        lambda: algebra.check_heisenberg(kind, DMAX))
    table = oracle_heisenberg_table(kind)
    for mono in monomials_upto(kind, DMAX):
        f = Poly.from_monomial(kind, mono)
        assert check(f) == oracle_heisenberg_chunk(table, f)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_contraction_triples_match_the_per_check_oracle(monkeypatch, kind):
    check = sweep_check(monkeypatch, contraction,
                        lambda: contraction.verify_contraction(kind, DMAX))
    checks = oracle_contraction_checks(kind)
    for mono in monomials_upto(kind, DMAX):
        f = Poly.from_monomial(kind, mono)
        assert check(f) == oracle_contraction_chunk(checks, f)


# ---- and still catch a kernel fault ----

def flip_sign_at(pair, real):
    def mul_z(f, a, b):
        out = real(f, a, b)
        return -out if (a, b) == pair else out
    return mul_z


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_a_kernel_fault_fails_both_sweeps_alike(monkeypatch, kind):
    # (2,1) is the non-canonical alias of z[1,2] for kinds II and III
    faulty = flip_sign_at((2, 1), algebra.mul_z)
    monkeypatch.setattr(algebra, "mul_z", faulty)
    monkeypatch.setattr(contraction, "mul_z", faulty)
    for sweep, oracle in ((lambda j: algebra.check_heisenberg(kind, DMAX, j),
                           oracle_heisenberg),
                          (lambda j: contraction.verify_contraction(kind, DMAX,
                                                                    jobs=j),
                           oracle_contraction)):
        serial = sweep(1)
        assert not serial.passed
        assert serial.to_json() == oracle(kind, 1).to_json()
        assert sweep(2).to_json() == serial.to_json()
        assert oracle(kind, 2).to_json() == serial.to_json()


# ---- each generator acts on the sweep monomial once ----

# distinct generators: the h sector, Z and D on the canonical pairs, and for
# kinds II/III the Z and D on the aliased pairs that the adjoint action names
@pytest.mark.parametrize("kind, distinct", [(AlgebraKind.type_i(3, 3), 36),
                                            (AlgebraKind.type_ii(3), 27),
                                            (III3, 21)],
                         ids=lambda k: getattr(k, "label", k))
def test_each_generator_acts_on_the_monomial_once(monkeypatch, kind, distinct):
    real_chunk = contraction._contraction_chunk
    real_apply = contraction.apply_generator
    sweep_f = []
    calls = []

    def counting_apply(g, f):
        if f is sweep_f[-1]:
            calls[-1].append(g)
        return real_apply(g, f)

    def chunk(gens, checks, f):
        sweep_f.append(f)
        calls.append([])
        out = real_chunk(gens, checks, f)
        assert calls[-1] == gens
        return out

    monkeypatch.setattr(contraction, "_contraction_chunk", chunk)
    monkeypatch.setattr(contraction, "apply_generator", counting_apply)
    report = contraction.verify_contraction(kind, 1)
    assert report.passed
    assert len(calls) == len(list(monomials_upto(kind, 1)))
    for applied in calls:
        assert len(applied) == len(set(applied)) == distinct
