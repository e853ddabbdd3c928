"""The contraction sweep on unscaled, integer images.

Each check s_A s_B [A^, B^] f = sum_C c_C s_C C^ f (or = sigma f) carries
t = s_A s_B on both sides, so verify_contraction runs the k = 1 table,
[A^, B^] f = sum_C c_C C^ f (or = delta f), on the unscaled generators,
with the bracket coefficients as returned; a failing triple is multiplied
back by t.  These tests pin the lemma that rests on, homogeneity of
apply_generator in the scale, and compare the reports with the scaled
sweep it replaced, kept below as the oracle.
"""

import hashlib
import random
from dataclasses import replace
from fractions import Fraction
from functools import partial

import pytest

from capelli import algebra, contraction
from capelli.algebra import AlgebraKind, Poly, monomials_upto
from capelli.cli import main
from capelli.contraction import GeneratorSpec, apply_generator

I23 = AlgebraKind.type_i(2, 3)
II3 = AlgebraKind.type_ii(3)
III4 = AlgebraKind.type_iii(4)
KINDS = [I23, II3, III4]
SCALES = [Fraction(1, 3), Fraction(3), Fraction(-2, 3), Fraction(10 ** 40, 7),
          Fraction(1), Fraction(0)]
KS = [Fraction(1, 3), Fraction(3), Fraction(-2, 3)]
DMAX = 2


# ---- homogeneity: A = s A^ on any polynomial ----

def every_generator(kind):
    """The h sector, E at every column bound, Z and D on every index pair
    (aliases too) and the identity, all unscaled."""
    gens = contraction.h_generators(kind)
    gens += [GeneratorSpec("E", i, j, ncols=s)
             for i in range(1, kind.rows + 1) for j in range(1, kind.rows + 1)
             for s in range(1, kind.cols + 1)]
    gens += [GeneratorSpec(family, a, b) for family in "ZD"
             for a, b in kind.index_pairs()]
    return gens + [GeneratorSpec("identity")]


def random_poly(kind, rng, fractions):
    monos = list(monomials_upto(kind, 3))
    terms = {}
    for mono in rng.sample(monos, 12):
        c = rng.choice([-7, -2, -1, 1, 3, 10 ** 30 + 1])
        terms[mono] = Fraction(c, rng.choice([1, 2, 9])) if fractions else c
    return Poly.make(kind, terms)


def test_every_family_is_covered():
    families = {g.family for kind in KINDS for g in every_generator(kind)}
    assert families == set(contraction._FAMILIES)


@pytest.mark.parametrize("fractions", [False, True], ids=["int", "Fraction"])
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_a_scaled_generator_is_the_scale_times_the_unscaled_one(kind, fractions):
    rng = random.Random(f"{kind.label}-{fractions}")
    polys = [random_poly(kind, rng, fractions) for _ in range(3)]
    for g in every_generator(kind):
        for f in polys:
            image = apply_generator(g, f)
            for s in SCALES:
                scaled = apply_generator(replace(g, scale=s), f)
                assert scaled == s * image, (g, s)
                assert 0 not in scaled.terms.values()
                if not fractions and s.denominator == 1:
                    # an int image times an int scale stays in ints
                    assert all(type(c) is int for c in scaled.terms.values())


# ---- the scaled sweep, as before the division, as the oracle ----

def oracle_checks(kind, k):
    """The generators and checks with scaled expectations, as
    verify_contraction built them before dividing by s_A s_B."""
    name = contraction._bracket_name
    hgens = contraction.h_generators(kind)
    zgens, dgens = contraction.pair_generators(kind, k)
    index = {}

    def at(g):
        return index.setdefault(g, len(index))

    checks = []
    for g1 in hgens:
        for g2 in hgens:
            checks.append((name(g1, g2), at(g1), at(g2),
                           [(c, at(g)) for c, g in
                            contraction.h_bracket(kind, g1, g2)]))
    for h in hgens:
        for p in zgens + dgens:
            checks.append((name(h, p), at(h), at(p),
                           [(c, at(g)) for c, g in
                            contraction.h_pair_bracket(kind, h, p)]))
    for d in dgens:
        for z in zgens:
            checks.append((name(d, z), at(d), at(z),
                           k * k * kind.commutator_scalar(d.a, d.b, z.a, z.b)))
    return list(index), checks


def oracle_chunk(gens, checks, f):
    """Scaled images, and each check's right side built on its own."""
    apply = contraction.apply_generator
    images = [apply(g, f) for g in gens]
    out = []
    for label, i, j, expected in checks:
        lhs = apply(gens[i], images[j]) - apply(gens[j], images[i])
        if isinstance(expected, list):
            rhs = Poly.zero(f.kind)
            for c, n in expected:
                rhs = rhs + c * images[n]
        else:
            rhs = expected * f
        out.append((label, lhs, rhs))
    return out


def oracle_report(kind, k, jobs):
    gens, checks = oracle_checks(kind, k)
    return algebra._sweep("contraction", kind, {"dmax": DMAX, "k": str(k)},
                          partial(oracle_chunk, gens, checks), jobs,
                          label_key="bracket")


def flip_sign_at(pair, real):
    def mul_z(f, a, b):
        out = real(f, a, b)
        return -out if (a, b) == pair else out
    return mul_z


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_reports_equal_the_scaled_sweep(monkeypatch, kind, jobs):
    for k in KS:
        report = contraction.verify_contraction(kind, DMAX, k, jobs)
        assert report.passed
        assert report.to_json() == oracle_report(kind, k, jobs).to_json()
    # (2,1) is a canonical variable of I(2,3) and an alias for II and III
    monkeypatch.setattr(algebra, "mul_z", flip_sign_at((2, 1), algebra.mul_z))
    for k in KS:
        report = contraction.verify_contraction(kind, DMAX, k, jobs)
        assert not report.passed
        assert report.to_json() == oracle_report(kind, k, jobs).to_json()


def sweep_check(monkeypatch, run):
    """The batch check that run() hands to contraction._sweep."""
    captured = []
    monkeypatch.setattr(contraction, "_sweep",
                        lambda identity, kind, params, check, *rest, **kw:
                        captured.append(check))
    run()
    monkeypatch.undo()
    return captured[0]


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_the_k1_checks_run_in_ints(monkeypatch, kind):
    for k in KS:
        check = sweep_check(monkeypatch, lambda: contraction.verify_contraction(
            kind, DMAX, k))
        gens, checks = check.args
        assert [g.scale for g in gens] == \
            [g.scale for g in oracle_checks(kind, k)[0]]
        for _, _, _, expected in checks:
            if isinstance(expected, list):
                assert all(type(c) is int for c, _ in expected)
            else:
                assert type(expected) is int
        layout = kind._layout
        keys = [layout.pack(mono) for mono in monomials_upto(kind, DMAX)]
        f = Poly(kind, layout.batch(keys[:algebra._BATCH]))
        for _, lhs, rhs in check(f):
            assert lhs is rhs
            assert all(type(c) is int for c in rhs.terms.values())


# ---- default stdout, recorded on the scaled sweep ----

def test_a_rational_k_sweep_keeps_its_digest(capsys):
    argv = ["verify", "--type", "II", "--N", "3", "--identity", "contraction",
            "--dmax", "3", "--k", "1/3"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        "9e6c5ba66729f63c33d51af3dcf41af65b326ab6e693d14b72306f572d5092da"
