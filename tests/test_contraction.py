"""Contracted algebra: brackets, sweep, sparse matrix realization."""

from fractions import Fraction

import pytest

import capelli.contraction as contraction
from capelli.algebra import AlgebraKind, Poly, monomials_upto, variable
from capelli.contraction import (GeneratorSpec, apply_generator,
                                 basis_monomials, build_rep_matrices,
                                 default_generators, gram_diagonal,
                                 h_bracket, h_generators, h_pair_bracket,
                                 pair_generators, verify_contraction)

I22 = AlgebraKind.type_i(2, 2)
II2 = AlgebraKind.type_ii(2)
III3 = AlgebraKind.type_iii(3)


# ---- generator descriptors and application ----

def test_generator_names():
    assert GeneratorSpec("Z", 1, 2).name == "Z[1,2]"
    assert GeneratorSpec("identity").name == "identity"
    with pytest.raises(ValueError):
        GeneratorSpec("Q", 1, 1)


def test_apply_generator_examples():
    f = variable(I22, 2, 1)
    assert apply_generator(GeneratorSpec("L", 1, 2), f) == variable(I22, 1, 1)
    assert apply_generator(GeneratorSpec("R", 1, 2), variable(I22, 1, 1)) == \
        -variable(I22, 1, 2)
    assert apply_generator(GeneratorSpec("R", 2, 1), variable(I22, 1, 1)).is_zero()
    assert apply_generator(GeneratorSpec("E", 1, 2, ncols=2),
                           variable(II2, 2, 2)) == 2 * variable(II2, 1, 2)
    assert apply_generator(GeneratorSpec("identity"), f) == f


def test_apply_generator_scales():
    one = Poly.constant(II2, 1)
    z = apply_generator(GeneratorSpec("Z", 1, 1, scale=Fraction(1, 3)), one)
    assert z == Fraction(1, 3) * variable(II2, 1, 1)
    d = apply_generator(GeneratorSpec("D", 1, 1, scale=2), variable(II2, 1, 1))
    assert d == Poly.constant(II2, 4)  # 2 * (diagonal derivative doubling)


def test_generator_counts():
    assert len(h_generators(I22)) == 8
    assert len(h_generators(II2)) == 4
    assert len(h_generators(III3)) == 9
    zs, ds = pair_generators(III3, 2)
    assert len(zs) == len(ds) == 3
    assert all(g.scale == 2 for g in zs + ds)
    assert len(default_generators(I22)) == 8 + 4 + 4 + 1


# ---- structure constants ----

def test_h_bracket_gl_pattern():
    l12 = GeneratorSpec("L", 1, 2)
    l21 = GeneratorSpec("L", 2, 1)
    assert h_bracket(I22, l12, l21) == \
        [(1, GeneratorSpec("L", 1, 1)), (-1, GeneratorSpec("L", 2, 2))]
    assert h_bracket(I22, l12, GeneratorSpec("R", 1, 2)) == []
    e11 = GeneratorSpec("E", 1, 1, ncols=2)
    e12 = GeneratorSpec("E", 1, 2, ncols=2)
    assert h_bracket(II2, e11, e12) == [(1, e12)]


def test_h_pair_bracket_general():
    assert h_pair_bracket(I22, GeneratorSpec("L", 1, 2), GeneratorSpec("Z", 2, 1)) \
        == [(1, GeneratorSpec("Z", 1, 1))]
    assert h_pair_bracket(I22, GeneratorSpec("L", 1, 2), GeneratorSpec("D", 1, 1)) \
        == [(-1, GeneratorSpec("D", 2, 1))]
    assert h_pair_bracket(I22, GeneratorSpec("R", 1, 2), GeneratorSpec("Z", 1, 1)) \
        == [(-1, GeneratorSpec("Z", 1, 2))]


def test_h_pair_bracket_symmetric_doubles():
    e11 = GeneratorSpec("E", 1, 1, ncols=2)
    z11 = GeneratorSpec("Z", 1, 1)
    assert h_pair_bracket(II2, e11, z11) == [(1, z11), (1, z11)]


def test_h_pair_bracket_antisymmetric_drops_diagonal():
    e12 = GeneratorSpec("E", 1, 2, ncols=3)
    assert h_pair_bracket(III3, e12, GeneratorSpec("Z", 1, 2)) == []
    assert h_pair_bracket(III3, GeneratorSpec("E", 3, 1, ncols=3),
                          GeneratorSpec("Z", 1, 2)) == \
        [(1, GeneratorSpec("Z", 3, 2))]


# ---- the sweep ----

@pytest.mark.parametrize("kind", [I22, II2, III3])
def test_contraction_sweep_passes(kind):
    report = verify_contraction(kind, dmax=2)
    assert report.passed
    nh = len(h_generators(kind))
    nv = len(kind.variables())
    per_monomial = nh * nh + 2 * nh * nv + nv * nv
    assert report.checked_count == \
        per_monomial * len(list(monomials_upto(kind, 2)))
    doc = report.to_json()
    assert doc["identity"] == "contraction" and doc["k"] == "1"


def test_contraction_sweep_rational_constant():
    report = verify_contraction(II2, 2, k=Fraction(1, 3))
    assert report.passed
    assert report.to_json()["k"] == "1/3"


def test_contraction_parallel_matches_serial():
    serial = verify_contraction(II2, 2, jobs=1)
    parallel = verify_contraction(II2, 2, jobs=2)
    assert serial.to_json() == parallel.to_json()


def test_mutated_adjoint_action_detected(monkeypatch):
    orig = contraction.h_pair_bracket

    def mutated(kind, h, p):
        out = orig(kind, h, p)
        return [(-c, g) for c, g in out] if out else out

    monkeypatch.setattr(contraction, "h_pair_bracket", mutated)
    report = contraction.verify_contraction(II2, 1)
    assert not report.passed
    assert any("E[" in f["bracket"] for f in report.failures)
    pooled = contraction.verify_contraction(II2, 1, jobs=2)
    assert pooled.to_json() == report.to_json()


def test_mutated_h_closure_detected(monkeypatch):
    monkeypatch.setattr(contraction, "h_bracket", lambda kind, g1, g2: [])
    assert not contraction.verify_contraction(I22, 1).passed


# ---- matrix realization ----

def test_basis_is_graded():
    basis = basis_monomials(II2, 2)
    assert basis[0] == ()
    degs = [sum(e for _, e in m) for m in basis]
    assert degs == sorted(degs) and len(basis) == 10


def test_identity_matrix():
    mats = build_rep_matrices(II2, [GeneratorSpec("identity")], 1)
    assert mats[0].entries == {(i, i): 1 for i in range(4)}
    assert mats[0].overflow_count == 0
    assert mats[0].dim == 4


def test_multiplication_matrix_and_overflow():
    mats = build_rep_matrices(II2, [GeneratorSpec("Z", 1, 1, scale=Fraction(1, 2))], 1)
    z = mats[0]
    basis = basis_monomials(II2, 1)
    row = basis.index((((1, 1), 1),))
    assert z.entries == {(row, 0): Fraction(1, 2)}
    # each degree-1 basis column maps to one dropped degree-2 term
    assert z.overflow_count == 3


def test_derivative_and_h_matrices_have_no_overflow():
    gens = h_generators(II2) + pair_generators(II2)[1]
    for mat in build_rep_matrices(II2, gens, 2):
        assert mat.overflow_count == 0


@pytest.mark.parametrize("kind", [I22, II2, III3])
def test_gram_adjointness(kind):
    d = 3
    basis = basis_monomials(kind, d)
    gram = gram_diagonal(kind, basis)
    assert all(g > 0 for g in gram)
    k = Fraction(2, 3)
    zs, ds = pair_generators(kind, k)
    for zg, dg in zip(zs, ds):
        zmat, dmat = build_rep_matrices(kind, [zg, dg], d)
        keys = set(zmat.entries) | {(c, r) for (r, c) in dmat.entries}
        for (r, c) in keys:
            lhs = zmat.entries.get((r, c), Fraction(0)) * gram[r]
            rhs = dmat.entries.get((c, r), Fraction(0)) * gram[c]
            assert lhs == rhs, (kind.label, zg.name, r, c)


def _dense(mat):
    rows = [[Fraction(0)] * mat.dim for _ in range(mat.dim)]
    for (r, c), v in mat.entries.items():
        rows[r][c] = Fraction(v)
    return rows


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)]


def test_h_sector_matrices_close():
    # E preserves degree, so truncation is exact and the matrix commutators
    # must reproduce the structure constants on the nose
    d = 2
    gens = h_generators(II2)
    mats = {g: _dense(m) for g, m in
            zip(gens, build_rep_matrices(II2, gens, d))}
    dim = len(basis_monomials(II2, d))
    for g1 in gens:
        for g2 in gens:
            comm = _matmul(mats[g1], mats[g2])
            back = _matmul(mats[g2], mats[g1])
            expect = [[Fraction(0)] * dim for _ in range(dim)]
            for c, g in h_bracket(II2, g1, g2):
                mg = mats[g]
                for i in range(dim):
                    for j in range(dim):
                        expect[i][j] += c * mg[i][j]
            for i in range(dim):
                for j in range(dim):
                    assert comm[i][j] - back[i][j] == expect[i][j]


def test_matrix_json_schema():
    mat = build_rep_matrices(II2, [GeneratorSpec("Z", 1, 2, scale=Fraction(1, 3))], 1)[0]
    doc = mat.to_json()
    assert set(doc) == {"name", "basis_degree", "triplets", "overflow_count"}
    assert doc["name"] == "Z[1,2]"
    assert doc["triplets"] == sorted(doc["triplets"])
    assert all(isinstance(t[2], str) for t in doc["triplets"])
    assert doc["triplets"][0][2] == "1/3"
