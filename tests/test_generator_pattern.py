"""Differential tests: the one E pattern of the bilinear generators against
the per-family code it replaced.

Every stability generator is read as E_ij = sum_s z[i,s] d[j,s]; kind I's
R_ab is minus E_ba of the transposed matrix.  The oracles below are the
per-family structure constants, the R kernel with its variable map built
on each call, and the extremal test that branched on the family.  Each is
compared with the package over every generator and pair-sector index of a
grid of kinds, on seeded random polynomials and on low-degree monomials.
"""

import random
from fractions import Fraction

import pytest

from capelli.algebra import AlgebraKind, Poly, monomials_upto, weight
from capelli.contraction import GeneratorSpec, apply_generator, h_bracket, \
    h_generators, h_pair_bracket
from capelli.determinants import (_apply_bilinear, _ETable, apply_E, apply_L,
                                  apply_R)
from capelli.extremal import ExtremalLabel, extremal_poly, is_extremal

KINDS = ([AlgebraKind.type_i(p, q) for p in range(1, 5) for q in range(1, 5)]
         + [AlgebraKind.type_ii(n) for n in range(1, 5)]
         + [AlgebraKind.type_iii(n) for n in range(1, 6)])


# ---- the per-family oracles ----

def oracle_h_bracket(kind, g1, g2):
    if g1.family != g2.family:
        return []
    out = []
    if g1.b == g2.a:
        out.append((1, GeneratorSpec(g1.family, g1.a, g2.b, ncols=g1.ncols)))
    if g2.b == g1.a:
        out.append((-1, GeneratorSpec(g1.family, g2.a, g1.b, ncols=g1.ncols)))
    return out


def oracle_h_pair_bracket(kind, h, p):
    fam = p.family
    out = []
    if kind.family == "I":
        if h.family == "L":
            if fam == "Z" and h.b == p.a:
                out.append((1, (h.a, p.b)))
            if fam == "D" and h.a == p.a:
                out.append((-1, (h.b, p.b)))
        else:
            if fam == "Z" and h.a == p.b:
                out.append((-1, (p.a, h.b)))
            if fam == "D" and h.b == p.b:
                out.append((1, (p.a, h.a)))
    else:
        cross = -1 if kind.family == "III" else 1
        if fam == "Z":
            if h.b == p.a:
                out.append((1, (h.a, p.b)))
            if h.b == p.b:
                out.append((cross, (h.a, p.a)))
        else:
            if h.a == p.a:
                out.append((-1, (h.b, p.b)))
            if h.a == p.b:
                out.append((-cross, (h.b, p.a)))
    return [(c, GeneratorSpec(fam, a, b, scale=p.scale)) for c, (a, b) in out
            if not (kind.family == "III" and a == b)]


def oracle_apply_R(f, alpha, beta):
    """R_ab with its variable map built inline on every call."""
    kind = f.kind
    if kind.family != "I":
        raise ValueError("R generators belong to kind I")
    if not (1 <= alpha <= kind.cols and 1 <= beta <= kind.cols):
        raise ValueError(f"generator columns ({alpha},{beta}) out of range")
    layout = kind._layout
    return _apply_bilinear(f, _ETable([(layout.shift[(i, alpha)],
                                        layout.unit[(i, alpha)],
                                        layout.unit[(i, beta)], 1)
                                       for i in range(1, kind.rows + 1)]), -1)


def oracle_is_extremal(f):
    if f.is_zero():
        raise ValueError("the zero polynomial is not a state")
    if weight(f) is None:
        raise ValueError("is_extremal needs a definite-weight state")
    kind = f.kind
    upper = [(i, j) for i in range(1, kind.rows + 1)
             for j in range(i + 1, kind.rows + 1)]
    if kind.family != "I":
        return all(apply_E(f, i, j, kind.rows).is_zero() for i, j in upper)
    return (all(apply_L(f, i, j).is_zero() for i, j in upper)
            and all(oracle_apply_R(f, a, b).is_zero()
                    for a in range(1, kind.cols + 1) for b in range(1, a)))


# ---- structure constants ----

def pair_specs(kind):
    """Z and D on every valid index pair, canonical and aliased, with a
    scale that is not 1 so that it must be carried through."""
    return [GeneratorSpec(fam, a, b, scale=Fraction(2, 3))
            for fam in "ZD" for a, b in kind.index_pairs()]


def test_pair_brackets_match_the_per_family_table():
    cases = 0
    for kind in KINDS:
        for h in h_generators(kind):
            for p in pair_specs(kind):
                assert h_pair_bracket(kind, h, p) == \
                    oracle_h_pair_bracket(kind, h, p), (kind.label, h, p)
                cases += 1
    assert cases == 6216


def test_stability_brackets_match_the_gl_pattern():
    for kind in KINDS:
        gens = h_generators(kind)
        for g1 in gens:
            for g2 in gens:
                assert h_bracket(kind, g1, g2) == \
                    oracle_h_bracket(kind, g1, g2), (kind.label, g1, g2)


E12 = GeneratorSpec("E", 1, 2, ncols=2)


@pytest.mark.parametrize("g1, g2", [
    # the pair sector is abelian; reading Z as E gave Z[1,1] - Z[2,2]
    (GeneratorSpec("Z", 1, 2), GeneratorSpec("Z", 2, 1)),
    (GeneratorSpec("D", 2, 1), E12),
    (E12, GeneratorSpec("Z", 1, 2)),
    (GeneratorSpec("identity"), E12),
], ids=["Z-Z", "D-E", "E-Z", "identity-E"])
def test_h_bracket_refuses_generators_outside_the_sector(g1, g2):
    with pytest.raises(ValueError, match="not a stability generator"):
        h_bracket(AlgebraKind.type_ii(2), g1, g2)


@pytest.mark.parametrize("h, p", [
    (GeneratorSpec("Z", 1, 2), GeneratorSpec("Z", 2, 1)),
    (GeneratorSpec("D", 1, 2), GeneratorSpec("Z", 2, 1)),
    (GeneratorSpec("identity"), GeneratorSpec("D", 1, 1)),
], ids=["Z-Z", "D-Z", "identity-D"])
def test_h_pair_bracket_refuses_an_h_outside_the_sector(h, p):
    with pytest.raises(ValueError, match="not a stability generator"):
        h_pair_bracket(AlgebraKind.type_ii(2), h, p)


@pytest.mark.parametrize("p", [GeneratorSpec("E", 1, 2, ncols=2),
                               GeneratorSpec("L", 1, 2),
                               GeneratorSpec("R", 2, 1),
                               GeneratorSpec("identity")],
                         ids=lambda g: g.name)
def test_h_pair_bracket_refuses_a_p_outside_the_pair_sector(p):
    kind = AlgebraKind.type_i(2, 2)
    with pytest.raises(ValueError, match="not a pair generator"):
        h_pair_bracket(kind, GeneratorSpec("L", 1, 2), p)


# ---- the R kernel ----

def random_poly(kind, rng, dmax=3, terms=12):
    monos = list(monomials_upto(kind, dmax))
    return Poly.make(kind, {m: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                            for m in rng.sample(monos, min(terms, len(monos)))})


@pytest.mark.parametrize("p, q", [(2, 3), (3, 2), (3, 3)])
def test_apply_r_matches_the_inline_table(p, q):
    kind = AlgebraKind.type_i(p, q)
    rng = random.Random(1000 * p + q)
    for _ in range(8):
        f = random_poly(kind, rng)
        for a in range(1, q + 1):
            for b in range(1, q + 1):
                assert apply_R(f, a, b) == oracle_apply_R(f, a, b), (a, b)


# ---- the extremal test ----

EXTREMAL_KINDS = [AlgebraKind.type_i(1, 1), AlgebraKind.type_i(2, 2),
                  AlgebraKind.type_i(2, 3), AlgebraKind.type_i(3, 2),
                  AlgebraKind.type_i(3, 3), AlgebraKind.type_ii(1),
                  AlgebraKind.type_ii(2), AlgebraKind.type_ii(3),
                  AlgebraKind.type_iii(2), AlgebraKind.type_iii(3),
                  AlgebraKind.type_iii(4)]


def test_is_extremal_matches_the_family_branches_on_monomials():
    for kind in EXTREMAL_KINDS:
        verdicts = set()
        for mono in monomials_upto(kind, 2):
            f = Poly.from_monomial(kind, mono)
            verdict = is_extremal(f)
            assert verdict == oracle_is_extremal(f), (kind.label, mono)
            verdicts.add(verdict)
        if len(kind.variables()) > 1:  # some variable can be raised
            assert verdicts == {True, False}, kind.label


def test_is_extremal_matches_the_family_branches_on_extremal_states():
    kinds = {k.label: k for k in EXTREMAL_KINDS}
    for label, nu in [("I(2,2)", (2, 1)), ("I(3,3)", (2, 2, 1)),
                      ("II(2)", (4, 2)), ("II(3)", (2, 2, 0)),
                      ("III(4)", (2, 2, 2, 2)), ("III(4)", (3, 3, 1, 1))]:
        f = extremal_poly(ExtremalLabel(kinds[label], nu))
        assert is_extremal(f) and oracle_is_extremal(f), (label, nu)


# ---- a truncated E is refused ----

def both_sides_on_one(kind, h, p):
    """[h, p] applied to the constant 1."""
    one = Poly.constant(kind, 1)
    return apply_generator(h, apply_generator(p, one)) \
        - apply_generator(p, apply_generator(h, one))


@pytest.mark.parametrize("kind, i, j, p", [
    (AlgebraKind.type_ii(3), 1, 2, GeneratorSpec("Z", 2, 3)),
    (AlgebraKind.type_iii(3), 1, 2, GeneratorSpec("Z", 2, 3)),
    (AlgebraKind.type_i(2, 3), 1, 2, GeneratorSpec("Z", 2, 3)),
], ids=lambda x: getattr(x, "label", getattr(x, "name", x)))
def test_bracket_functions_refuse_a_truncated_e(kind, i, j, p):
    one = Poly.constant(kind, 1)
    full = GeneratorSpec("E", i, j, ncols=kind.cols)
    rule = Poly.zero(kind)
    for c, g in h_pair_bracket(kind, full, p):
        rule = rule + c * apply_generator(g, one)
    assert not rule.is_zero()
    assert both_sides_on_one(kind, full, p) == rule
    for ncols in range(1, kind.cols):
        truncated = GeneratorSpec("E", i, j, ncols=ncols)
        # both sides give 0 on 1, so the full rule's answer would be wrong
        assert both_sides_on_one(kind, truncated, p).is_zero()
        with pytest.raises(ValueError, match="truncated"):
            h_pair_bracket(kind, truncated, p)
        for g1, g2 in ((truncated, full), (full, truncated),
                       (truncated, truncated)):
            with pytest.raises(ValueError, match="truncated"):
                h_bracket(kind, g1, g2)
