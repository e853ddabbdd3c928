"""The E kernel's move memo against the per-row loop it replaced.

determinants._add_bilinear reads each term's w-part (its exponents of the
table's w variables) once and looks that part's moves up in the table's
memo.  The oracle below is the loop it ran before: every row of the table
tested against every term.  Both are run on seeded random batches of
tagged monomials with int and Fraction coefficients, over every E table
(kind III's included, which skip z[i,i] and d[j,j]) and every transposed
R table of a few kinds, with each factor in turn on the same table.  The
last section pins the whole failure report of a mutated Capelli sweep, as
the code before the memo wrote it.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from capelli import determinants
from capelli.algebra import _EXP_MAX, AlgebraKind, Poly
from capelli.determinants import (_ETable, _add_bilinear, _apply_bilinear,
                                  _e_table, apply_E, apply_R, verify_capelli)

KINDS = [AlgebraKind.type_i(2, 3), AlgebraKind.type_i(3, 2),
         AlgebraKind.type_ii(3), AlgebraKind.type_iii(4)]
FACTORS = (1, -1, Fraction(-2, 3))
I22 = AlgebraKind.type_i(2, 2)


def kind_id(kind):
    return kind.label


def oracle_add_bilinear(terms, table, factor, out):
    """The per-row loop _add_bilinear ran before its move memo."""
    raised = 0
    for m, c in terms.items():
        cf = c * factor
        for shift, unit_w, unit_v, scale in table:
            e = (m >> shift) & _EXP_MAX
            if e:
                image = m - unit_w + unit_v
                raised |= image
                out[image] = out.get(image, 0) + cf * scale * e
    return raised


def tables(kind):
    """Every E table (i, j, ncols) and, for kind I, every R table."""
    out = [_e_table(kind, i, j, ncols) for i in range(1, kind.rows + 1)
           for j in range(1, kind.rows + 1) for ncols in range(1, kind.cols + 1)]
    if kind.family == "I":
        out += [_e_table(kind, b, a, kind.rows, True)
                for a in range(1, kind.cols + 1) for b in range(1, kind.cols + 1)]
    return out


def fresh(table):
    """The same rows with an empty memo."""
    return _ETable(list(table))


def random_batch(kind, rng, fraction, nbatch=4, per=8):
    """Terms of nbatch tagged random polynomials, exponents 1 to 3."""
    layout = kind._layout
    variables = kind.variables()
    terms = {}
    for tag in range(nbatch):
        for _ in range(per):
            picked = rng.sample(variables, rng.randint(0, min(3, len(variables))))
            key = layout.pack(tuple((v, rng.randint(1, 3)) for v in picked))
            c = rng.choice((-3, -1, 1, 2, 5))
            terms[key | tag << layout.tag] = (
                Fraction(c, rng.choice((1, 2, 3, 7))) if fraction else c)
    return terms


def typed(out):
    return [(m, c, type(c)) for m, c in out.items()]


def run_both(terms, table, factors):
    """Both kernels, each factor in turn into one out; outs and raised ORs."""
    new, old, raised_new, raised_old = {}, {}, 0, 0
    for factor in factors:
        raised_new |= _add_bilinear(terms, table, factor, new)
        raised_old |= oracle_add_bilinear(terms, table, factor, old)
    return typed(new), typed(old), raised_new, raised_old


def parts_of(terms, table):
    return {m & table.mask for m in terms if m & table.mask}


# ---- the memo against the per-row loop ----

@pytest.mark.parametrize("kind", KINDS, ids=kind_id)
@pytest.mark.parametrize("fraction", [False, True], ids=["int", "Fraction"])
def test_moves_match_the_per_row_loop(kind, fraction):
    rng = random.Random(f"{kind.label}-{fraction}")
    for cached in tables(kind):
        for order in (FACTORS, FACTORS[::-1]):
            table = fresh(cached)  # each factor order starts from an empty memo
            terms = random_batch(kind, rng, fraction)
            new, old, raised_new, raised_old = run_both(terms, table, order)
            assert new == old  # same keys, values, types and order
            assert raised_new == raised_old
            # the memo holds one entry per nonzero w-part, never a whole key
            assert set(table.moves) == parts_of(terms, table)


@pytest.mark.parametrize("kind", KINDS, ids=kind_id)
def test_the_cached_tables_match_after_every_factor(kind):
    """The lru-cached tables, whose memos every caller shares."""
    rng = random.Random(kind.label)
    for _ in range(2):
        for table in tables(kind):
            terms = random_batch(kind, rng, rng.random() < 0.5, nbatch=3, per=5)
            for factor in FACTORS:
                new, old, raised_new, raised_old = run_both(terms, table, (factor,))
                assert new == old and raised_new == raised_old
            assert not any(part & ~table.mask for part in table.moves)
            assert len(table.moves) <= determinants._MOVES_CAP


def test_the_tables_cover_the_skipped_and_transposed_rows():
    iii4 = AlgebraKind.type_iii(4)
    # E_12 of III(4): z[1,1] (s = 1) and d[2,2] (s = 2) vanish
    assert len(_e_table(iii4, 1, 2, 4)) == 2
    assert len(_e_table(iii4, 1, 1, 1)) == 0 and _e_table(iii4, 1, 1, 1).mask == 0
    # R tables walk the rows of kind I: p entries, not q
    assert all(len(t) == 3 for t in tables(AlgebraKind.type_i(3, 2))[-4:])
    assert all(len(t) == 2 for t in tables(AlgebraKind.type_i(2, 3))[-9:])


def test_a_term_without_w_variables_writes_nothing():
    table = fresh(_e_table(I22, 1, 2, 2))  # w = z[2,1], z[2,2]
    layout = I22._layout
    terms = {layout.pack((((1, 1), 2), ((1, 2), 1))): 3, 0: 1,
             layout.pack((((1, 1), 1),)) | 1 << layout.tag: 2}
    out = {}
    assert _add_bilinear(terms, table, -1, out) == 0
    assert out == {} and table.moves == {}


# ---- the memo's cap ----

def test_past_a_small_cap_the_moves_are_computed_afresh(monkeypatch):
    monkeypatch.setattr(determinants, "_MOVES_CAP", 3)
    rng = random.Random("small cap")
    for kind in KINDS:
        for cached in tables(kind):
            table = fresh(cached)
            terms = random_batch(kind, rng, True)
            for _ in range(2):  # a second pass runs on a full memo
                new, old, raised_new, raised_old = run_both(terms, table, FACTORS)
                assert new == old and raised_new == raised_old
                assert len(table.moves) <= 3
                assert set(table.moves) <= parts_of(terms, table)


def test_the_module_cap_bounds_a_table():
    cap = determinants._MOVES_CAP
    table = fresh(_e_table(AlgebraKind.type_i(2, 3), 2, 1, 3))  # w = z[1,1..3]
    layout = AlgebraKind.type_i(2, 3)._layout
    terms = {layout.pack((((1, 1), a), ((1, 2), b), ((1, 3), c), ((2, 1), 1))):
             Fraction(a - b, c + 1) or 1
             for a in range(12) for b in range(12) for c in range(12)}
    assert len(parts_of(terms, table)) > cap
    for _ in range(2):
        new, old, raised_new, raised_old = run_both(terms, table, FACTORS)
        assert new == old and raised_new == raised_old
        assert len(table.moves) == cap


# ---- exponent overflow ----

def test_an_image_exponent_at_the_field_top_is_exact():
    # E_12 on I(2,2) lowers z[2,s] and raises z[1,s]
    layout = I22._layout
    edge = Poly.make(I22, {(((1, 1), _EXP_MAX - 1), ((2, 1), 1)): 1})
    top = Poly.make(I22, {(((1, 1), _EXP_MAX),): 1})
    assert apply_E(edge, 1, 2, 2) == top
    batch = Poly(I22, {m | i << layout.tag: c for i, f in
                       enumerate([Poly.constant(I22, 1), edge]) for m, c in
                       f.terms.items()})
    assert apply_E(batch, 1, 2, 2) == Poly(I22, {m | 1 << layout.tag: c
                                                 for m, c in top.terms.items()})
    # R_21 = -sum_s z[s,1] d[s,2]: lowers z[s,2], raises z[s,1]
    column = Poly.make(I22, {(((1, 1), _EXP_MAX - 1), ((1, 2), 1)): 2})
    assert apply_R(column, 2, 1) == \
        Poly.make(I22, {(((1, 1), _EXP_MAX),): -2})


def test_an_image_exponent_past_the_field_top_is_refused():
    layout = I22._layout
    table = _e_table(I22, 1, 2, 2)
    warm = Poly.make(I22, {(((2, 1), 1),): 1})
    assert not apply_E(warm, 1, 2, 2).is_zero()  # the w-part z[2,1] is stored
    assert layout.pack((((2, 1), 1),)) in table.moves
    over = Poly.make(I22, {(((1, 1), _EXP_MAX), ((2, 1), 1)): 1})
    with pytest.raises(ValueError, match="exceeds"):
        apply_E(over, 1, 2, 2)
    tagged = Poly(I22, {m | i << layout.tag: c for i, f in
                        enumerate([Poly.constant(I22, 1), warm, over])
                        for m, c in f.terms.items()})
    with pytest.raises(ValueError, match="exceeds"):
        apply_E(tagged, 1, 2, 2)
    with pytest.raises(ValueError, match="exceeds"):
        _apply_bilinear(over, _ETable(list(table)), Fraction(-2, 3))


# ---- the mutated sweep's whole report ----

def test_the_mutated_sweep_reports_the_same_failures():
    """Every failure record of I(3,3), n 3, XD, dmax 3 with shifts (3, 1, 0),
    pinned by the digest of its JSON as written before the move memo."""
    report = verify_capelli(AlgebraKind.type_i(3, 3), 3, "XD", 3,
                            shifts=(3, 1, 0))
    doc = report.to_json()
    assert {k: v for k, v in doc.items() if k != "failures"} == {
        "identity": "capelli", "kind": "I(3,3)", "n": 3, "variant": "XD",
        "dmax": 3, "checked_count": 220}
    assert len(doc["failures"]) == 54
    assert doc["failures"][0] == {
        "monomial": "1 * z[2,1]^1 * z[3,2]^1", "lhs": "0",
        "rhs": "1 * z[2,1]^1 * z[3,2]^1 - 1 * z[2,2]^1 * z[3,1]^1"}
    assert doc["failures"][-1] == {
        "monomial": "1 * z[2,3]^1 * z[3,2]^1 * z[3,3]^1", "lhs": "0",
        "rhs": "-1 * z[2,2]^1 * z[3,3]^2 + 1 * z[2,3]^1 * z[3,2]^1 * z[3,3]^1"}
    assert sum(f["lhs"] != "0" for f in doc["failures"]) == 6
    assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() \
        == "2f8410163e533ddba1398e729708797a58955d169636cf7609496eda293c2c19"
