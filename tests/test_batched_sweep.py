"""Differential tests: the batched sweep engine and matrix export against the
per-monomial code they replaced.

The sweeps and build_rep_matrices apply each operator to a batch of
monomials at once, kept apart by a spectator tag field above every variable
(see capelli.algebra).  The oracles below are the per-monomial _sweep_chunk
and the per-column build_rep_matrices from before batching.  Reports and
matrices must agree to the byte, passing or failing, serial or pooled.
"""

import random
from fractions import Fraction

import pytest

from capelli import algebra, contraction, determinants
from capelli.algebra import _EXP_MAX, AlgebraKind, Poly, format_poly, \
    monomials_upto
from capelli.contraction import GeneratorSpec, SparseRepMatrix, \
    apply_generator, basis_monomials, build_rep_matrices, default_generators

I23 = AlgebraKind.type_i(2, 3)
II3 = AlgebraKind.type_ii(3)
III4 = AlgebraKind.type_iii(4)
KINDS = [I23, II3, III4]
CAPELLI_N = {I23: 2, II3: 3, III4: 4}


# ---- the per-monomial oracles ----

def oracle_sweep_chunk(kind, check, label_key, monos):
    count = 0
    failures = []
    for mono in monos:
        f = Poly.from_monomial(kind, mono)
        for label, lhs, rhs in check(f):
            count += 1
            if lhs != rhs:
                record = {"monomial": format_poly(f)}
                if label_key is not None:
                    record[label_key] = label
                record["lhs"] = format_poly(lhs)
                record["rhs"] = format_poly(rhs)
                failures.append(record)
    return count, failures


def oracle_build_rep_matrices(kind, generators, d):
    basis = basis_monomials(kind, d)
    keys = [kind._layout.pack(mono) for mono in basis]
    index = {key: i for i, key in enumerate(keys)}
    states = [Poly(kind, {key: 1}) for key in keys]
    out = []
    for g in generators:
        entries = {}
        overflow = 0
        for col, f in enumerate(states):
            for m, c in apply_generator(g, f).terms.items():
                row = index.get(m)
                if row is None:
                    overflow += 1
                else:
                    entries[(row, col)] = c
        out.append(SparseRepMatrix(name=g.name, kind_label=kind.label,
                                   basis_degree=d, dim=len(basis),
                                   entries=entries, overflow_count=overflow))
    return out


# ---- sweeps, passing and failing ----

def correct_shifts(kind, side):
    n = CAPELLI_N[kind]
    return [determinants.capelli_shift(kind, side, n, i) for i in range(1, n + 1)]


def sweeps(kind):
    """(name, run(jobs)) for every identity on kind, each variant of Capelli
    with its correct and a mutated diagonal shift."""
    n = CAPELLI_N[kind]
    out = [("heisenberg", lambda jobs: algebra.check_heisenberg(kind, 2, jobs)),
           ("contraction", lambda jobs: contraction.verify_contraction(
               kind, 2, Fraction(1, 2), jobs))]
    for side in determinants.CAPELLI_SIDES:
        for bump in (0, 1):
            shifts = correct_shifts(kind, side)
            shifts[0] += bump
            out.append((f"capelli-{side}-bump{bump}", lambda jobs, side=side,
                        shifts=tuple(shifts): determinants.verify_capelli(
                            kind, n, side, 3, jobs, shifts)))
    return out


def flip_sign_at(pair, real):
    def mul_z(f, a, b):
        out = real(f, a, b)
        return -out if (a, b) == pair else out
    return mul_z


REAL_SWEEP_CHUNK = algebra._sweep_chunk


def with_oracle(monkeypatch, run, jobs):
    """run(jobs)'s report from the per-monomial engine."""
    monkeypatch.setattr(algebra, "_sweep_chunk", oracle_sweep_chunk)
    try:
        return run(jobs).to_json()
    finally:
        monkeypatch.setattr(algebra, "_sweep_chunk", REAL_SWEEP_CHUNK)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_batched_reports_equal_the_per_monomial_engine(monkeypatch, kind, jobs):
    outcomes = set()
    for name, run in sweeps(kind):
        report = run(jobs)
        assert report.to_json() == with_oracle(monkeypatch, run, jobs), name
        outcomes.add((name.endswith("bump1"), report.passed))
    # the correct identities pass and every mutated shift is caught
    assert outcomes == {(False, True), (True, False)}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_a_sign_flipped_mul_z_fails_alike(monkeypatch, kind, jobs):
    # (2,1) is a canonical variable of I(2,3) and an alias for II and III
    faulty = flip_sign_at((2, 1), algebra.mul_z)
    monkeypatch.setattr(algebra, "mul_z", faulty)
    monkeypatch.setattr(contraction, "mul_z", faulty)
    for name, run in sweeps(kind)[:2]:
        report = run(jobs)
        assert not report.passed, name
        assert report.to_json() == with_oracle(monkeypatch, run, jobs), name


# ---- chunks around the batch size ----

def captured_check(monkeypatch, module, run):
    """The (check, label_key) that run() hands to module._sweep."""
    captured = []
    monkeypatch.setattr(module, "_sweep",
                        lambda identity, kind, params, check, jobs,
                        label_key=None: captured.append((check, label_key)))
    run()
    monkeypatch.undo()
    return captured[0]


@pytest.mark.parametrize("size", [1, 31, 32, 33, 65])
def test_chunks_around_the_batch_size(monkeypatch, size):
    assert algebra._BATCH == 32
    kind = II3
    monos = list(monomials_upto(kind, 3))[-size:]  # degree 3 fails most
    faulty = flip_sign_at((2, 1), algebra.mul_z)
    bad = correct_shifts(kind, "DX")
    bad[2] -= 1
    runs = [(algebra, lambda: algebra.check_heisenberg(kind, 3)),
            (contraction, lambda: contraction.verify_contraction(kind, 3)),
            (determinants, lambda: determinants.verify_capelli(kind, 3, "DX", 3,
                                                               shifts=bad))]
    for flip in (False, True):
        for module, run in runs:
            check, label_key = captured_check(monkeypatch, module, run)
            if flip:
                monkeypatch.setattr(algebra, "mul_z", faulty)
                monkeypatch.setattr(contraction, "mul_z", faulty)
            batched = algebra._sweep_chunk(kind, check, label_key, monos)
            expected = oracle_sweep_chunk(kind, check, label_key, monos)
            monkeypatch.undo()
            assert batched == expected
            assert batched[0] > 0
            if flip or module is determinants:
                assert batched[1]


# ---- the export ----

def export_generators(kind, k):
    # and E at every column bound, kind I's too
    return default_generators(kind, k) + [
        GeneratorSpec("E", i, j, ncols=s, scale=k)
        for i in range(1, kind.rows + 1) for j in range(1, kind.rows + 1)
        for s in range(1, kind.cols + 1)]


@pytest.mark.parametrize("k", [1, Fraction(1, 2)], ids=["k1", "k1/2"])
@pytest.mark.parametrize("kind", KINDS + [AlgebraKind.type_i(3, 2)],
                         ids=lambda k: k.label)
def test_export_equals_the_per_column_matrices(kind, k):
    gens = export_generators(kind, k)
    assert {g.family for g in gens} >= {"Z", "D", "identity"}
    for d in (0, 2):
        batched = build_rep_matrices(kind, gens, d)
        expected = oracle_build_rep_matrices(kind, gens, d)
        assert [m.to_json() for m in batched] == \
            [m.to_json() for m in expected]
        assert [(m.dim, m.entries) for m in batched] == \
            [(m.dim, m.entries) for m in expected]
        overflow = {m.name: m.overflow_count for m in batched}
        top = sum(1 for mono in basis_monomials(kind, d)
                  if sum(e for _, e in mono) == d)
        for a, b in kind.variables():  # Z raises every top-degree monomial
            assert overflow[f"Z[{a},{b}]"] == top
        assert not any(m.overflow_count for m in batched
                       if not m.name.startswith("Z"))


def test_export_covers_every_family():
    families = {g.family for kind in KINDS + [AlgebraKind.type_i(3, 2)]
                for g in export_generators(kind, 1)}
    assert families == set(contraction._FAMILIES)


# ---- the guard bits under batching ----

def batch_of(kind, monos):
    layout = kind._layout
    return Poly(kind, layout.batch(layout.pack(m) for m in monos))


def per_monomial(kind, monos, op):
    out = {}
    for i, mono in enumerate(monos):
        terms = op(Poly.from_monomial(kind, mono)).terms
        if terms:
            out[i] = terms
    return out


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_an_overflow_in_a_batch_still_raises(kind):
    for v in (kind.variables()[0], kind.variables()[-1]):  # top field last
        monos = [(), ((v, 1),), ((v, _EXP_MAX),), ((v, 2),)]
        with pytest.raises(ValueError, match="exceeds"):
            algebra.mul_z(batch_of(kind, monos), *v)
        with pytest.raises(ValueError, match="exceeds"):
            algebra.variable(kind, *v) * batch_of(kind, monos)
        below = [((v, _EXP_MAX - 1),)] + monos[:2]
        raised = algebra.mul_z(batch_of(kind, below), *v)
        assert kind._layout.split(raised.terms) == per_monomial(
            kind, below, lambda f: algebra.mul_z(f, *v))


def random_monomial(kind, rng):
    vars_ = kind.variables()
    chosen = rng.sample(vars_, rng.randint(0, len(vars_)))
    exponents = (1, 2, 3, 5, _EXP_MAX - 1, _EXP_MAX)
    return tuple(sorted((v, rng.choice(exponents)) for v in chosen))


def operators(kind):
    ops = [determinants.det_partial(kind, n)
           for n in range(1, kind.det_bound + 1)
           if kind.family != "III" or n % 2 == 0]
    if kind.family == "III":
        ops += [determinants.pfaffian_partial(kind, m)
                for m in range(1, kind.rows // 2 + 1)]
    return ops


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_diffop_on_a_batch_equals_per_monomial_application(kind):
    rng = random.Random(11)
    top = kind.variables()[-1]
    for _ in range(20):
        monos = [random_monomial(kind, rng) for _ in range(rng.randint(1, 40))]
        # a top field at 0 and at _EXP_MAX, right under the tag
        monos += [(), ((top, _EXP_MAX),)]
        batch = batch_of(kind, monos)
        for op in operators(kind):
            assert kind._layout.split(op.apply(batch).terms) == \
                per_monomial(kind, monos, op.apply)


def test_the_tag_lies_above_every_guard_bit():
    for kind in KINDS + [AlgebraKind.type_iii(1), AlgebraKind.type_ii(6)]:
        layout = kind._layout
        assert layout.guard < 1 << layout.tag
        assert layout.tag == 32 * len(kind.variables())
        keys = [layout.pack(m) for m in monomials_upto(kind, 2)]
        split = layout.split(layout.batch(keys))
        assert split == {i: {key: 1} for i, key in enumerate(keys)}
