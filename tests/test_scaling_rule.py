"""One scaling rule, Poly * rational, and the k = 1 table of the contraction
sweep; every int option of the CLI through one parser; and the Fock oracle
keeping only the even ground column."""

import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from capelli import contraction, rpa
from capelli.algebra import AlgebraKind, Poly, monomials_upto
from capelli.cli import main
from capelli.rpa import FockCutoffError, QuadraticBosonHamiltonian, fock_oracle

KINDS = [AlgebraKind.type_i(2, 3), AlgebraKind.type_ii(3),
         AlgebraKind.type_iii(4)]
SCALES = [0, 1, -1, 3, Fraction(3), Fraction(1, 3), Fraction(-2, 3),
          Fraction(10 ** 40, 7)]
KS = [1, Fraction(1, 3), 3, Fraction(-2, 3), Fraction(10 ** 40, 7)]


# ---- Poly * rational ----

def seeded_poly(kind, fractions):
    rng = random.Random(f"{kind.label}-{fractions}")
    terms = {}
    for mono in rng.sample(list(monomials_upto(kind, 3)), 12):
        c = rng.choice([-7, -2, -1, 1, 3, 10 ** 30 + 1])
        terms[mono] = Fraction(c, rng.choice([2, 9])) if fractions else c
    return Poly.make(kind, terms)


@pytest.mark.parametrize("fractions", [False, True], ids=["int", "Fraction"])
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_a_rational_scales_every_term(kind, fractions):
    f = seeded_poly(kind, fractions)
    for s in SCALES:
        termwise = {m: c * s for m, c in f.terms.items() if c * s}
        for scaled in (f * s, s * f):
            assert scaled.kind is kind
            assert scaled.terms == termwise, s
            assert 0 not in scaled.terms.values()
            if not fractions and Fraction(s).denominator == 1:
                assert all(type(c) is int for c in scaled.terms.values()), s


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_scaling_by_one_makes_no_copy(kind):
    f = seeded_poly(kind, False)
    assert f * 1 is f and Fraction(1) * f is f
    assert (f * 0).is_zero() and (Fraction(0) * f).is_zero()


@pytest.mark.parametrize("other", [0.5, 1.0, 2j, "2"], ids=repr)
def test_a_non_rational_operand_is_a_type_error(other):
    f = seeded_poly(KINDS[0], False)
    with pytest.raises(TypeError):
        f * other
    with pytest.raises(TypeError):
        other * f


# ---- the contraction sweep checks the k = 1 table ----

def sweep_args(monkeypatch, kind, k):
    """The (gens, checks) that verify_contraction hands to _sweep."""
    captured = []
    monkeypatch.setattr(contraction, "_sweep",
                        lambda identity, kind, params, check, *rest, **kw:
                        captured.append(check))
    contraction.verify_contraction(kind, 2, k)
    monkeypatch.undo()
    return captured[0].args


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label)
def test_the_checks_do_not_depend_on_k(monkeypatch, kind):
    _, table = sweep_args(monkeypatch, kind, 1)
    for _, _, _, expected in table:
        if isinstance(expected, list):
            assert all(type(c) is int for c, _ in expected)
        else:
            assert type(expected) is int
    for k in KS:
        gens, checks = sweep_args(monkeypatch, kind, k)
        assert checks == table, k
        # k reaches the generator scales alone
        assert {g.scale for g in gens if g.family in "ZD"} == {Fraction(k)}
        assert {g.scale for g in gens if g.family not in "ZD"} == {1}


# ---- one integer parser in the CLI ----

HUGE = "9" * 5000
QUOTED = f"invalid int value: {HUGE[:40]!r}..."


def usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-string digit limit: 5,000 digits parse")
@pytest.mark.parametrize("argv, option", [
    (["verify", "--type", "I", "--N", "2", "--n", "1", "--dmax", HUGE], "--dmax"),
    (["rpa", "--input", "h.json", "--fock-check", HUGE], "--fock-check"),
])
def test_a_huge_int_option_is_quoted_short(capsys, argv, option):
    err = usage_error(capsys, argv)
    assert err.endswith(f"error: argument {option}: {QUOTED}\n")
    assert len(err) < 600


@pytest.mark.parametrize("argv, option", [
    (["verify", "--type", "I", "--p", "x", "--q", "2", "--dmax", "1"], "--p"),
    (["verify", "--type", "I", "--p", "2", "--q", "x", "--dmax", "1"], "--q"),
    (["export", "--type", "II", "--N", "x", "--dmax", "1"], "--N"),
    (["verify", "--type", "II", "--N", "2", "--n", "x", "--dmax", "1"], "--n"),
    (["export", "--type", "II", "--N", "2", "--dmax", "x"], "--dmax"),
    (["verify", "--type", "II", "--N", "2", "--dmax", "1", "--jobs", "x"],
     "--jobs"),
    (["rpa", "--input", "h.json", "--fock-check", "x"], "--fock-check"),
    (["matel", "--type", "II", "--N", "2", "--nu", "1", "--k", "x"], "--k"),
])
def test_a_short_bad_int_keeps_its_message(capsys, argv, option):
    err = usage_error(capsys, argv)
    assert err.endswith(f"error: argument {option}: invalid int value: 'x'\n")


# ---- the Fock oracle's odd path holds no more than its even path ----

def traced_peak(H, nmax):
    tracemalloc.start()
    try:
        fock_oracle(H, nmax)
    except FockCutoffError:
        pass  # the forced odd ground state may touch the boundary
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("modes, nmax", [(2, 15), (3, 7)])
def test_the_odd_path_holds_no_even_eigenvectors(monkeypatch, modes, nmax):
    # no eigenvectors are computed and one block is alive at a time: each
    # eigvalsh holds its block and its copy, and the banded ground-vector
    # solve, slab by slab, holds the lowest block and about side * width
    # items more, so the odd block kept for it costs no more than the even one
    V = np.diag(1.0 + 0.3 * np.arange(modes))
    W = 0.02 * (np.ones((modes, modes)) + np.eye(modes))
    H = QuadraticBosonHamiltonian(0.3, V, W)
    even_path = traced_peak(H, nmax)
    real_eigvalsh, calls = np.linalg.eigvalsh, []

    def eigvalsh(a):  # lower the odd block, the second one, by 1e9 in place
        calls.append(None)
        if len(calls) == 2:
            a.reshape(-1)[::len(a) + 1] -= 1e9
        return real_eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    odd_path = traced_peak(H, nmax)
    side = (nmax + 1) ** modes
    assert odd_path <= even_path + 8 * 8 * side
    assert odd_path <= rpa._fock_bytes(modes, nmax, 8)
