"""Inputs that would check nothing, exhaust memory or end in a traceback
are refused, complex rpa input is read, and a large --jobs is bounded."""

import json
import os
import sys
import time
import tracemalloc
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from capelli import extremal, report, rpa
from capelli.algebra import AlgebraKind, check_heisenberg, monomials_upto
from capelli.extremal import ExtremalLabel, norm_closed_form
from capelli.cli import _matrix_json, _parse_rational, main
from capelli.contraction import build_rep_matrices, default_generators, \
    verify_contraction
from capelli.determinants import verify_capelli
from capelli.rpa import FockCutoffError, QuadraticBosonHamiltonian, RpaError, \
    fock_oracle, solve_rpa

II2 = AlgebraKind.type_ii(2)
II3 = AlgebraKind.type_ii(3)


def usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


# ---- negative degree bounds ----

def test_library_rejects_negative_dmax():
    with pytest.raises(ValueError, match="dmax"):
        monomials_upto(II2, -1)
    with pytest.raises(ValueError, match="dmax"):
        verify_capelli(II2, 2, "XD", -1)
    with pytest.raises(ValueError, match="dmax"):
        check_heisenberg(II2, -1)
    with pytest.raises(ValueError, match="dmax"):
        verify_contraction(II2, -2)
    with pytest.raises(ValueError, match="dmax"):
        build_rep_matrices(II2, default_generators(II2), -1)


def test_zero_dmax_still_checks_the_constant():
    assert verify_capelli(II2, 2, "DX", 0).checked_count == 1
    mats = build_rep_matrices(II2, default_generators(II2), 0)
    assert mats and all(m.dim == 1 for m in mats)


@pytest.mark.parametrize("argv", [
    ["verify", "--type", "II", "--N", "2", "--n", "2", "--dmax", "-1"],
    ["verify", "--type", "II", "--N", "2", "--n", "2", "--variant", "XD",
     "--dmax", "-1"],
    ["verify", "--type", "III", "--N", "3", "--identity", "heisenberg",
     "--dmax", "-1"],
    ["verify", "--type", "I", "--p", "2", "--q", "3",
     "--identity", "contraction", "--dmax", "-3"],
    ["export", "--type", "II", "--N", "2", "--dmax", "-1"],
])
def test_cli_rejects_negative_dmax(capsys, argv):
    err = usage_error(capsys, argv)
    assert "dmax must be >= 0" in err
    assert "Traceback" not in err


# ---- sweeps that check nothing ----

def test_library_refuses_an_empty_sweep():
    with pytest.raises(ValueError, match=r"heisenberg sweep of III\(1\) "
                                         r"up to dmax 3 checks nothing"):
        check_heisenberg(AlgebraKind.type_iii(1), 3)


def test_cli_refuses_an_empty_sweep(capsys):
    err = usage_error(capsys, ["verify", "--type", "III", "--N", "1",
                               "--identity", "heisenberg", "--dmax", "3"])
    assert "checks nothing" in err and "Traceback" not in err
    assert capsys.readouterr().out == ""


def test_library_refuses_a_contraction_without_variables():
    # III(1) has no variables: E[1,1], Z and D are all zero
    with pytest.raises(ValueError, match=r"contraction sweep of III\(1\) "
                                         r"checks nothing"):
        verify_contraction(AlgebraKind.type_iii(1), 2)
    assert verify_contraction(AlgebraKind.type_ii(1), 1).checked_count == 8


def test_cli_refuses_a_contraction_without_variables(capsys):
    err = usage_error(capsys, ["verify", "--type", "III", "--N", "1",
                               "--identity", "contraction", "--dmax", "2"])
    assert "checks nothing" in err and "Traceback" not in err
    assert capsys.readouterr().out == ""


def test_library_refuses_a_contraction_at_k_zero():
    with pytest.raises(ValueError, match="k = 0"):
        verify_contraction(II2, 1, k=0)


def test_cli_refuses_a_contraction_at_k_zero(capsys):
    err = usage_error(capsys, ["verify", "--type", "I", "--N", "2", "--identity",
                               "contraction", "--dmax", "1", "--k", "0"])
    assert "k = 0" in err and "Traceback" not in err
    assert capsys.readouterr().out == ""


# ---- worker counts below one ----

@pytest.mark.parametrize("jobs", ["0", "-1", "-3"])
@pytest.mark.parametrize("identity", [["--n", "2"],
                                      ["--identity", "heisenberg"],
                                      ["--identity", "contraction"]],
                         ids=["capelli", "heisenberg", "contraction"])
def test_cli_refuses_jobs_below_one(capsys, identity, jobs):
    err = usage_error(capsys, ["verify", "--type", "II", "--N", "2", *identity,
                               "--dmax", "1", "--jobs", jobs])
    assert f"--jobs must be at least 1, got {jobs}" in err
    assert "Traceback" not in err
    assert capsys.readouterr().out == ""


def test_library_still_runs_jobs_below_one_in_process():
    assert check_heisenberg(II2, 1, jobs=0).to_json() \
        == check_heisenberg(II2, 1, jobs=1).to_json()


# ---- kind I sizes given twice ----

@pytest.mark.parametrize("sizes", [["--p", "2", "--q", "3", "--N", "2"],
                                   ["--N", "2", "--p", "2"],
                                   ["--q", "3", "--N", "3"]])
def test_kind_i_refuses_n_next_to_p_or_q(capsys, sizes):
    err = usage_error(capsys, ["verify", "--type", "I", *sizes,
                               "--identity", "heisenberg", "--dmax", "1"])
    assert "kind I takes --p and --q or square --N, not both" in err
    assert "Traceback" not in err
    assert capsys.readouterr().out == ""


# ---- options of another identity ----

def test_capelli_refuses_the_contraction_constant(capsys):
    err = usage_error(capsys, ["verify", "--type", "I", "--N", "2", "--n", "2",
                               "--variant", "XD", "--dmax", "1", "--k", "2"])
    assert "--k only applies to the contraction identity" in err
    assert capsys.readouterr().out == ""


# ---- rpa --fock-check on a truncation that is too small ----

def write_hamiltonian(tmp_path, V, W):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"E0": 0.0, "V": V, "W": W}))
    return str(path)


def test_fock_cutoff_is_a_usage_error(tmp_path, capsys):
    path = write_hamiltonian(tmp_path, [[1.0, 0.0], [0.0, 1.0]],
                             [[0.45, 0.0], [0.0, 0.45]])
    err = usage_error(capsys, ["rpa", "--input", path, "--fock-check", "4"])
    assert "boundary weight" in err and "raise NMAX" in err
    assert capsys.readouterr().out == ""


def test_fock_cutoff_still_raises_in_the_library():
    H = QuadraticBosonHamiltonian(0.0, np.eye(2), 0.45 * np.eye(2))
    with pytest.raises(FockCutoffError):
        fock_oracle(H, 4)


def test_fock_check_below_one_is_a_usage_error(tmp_path, capsys):
    path = write_hamiltonian(tmp_path, [[2.0]], [[0.5]])
    err = usage_error(capsys, ["rpa", "--input", path, "--fock-check", "0"])
    assert "nmax must be at least 1" in err


# ---- usage errors name the subcommand ----

def test_usage_line_names_the_subcommand(tmp_path, capsys):
    err = usage_error(capsys, ["verify", "--type", "II", "--N", "2",
                               "--identity", "heisenberg", "--dmax", "-1"])
    assert err.startswith("usage: capelli verify")
    path = write_hamiltonian(tmp_path, [[2.0]], [[0.5]])
    err = usage_error(capsys, ["rpa", "--input", path, "--fock-check", "0"])
    assert err.startswith("usage: capelli rpa")


# ---- a large --jobs starts no more workers than can run ----

def test_pool_size_is_bounded(monkeypatch):
    forked = []
    real_fork = os.fork

    def counting_fork():
        forked.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(report, "_available_cpus", lambda: 3)
    items = list(range(10))
    assert report.run_chunked(str, items, 5000) == list(map(str, items))
    assert len(forked) == 2
    assert report.run_chunked(str, items, 2) == list(map(str, items))
    assert len(forked) == 3
    assert report.run_chunked(str, [4, 5], 5000) == ["4", "5"]
    assert len(forked) == 4
    serial = check_heisenberg(II3, 6)  # 924 monomials, 4 batches
    assert check_heisenberg(II3, 6, jobs=5000).to_json() == serial.to_json()
    assert len(forked) == 6
    monkeypatch.setattr(report, "_available_cpus", lambda: 1)
    assert report.run_chunked(str, items, 5000) == list(map(str, items))
    assert len(forked) == 6


# ---- unwritable --output, non-object --input ----

def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    err = usage_error(capsys, ["norm", "--type", "I", "--N", "2", "--nu", "1",
                               "--output", str(target)])
    assert err.startswith("usage: capelli norm")
    assert "cannot write --output" in err and "Traceback" not in err


@pytest.mark.parametrize("doc", [[1, 2], {"E0": None, "V": [[1.0]],
                                          "W": [[0.1]]}])
def test_non_object_input_is_a_usage_error(tmp_path, capsys, doc):
    path = tmp_path / "h.json"
    path.write_text(json.dumps(doc))
    err = usage_error(capsys, ["rpa", "--input", str(path)])
    assert "bad --input" in err and "Traceback" not in err


# ---- rpa on a Hamiltonian whose positive mode has negative norm ----

@pytest.mark.parametrize("V, W", [([[-2.0]], [[0.0]]),
                                  ([[1.0, 0.0], [0.0, -2.0]],
                                   [[0.1, 0.0], [0.0, 0.1]])])
def test_negative_norm_mode_is_a_usage_error(tmp_path, capsys, V, W):
    with pytest.raises(RpaError):  # the library still raises
        solve_rpa(QuadraticBosonHamiltonian(0.0, np.array(V), np.array(W)))
    err = usage_error(capsys, ["rpa", "--input",
                               write_hamiltonian(tmp_path, V, W)])
    assert err.startswith("usage: capelli rpa")
    assert "non-positive norm" in err and "Traceback" not in err
    assert capsys.readouterr().out == ""


# ---- complex Hamiltonians given as [re, im] pairs ----

def test_complex_input_as_pairs(tmp_path, capsys):
    V = np.array([[2.0, 0.3 - 0.4j], [0.3 + 0.4j, 3.0]])
    W = np.array([[0.2j, 0.1], [0.1, 0.15 - 0.1j]])
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"E0": 0.5, "V": _matrix_json(V),
                                "W": _matrix_json(W)}))
    assert main(["rpa", "--input", str(path), "--fock-check", "12"]) == 0
    doc = json.loads(capsys.readouterr().out)
    expect = solve_rpa(QuadraticBosonHamiltonian(0.5, V, W))
    assert doc["stable"] and expect.stable
    assert doc["frequencies"] == [float(w) for w in expect.frequencies]
    assert doc["fock_max_deviation"] < 1e-6


# ---- a non-finite E0, V or W is refused ----

NON_FINITE = ["1e400", "-1e400", "NaN"]  # JSON reads 1e400 as infinity


@pytest.mark.parametrize("where", ["E0", "V", "W"])
@pytest.mark.parametrize("text", NON_FINITE)
def test_library_refuses_a_non_finite_hamiltonian(where, text):
    fields = {"E0": 0.0, "V": np.array([[1.0]]), "W": np.array([[0.1]])}
    fields[where] = float(text) if where == "E0" else np.array([[float(text)]])
    with pytest.raises(ValueError, match="E0, V and W must be finite"):
        QuadraticBosonHamiltonian(**fields)


@pytest.mark.parametrize("where", ["E0", "V", "W"])
@pytest.mark.parametrize("text", NON_FINITE)
def test_cli_refuses_a_non_finite_hamiltonian(tmp_path, capsys, where, text):
    fields = {"E0": "1.0", "V": "[[1.0]]", "W": "[[0.1]]"}
    fields[where] = text if where == "E0" else f"[[{text}]]"
    path = tmp_path / "h.json"
    path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items())
                    + "}")
    err = usage_error(capsys, ["rpa", "--input", str(path), "--fock-check", "4"])
    assert err.startswith("usage: capelli rpa")
    assert "bad --input: E0, V and W must be finite" in err
    assert capsys.readouterr().out == ""


# ---- a Fock matrix above the size limit is refused before it is built ----

def test_fock_oracle_refuses_an_oversized_matrix():
    H = QuadraticBosonHamiltonian(0.0, np.diag([1.0, 2.0]), 0.1 * np.eye(2))
    # side (10^9 + 1)^2: numpy cannot allocate even the occupation table
    with pytest.raises(ValueError, match=r"Fock matrix of side "
                                         r"1000000002000000001 at nmax="
                                         r"1000000000 exceeds the 1 GiB limit"):
        fock_oracle(H, 10 ** 9)


def test_fock_limit_counts_the_blocks_vectors_and_workspace(monkeypatch):
    # one mode, side 20 (nmax 19): ten even and ten odd states; the even
    # eigh holds the even block and four more even-sized matrices, 5 * 100
    # items, plus 512 items per row and 8 * 20 * (1 + 8) bytes
    assert rpa._fock_bytes(1, 19, 16) == 16 * (500 + 512 * 10) + 8 * 20 * 9
    # side 21 (nmax 20): eleven even states, ten odd; the odd eigh holds
    # 5 * 100 < 5 * 121, the even vectors being gone by then
    assert rpa._fock_bytes(1, 20, 8) == 8 * (605 + 512 * 11) + 8 * 21 * 9
    monkeypatch.setattr(rpa, "_FOCK_MAX_BYTES", rpa._fock_bytes(1, 19, 16))
    real = QuadraticBosonHamiltonian(0.0, np.array([[2.0]]), np.array([[0.1]]))
    cplx = QuadraticBosonHamiltonian(0.0, np.array([[2.0]]), np.array([[0.1j]]))
    assert len(fock_oracle(cplx, 19)) == 20  # at the limit
    with pytest.raises(ValueError, match="Fock matrix of side 21 "):
        fock_oracle(cplx, 20)
    limit = rpa._FOCK_MAX_BYTES
    top = max(n for n in range(1, 200) if rpa._fock_bytes(1, n, 8) <= limit)
    assert len(fock_oracle(real, top)) == top + 1  # floats: at or below it
    with pytest.raises(ValueError, match=f"Fock matrix of side {top + 2} "):
        fock_oracle(real, top + 1)


def traced_oracle(monkeypatch, modes, nmax, odd_lowest, scalar):
    """fock_oracle's tracemalloc peak on a weakly paired Hamiltonian, the
    odd block lowered by 1e9 in place when odd_lowest, and the parities of
    the blocks it builds, in order, the solved one last."""
    builds, solved = [], []  # (id, parity) of each block built; ids solved
    real_eigvalsh, real_build = np.linalg.eigvalsh, rpa._fock_block
    real_solve = rpa._banded_solve

    def eigvalsh(a):  # the even block comes first, the odd one second
        if odd_lowest and len(builds) == 2:  # lower the odd block itself
            a.reshape(-1)[::len(a) + 1] -= 1e9
        return real_eigvalsh(a)

    def fock_block(H, wcoeff, occ, nmax, states):
        block, width = real_build(H, wcoeff, occ, nmax, states)
        builds.append((id(block), int(states[0])))  # state 0 even, 1 odd
        return block, width

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    monkeypatch.setattr(rpa, "_fock_block", fock_block)
    monkeypatch.setattr(rpa, "_banded_solve", lambda a, b, w:
                        solved.append(id(a)) or real_solve(a, b, w))
    V = np.diag(1.0 + 0.3 * np.arange(modes))
    W = 0.02 * scalar * (np.ones((modes, modes)) + np.eye(modes))
    H = QuadraticBosonHamiltonian(0.3, V, W)
    tracemalloc.start()
    try:
        fock_oracle(H, nmax)
    except FockCutoffError:
        pass  # the forced odd ground state may touch the boundary
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert solved == [builds[-1][0]]  # the ground vector's block, built last
    return peak, [build[1] for build in builds]


@pytest.mark.parametrize("modes, nmax", [(1, 60), (2, 15), (2, 16), (3, 5)])
@pytest.mark.parametrize("odd_lowest", [False, True])
@pytest.mark.parametrize("scalar", [1.0, 1j])
def test_fock_limit_bounds_the_arrays_the_oracle_allocates(
        monkeypatch, modes, nmax, odd_lowest, scalar):
    # tracemalloc sees numpy's arrays (blocks, ground vector, tables), not
    # LAPACK's copies and work arrays, so this bounds the part of
    # _fock_bytes it can see, less three odd-sized matrices
    peak, parities = traced_oracle(monkeypatch, modes, nmax, odd_lowest, scalar)
    itemsize = 16 if scalar == 1j else 8
    no = (nmax + 1) ** modes // 2
    assert parities[-1] == int(odd_lowest)  # the ground vector's block
    assert peak <= rpa._fock_bytes(modes, nmax, itemsize) - 3 * itemsize * no * no


# sides where the blocks, not the fixed tables, make most of the peak
@pytest.mark.parametrize("modes, nmax", [(2, 15), (2, 16), (3, 7)])
@pytest.mark.parametrize("odd_lowest", [False, True])
@pytest.mark.parametrize("scalar", [1.0, 1j])
def test_the_oracle_never_holds_two_blocks(monkeypatch, modes, nmax,
                                          odd_lowest, scalar):
    # the even block is dropped before the odd one is built, and rebuilt
    # after the odd one is dropped when it is the lowest, so on either path
    # the peak stays below the two blocks together
    peak, parities = traced_oracle(monkeypatch, modes, nmax, odd_lowest, scalar)
    itemsize = 16 if scalar == 1j else 8
    side = (nmax + 1) ** modes
    no = side // 2
    ne = side - no
    assert parities == ([0, 1] if odd_lowest else [0, 1, 0])
    assert peak < (ne * ne + no * no) * itemsize


def test_fock_check_above_the_limit_is_a_usage_error(tmp_path, capsys):
    path = write_hamiltonian(tmp_path, [[1.0, 0.0], [0.0, 2.0]],
                             [[0.1, 0.0], [0.0, 0.1]])
    err = usage_error(capsys, ["rpa", "--input", path,
                               "--fock-check", str(10 ** 9)])
    assert err.startswith("usage: capelli rpa")
    assert "exceeds the 1 GiB limit" in err and "Traceback" not in err


def test_a_failed_fock_ground_vector_is_a_usage_error(tmp_path, capsys,
                                                     monkeypatch):
    path = write_hamiltonian(tmp_path, [[1.0, 0.0], [0.0, 2.0]],
                             [[0.1, 0.0], [0.0, 0.1]])
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: b)  # a wrong solve
    err = usage_error(capsys, ["rpa", "--input", path, "--fock-check", "6"])
    assert err.startswith("usage: capelli rpa")
    assert "--fock-check 6: Fock ground vector has residual" in err
    assert "Traceback" not in err


# ---- exact results above CPython's int-to-string digit limit ----

HAS_DIGIT_LIMIT = hasattr(sys, "get_int_max_str_digits")


def parse_any_size(text):
    """Fraction(text) with the digit limit lifted, then put back."""
    if not HAS_DIGIT_LIMIT:
        return Fraction(text)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return Fraction(text)
    finally:
        sys.set_int_max_str_digits(saved)


def test_exact_value_above_the_digit_limit_is_written(capsys):
    # <z^1600 | z^1600> = 1600!, a 14,729-bit integer of 4,434 digits
    argv = ["norm", "--type", "I", "--N", "1", "--nu", "1600", "--oracle"]
    limit = sys.get_int_max_str_digits() if HAS_DIGIT_LIMIT else None
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    expected = norm_closed_form(ExtremalLabel(AlgebraKind.type_i(1, 1), (1600,)))
    assert parse_any_size(doc["value"]) == expected
    assert doc["match"] is True
    assert main(argv + ["--pretty"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == doc["value"] and lines[1].endswith("(match)")
    if HAS_DIGIT_LIMIT:  # the process-wide limit is put back
        assert sys.get_int_max_str_digits() == limit


@pytest.mark.skipif(not HAS_DIGIT_LIMIT, reason="no int-string digit limit")
@pytest.mark.parametrize("argv", [
    ["norm", "--type", "I", "--N", "1", "--nu", "9" * 5000],
    ["matel", "--type", "I", "--N", "2", "--nu", "1", "--k", "9" * 5000],
    ["export", "--type", "I", "--N", "1", "--dmax", "1", "--k", "9" * 5000],
])
def test_huge_input_numbers_are_still_refused(capsys, argv):
    err = usage_error(capsys, argv)
    assert "Traceback" not in err and capsys.readouterr().out == ""


@pytest.mark.skipif(not HAS_DIGIT_LIMIT, reason="no int-string digit limit")
@pytest.mark.parametrize("argv", [
    ["norm", "--type", "I", "--N", "1", "--nu", "9" * 5000],
    ["matel", "--type", "I", "--N", "2", "--nu", "1", "--k", "9" * 5000],
    ["export", "--type", "I", "--N", "1", "--dmax", "1", "--k", "9" * 5000],
])
def test_a_refused_huge_number_is_quoted_short(capsys, argv):
    err = usage_error(capsys, argv)
    assert len(err.encode()) < 400 and "'99999" in err and "..." in err


# ---- a decimal exponent in --k is bounded like the digits are ----

@pytest.mark.parametrize("k", ["1e4301", "1e100000000", "-2.5E-100000000"])
@pytest.mark.parametrize("argv", [
    ["verify", "--type", "I", "--N", "2", "--identity", "contraction",
     "--dmax", "1"],
    ["export", "--type", "I", "--N", "1", "--dmax", "0"],
])
def test_a_huge_exponent_in_k_is_refused(capsys, argv, k):
    # Fraction would expand 10^N in full: at N = 10^8 that runs for minutes
    err = usage_error(capsys, argv + [f"--k={k}"])
    assert f"exponent above 4300: {k!r}" in err and "Traceback" not in err
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("text, value", [
    ("1/3", Fraction(1, 3)), ("0.25", Fraction(1, 4)),
    ("2.5e-2", Fraction(1, 40)), ("1e3", Fraction(1000)),
    ("-1E+0004300", -Fraction(10) ** 4300), ("1e-4300", Fraction(10) ** -4300),
])
def test_k_at_or_below_the_exponent_bound_parses_exactly(text, value):
    assert _parse_rational(text) == value


# ---- powers past the packed exponent range ----

def test_norm_refuses_an_overflowing_power_at_once(capsys, monkeypatch):
    def fuse(label):
        raise AssertionError("closed form expanded before the refusal")

    monkeypatch.setattr("capelli.cli.norm_closed_form", fuse)
    err = usage_error(capsys, ["norm", "--type", "I", "--N", "2", "--nu",
                               "2147483648,0", "--oracle"])
    assert "exceeds 2147483647" in err and "Traceback" not in err


def test_a_monomial_power_at_the_exponent_limit_is_formed_at_once(capsys):
    # the state z[1,1]^(2^31 - 1) took 2^31 - 1 products before the closed
    # form refused its weight; a one-term power is one step
    start = time.perf_counter()
    err = usage_error(capsys, ["norm", "--type", "I", "--N", "3", "--nu",
                               "2147483647", "--oracle"])
    assert time.perf_counter() - start < 1.0
    assert err.endswith("weight too large for the closed form: it expands "
                        f"factorials past {extremal._NORM_MAX_FACTORIAL}\n")
    start = time.perf_counter()
    assert main(["extremal", "--type", "I", "--N", "1", "--nu",
                 "2147483647"]) == 0
    assert time.perf_counter() - start < 1.0
    out = json.loads(capsys.readouterr().out)
    assert out["polynomial"] == "1 * z[1,1]^2147483647"


# ---- closed forms past the factorial bound ----

@pytest.mark.parametrize("argv", [
    ["norm", "--type", "I", "--N", "2", "--nu", "2147483648,0"],
    ["matel", "--type", "I", "--N", "2", "--nu", "2147483648,0", "--k", "1"],
])
def test_a_closed_form_past_the_factorial_bound_is_refused_at_once(capsys, argv):
    # factorials of 2^31 would take gigabytes; the weight is refused first
    start = time.perf_counter()
    err = usage_error(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert err.endswith("weight too large for the closed form: it expands "
                        f"factorials past {extremal._NORM_MAX_FACTORIAL}\n")
    assert "Traceback" not in err and capsys.readouterr().out == ""


def test_the_closed_form_expands_factorials_up_to_the_bound():
    top = extremal._NORM_MAX_FACTORIAL
    kind = AlgebraKind.type_i(2, 2)
    # nu_1 + (L - 1) is the largest factorial argument: <z^top | z^top> = top!
    # at L = 1, (top - 1)! at L = 2 with nu = (top - 1, 0)
    assert norm_closed_form(ExtremalLabel(kind, (top,))) == factorial(top)
    assert norm_closed_form(ExtremalLabel(kind, (top - 1, 0))) == factorial(top - 1)
    with pytest.raises(ValueError, match="weight too large"):
        norm_closed_form(ExtremalLabel(kind, (top, 0)))
    with pytest.raises(ValueError, match="weight too large"):
        norm_closed_form(ExtremalLabel(kind, (top + 1,)))


def test_the_factorial_bound_is_accepted_on_the_command_line(capsys):
    top = extremal._NORM_MAX_FACTORIAL
    assert main(["norm", "--type", "I", "--N", "1", "--nu", str(top)]) == 0
    assert parse_any_size(json.loads(capsys.readouterr().out)["value"]) == \
        factorial(top)
