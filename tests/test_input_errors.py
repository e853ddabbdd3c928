"""Inputs that would check nothing or end in a traceback are refused."""

import json

import numpy as np
import pytest

from capelli.algebra import AlgebraKind, check_heisenberg, monomials_upto
from capelli.cli import main
from capelli.contraction import build_rep_matrices, default_generators, \
    verify_contraction
from capelli.determinants import verify_capelli
from capelli.rpa import FockCutoffError, QuadraticBosonHamiltonian, fock_oracle

II2 = AlgebraKind.type_ii(2)


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
