"""Refusals and output branches that no other test reaches."""

import json

import numpy as np
import pytest

from capelli.algebra import AlgebraKind, variable
from capelli.cli import main
from capelli.determinants import apply_L, apply_R, pfaffian_value
from capelli.rpa import QuadraticBosonHamiltonian, fock_oracle


def usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_a_negative_power_is_refused():
    with pytest.raises(ValueError, match="negative power"):
        variable(AlgebraKind.type_i(2, 2), 1, 1) ** -1


def test_pfaffian_value_refuses_a_non_square_matrix():
    with pytest.raises(ValueError, match="not square"):
        pfaffian_value([[0, 1], [-1]])


def test_apply_L_refuses_a_kind_II_polynomial():
    with pytest.raises(ValueError, match="kind I"):
        apply_L(variable(AlgebraKind.type_ii(2), 1, 2), 1, 2)


def test_apply_R_refuses_a_column_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        apply_R(variable(AlgebraKind.type_i(2, 3), 1, 1), 1, 4)


def test_kind_II_without_N_is_a_usage_error(capsys):
    err = usage_error(capsys, ["extremal", "--type", "II", "--nu", "2"])
    assert "kind II needs --N" in err


def test_matel_oracle_of_a_vanishing_step(capsys):
    assert main(["matel", "--type", "I", "--N", "2", "--nu", "1,1", "--k", "2",
                 "--oracle"]) == 0
    assert '"oracle_squared":"0","match":true' in capsys.readouterr().out


def test_rpa_writes_a_nearly_real_complex_result_as_reals(tmp_path, capsys):
    # W's imaginary part of 1e-13 leaves X and Y complex, with imaginary
    # parts below 1e-12, which the output drops
    docs = []
    for W in ([[[0.5, 1e-13]]], [[0.5]]):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"E0": 0.0, "V": [[2.0]], "W": W}))
        assert main(["rpa", "--input", str(path)]) == 0
        docs.append(json.loads(capsys.readouterr().out))
    for key in ("X", "Y"):
        assert all(isinstance(x, float) for row in docs[0][key] for x in row)
        assert np.allclose(docs[0][key], docs[1][key], atol=1e-12)


@pytest.mark.parametrize("nmax", ["4", "100000"])
def test_fock_check_of_an_unstable_hamiltonian(tmp_path, capsys, nmax):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"E0": 0.0, "V": [[1.0]], "W": [[1.0]]}))
    err = usage_error(capsys, ["rpa", "--input", str(path), "--fock-check", nmax])
    assert f"--fock-check {nmax}: Fock oracle needs a stable Hamiltonian" in err
    assert "Traceback" not in err
    assert capsys.readouterr().out == ""


def test_the_oracle_reports_instability_before_size():
    H = QuadraticBosonHamiltonian(0.0, np.array([[1.0]]), np.array([[1.0]]))
    with pytest.raises(ValueError, match="stable Hamiltonian"):
        fock_oracle(H, 100000)
