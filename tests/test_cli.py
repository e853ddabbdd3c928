"""Command line interface: JSON contracts, exit codes, determinism."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

import capelli.cli as cli
from capelli.cli import JOBS_ENV, build_parser, main
from capelli.report import Report


def run_cli(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


# ---- verify ----

def test_verify_capelli_json(capsys):
    rc, out = run_cli(capsys, ["verify", "--type", "II", "--N", "2",
                               "--n", "2", "--dmax", "2"])
    assert rc == 0
    doc = json.loads(out)
    assert [r["variant"] for r in doc["reports"]] == ["XD", "DX"]
    for r in doc["reports"]:
        assert r["identity"] == "capelli"
        assert r["kind"] == "II(2)"
        assert r["checked_count"] == 10 and r["failures"] == []


def test_verify_pretty(capsys):
    rc, out = run_cli(capsys, ["verify", "--type", "I", "--N", "2",
                               "--n", "1", "--dmax", "2", "--pretty"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert all(line.endswith("PASS") for line in lines)
    assert "capelli I(2,2)" in lines[0]


def test_verify_heisenberg(capsys):
    rc, out = run_cli(capsys, ["verify", "--type", "III", "--N", "3",
                               "--identity", "heisenberg", "--dmax", "2"])
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["reports"]) == 1
    assert doc["reports"][0]["identity"] == "heisenberg"


def test_verify_contraction_rational_k(capsys):
    rc, out = run_cli(capsys, ["verify", "--type", "II", "--N", "2",
                               "--identity", "contraction", "--dmax", "1",
                               "--k", "1/3"])
    assert rc == 0
    assert json.loads(out)["reports"][0]["k"] == "1/3"


def test_verify_usage_errors(capsys):
    err = usage_error(capsys, ["verify", "--type", "I", "--N", "2",
                               "--dmax", "2"])
    assert "--n is required" in err
    err = usage_error(capsys, ["verify", "--type", "I", "--N", "2",
                               "--n", "5", "--dmax", "2"])
    assert "exceeds the minor range 2 of I(2,2)" in err
    usage_error(capsys, ["verify", "--type", "I", "--N", "2",
                         "--identity", "heisenberg", "--variant", "XD",
                         "--dmax", "2"])
    usage_error(capsys, ["verify", "--type", "I", "--N", "2",
                         "--identity", "heisenberg", "--k", "2", "--dmax", "2"])
    usage_error(capsys, ["verify", "--type", "I", "--dmax", "2", "--n", "1"])
    usage_error(capsys, ["verify", "--type", "II", "--N", "2", "--p", "2",
                         "--n", "1", "--dmax", "2"])
    usage_error(capsys, ["verify", "--type", "III", "--N", "4", "--n", "3",
                         "--dmax", "2"])  # odd block size rejected


def test_verify_exit_code_on_failures(capsys, monkeypatch):
    broken = Report(identity="capelli", kind="I(2,2)",
                    params={"n": 1, "variant": "XD", "dmax": 1},
                    checked_count=1,
                    failures=[{"monomial": "1", "lhs": "0", "rhs": "1"}])
    monkeypatch.setattr(cli, "verify_capelli", lambda *a, **k: broken)
    rc, out = run_cli(capsys, ["verify", "--type", "I", "--N", "2",
                               "--n", "1", "--variant", "XD", "--dmax", "1"])
    assert rc == 1
    assert json.loads(out)["reports"][0]["failures"]


def test_verify_jobs_deterministic(capsys):
    argv = ["verify", "--type", "II", "--N", "2", "--n", "2", "--dmax", "3"]
    _, out1 = run_cli(capsys, argv + ["--jobs", "1"])
    _, out2 = run_cli(capsys, argv + ["--jobs", "2"])
    assert out1 == out2


def test_jobs_env_default(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "7")
    args = build_parser().parse_args(
        ["verify", "--type", "I", "--N", "2", "--n", "1", "--dmax", "1"])
    assert args.jobs == 7
    monkeypatch.setenv(JOBS_ENV, "not-a-number")
    args = build_parser().parse_args(
        ["verify", "--type", "I", "--N", "2", "--n", "1", "--dmax", "1"])
    assert args.jobs == 1


# ---- norm / matel / extremal ----

def test_norm_json_bytes(capsys):
    rc, out = run_cli(capsys, ["norm", "--type", "I", "--N", "2",
                               "--nu", "2,1", "--oracle"])
    assert rc == 0
    assert out == ('{"kind":"I(2,2)","nu":[2,1],"value":"3",'
                   '"oracle":"3","match":true}\n')


def test_norm_pretty(capsys):
    rc, out = run_cli(capsys, ["norm", "--type", "I", "--N", "2",
                               "--nu", "2,1", "--oracle", "--pretty"])
    assert rc == 0
    assert out == "3\noracle 3 (match)\n"


def test_an_oracle_mismatch_is_recorded_and_printed():
    # norm and matel share the oracle fields; no closed form misses its
    # oracle, so the MISMATCH branch is reached only directly
    doc, lines = {"value": "2"}, ["2"]
    cli._add_oracle(doc, lines, "oracle_squared", Fraction(3), Fraction(2))
    assert list(doc.items()) == [("value", "2"), ("oracle_squared", "3"),
                                 ("match", False)]
    assert lines == ["2", "oracle squared 3 (MISMATCH)"]


def test_norm_rejects_bad_weight(capsys):
    err = usage_error(capsys, ["norm", "--type", "II", "--N", "2", "--nu", "1"])
    assert "even" in err
    usage_error(capsys, ["norm", "--type", "I", "--N", "2", "--nu", "1,x"])


def test_matel_json(capsys):
    rc, out = run_cli(capsys, ["matel", "--type", "II", "--N", "2",
                               "--nu", "", "--k", "1", "--oracle"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["coeff"] == "1" and doc["radicand"] == "2"
    assert doc["oracle_squared"] == "2" and doc["match"] is True


def test_matel_pretty_vanishing(capsys):
    rc, out = run_cli(capsys, ["matel", "--type", "I", "--N", "2",
                               "--nu", "1,1", "--k", "2", "--pretty"])
    assert rc == 0
    assert out == "0\n"
    rc, out = run_cli(capsys, ["matel", "--type", "I", "--N", "2",
                               "--nu", "1", "--k", "1", "--pretty"])
    assert out == "1*sqrt(2)\n"


def test_matel_out_of_range(capsys):
    err = usage_error(capsys, ["matel", "--type", "I", "--N", "2",
                               "--nu", "1", "--k", "3"])
    assert "out of range" in err


def test_extremal_output(capsys):
    rc, out = run_cli(capsys, ["extremal", "--type", "III", "--N", "4",
                               "--nu", "1,1,1,1", "--pretty"])
    assert rc == 0
    assert out == ("1 * z[1,2]^1 * z[3,4]^1 - 1 * z[1,3]^1 * z[2,4]^1 "
                   "+ 1 * z[1,4]^1 * z[2,3]^1\n")
    rc, out = run_cli(capsys, ["extremal", "--type", "I", "--N", "2",
                               "--nu", "1"])
    assert json.loads(out) == {"kind": "I(2,2)", "nu": [1],
                               "polynomial": "1 * z[1,1]^1"}


# ---- export ----

def test_export_jsonl(tmp_path, capsys):
    out_path = tmp_path / "mats.jsonl"
    rc, _ = run_cli(capsys, ["export", "--type", "II", "--N", "2",
                             "--dmax", "1", "--output", str(out_path)])
    assert rc == 0
    lines = out_path.read_text().strip().split("\n")
    docs = [json.loads(line) for line in lines]
    assert [d["name"] for d in docs] == \
        ["E[1,1]", "E[1,2]", "E[2,1]", "E[2,2]",
         "Z[1,1]", "Z[1,2]", "Z[2,2]", "D[1,1]", "D[1,2]", "D[2,2]",
         "identity"]
    assert docs[0] == {"name": "E[1,1]", "basis_degree": 1,
                       "triplets": [[1, 1, "2"], [2, 2, "1"]],
                       "overflow_count": 0}
    for d in docs:
        assert d["overflow_count"] == (3 if d["name"].startswith("Z") else 0)


def test_export_deterministic(capsys):
    argv = ["export", "--type", "I", "--N", "2", "--dmax", "2", "--k", "1/3"]
    _, out1 = run_cli(capsys, argv)
    _, out2 = run_cli(capsys, argv)
    assert out1 == out2
    docs = [json.loads(line) for line in out1.strip().split("\n")]
    zdoc = next(d for d in docs if d["name"] == "Z[1,1]")
    assert zdoc["triplets"][0][2] == "1/3"


# ---- rpa ----

def write_hamiltonian(tmp_path, V, W, e0=0.0):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"E0": e0, "V": V, "W": W}))
    return str(path)


def test_rpa_stable_with_fock_check(tmp_path, capsys):
    path = write_hamiltonian(tmp_path, [[2.0]], [[0.5]])
    rc, out = run_cli(capsys, ["rpa", "--input", path, "--fock-check", "30"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["arithmetic"] == "float64" and doc["stable"] is True
    assert abs(doc["frequencies"][0] - 3 ** 0.5) < 1e-10
    assert doc["fock_max_deviation"] < 1e-8
    assert len(doc["raw_eigenvalues"]) == 2


def test_rpa_unstable(tmp_path, capsys):
    path = write_hamiltonian(tmp_path, [[1.0]], [[1.0]])
    rc, out = run_cli(capsys, ["rpa", "--input", path])
    assert rc == 0
    doc = json.loads(out)
    assert doc["stable"] is False and doc["X"] is None
    imag = sorted(w[1] for w in doc["raw_eigenvalues"])
    assert abs(imag[1] - 3 ** 0.5) < 1e-10


def test_rpa_direct_convention(tmp_path, capsys):
    path = write_hamiltonian(tmp_path, [[2.0]], [[1.0]])
    rc, out = run_cli(capsys, ["rpa", "--input", path,
                               "--b-convention", "direct"])
    assert rc == 0
    assert abs(json.loads(out)["frequencies"][0] - 3 ** 0.5) < 1e-10


def test_rpa_bad_input(tmp_path, capsys):
    err = usage_error(capsys, ["rpa", "--input", str(tmp_path / "missing.json")])
    assert "bad --input" in err
    path = tmp_path / "broken.json"
    path.write_text('{"E0": 0.0, "V": [[1.0]]}')
    err = usage_error(capsys, ["rpa", "--input", str(path)])
    assert "bad --input" in err


def test_rpa_pretty(tmp_path, capsys):
    path = write_hamiltonian(tmp_path, [[2.0]], [[0.5]])
    rc, out = run_cli(capsys, ["rpa", "--input", path, "--pretty"])
    assert rc == 0
    assert out.startswith("stable: True\nfrequencies: 1.73205080757")


# ---- whole program ----

def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "capelli.cli", "norm", "--type", "III",
         "--N", "4", "--nu", "1,1,1,1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == "3"
