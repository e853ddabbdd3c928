"""main writes each rendered document as soon as it exists: export's lines
one matrix at a time, to stdout or --output alike, and _dumps renders
exactly what json.dumps does with the cycle check on."""

import io
import json
import sys
from fractions import Fraction

import pytest

import capelli.cli as cli
from capelli.algebra import AlgebraKind
from capelli.cli import _dumps, main
from capelli.contraction import SparseRepMatrix, build_rep_matrices, \
    default_generators
from capelli.determinants import capelli_shift, verify_capelli


class RecordingStdout(io.StringIO):
    """stdout that notes, at each write of a line, how many to_json calls
    were made so far."""

    def __init__(self, calls: list):
        super().__init__()
        self.calls = calls
        self.seen = []

    def write(self, text):
        if text != "\n":
            self.seen.append(len(self.calls))
        return super().write(text)


@pytest.mark.parametrize("kind, argv", [
    (AlgebraKind.type_i(2, 3), ["--type", "I", "--p", "2", "--q", "3"]),
    (AlgebraKind.type_ii(3), ["--type", "II", "--N", "3"]),
    (AlgebraKind.type_iii(4), ["--type", "III", "--N", "4"]),
])
def test_each_export_line_is_written_before_the_next_matrix(
        monkeypatch, tmp_path, kind, argv):
    calls = []
    to_json = SparseRepMatrix.to_json

    def counted_to_json(self):
        calls.append(1)
        return to_json(self)

    monkeypatch.setattr(SparseRepMatrix, "to_json", counted_to_json)
    stdout = RecordingStdout(calls)
    monkeypatch.setattr(sys, "stdout", stdout)
    argv = ["export", *argv, "--dmax", "3"]
    assert main(argv) == 0
    count = len(default_generators(kind))
    assert stdout.seen == list(range(1, count + 1))
    matrices = build_rep_matrices(kind, default_generators(kind), 3)
    expected = "".join(_dumps(to_json(m)) + "\n" for m in matrices)
    assert stdout.getvalue() == expected
    out = tmp_path / "export.jsonl"
    assert main(argv + ["--output", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == expected


# ---- _dumps renders what json.dumps renders ----

@pytest.fixture
def rendered(monkeypatch):
    """Every document main hands to _dumps, in order."""
    docs = []

    def recording(doc):
        docs.append(doc)
        return _dumps(doc)

    monkeypatch.setattr(cli, "_dumps", recording)
    return docs


def assert_renders_as_json_dumps(docs, out):
    assert docs
    for doc in docs:
        assert _dumps(doc) == json.dumps(doc, separators=(",", ":"))
    assert out == "".join(_dumps(doc) + "\n" for doc in docs)


def test_a_failing_verify_report(monkeypatch, capsys, rendered):
    I23 = AlgebraKind.type_i(2, 3)
    shifts = (capelli_shift(I23, "DX", 2, 1), capelli_shift(I23, "DX", 2, 2) - 1)
    monkeypatch.setattr(cli, "verify_capelli",
                        lambda kind, n, side, dmax, jobs:
                        verify_capelli(kind, n, side, dmax, jobs, shifts))
    assert main(["verify", "--type", "I", "--p", "2", "--q", "3", "--n", "2",
                 "--variant", "DX", "--dmax", "3"]) == 1
    assert rendered[0]["reports"][0]["failures"]
    assert_renders_as_json_dumps(rendered, capsys.readouterr().out)


@pytest.mark.parametrize("argv", [
    ["norm", "--type", "III", "--N", "4", "--nu", "2,2,1,1", "--oracle"],
    ["export", "--type", "I", "--N", "3", "--dmax", "2", "--k", "1/2"],
], ids=["norm", "export-fractions"])
def test_a_document_of_each_command(capsys, rendered, argv):
    assert main(argv) == 0
    assert_renders_as_json_dumps(rendered, capsys.readouterr().out)
    if argv[0] == "export":
        assert any("/" in value for doc in rendered
                   for _, _, value in doc["triplets"])


def test_an_rpa_document_with_complex_pairs(tmp_path, capsys, rendered):
    path = tmp_path / "c2.json"
    path.write_text(json.dumps({
        "E0": 0.1,
        "V": [[[1.0, 0.0], [0.2, 0.1]], [[0.2, -0.1], [1.4, 0.0]]],
        "W": [[[0.05, 0.02], [0.0, 0.03]], [[0.0, 0.03], [-0.04, 0.01]]]}))
    assert main(["rpa", "--input", str(path)]) == 0
    assert_renders_as_json_dumps(rendered, capsys.readouterr().out)
    X = rendered[0]["X"]
    assert all(len(pair) == 2 and isinstance(pair[1], float)
               for row in X for pair in row)


def test_an_export_line_with_an_int_past_the_digit_limit(monkeypatch, capsys,
                                                         rendered):
    big = 7 ** 5200
    matrix = SparseRepMatrix(name="Z[1,1]", kind_label="II(2)", basis_degree=1,
                             dim=2, entries={(0, 1): big, (1, 0): Fraction(-2, 3)},
                             overflow_count=0)
    monkeypatch.setattr(cli, "_rep_matrices", lambda kind, gens, d: iter([matrix]))
    # to_json and _dumps run while main writes, under its lifted digit limit
    assert main(["export", "--type", "II", "--N", "2", "--dmax", "1"]) == 0
    out = capsys.readouterr().out
    with cli._any_size_ints():
        assert len(str(big)) == 4395
        assert rendered == [{"name": "Z[1,1]", "basis_degree": 1,
                             "triplets": [[0, 1, str(big)], [1, 0, "-2/3"]],
                             "overflow_count": 0}]
        assert_renders_as_json_dumps(rendered, out)
