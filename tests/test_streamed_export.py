"""export builds and writes one generator's matrix at a time, with the same
lines as build_rep_matrices, and a refused export writes nothing."""

import weakref
from fractions import Fraction

import pytest

from capelli.algebra import AlgebraKind
from capelli.cli import _dumps, main
from capelli.contraction import SparseRepMatrix, _rep_matrices, \
    build_rep_matrices, default_generators


@pytest.mark.parametrize("kind, k, argv", [
    (AlgebraKind.type_i(2, 3), 1, ["--type", "I", "--p", "2", "--q", "3"]),
    (AlgebraKind.type_ii(3), Fraction(1, 2),
     ["--type", "II", "--N", "3", "--k", "1/2"]),
    (AlgebraKind.type_iii(4), 1, ["--type", "III", "--N", "4"]),
])
def test_export_holds_one_matrix_at_a_time(capsys, monkeypatch, kind, k, argv):
    # a weak reference to every matrix made (the dataclass is unhashable, so
    # no WeakSet), and how many were alive at each to_json call
    made, seen = [], []
    init, to_json = SparseRepMatrix.__init__, SparseRepMatrix.to_json

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    def counted_to_json(self):
        seen.append(sum(ref() is not None for ref in made))
        return to_json(self)

    monkeypatch.setattr(SparseRepMatrix, "__init__", tracked_init)
    monkeypatch.setattr(SparseRepMatrix, "to_json", counted_to_json)
    assert main(["export", *argv, "--dmax", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    gens = default_generators(kind, k)
    assert seen == [1] * len(gens)
    assert lines == [_dumps(to_json(m))
                     for m in build_rep_matrices(kind, gens, 3)]


def test_a_bad_degree_is_refused_before_any_matrix():
    kind = AlgebraKind.type_ii(2)
    with pytest.raises(ValueError, match="dmax must be >= 0"):
        _rep_matrices(kind, default_generators(kind), -1)  # not iterated


@pytest.mark.parametrize("argv", [
    ["export", "--type", "II", "--N", "2", "--dmax", "-1"],
    ["export", "--type", "I", "--p", "2", "--q", "3", "--dmax", "-2",
     "--k", "1/2"],
    ["export", "--type", "II", "--p", "2", "--dmax", "2"],
])
@pytest.mark.parametrize("to_file", [False, True])
def test_a_refused_export_writes_nothing(capsys, tmp_path, argv, to_file):
    out = tmp_path / "f.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--output", str(out)] if to_file else []))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert not out.exists()
