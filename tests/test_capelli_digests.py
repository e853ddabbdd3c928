"""Default stdout of the five Capelli sweeps at benchmark size is
byte-identical to a recorded reference.

tests/test_cli_digests.py pins the Capelli sweeps at small sizes; these pin
the sizes the `capelli` workload measures: the XD sweep of III(6) at dmax 2,
the DX sweep of I(4,4) at dmax 3 under --jobs 1 and again under --jobs 2
(one digest for both), the DX sweep of II(4) at dmax 3, and both variants
of II(3) at dmax 4.  Each SHA-256 is the one bench/expected.json records
for the operation.
"""

import hashlib

import pytest

from capelli.cli import main

I44_DX = "2ba91a9496124bdced9008984db7801ac808ce757ff36eb2538e22698a45159e"

DIGESTS = [
    (["verify", "--type", "III", "--N", "6", "--n", "6", "--variant", "XD",
      "--dmax", "2", "--jobs", "1"],
     "ea178a8e3d5309a3342aeb3886bf850bc4881e673edc5b73946bc7022f1f09d8"),
    (["verify", "--type", "I", "--N", "4", "--n", "4", "--variant", "DX",
      "--dmax", "3", "--jobs", "1"], I44_DX),
    (["verify", "--type", "I", "--N", "4", "--n", "4", "--variant", "DX",
      "--dmax", "3", "--jobs", "2"], I44_DX),
    (["verify", "--type", "II", "--N", "4", "--n", "4", "--variant", "DX",
      "--dmax", "3", "--jobs", "1"],
     "b49ec8b178653e3f843aaf762a64adccef61fe2c2a84613348c17bb398909884"),
    (["verify", "--type", "II", "--N", "3", "--n", "3", "--dmax", "4",
      "--jobs", "1"],
     "8e0d4bb3e9f7b4521c39998dccc016db3aab056c5010fcd0cf29b7fe8508d43b"),
]


@pytest.mark.parametrize("argv,digest", DIGESTS,
                         ids=[" ".join(argv) for argv, _ in DIGESTS])
def test_default_stdout_digest_at_benchmark_size(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
