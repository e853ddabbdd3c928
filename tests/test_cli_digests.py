"""Default CLI stdout is byte-identical to a recorded reference.

Each SHA-256 below is the digest of the command's default (JSON/JSONL)
stdout, recorded before the sweep engine, the shared determinant and
Pfaffian expansions and the CLI plumbing were merged.  A refactor that
changes any byte of these outputs fails here.
"""

import hashlib

import pytest

from capelli.cli import main

DIGESTS = [
    (["verify", "--type", "II", "--N", "3", "--n", "3", "--variant", "XD",
      "--dmax", "3"],
     "3ae4440ea2000769aac36b1f1aedbbf9da1374681ad2df09a7cf3505b4b47cd2"),
    (["verify", "--type", "I", "--p", "2", "--q", "3", "--n", "2",
      "--variant", "DX", "--dmax", "2"],
     "d415b47d60ac0c3be49111664fed59b484fb9a8b5e7beb7957bad176c7a39579"),
    (["verify", "--type", "III", "--N", "4", "--n", "4", "--dmax", "2"],
     "a0411c03ef0fa8eb2ca4972ce545aa7b3664de0e7f989f48a36fe64996efbc1f"),
    (["verify", "--type", "III", "--N", "3", "--identity", "heisenberg",
      "--dmax", "2"],
     "fee7ba181e478c34b77dadaab4d393f59d06394da63609035355c106dca63ab0"),
    (["verify", "--type", "II", "--N", "2", "--identity", "contraction",
      "--dmax", "2", "--k", "1/3"],
     "618687118ebfcc7129738a7f31fa95e0ebf1dec0994c63b4ebeb41369e487903"),
    (["export", "--type", "II", "--N", "2", "--dmax", "2", "--k", "1/2"],
     "38189a08ec3ad77d8b54c13f846372b898d798595c370a0542b0f4340e59bef3"),
    (["norm", "--type", "I", "--N", "3", "--nu", "3,2,1", "--oracle"],
     "891b6822e743df561f0466f7cf9c9632b1ea89647bb4b7d2603fe5fdd357e8c6"),
    (["matel", "--type", "III", "--N", "4", "--nu", "2,2,1,1", "--k", "2",
      "--oracle"],
     "035a08252da074dc298a000ab17b68c4a262da56dbdc537ef1809f3b5f478345"),
    (["verify", "--type", "I", "--N", "3", "--n", "3", "--variant", "DX",
      "--dmax", "2", "--jobs", "2"],
     "cf460f34625e89908801b385b8d5954022543ecadac1dbf739f8313676f07883"),
]


@pytest.mark.parametrize("argv,digest", DIGESTS,
                         ids=[" ".join(argv) for argv, _ in DIGESTS])
def test_default_stdout_digest(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
