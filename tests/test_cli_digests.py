"""Default CLI stdout is byte-identical to a recorded reference.

Each SHA-256 below is the digest of the command's default (JSON/JSONL)
stdout, recorded before the sweep engine, the shared determinant and
Pfaffian expansions and the CLI plumbing were merged.  A refactor that
changes any byte of these outputs fails here.
"""

import hashlib
import json

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


# Default stdout of the exact-state paths (matrix export, extremal norms and
# matrix elements with their oracles), recorded before exponents were read
# byte-wise, Bargmann pairings summed in integers and the export built in
# one pass over the batch image.
STATE_DIGESTS = [
    (["export", "--type", "I", "--p", "2", "--q", "3", "--dmax", "3",
      "--k=-2/3"],
     "c57d422b9b9332ba5520c5ecf3805bd04a2366eff35ae5d74a34265a952d8067"),
    (["export", "--type", "III", "--N", "4", "--dmax", "3"],
     "ebd7eb5842d33312e38a4d2ca43012be05b0e22d79f94d0a6b566fc39b48aa04"),
    (["export", "--type", "II", "--N", "3", "--dmax", "3"],
     "c9ddf73b57d83471b02c8ac1d01410c5f6bee5df669a9e7b1c8ed90762e2e4e2"),
    (["norm", "--type", "II", "--N", "4", "--nu", "6,6,6,4", "--oracle"],
     "8614045b6b1821e0dfffd503db7b8b50827f8de4054f32ae7a01b86ac927e4de"),
    (["norm", "--type", "III", "--N", "6", "--nu", "3,3,2,2,1,1",
      "--oracle"],
     "d5594b1ad71422188da9b1f7815075d90defdf4c41278f1ac29eb1a2d06a8cc5"),
    (["matel", "--type", "I", "--N", "3", "--nu", "3,2,1", "--k", "2",
      "--oracle"],
     "6a4789d1352b18146d469c6d59d1e1ce806e1b92ae195eae29bb9fabd88c60c2"),
]


# Both Capelli variants swept above n (924 monomials of degree <= 6 at
# n = 3 and 4), where a symbol's degree range stops at n, not at dmax;
# recorded before each symbol read that range from its own keys.
ABOVE_N_DIGESTS = [
    (["verify", "--type", "II", "--N", "3", "--n", "3", "--dmax", "6"],
     "c61cd10e98c5c886f9d9a487f9fa7ba611b20549e0122a967f65c62deb8f803d"),
    (["verify", "--type", "III", "--N", "4", "--n", "4", "--dmax", "6"],
     "0e95f0dd38461dddad3cf5fe0ff1e83000e7f8f3c5d1b78626e5414c4dd2b622"),
]

DEFAULT_DIGESTS = DIGESTS + STATE_DIGESTS + ABOVE_N_DIGESTS


@pytest.mark.parametrize(
    "argv,digest", DEFAULT_DIGESTS,
    ids=[" ".join(argv) for argv, _ in DEFAULT_DIGESTS])
def test_default_stdout_digest(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# --pretty stdout, recorded before the subcommands returned their results
# to main instead of writing them.  The rpa case reads this Hamiltonian from
# a file; at NMAX 12 its Fock deviation (1.860e-08) is truncation error, so
# the rendered digits do not depend on floating-point rounding.
HAMILTONIAN = {"E0": 0.0, "V": [[2.0, 0.3], [0.3, 1.5]],
               "W": [[0.3, 0.1], [0.1, 0.25]]}

PRETTY_DIGESTS = [
    (["verify", "--type", "II", "--N", "2", "--n", "2", "--dmax", "2",
      "--pretty"],
     "660ab7e56a4526f54e6a66f6adf4903d0b5ce48fc94cd085f5d7a902eecfc54e"),
    (["verify", "--type", "III", "--N", "3", "--identity", "heisenberg",
      "--dmax", "2", "--pretty"],
     "69297e40d2abde4db29bd78d3657e93f3324e637d11d9e58bf11192648a36c64"),
    (["verify", "--type", "II", "--N", "2", "--identity", "contraction",
      "--dmax", "2", "--k", "1/3", "--pretty"],
     "23a5c55754bd1db6494d1ec52e721b9b34a7c3eda85b30bc3000151a7df56667"),
    (["norm", "--type", "I", "--N", "3", "--nu", "3,2,1", "--oracle",
      "--pretty"],
     "abd3c82cf6660314d926451c45f28b6c0ad0f239fbf36110f3989e860f70b298"),
    (["matel", "--type", "III", "--N", "4", "--nu", "2,2,1,1", "--k", "2",
      "--oracle", "--pretty"],
     "3131fdcba168a8bf405b034df99ae30919a633641de46f0a2e65a08dd388fd96"),
    (["extremal", "--type", "I", "--p", "2", "--q", "3", "--nu", "2,1",
      "--pretty"],
     "e8533535b4ea6e4574ea8c36bca49752c6ecdcd829ee4fda5e0d10da5c9d09bc"),
    (["rpa", "--fock-check", "12", "--pretty"],
     "95bb9b9d4bf61840050770c1128d6304ae81fae315aa3bc9b07e146760de48ee"),
]


@pytest.mark.parametrize("argv,digest", PRETTY_DIGESTS,
                         ids=[" ".join(argv) for argv, _ in PRETTY_DIGESTS])
def test_pretty_stdout_digest(capsys, tmp_path, argv, digest):
    if argv[0] == "rpa":
        path = tmp_path / "h.json"
        path.write_text(json.dumps(HAMILTONIAN))
        argv = argv + ["--input", str(path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
