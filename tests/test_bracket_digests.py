"""Default stdout of the five bracket sweeps at benchmark size is
byte-identical to a recorded reference.

tests/test_cli_digests.py pins the bracket sweeps at small sizes; these pin
the sizes the shared second-order images are measured at: the Heisenberg
sweeps of II(4) and III(5) at dmax 3, whose tables hold no reversed pairs,
and the contraction sweeps of I(3,3) at dmax 2, II(3) at dmax 3 with
k = 1/3 and III(4) at dmax 3, where each [A, B] check shares its two images
with its reversed partner [B, A].  Each SHA-256 is the one
bench/expected.json records for the operation.
"""

import hashlib

import pytest

from capelli.cli import main

DIGESTS = [
    (["verify", "--type", "II", "--N", "4", "--identity", "heisenberg",
      "--dmax", "3", "--jobs", "1"],
     "8e6df861defe1826576cb377bda46b7adc852ee87e59c8b6d2a3a2b4c7a61bda"),
    (["verify", "--type", "III", "--N", "5", "--identity", "heisenberg",
      "--dmax", "3", "--jobs", "1"],
     "1df9db44252a9f8225aca91c84f3efc3b214d6057bd93dfa7f7b167781dc7419"),
    (["verify", "--type", "I", "--N", "3", "--identity", "contraction",
      "--dmax", "2", "--jobs", "1"],
     "359b07da81d9daa6b03be0dac15ea68ef8b147e204bfd83dffb957986bbcc529"),
    (["verify", "--type", "II", "--N", "3", "--identity", "contraction",
      "--dmax", "3", "--k", "1/3", "--jobs", "1"],
     "9e6c5ba66729f63c33d51af3dcf41af65b326ab6e693d14b72306f572d5092da"),
    (["verify", "--type", "III", "--N", "4", "--identity", "contraction",
      "--dmax", "3", "--jobs", "1"],
     "83c12380d9aaf2696ac423e055d516c85889c38f9132b8da3f4aa5842a5acff9"),
]


@pytest.mark.parametrize("argv,digest", DIGESTS,
                         ids=[" ".join(argv) for argv, _ in DIGESTS])
def test_default_stdout_digest_at_benchmark_size(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
