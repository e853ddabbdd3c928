"""Default stdout of the three heaviest exact-state commands at benchmark
size is byte-identical to a recorded reference.

tests/test_cli_digests.py pins the state outputs at dmax <= 3; these pin
the sizes the fast paths are measured at: 18 Z and D images scaled by 1/2
on the 2,002-monomial basis of I(3,3) at dmax 5 (few distinct coefficients,
shared Fractions), 46 matrices on the 3,003-monomial basis of III(5), and
the pairings of a 36,250-term state of I(4,4) (memoized weights).  Each
SHA-256 is the one bench/expected.json records for the operation.
"""

import hashlib

import pytest

from capelli.cli import main

DIGESTS = [
    (["export", "--type", "I", "--N", "3", "--dmax", "5", "--k", "1/2"],
     "09f14b1fa02b9541f886312b210f215765b230d5e6f1da8fbaca059a553365fc"),
    (["export", "--type", "III", "--N", "5", "--dmax", "5"],
     "bc78c1d4a4bd3b9d9da53b0bc3ba5ef8414a9db893a14641ff618d63523db04e"),
    (["norm", "--type", "I", "--N", "4", "--nu", "7,6,5,4", "--oracle"],
     "4b6d9bd24c9d414cfca0e8925bca7e4d514c3394e09765db71d1fc2c10f75101"),
]


@pytest.mark.parametrize("argv,digest", DIGESTS,
                         ids=[" ".join(argv) for argv, _ in DIGESTS])
def test_default_stdout_digest_at_benchmark_size(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
