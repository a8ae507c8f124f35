"""The text output of every command, byte for byte, in this process.

bench/golden.json pins only the JSON form.  These (exit code, stdout sha256)
pairs pin the aligned text that a reader sees, recorded from the catalog,
verification and scan as published.  `--help` is left out: argparse wraps
it to the width of the terminal.
"""

import contextlib
import hashlib
import io

import pytest

from kgunits.cli import main

TEXT = [
    (("table",), 0,
     "77e6ee36e17907e80d2b7179696f5cf2b4e8a07e7cb3143a81acd0a274da1eca"),
    (("table", "--bound", "100"), 0,
     "43873247aec20b7b5af7a4101e50430fa3252765465e216f1c55e7f46258309c"),
    (("verify",), 0,
     "39b9ded25f1376dcbca99316f460aeb6533e2efe8fe16b55788183bf0aa0a43f"),
    (("scan-iso",), 0,
     "99a854096ac552cc11f3decd0688736af047a689ffb3b165e0700cb1ed2145f0"),
    (("unit-group", "F4", "C4"), 0,
     "1a7939223f6fae3608de409e4f2fe9537cdb0844d474c49f665a88ae716c0bbc"),
    (("unit-group", "F2", "D6"), 0,
     "655e56d71dddd3a31b53b4dae7c1a90c33d1ff3af0b94e5261eb2c6a138492c5"),
    (("unit-group", "F2", "D8"), 0,
     "673c71b067c53488706bcbc8b6cdb926735d783b3a24a6d345da706fca48e241"),
    (("unit-group", "F3", "D6"), 0,
     "2db2e09b3e5558f5773433ce459fbfbe479da04f91ba80345558698e06bcf286"),
    (("decompose", "F3", "C4"), 0,
     "79f4c8952a66bb086876e6b1b1ca50135d5b6689a9cdcf9a024dce81516a2b32"),
    (("decompose", "F2", "C6"), 0,
     "d592a4feb1beb9a0c5fef4f67c7ecc91b1256d3b41335d3313f89bef4b80e8ee"),
    (("coset-count", "x, y | x^3, y^2, y*x*y = x^2"), 0,
     "06e9d52c1720fca412803e3b07c4b228ff113e303f4c7ab94665319d832bbfb7"),
    (("coset-count", "a | a^12"), 0,
     "a1fb50e6c86fae1679ef3351296fd6713411a08cf8dd1790a4fd05fae8688164"),
]


@pytest.mark.parametrize("argv,code,sha256", TEXT, ids=[" ".join(a) for a, _, _ in TEXT])
def test_text_output_is_pinned(argv, code, sha256):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        got = main(list(argv))
    assert (got, hashlib.sha256(buf.getvalue().encode()).hexdigest()) == (code, sha256)
