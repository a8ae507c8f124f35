"""Every output the benchmark gates on, byte for byte, in this process.

bench/golden.json holds the exit code and stdout sha256 of `table`,
`verify` and `scan-iso` with `--format json`, and of `unit-group` and
`decompose` on every catalog target; bench/make_golden.py writes it at a
commit whose outputs are known good.  This test only reads it.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from kgunits.cli import main

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "bench" / "golden.json").read_text())


def _entry(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return {"exit": code, "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}


# golden's verify was recorded with --jobs 2; make_golden.py checks that the
# sequential run prints the same bytes, so this one starts no process
@pytest.mark.parametrize("command", ["table", "verify", "scan-iso"])
def test_command_matches_golden(command):
    assert _entry([command, "--format", "json"]) == GOLDEN[command]


def test_every_unit_group_and_decompose_target_matches_golden():
    assert len(GOLDEN["unit-group"]) == 243 and len(GOLDEN["decompose"]) == 239
    bad = [(kind, target) for kind in ("unit-group", "decompose")
           for target, want in GOLDEN[kind].items()
           if _entry([kind, *target.split(), "--format", "json"]) != want]
    assert bad == []
