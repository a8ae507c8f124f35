"""The outputs the benchmark gates on, and the one check against them.

golden.json holds an exit code and a stdout digest for every command the
benchmark runs and every `unit-group` and `decompose` target; make_golden.py
writes it at a commit whose outputs are known good.
"""

import hashlib
import json
from pathlib import Path

PATH = Path(__file__).resolve().parent / "golden.json"
# a kgunits command in a fresh interpreter, as a user runs it
ENTRY = "import sys; from kgunits.cli import main; sys.exit(main())"


def load() -> dict:
    return json.loads(PATH.read_text())


def entry(code, stdout: bytes) -> dict:
    """The golden.json entry of one command's exit code and stdout."""
    return {"exit": code, "sha256": hashlib.sha256(stdout).hexdigest()}


def mismatch(want: dict, code, stdout: bytes) -> str | None:
    """None when the exit code and stdout match `want`, else what differs."""
    got = entry(code, stdout)
    if got == want:
        return None
    return (f"exit {code}, stdout digest {got['sha256'][:12]} "
            f"(golden: exit {want['exit']}, {want['sha256'][:12]})")
