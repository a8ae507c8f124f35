"""Check the golden outputs under each given Python interpreter.

    python3 tools/check_interpreters.py PYTHON [PYTHON ...]

For each interpreter, runs `table`, `verify --jobs 2` and `scan-iso` with
`--format json` on the uninstalled package (src first on PYTHONPATH, no
bytecode written), each in its own process, and compares the exit code and
the sha256 of stdout with bench/golden.json, which it only reads; a command
must also write nothing to stderr.  Prints one line per interpreter and
command, `ok` or what differs, and exits 1 if any differ or an interpreter
cannot be run, else 0.  Stdlib only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = {
    "table": ["table", "--format", "json"],
    "verify": ["verify", "--jobs", "2", "--format", "json"],
    "scan-iso": ["scan-iso", "--format", "json"],
}


def run(python: str, argv: list[str]) -> tuple[dict, bytes]:
    """The exit code and stdout sha256 of `python -m kgunits argv`, in the
    form of a bench/golden.json entry, and its stderr."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([python, "-m", "kgunits", *argv], cwd=ROOT, env=env,
                          capture_output=True, timeout=600)
    return ({"exit": proc.returncode, "sha256": hashlib.sha256(proc.stdout).hexdigest()},
            proc.stderr)


def check(python: str, golden: dict) -> list[str]:
    """One line per command: ok, or how its output differs from golden."""
    lines = []
    for name, argv in COMMANDS.items():
        try:
            got, err = run(python, argv)
        except (OSError, subprocess.SubprocessError) as exc:
            return lines + [f"{python}: cannot run: {exc}"]
        want = golden[name]
        problems = [] if got == want else [
            f"exit {got['exit']}, sha256 {got['sha256'][:12]} "
            f"(golden: exit {want['exit']}, {want['sha256'][:12]})"]
        if err:
            problems.append(f"stderr {err.splitlines()[0][:60]!r}")
        lines.append(f"{python} {name}: {'; '.join(problems) or 'ok'}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("pythons", nargs="+", metavar="PYTHON",
                        help="interpreter paths to run the package under")
    args = parser.parse_args(argv)
    golden = json.loads((ROOT / "bench" / "golden.json").read_text())
    lines = [line for python in args.pythons for line in check(python, golden)]
    print(*lines, sep="\n")
    return 0 if all(line.endswith(": ok") for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
