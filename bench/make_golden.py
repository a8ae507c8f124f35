"""Record the stdout digests and exit codes that the benchmark gates on.

Run from the repository root at a commit whose outputs are known good:

    python3 bench/make_golden.py

It writes bench/golden.json with one entry per command the benchmark runs:
`table`, `verify --jobs 2` and `scan-iso` (each in a fresh interpreter, as
the benchmark runs them), and `unit-group` and `decompose` on every algebra
they accept (in one interpreter, as the query workload calls them).  The
catalog outputs are deterministic, so a later commit must reproduce every
digest byte for byte.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import golden  # noqa: E402

COMMANDS = {
    "table": ["table", "--format", "json"],
    "verify": ["verify", "--jobs", "2", "--format", "json"],
    "scan-iso": ["scan-iso", "--format", "json"],
}


def run_cli(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", golden.ENTRY, *argv], env=env,
                          capture_output=True, check=False)
    return golden.entry(proc.returncode, proc.stdout)


def main() -> int:
    sys.path.insert(0, str(SRC))
    from kgunits.catalog import catalog_specs
    from kgunits.cli import main as cli_main
    from kgunits.groups import group_by_label

    entries = {name: run_cli(argv) for name, argv in COMMANDS.items()}
    sequential = run_cli(["verify", "--format", "json"])
    if sequential != entries["verify"]:
        raise SystemExit("verify --jobs 2 and sequential verify disagree")

    def in_process(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(argv)
        return golden.entry(code, buf.getvalue().encode())

    entries["unit-group"], entries["decompose"] = {}, {}
    for p, k, label in catalog_specs(1024):
        target = f"F{p ** k} {label}"
        entries["unit-group"][target] = in_process(
            ["unit-group", f"F{p ** k}", label, "--format", "json"])
        if group_by_label(label).is_abelian():
            entries["decompose"][target] = in_process(
                ["decompose", f"F{p ** k}", label, "--format", "json"])
    bad = [name for name, entry in entries.items()
           if "exit" in entry and entry["exit"] != 0]
    bad += [f"{kind} {t}" for kind in ("unit-group", "decompose")
            for t, entry in entries[kind].items() if entry["exit"] != 0]
    if bad:
        raise SystemExit(f"nonzero exit codes: {bad}")
    golden.PATH.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"wrote {golden.PATH.relative_to(ROOT)}: {len(entries['unit-group'])} unit-group "
          f"and {len(entries['decompose'])} decompose targets")
    return 0


if __name__ == "__main__":
    sys.exit(main())
