"""Paired benchmark runs of a parent and a change, written as BENCH_<parent>.json.

    python3 tools/bench_pairs.py [--pairs N] [--workload W ...]

The parent is HEAD and the change is the working tree: its tracked files, as
`git stash create` records them without touching the tree or any ref, so a
change is measured before it is committed.  A new file counts only once it
is staged (`git add`); with nothing changed the runner exits with an error.
Exports both with `git archive` into two temporary directories and runs
`python3 bench/run.py --workload W --seconds S --seed K` in each, N pairs
per workload (default 10), pair K with seed K on both sides and S the
run_seconds of BENCHMARK.json.  Odd pairs run the parent first and even
pairs the change, so neither side always meets the machine in the same
state.  Every run sets
PYTHONDONTWRITEBYTECODE=1, so each compiles the package as a fresh checkout
does.

Writes BENCH_<parent>.json at the root of the repository, in the format of
the earlier files: the environment every run shares, a note, the parent
commit, and per workload one entry per run in run order ({pair, side, set,
report, result}, report and result being the last two lines bench/run.py
prints; the report's env holds the run's load, python, machine and nproc).  A file
already there for the parent keeps its entries, and the new runs follow
them as the next set (an entry without a set number is of set 1), so a
repeat set of one workload keeps the first set of every workload.  Then
prints, for the set just run, for each workload and each end-to-end metric
of BENCHMARK.json, both sides' median and IQR
(statistics.quantiles, n=4), how many pairs the change won (ties count for
neither), the change of the median as a share of the parent's, and
"spread > bound" where either side's IQR, relative to its median, is wider
than the metric's bound.  A verdict line follows each metric line: "gain"
when the change won at least nine tenths of the pairs and its median is
better than the parent's by more than the parent's IQR, else "worse" when
its median is worse by more than the bound, else "unresolved" when the
spread exceeds the bound and not every change run beats every parent run,
else "no regression".
For catalog it also prints each command's median CPU time on both sides,
since that workload's wall time is noisier than its bound.  Last it prints
each side's line count of src/kgunits/*.py, as `wc -l` counts it, so a
change's size and its no-regression figures come from one run.  Stdlib
only; `git` and `tar` must be on the path.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("catalog", "scan", "queries")
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The files of rev, as `git archive` writes them, under dest."""
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")


def src_size(roots: dict[str, Path]) -> str:
    """Each side's line count of src/kgunits/*.py under its root, and the change."""
    lines = {side: sum(path.read_bytes().count(b"\n")
                       for path in (root / "src" / "kgunits").glob("*.py"))
             for side, root in roots.items()}
    return (f"src/kgunits/*.py: parent {lines['parent']} lines, change "
            f"{lines['change']} lines ({lines['change'] - lines['parent']:+d})")


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(report, result): the last two lines of one bench/run.py run in root."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"bench/run.py --workload {workload} in {root} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def side_values(entries: list[dict], side: str, metric: str) -> list[float]:
    """The metric's values on one side, in pair order."""
    runs = sorted((e for e in entries if e["side"] == side), key=lambda e: e["pair"])
    return [e["result"]["metrics"][metric]["value"] for e in runs]


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def metric_stats(entries: list[dict], metric: str, better: str) -> dict:
    """Medians, IQRs and the change's wins over the pairs run on both sides."""
    parent = side_values(entries, "parent", metric)
    change = side_values(entries, "change", metric)
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_iqr, c_iqr = iqr(parent), iqr(change)
    return {"pairs": min(len(parent), len(change)), "wins": wins, "losses": losses,
            "parent_median": p_med, "change_median": c_med,
            "parent_iqr": p_iqr, "change_iqr": c_iqr,
            "delta": (c_med - p_med) / p_med if p_med else 0.0,
            # the wider side's IQR relative to its median
            "spread": max(p_iqr / p_med if p_med else 0.0, c_iqr / c_med if c_med else 0.0),
            # every change run better than every parent run
            "separated": (max(change) < min(parent) if better == "lower"
                          else min(change) > max(parent))}


def verdict(s: dict, better: str, bound: float) -> str:
    """The verdict of the module docstring on one metric's metric_stats."""
    sign = 1 if better == "lower" else -1
    if 10 * s["wins"] >= 9 * s["pairs"] \
            and sign * (s["parent_median"] - s["change_median"]) > s["parent_iqr"]:
        return "gain"
    if sign * s["delta"] > bound:
        return "worse"
    if s["spread"] > bound and not s["separated"]:
        return "unresolved"
    return "no regression"


def cpu_medians(entries: list[dict]) -> dict[str, dict[str, float]]:
    """Median CPU seconds of each command, by side: {command: {side: median}}."""
    samples: dict[str, dict[str, list[float]]] = {}
    for e in entries:
        for command in e["report"]["commands"]:
            name = " ".join(command["argv"])
            samples.setdefault(name, {}).setdefault(e["side"], []).append(command["cpu_s"])
    return {name: {side: statistics.median(v) for side, v in by_side.items()}
            for name, by_side in samples.items()}


def summary(workload: str, entries: list[dict], end_to_end: list[dict]) -> list[str]:
    failed = {side: sum(e["result"]["failed"] for e in entries if e["side"] == side)
              for side in SIDES}
    attempted = {side: sum(e["result"]["attempted"] for e in entries if e["side"] == side)
                 for side in SIDES}
    lines = [f"{workload}: failed {failed['parent']}/{attempted['parent']} parent, "
             f"{failed['change']}/{attempted['change']} change"]
    for m in end_to_end:
        s = metric_stats(entries, m["name"], m["better"])
        flag = "  spread > bound" if s["spread"] > m["bound"] else ""
        lines.append(
            f"  {m['name']:<12} parent {s['parent_median']:.4f} (IQR {s['parent_iqr']:.4f})"
            f"  change {s['change_median']:.4f} (IQR {s['change_iqr']:.4f})"
            f"  {s['delta']:+.1%}  change won {s['wins']} of {s['pairs']}"
            f" (lost {s['losses']}), bound {m['bound']:.0%}{flag}")
        lines.append(f"    verdict: {verdict(s, m['better'], m['bound'])}")
    if workload == "catalog":
        for name, by_side in sorted(cpu_medians(entries).items()):
            lines.append(f"  cpu_s {name}: parent {by_side.get('parent', 0):.4f}"
                         f"  change {by_side.get('change', 0):.4f}")
    return lines


def merge_sets(kept: dict[str, list[dict]],
               runs: dict[str, list[dict]]) -> dict[str, list[dict]]:
    """The workloads of BENCH_<parent>.json after a set of runs: kept, the
    entries the file already holds, then runs, each entry marked with the
    next set number (an entry without one is of set 1)."""
    number = 1 + max((e.get("set", 1) for entries in kept.values() for e in entries),
                     default=0)
    merged = {w: list(entries) for w, entries in kept.items()}
    for w, entries in runs.items():
        merged.setdefault(w, []).extend({**e, "set": number} for e in entries)
    return merged


def document(parent: str, kept: dict[str, list[dict]],
             runs: dict[str, list[dict]]) -> dict:
    """BENCH_<parent>.json after a set of runs (see merge_sets).  Its top level
    holds only what every set shares: the load, python, machine and nproc of
    a run are in its own report's env."""
    return {
        "environment": {"PYTHONDONTWRITEBYTECODE": "1"},
        "note": ("Paired runs of python3 bench/run.py --workload W --seconds S by"
                 " tools/bench_pairs.py, S the run_seconds of BENCHMARK.json, pair k"
                 " with seed k on both sides; odd pairs ran the parent first, even"
                 " pairs the change. Each side ran from a git archive export; the change"
                 " side is the working tree on top of the parent, identified by"
                 " src_sha256 in each report's env. Entries of set n > 1 are repeat"
                 " sets, run later against the same parent."),
        "parent_commit": parent,
        "workloads": merge_sets(kept, runs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = args.workload or list(WORKLOADS)
    parent = git("rev-parse", "--short=7", "HEAD")
    change = git("stash", "create")
    if not change:
        parser.error("the working tree has no change to HEAD in its tracked or "
                     "staged files (stage a new file with git add)")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds, end_to_end = benchmark["run_seconds"], benchmark["end_to_end"]

    path = ROOT / f"BENCH_{parent}.json"
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    with tempfile.TemporaryDirectory() as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        for side, rev in zip(SIDES, (parent, change)):
            roots[side].mkdir()
            export(rev, roots[side])
        size = src_size(roots)
        for workload in workloads:
            for pair in range(1, args.pairs + 1):
                order = SIDES if pair % 2 else SIDES[::-1]
                for side in order:
                    report, result = run_bench(roots[side], workload, pair, seconds)
                    runs[workload].append({"pair": pair, "side": side,
                                           "report": report, "result": result})
                    print(f"{workload} pair {pair} {side}: wall_s "
                          f"{result['metrics']['wall_s']['value']:.4f}", file=sys.stderr)

    out = document(parent, json.loads(path.read_text())["workloads"] if path.exists() else {},
                   runs)
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    for workload in workloads:
        print("\n".join(summary(workload, runs[workload], end_to_end)))
    print(size)
    return 0


if __name__ == "__main__":
    sys.exit(main())
