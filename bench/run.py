"""The kgunits benchmark: three workloads, gated outputs, an optional traced run.

    python3 bench/run.py --workload catalog|scan|queries|all --seed N \\
        --seconds S --trace 0|1

Run it from anywhere; it measures the program in ../src.  Workloads:

- catalog: `kgunits table --format json` once and `kgunits verify --jobs 2
  --format json` three times, each in a fresh interpreter.  All 243
  algebras are built once per command and nothing is reused; `verify
  --jobs 2` is the process-pool path.  A run takes about 55 s on a 2-vCPU
  x86_64 VM, whatever --seconds is.
- scan: `kgunits scan-iso --format json` in fresh interpreters, repeated
  until --seconds have passed (at least three times).
- queries: the seeded stream of queries.py, one client in a closed loop
  calling `kgunits.cli.main`, block by block until --seconds have passed.
  Each block runs in a fresh interpreter, so that every block measures the
  same kind of work: the first block with empty caches, and every later
  block too.

Every output is checked: the three commands and every `unit-group` and
`decompose` answer against golden.json, and every `coset-count` answer
against its family's order formula.  A wrong answer, nonzero exit,
exception or coset-cap overrun is a failed operation.

With --trace 0 the last line carries the end-to-end metrics of
BENCHMARK.json: setup_s, wall_s and peak_rss_mb.  setup_s is the import
time of kgunits.cli at the reference speed of a bare interpreter start.
wall_s is the wall time of `verify --jobs 2` on catalog (the median of
three), the median scan-iso time and the mean query block time at the
reference speed (see calibrate.py) on scan and queries; the reference
kernel runs here, between the measured processes.  The line before it is a
report with the raw times under the names of bench/metrics.json, the
environment and the workload's properties.  With --trace 1 the work runs
once untraced and once traced (see tracing.py), on queries a fixed number
of blocks, and the last line carries the per-layer metrics.  The inputs of
catalog and scan are fixed by the paper; the seed only drives the query
stream.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import golden  # noqa: E402
import queries as stream  # noqa: E402
import tracing  # noqa: E402

GOLDEN = golden.load()
SETUP_PROBES = 15
MIN_RUNS = 3  # scan-iso runs and query blocks, whatever --seconds is
VERIFY_RUNS = 3
TRACE_BLOCKS = 8  # fixed, so that a seed's kernel counts repeat exactly
DEADLINE_S = 170  # every run must end within 180 s
WORKLOADS = ("catalog", "scan", "queries")
# the sample metrics (tracing.SAMPLE_METRICS) each traced workload must yield
SAMPLED = {"catalog": {"catalog.row_p50_ms", "catalog.row_max_ms"}, "scan": set(),
           "queries": set(tracing.SAMPLE_METRICS)}


class Run:
    """One benchmark invocation: its clock, commands and failures."""

    def __init__(self):
        self.start = time.monotonic()
        self.commands: list[dict] = []
        self.failures: list = []
        self.attempted = 0
        self.properties: dict = {}
        self.refs: list[float] = []

    def process(self, argv: list[str]) -> dict:
        """Run argv with the program on PYTHONPATH; wall, CPU, max RSS."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=env, cwd=ROOT)
        budget = max(1.0, DEADLINE_S - (time.monotonic() - self.start))
        killer = threading.Timer(budget, proc.kill)
        killer.start()
        err: list[bytes] = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        # wait4, not wait: it returns this child's own resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        return {"exit": proc.returncode, "stdout": out, "stderr": err[0] if err else b"",
                "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024}

    def cli(self, argv: list[str]) -> dict:
        """One gated kgunits command in a fresh interpreter."""
        res = self.process([sys.executable, "-c", golden.ENTRY, *argv])
        problem = golden.mismatch(GOLDEN[argv[0]], res["exit"], res["stdout"])
        self.attempted += 1
        if problem:
            self.failures.append({"argv": argv, "problem": problem,
                                  "stderr": res["stderr"][-300:].decode(errors="replace")})
        self.record(argv, res)
        return res

    def child(self, args: list[str]) -> dict:
        """A child.py process; its JSON result with the parent's measurements."""
        res = self.process([sys.executable, str(HERE / "child.py"), *args])
        self.record(["child.py", *args], res)
        try:
            out = json.loads(res["stdout"].decode().splitlines()[-1])
        except (ValueError, IndexError):
            self.attempted += 1
            self.failures.append({"argv": args, "problem": f"child exit {res['exit']}",
                                  "stderr": res["stderr"][-600:].decode(errors="replace")})
            return {"wall": res, "attempted": 0, "failures": []}
        self.attempted += out["attempted"]
        self.failures += out["failures"]
        out["wall"] = res
        return out

    def record(self, argv, res) -> None:
        self.commands.append({"argv": argv, "exit": res["exit"],
                              **{k: round(res[k], 4) for k in ("wall_s", "cpu_s", "rss_mb")}})

    def reference(self) -> float:
        """The reference kernel's time now; see calibrate.py."""
        self.refs.append(calibrate.reference_s())
        return self.refs[-1]

    def timed(self, work) -> tuple[float, float]:
        """(raw, reference-speed) seconds of work(), which returns raw seconds."""
        before = self.refs[-1] if self.refs else self.reference()
        raw = work()
        return raw, scaled(raw, before, self.reference())

    def setup_s(self) -> tuple[float, float]:
        """(reference-speed, raw) median time for a fresh interpreter to import
        kgunits.cli; see calibrate.BARE_START_S."""
        raw, ratios = [], []
        for _ in range(SETUP_PROBES):
            bare = self.process([sys.executable, "-c", "pass"])["wall_s"]
            raw.append(self.process([sys.executable, "-c", "import kgunits.cli"])["wall_s"])
            ratios.append(raw[-1] / bare)
        return statistics.median(ratios) * calibrate.BARE_START_S, statistics.median(raw)


def scaled(raw: float, ref_before: float, ref_after: float) -> float:
    """raw seconds at the reference speed: see calibrate.py."""
    return raw * calibrate.NOMINAL_S / ((ref_before + ref_after) / 2)


def metric(value, unit, **extra):
    return {"value": value, "unit": unit, **extra}


def peak_rss(run: Run) -> float:
    return max(c["rss_mb"] for c in run.commands)


# ---------------------------------------------------------------------------
# untraced runs: end-to-end metrics

# Each returns (named metrics, wall_s).  wall_s is raw for catalog: verify
# --jobs 2 runs on both vCPUs, and scaling it by the single-process
# reference made its spread wider, while the single-process units of scan
# and queries are scaled to the reference speed.

def catalog(run: Run, args) -> tuple[dict, float]:
    table = run.cli(["table", "--format", "json"])["wall_s"]
    verify = statistics.median(run.cli(["verify", "--jobs", "2", "--format", "json"])["wall_s"]
                               for _ in range(VERIFY_RUNS))
    return {"table_s": metric(table, "s"),
            "verify_jobs2_s": metric(verify, "s", samples=VERIFY_RUNS)}, verify


def scan(run: Run, args) -> tuple[dict, float]:
    deadline = time.monotonic() + args.seconds
    walls = []
    while len(walls) < MIN_RUNS or time.monotonic() < deadline:
        walls.append(run.timed(lambda: run.cli(["scan-iso", "--format", "json"])["wall_s"]))
    raw, ref = (statistics.median(w) for w in zip(*walls))
    return {"scan_s": metric(raw, "s", samples=len(walls))}, ref


def query_named(outs: list[dict]) -> dict:
    lat = [x for out in outs for x in out.get("latency_s", ())]
    blocks = [out["block_s"] for out in outs if "block_s" in out]
    p50, p95 = tracing.percentile(lat, 0.5), tracing.percentile(lat, 0.95)
    return {
        "query_p50_ms": metric(p50 * 1000 if p50 is not None else None, "ms", samples=len(lat)),
        "query_p95_ms": metric(p95 * 1000 if p95 is not None else None, "ms", samples=len(lat)),
        "queries_per_s": metric(len(lat) / sum(lat), "1/s", samples=len(lat)),
        "block_s": metric(statistics.mean(blocks), "s", samples=len(blocks)),
    }


def query_block(run: Run, args, index: int, trace: int = 0) -> dict:
    """Block `index` of the seed's stream, in a fresh interpreter."""
    return run.child(["queries", "--seed", str(args.seed), "--block", str(index),
                      "--trace", str(trace)])


def queries(run: Run, args) -> tuple[dict, float]:
    deadline = time.monotonic() + args.seconds
    outs, walls = [], []

    def block() -> float:
        outs.append(query_block(run, args, len(outs)))
        return outs[-1].get("block_s", outs[-1]["wall"]["wall_s"])

    while len(walls) < MIN_RUNS or time.monotonic() < deadline:
        walls.append(run.timed(block))
    run.properties = stream.properties(stream.blocks(args.seed, len(outs)))
    # the mean, not the median: blocks draw different targets, and a run's
    # blocks together cover each size class in turn.  Over four sets of ten
    # seeds the mean's spread was 0.07-0.17, the median's 0.09-0.22.
    return query_named(outs), statistics.mean(ref for _, ref in walls)


# ---------------------------------------------------------------------------
# traced runs: per-layer metrics

def traced_catalog(run: Run, args) -> tuple[list, float]:
    plain = run.cli(["table", "--format", "json"])
    table = run.child(["command", "--trace", "1", "--", "table", "--format", "json"])
    verify = run.child(["command", "--trace", "1", "--",
                        "verify", "--jobs", "2", "--format", "json"])
    return [table, verify], table["wall"]["wall_s"] - plain["wall_s"]


def traced_scan(run: Run, args) -> tuple[list, float]:
    plain = run.cli(["scan-iso", "--format", "json"])
    traced = run.child(["command", "--trace", "1", "--", "scan-iso", "--format", "json"])
    return [traced], traced["wall"]["wall_s"] - plain["wall_s"]


def traced_queries(run: Run, args) -> tuple[list, float]:
    # a fixed number of blocks, so that a seed's counts repeat exactly
    parts, overhead = [], 0.0
    for index in range(TRACE_BLOCKS):
        plain = query_block(run, args, index)
        traced = query_block(run, args, index, trace=1)
        parts.append(traced)
        overhead += sum(traced.get("latency_s", ())) - sum(plain.get("latency_s", ()))
    run.properties = stream.properties(stream.blocks(args.seed, TRACE_BLOCKS))
    return parts, overhead


# ---------------------------------------------------------------------------

def environment(args) -> dict:
    commit = None  # a checkout without .git; src_sha256 identifies the code
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "kgunits").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "loadavg_start": os.getloadavg(),
            "commit": commit, "src_sha256": digest.hexdigest(), "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def run_workload(name: str, args) -> tuple[dict, dict]:
    """(report, result line) for one workload."""
    run = Run()
    env = environment(args)
    if args.trace:
        parts, overhead = {"catalog": traced_catalog, "scan": traced_scan,
                           "queries": traced_queries}[name](run, args)
        summaries = [p["layers"] for p in parts if "layers" in p]
        layers, problems = tracing.per_layer(summaries, SAMPLED[name])
        layers["trace.overhead_s"] = overhead
        metrics = {k: metric(v, tracing.unit_of(k)) for k, v in sorted(layers.items())}
        named = {}
        env["spans"] = sum(s["span_count"] for s in summaries)
        run.attempted += 1  # the tracing itself: every target bound, every sample there
        if problems:
            run.failures.append({"problem": "; ".join(problems)})
    else:
        setup, setup_raw = run.setup_s()
        named, wall = {"catalog": catalog, "scan": scan, "queries": queries}[name](run, args)
        failed_ratio = len(run.failures) / max(run.attempted, 1)
        named = {"setup_s": metric(setup, "s", raw=setup_raw), **named,
                 "peak_rss_mb": metric(peak_rss(run), "MB"),
                 "error_rate": metric(failed_ratio, "ratio",
                                      attempted=run.attempted, failed=len(run.failures))}
        metrics = {"setup_s": metric(setup, "s"), "wall_s": metric(wall, "s"),
                   "peak_rss_mb": metric(peak_rss(run), "MB")}
        env["ref_s"] = run.refs
    env["loadavg_end"] = os.getloadavg()
    env["elapsed_s"] = round(time.monotonic() - run.start, 3)
    report = {"workload": name, "named": named, "env": env, "properties": run.properties,
              "commands": run.commands, "failures": run.failures[:20]}
    result = {"correct": not run.failures, "attempted": max(run.attempted, 1),
              "failed": len(run.failures), "metrics": metrics}
    return report, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "kgunits" / "cli.py").is_file():
        print(f"error: no kgunits sources under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports, results = [], []
    for name in names:
        report, result = run_workload(name, args)
        print(json.dumps(report))
        reports.append(report)
        results.append(result)
    if args.workload == "all":
        merged = {f"{rep['workload']}.{k}": v for rep, res in zip(reports, results)
                  for k, v in (res["metrics"] if args.trace else rep["named"]).items()}
        result = {"correct": all(r["correct"] for r in results),
                  "attempted": sum(r["attempted"] for r in results),
                  "failed": sum(r["failed"] for r in results), "metrics": merged}
    else:
        result = results[0]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
