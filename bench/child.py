"""One measured process: kgunits commands called in-process through
`kgunits.cli.main`, optionally traced.  run.py starts it; it is not meant to
be run by hand.

    child.py command --trace 0|1 -- <kgunits argv...>
    child.py queries --seed N --block I --trace 0|1

`queries` runs block I of the seed's stream (see queries.py), so every
block starts with the program's caches empty.  The last line of stdout is
one JSON object.  Program output is captured and checked against
golden.json, or, for coset-count, against the order the query was built
with.
"""

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import golden  # noqa: E402
import queries  # noqa: E402
import tracing  # noqa: E402

GOLDEN = golden.load()


def call(main, argv):
    """(exit code, stdout, error text) of main(argv); never raises."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects bad argv this way
        code = exc.code
    except Exception as exc:  # a query that raises is a failed query
        code, error = None, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), error or err.getvalue().strip()[-300:]


def check(query: dict, code, stdout: str) -> str | None:
    """None when the output is right, else why not."""
    if query["kind"] == "coset-count":
        if code != 0:
            return f"exit {code}"
        order = json.loads(stdout)["order"]
        return None if order == query["order"] else f"order {order}, expected {query['order']}"
    return golden.mismatch(GOLDEN[query["kind"]][query["target"]], code, stdout.encode())


def run_queries(args, tracer, main) -> dict:
    block = queries.blocks(args.seed, args.block + 1)[-1]
    failures, latency = [], []
    block_start = time.perf_counter()
    for qid, query in enumerate(block):
        if tracer:
            tracer.query = qid
        start = time.perf_counter()
        code, stdout, error = call(main, query["argv"])
        latency.append(time.perf_counter() - start)
        try:
            problem = check(query, code, stdout)
        except (ValueError, KeyError) as exc:
            problem = f"unreadable output: {exc}"
        if problem:
            failures.append({"block": args.block, "query": qid, "argv": query["argv"],
                             "problem": problem, "stderr": error})
    return {"latency_s": latency, "block_s": time.perf_counter() - block_start,
            "attempted": len(block), "failures": failures,
            "query_kinds": {i: q["kind"] for i, q in enumerate(block)}}


def run_command(args, tracer, main) -> dict:
    if tracer:
        tracer.query = 0
    start = time.perf_counter()
    code, stdout, error = call(main, args.argv)
    wall = time.perf_counter() - start
    name = args.argv[0]
    problem = golden.mismatch(GOLDEN[name], code, stdout.encode())
    failures = [{"argv": args.argv, "stderr": error, "problem": problem}] if problem else []
    return {"wall_s": wall, "attempted": 1, "failures": failures,
            "query_kinds": {0: name}}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("command", "queries"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--block", type=int, default=0)
    own = sys.argv[1:]
    cut = own.index("--") if "--" in own else len(own)
    args = parser.parse_args(own[:cut])
    args.argv = own[cut + 1:]

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        import kgunits.cli  # noqa: F401  (load every module before patching)
        tracer.install()
    from kgunits import cli

    result = (run_queries if args.mode == "queries" else run_command)(args, tracer, cli.main)
    kinds = result.pop("query_kinds")
    if tracer:
        result["layers"] = tracing.process_summary(tracer, kinds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
