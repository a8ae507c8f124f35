"""Executed bytecodes of coset enumeration, per function, for given presentations.

    PYTHONPATH=src python3 tools/kernel_counts.py [--limit N] [--drops] [TEXT ...]

For each presentation text, runs `coset_enumeration` once under
`sys.settrace` with `f_trace_opcodes` set on every frame of
presentations.py, and prints the calls and executed bytecodes of each
function (nested functions and comprehensions by qualified name), then the
total.  Parsing is not counted.  `--drops` adds one summed entry for every
single-relator drop of the published presentations (expected.py), the
mutations that certification must refute.  A run that passes the coset cap
is counted up to the point where it raises, and its message is printed.
The counts depend only on the code and the input, so they repeat exactly
from run to run; they do depend on the CPython version, whose compiler
decides the bytecodes.  Stdlib only.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from kgunits import presentations
from kgunits.expected import PRESENTATION_SOURCES
from kgunits.presentations import (DEFAULT_COSET_LIMIT, CosetLimitExceeded,
                                   coset_enumeration, parse_presentation)


def kernel_counts(pres, limit: int):
    """(order or cap message, calls, bytecodes): the last two Counters by function."""
    calls: Counter = Counter()
    opcodes: Counter = Counter()
    filename = presentations.__file__

    def on_call(frame, event, arg):
        code = frame.f_code
        if code.co_filename != filename:
            return None
        name = getattr(code, "co_qualname", code.co_name)
        calls[name] += 1
        frame.f_trace_opcodes = True

        def on_event(frame, event, arg):
            if event == "opcode":
                opcodes[name] += 1
            return on_event
        return on_event

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        outcome = coset_enumeration(pres, limit)
    except CosetLimitExceeded as exc:
        outcome = str(exc)
    finally:
        sys.settrace(previous)
    return outcome, calls, opcodes


def published_drops():
    """Every published presentation with one relator dropped."""
    for source in PRESENTATION_SOURCES.values():
        pres = parse_presentation(source.text)
        for i in range(len(pres.relators)):
            yield pres._replace(relators=pres.relators[:i] + pres.relators[i + 1:])


def report(title: str, outcome, calls: Counter, opcodes: Counter) -> list[str]:
    lines = [f"{title}: {outcome}", f"  {'calls':>9} {'bytecodes':>12}  function"]
    for name, count in opcodes.most_common():
        lines.append(f"  {calls[name]:>9,} {count:>12,}  {name}")
    lines.append(f"  {sum(calls.values()):>9,} {sum(opcodes.values()):>12,}  total")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("texts", nargs="*", metavar="TEXT",
                        help="a presentation, e.g. 'a, b | a^90, b^94, a*b = b*a'")
    parser.add_argument("--limit", type=int, default=DEFAULT_COSET_LIMIT,
                        help="coset cap (default %(default)s)")
    parser.add_argument("--drops", action="store_true",
                        help="also sum the single-relator drops of the published presentations")
    args = parser.parse_args(argv)
    if not args.texts and not args.drops:
        parser.error("give a presentation text or --drops")
    out = []
    for text in args.texts:
        out += report(text, *kernel_counts(parse_presentation(text), args.limit))
    if args.drops:
        calls: Counter = Counter()
        opcodes: Counter = Counter()
        drops = list(published_drops())
        for pres in drops:
            _, c, o = kernel_counts(pres, args.limit)
            calls += c
            opcodes += o
        out += report(f"{len(drops)} single-relator drops at cap {args.limit}",
                      "summed", calls, opcodes)
    print("\n".join(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
