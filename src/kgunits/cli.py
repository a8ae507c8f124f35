"""Command-line surface for the unit-group catalog.

Commands: table, verify, scan-iso, unit-group, decompose, coset-count.
Each ``cmd_*`` returns ``(payload, lines, code)``: the JSON payload, the
text lines and the exit code.  ``main`` alone picks the format, so text is
aligned for reading and --format json is one deterministic JSON document
(sorted keys, fixed indentation), suitable for golden files and scripting.
stdout is written once, after the command finished, so a failed command
writes nothing there; errors print one line to stderr and exit with status 2.

The argument parser is built on the first ``main`` call, not at import, and
reused for every later call in the process; parsing keeps no state between
calls, so ``main`` is safe to call repeatedly in-process.

Every module a command runs is imported here, but isoprobe, which only
scan-iso imports: a queries block of bench/ times each import a command defers.
"""

import argparse
import functools
import json
import os
import sys

from .algebra import Algebra
from .catalog import build_catalog, build_row, verify_catalog
from .decompose import decompose_abelian
from .fields import SIZE_LIMIT, check_algebra_size, check_bound, make_field, \
    parse_field_label, read_int
from .groups import group_by_label
from .presentations import DEFAULT_COSET_LIMIT, coset_enumeration, \
    parse_presentation


def _aligned(headers: list[str], rows: list[list[str]],
             right: set[int] = frozenset()) -> list[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        parts = []
        for i, cell in enumerate(cells):
            parts.append(cell.rjust(widths[i]) if i in right else cell.ljust(widths[i]))
        return "  ".join(parts).rstrip()
    return [fmt(headers)] + [fmt(r) for r in rows]


def cmd_table(args):
    catalog = build_catalog(args.bound, args.jobs)
    headers = ["field", "group", "size", "|U|", "decomposition", "structure",
               "method"]
    body = [[r.field, r.group, str(r.size), str(r.unit_count),
             r.decomposition or "-", r.structure, r.method]
            for r in catalog.rows]
    return catalog.as_dict(), [
        f"unit groups of group algebras with size below {catalog.bound} "
        f"({len(catalog.rows)} rows)",
        *_aligned(headers, body, right={2, 3})], 0


def cmd_verify(args):
    report = verify_catalog(args.bound, args.jobs)
    return report.as_dict(), [
        *report.lines, *report.inconsistency_lines,
        f"{report.matched}/{report.row_count} rows match the published "
        f"values; {len(report.typo_lines)} misprints adjudicated; "
        f"{len(report.mismatch_lines)} mismatches; "
        f"{len(report.inconsistency_lines)} inconsistencies"], report.exit_code


def cmd_scan_iso(args):
    from .isoprobe import scan_minimum_counterexample
    report = scan_minimum_counterexample(args.bound)
    headers = ["size", "field", "pair", "verdict", "detail"]
    body = [[str(r.size), r.field, f"{r.group_a} / {r.group_b}", r.verdict,
             r.detail] for r in report.rows]
    lines = [report.headline(),
             f"pairs examined: {report.pair_count} "
             f"(expected {report.expected_pair_count}); "
             f"inconclusive: {len(report.inconclusive)}",
             *_aligned(headers, body, right={0})]
    if report.notes:
        lines.append("notes on unit groups of the nonabelian pairs:")
        for n in report.notes:
            (label_a, label_b), (order_a, order_b) = n["pair"], n["orders"]
            lines.append(f"  {label_a} vs {label_b}: {n['verdict']} "
                         f"(orders {order_a} and {order_b})")
    return report.as_dict(), lines, 0


def cmd_unit_group(args):
    row = build_row(*parse_field_label(args.field), args.group)
    return row.as_dict() | {"spectrum": row.spectrum}, [
        f"U({row.field}{row.group}): order {row.unit_count}",
        f"structure: {row.structure}",
        f"method: {row.method} ({row.method_detail})",
        "spectrum: " + " ".join(f"{o}:{c}" for o, c in row.spectrum)], 0


def cmd_decompose(args):
    algebra = Algebra(make_field(*parse_field_label(args.field)),
                      group_by_label(args.group))
    check_algebra_size(algebra.label(), algebra.size)
    summands = decompose_abelian(algebra)
    return {
        "algebra": algebra.label(),
        "decomposition": summands.render(),
        "blocks": [{"render": b.render(), "dimension": b.dimension(),
                    "unit_order": b.unit_order()} for b in summands.blocks],
        "unit_order": summands.unit_order(),
    }, [f"{algebra.label()} = {summands.render()}",
        f"unit order from blocks: {summands.unit_order()}"], 0


def cmd_coset_count(args):
    order = coset_enumeration(parse_presentation(args.presentation), args.limit)
    return {"presentation": args.presentation, "order": order}, [str(order)], 0


def _int_arg(check):
    """argparse type: the int that fields.read_int reads and check returns;
    their ValueError exits 2 with its message."""
    def parse(text: str) -> int:
        try:
            return check(read_int(text, "int value"))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return parse


def _positive(value: int) -> int:
    if value < 1:
        raise ValueError(f"must be at least 1, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Refusals raise ValueError, for ``main`` to write as its one error
    line; subparsers inherit the class."""
    def error(self, message):
        raise ValueError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kgunits",
        description="unit groups of small group algebras: catalog, "
                    "verification, and the minimal isomorphic pair")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, bound=False, jobs=False):
        p.add_argument("--format", choices=("text", "json"), default="text")
        if bound:
            p.add_argument("--bound", type=_int_arg(check_bound),
                           default=SIZE_LIMIT,
                           help="strict upper bound on algebra size, "
                                f"2 to {SIZE_LIMIT} (default {SIZE_LIMIT})")
        if jobs:
            p.add_argument("--jobs", type=_int_arg(_positive), default=1,
                           help="worker processes (default 1)")

    p = sub.add_parser("table", help="print every catalog row")
    common(p, bound=True, jobs=True)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="compare the catalog with published values")
    common(p, bound=True, jobs=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan-iso", help="scan same-field pairs for ring isomorphism")
    common(p, bound=True)
    p.set_defaults(func=cmd_scan_iso)

    p = sub.add_parser("unit-group", help="one unit group, e.g. unit-group F4 C4")
    p.add_argument("field")
    p.add_argument("group")
    common(p)
    p.set_defaults(func=cmd_unit_group)

    p = sub.add_parser("decompose", help="block decomposition of one algebra")
    p.add_argument("field")
    p.add_argument("group")
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("coset-count", help="order of a finitely presented group")
    p.add_argument("presentation")
    p.add_argument("--limit", type=_int_arg(_positive), default=DEFAULT_COSET_LIMIT,
                   help="coset table size cap")
    common(p)
    p.set_defaults(func=cmd_coset_count)

    return parser


def main(argv=None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
            payload, lines, code = args.func(args)
            if args.format == "json":
                lines = [json.dumps(payload, sort_keys=True, indent=2)]
            print(*lines, sep="\n")
            return code
        finally:
            # a closed pipe raises here, not at exit, after --help too
            sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: send that to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        message = "output closed before the command finished"
    except (ValueError, RuntimeError, OSError) as exc:
        message = exc
    except MemoryError:
        message = "out of memory"
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
