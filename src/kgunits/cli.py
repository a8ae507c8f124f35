"""Command-line surface for the unit-group catalog.

Commands: table, verify, scan-iso, unit-group, decompose, coset-count.
Text output is aligned for reading; --format json emits one deterministic
JSON document per run (sorted keys, fixed indentation), suitable for golden
files and scripting.  Errors print to stderr and exit with status 2.

The argument parser is built on the first ``main`` call, not at import, and
reused for every later call in the process; parsing keeps no state between
calls, so ``main`` is safe to call repeatedly in-process.
"""

import argparse
import functools
import json
import sys

from .algebra import Algebra
from .catalog import build_catalog, build_row, check_bound, verify_catalog
from .decompose import decompose_abelian
from .fields import SIZE_LIMIT, check_field_size, make_field, prime_power_split
from .groups import group_by_label
from .presentations import DEFAULT_COSET_LIMIT, coset_enumeration, \
    parse_presentation


def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _parse_field(text: str) -> tuple[int, int]:
    """(p, k) from a label as FieldSpec.label writes it: F, then an ASCII
    number without a leading zero.  A size of 1024 or more is refused
    before it is factored."""
    digits = text[1:]
    if not (text.startswith("F") and digits.isascii() and digits.isdigit()
            and digits[0] != "0"):
        raise ValueError(f"field label must look like F9, got {text!r}")
    split = prime_power_split(check_field_size(int(digits)))
    if split is None:
        raise ValueError(f"{digits} is not a prime power")
    return split


def _field_and_group(field_text: str, group_text: str):
    """The field and group of an algebra within the catalog bound."""
    p, k = _parse_field(field_text)
    group = group_by_label(group_text)
    field = make_field(p, k)
    size = field.q ** group.order
    if size >= SIZE_LIMIT:
        raise ValueError(
            f"{field.label()}{group.label} has size {size}, outside the catalog "
            f"bound {SIZE_LIMIT}")
    return field, group


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


def cmd_table(args) -> int:
    catalog = build_catalog(args.bound, args.jobs)
    if args.format == "json":
        _emit_json(catalog.as_dict())
        return 0
    print(f"unit groups of group algebras with size below {catalog.bound} "
          f"({len(catalog.rows)} rows)")
    headers = ["field", "group", "size", "|U|", "decomposition", "structure",
               "method"]
    body = [[r.field, r.group, str(r.size), str(r.unit_count),
             r.decomposition or "-", r.structure, r.method]
            for r in catalog.rows]
    for line in _aligned(headers, body, right={2, 3}):
        print(line)
    return 0


def cmd_verify(args) -> int:
    report = verify_catalog(args.bound, args.jobs)
    if args.format == "json":
        _emit_json(report.as_dict())
        return report.exit_code
    for line in report.lines + report.inconsistency_lines:
        print(line)
    print(f"{report.matched}/{report.row_count} rows match the published "
          f"values; {len(report.typo_lines)} misprints adjudicated; "
          f"{len(report.mismatch_lines)} mismatches; "
          f"{len(report.inconsistency_lines)} inconsistencies")
    return report.exit_code


def cmd_scan_iso(args) -> int:
    # imported here: scan-iso is the only command that needs isoprobe
    from .isoprobe import scan_minimum_counterexample
    report = scan_minimum_counterexample(args.bound)
    if args.format == "json":
        _emit_json(report.as_dict())
        return 0
    print(report.headline())
    print(f"pairs examined: {report.pair_count} "
          f"(expected {report.expected_pair_count}); "
          f"inconclusive: {len(report.inconclusive)}")
    headers = ["size", "field", "pair", "verdict", "detail"]
    body = [[str(r.size), r.field, f"{r.group_a} / {r.group_b}", r.verdict,
             r.detail] for r in report.rows]
    for line in _aligned(headers, body, right={0}):
        print(line)
    if report.notes:
        print("notes on unit groups of the nonabelian pairs:")
        for n in report.notes:
            (label_a, label_b), (order_a, order_b) = n["pair"], n["orders"]
            print(f"  {label_a} vs {label_b}: {n['verdict']} "
                  f"(orders {order_a} and {order_b})")
    return 0


def cmd_unit_group(args) -> int:
    field, _ = _field_and_group(args.field, args.group)
    row = build_row(field.p, field.k, args.group)
    if args.format == "json":
        _emit_json(row.as_dict() | {"spectrum": row.spectrum})
        return 0
    print(f"U({row.field}{row.group}): order {row.unit_count}")
    print(f"structure: {row.structure}")
    print(f"method: {row.method} ({row.method_detail})")
    print("spectrum: " + " ".join(f"{o}:{c}" for o, c in row.spectrum))
    return 0


def cmd_decompose(args) -> int:
    algebra = Algebra(*_field_and_group(args.field, args.group))
    summands = decompose_abelian(algebra)
    if args.format == "json":
        _emit_json({
            "algebra": algebra.label(),
            "decomposition": summands.render(),
            "blocks": [{"render": b.render(), "dimension": b.dimension(),
                        "unit_order": b.unit_order()} for b in summands.blocks],
            "unit_order": summands.unit_order(),
        })
        return 0
    print(f"{algebra.label()} = {summands.render()}")
    print(f"unit order from blocks: {summands.unit_order()}")
    return 0


def cmd_coset_count(args) -> int:
    presentation = parse_presentation(args.presentation)
    order = coset_enumeration(presentation, args.limit)
    if args.format == "json":
        _emit_json({"presentation": args.presentation, "order": order})
        return 0
    print(order)
    return 0


def _int_arg(check):
    """argparse type: an int that check returns; its ValueError, or text that
    is no int, exits 2 with a message."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        try:
            return check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return parse


def _positive(value: int) -> int:
    if value < 1:
        raise ValueError(f"must be at least 1, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, ValueError, RuntimeError) as exc:
        # str() of a KeyError quotes its message as a repr
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
