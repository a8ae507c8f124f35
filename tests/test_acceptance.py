"""Acceptance gate: one test per published claim the package must reproduce.

Each test prints a PASS/FAIL line naming the criterion, so a verbose run
doubles as a checklist.
"""

import json

from kgunits.algebra import Algebra
from kgunits.catalog import verify_catalog
from kgunits.cli import main
from kgunits.decompose import decompose_abelian, predicted_unit_structure
from kgunits.expected import MISPRINTS, PRESENTATION_SOURCES, ROWS
from kgunits.fields import make_field
from kgunits.groups import group_by_label
from kgunits.isoprobe import explicit_isomorphism
from kgunits.presentations import (Certificate, Refutation,
                                   certify_from_source,
                                   certify_unit_group_presentation)
from kgunits.units import AbelianType, UnitGroup
from reference_checks import PRESENTATION_VARIANTS, REDUNDANT_RELATORS


def _criterion(problems, text):
    ok = not problems
    print(("PASS: " if ok else "FAIL: ") + text)
    assert ok, f"{text}: {problems[:5]}"


def test_criterion_1_published_table_reproduced(catalog_by_key):
    # every published row is rebuilt from scratch by unit enumeration and
    # must agree on the unit count and, where stated, the structure
    problems = []
    for row in ROWS:
        built = catalog_by_key.get((row.field, row.group))
        if built is None:
            problems.append((row.field, row.group, "missing from catalog"))
            continue
        if built.unit_count != row.unit_count:
            problems.append((row.field, row.group, "unit count",
                             built.unit_count, row.unit_count))
        if row.structure is not None and built.structure != row.structure:
            if not (built.method == "presentation"
                    and built.structure.startswith("presented(")):
                problems.append((row.field, row.group, "structure",
                                 built.structure, row.structure))
    if catalog_by_key[("F2", "D6")].structure != "D12":
        problems.append(("F2", "D6", "dihedral recognition"))
    _criterion(problems, "all 37 published rows reproduced by enumeration")


def test_criterion_2_elementary_abelian_closed_form():
    # U(F_{p^k} G) for G elementary abelian of order p^n must come out as
    # C_p^(k p^n - k) x C_{p^k - 1}, checked by brute enumeration
    grid = [(2, 1, "C2"), (2, 1, "C2xC2"), (2, 1, "C2^3"),
            (2, 2, "C2"), (2, 2, "C2xC2"),
            (2, 3, "C2"), (2, 4, "C2"),
            (3, 1, "C3"), (3, 2, "C3")]
    problems = []
    for p, k, label in grid:
        u = UnitGroup(Algebra(make_field(p, k), group_by_label(label)))
        copies = k * group_by_label(label).order - k
        want = AbelianType([p] * copies + [p ** k - 1])
        if u.abelian_invariants() != want:
            problems.append((p, k, label, u.abelian_invariants().render()))
    _criterion(problems, "closed form verified on all 9 modular elementary "
                         "abelian cases below the size cap")


def test_criterion_3_presentations_certified_and_mutations_refuted():
    problems = []
    for (field, label), src in sorted(PRESENTATION_SOURCES.items()):
        p = int(field[1:])
        u = UnitGroup(Algebra(make_field(p, 1), group_by_label(label)))
        gens = src.build_generators(u.algebra)
        res = certify_from_source(u, src.text, gens)
        if not isinstance(res, Certificate) or res.order != u.order:
            problems.append((field, label, "primary text failed"))
            continue
        # dropping a relator that is not provably redundant must refute
        rels = res.presentation.relators
        target = next(i for i in range(len(rels))
                      if i not in REDUNDANT_RELATORS[field, label])
        dropped = res.presentation._replace(relators=rels[:target] + rels[target + 1:])
        mutated = certify_unit_group_presentation(u, dropped, gens, limit=4000)
        if not isinstance(mutated, Refutation):
            problems.append((field, label, f"dropping relator {target} still certified"))
        for name, alt in PRESENTATION_VARIANTS.get((field, label), ()):
            alt_res = certify_from_source(u, alt, gens)
            if isinstance(alt_res, Certificate):
                problems.append((field, label, f"variant {name} certified"))
            else:
                print(f"note: {field} {label} primary text certifies; "
                      f"{name} text refuted at step {alt_res.failed_step}")
    # the squaring relation is what separates the two order-128 unit groups
    u8 = UnitGroup(Algebra(make_field(2, 1), group_by_label("D8")))
    uq = UnitGroup(Algebra(make_field(2, 1), group_by_label("Q8")))
    d8src = PRESENTATION_SOURCES[("F2", "D8")]
    q8src = PRESENTATION_SOURCES[("F2", "Q8")]
    swapped_d8 = d8src.text.replace("y^2,", "y^2 = x^2,", 1)
    swapped_q8 = q8src.text.replace("y^2 = x^2,", "y^2,", 1)
    if not isinstance(certify_from_source(u8, swapped_d8,
                                          d8src.build_generators(u8.algebra)),
                      Refutation):
        problems.append(("F2", "D8", "quaternion squaring relation certified"))
    if not isinstance(certify_from_source(uq, swapped_q8,
                                          q8src.build_generators(uq.algebra)),
                      Refutation):
        problems.append(("F2", "Q8", "dihedral squaring relation certified"))
    _criterion(problems, "all 4 nonabelian presentations certified; "
                         "mutated presentations refuted")


def test_criterion_4_decompositions_carry_the_unit_counts(catalog_rows):
    problems = []
    checked = 0
    for row in catalog_rows:
        if row.decomposition is None:
            continue
        a = Algebra(make_field(row.p, row.k), group_by_label(row.group))
        summands = decompose_abelian(a)
        if summands.render() != row.decomposition:
            problems.append((row.field, row.group, "render"))
        if summands.unit_order() != row.unit_count:
            problems.append((row.field, row.group, "unit order"))
        predicted = predicted_unit_structure(summands)
        if predicted is not None and predicted.render() != row.structure:
            problems.append((row.field, row.group, "predicted structure"))
        checked += 1
    if checked != 239:
        problems.append(("commutative row count", checked))
    _criterion(problems, "block decompositions reproduce every commutative "
                         "row's unit count and structure")


def test_criterion_5_minimum_counterexample_certified(scan_report):
    problems = []
    r = scan_report
    if r.minimum is None or (r.minimum.size, r.minimum.field) != (625, "F5"):
        problems.append(("minimum", r.minimum))
    if {r.minimum.group_a, r.minimum.group_b} != {"C4", "C2xC2"}:
        problems.append(("groups", r.minimum))
    below = [row for row in r.rows if row.size < 625]
    if len(below) != 15 or any(row.verdict != "not_isomorphic" for row in below):
        problems.append(("pairs below 625", [row.verdict for row in below]))
    if r.inconclusive:
        problems.append(("inconclusive", r.inconclusive))
    a = Algebra(make_field(5, 1), group_by_label("C4"))
    b = Algebra(make_field(5, 1), group_by_label("C2xC2"))
    w = explicit_isomorphism(a, b)
    if (w.source_label, w.target_label) != ("F5C4", "F5C2xC2"):
        problems.append(("witness labels", w.source_label, w.target_label))
    if r.minimum.detail != f"verified witness, checksum {w.checksum()}" \
            or w.checksum() != "ce8efdaedf605a72":
        problems.append(("witness checksum", w.checksum(), r.minimum.detail))
    basis = [a.basis_element(i) for i in range(a.group.order)]
    for x in basis:
        for y in basis:
            if w.apply(x * y) != w.apply(x) * w.apply(y):
                problems.append(("witness product", str(x), str(y)))
    if w.apply(a.one()) != b.one():
        problems.append(("witness does not fix the identity",))
    if len({w.apply(x).key() for x in basis}) != len(basis):
        problems.append(("witness not injective on basis",))
    _criterion(problems, "F5[C4] ~ F5[C2xC2] at 625 is the unique minimum, "
                         "witnessed on all basis products")


def test_criterion_6_involution_counts():
    problems = []
    for p, k, label, want in ((2, 1, "C4xC2", 64), (2, 1, "C8", 16),
                              (2, 2, "C4", 16)):
        spec = dict(UnitGroup(Algebra(make_field(p, k),
                                      group_by_label(label))).unit_order_spectrum())
        got = spec.get(1, 0) + spec.get(2, 0)
        if got != want:
            problems.append((p, k, label, got, want))
    _criterion(problems, "counts of units of order at most 2 match "
                         "(64 / 16 / 16)")


def test_criterion_7_misprints_adjudicated(catalog_rows):
    problems = []
    report = verify_catalog(rows=catalog_rows)
    if report.exit_code != 0:
        problems.append(("exit code", report.exit_code))
    if report.matched != report.row_count:
        problems.append(("matched", report.matched, report.row_count))
    if len(report.typo_lines) != len(MISPRINTS) or len(MISPRINTS) != 5:
        problems.append(("typo count", len(report.typo_lines)))
    for m in MISPRINTS:
        if not any(m.printed in line for line in report.typo_lines):
            problems.append(("missing adjudication", m.printed))
    if report.mismatch_lines or report.inconsistency_lines:
        problems.append(("stray failures", report.mismatch_lines,
                         report.inconsistency_lines))
    _criterion(problems, "verification passes with exactly 5 recomputed "
                         "typo adjudications")


def test_criterion_8_json_output_is_deterministic(capsys):
    main(["table", "--format", "json"])
    first = capsys.readouterr().out
    main(["table", "--format", "json"])
    second = capsys.readouterr().out
    problems = []
    if first != second:
        problems.append("table json differs between runs")
    rows = json.loads(first)["rows"]
    if len(rows) != 243:
        problems.append(("row count", len(rows)))
    _criterion(problems, "catalog JSON is byte-identical across runs")
