import json
from collections import Counter, namedtuple
from itertools import combinations

import pytest

import kgunits.isoprobe
from kgunits.catalog import build_row, catalog_specs
from kgunits.groups import group_by_label, groups_of_order
from kgunits.isoprobe import (BUNDLE_COMPARE_FIELDS, InvariantBundle, _pair_row,
                              _scan_algebras, bundle, compare_unit_groups,
                              explicit_isomorphism, scan_minimum_counterexample)
from kgunits.units import UnitGroup
from reference_checks import make_algebra

# an eager reference for the lazy bundle: the algebra, and every compared
# invariant read straight off the group and one UnitGroup
Reference = namedtuple("Reference", ("algebra", *BUNDLE_COMPARE_FIELDS))


def _reference(alg):
    units = UnitGroup(alg)
    return Reference(alg, alg.group.is_abelian(), units.order,
                     units.unit_order_spectrum())


def _fields(b):
    return tuple(getattr(b, f) for f in BUNDLE_COMPARE_FIELDS)


def _row(p, label_a, label_b):
    a, b = make_algebra(p, 1, label_a), make_algebra(p, 1, label_b)
    return _pair_row(bundle(a), bundle(b))


def test_bundle_is_deterministic():
    assert _fields(bundle(make_algebra(3, 1, "C4"))) == \
        _fields(bundle(make_algebra(3, 1, "C4")))


def test_bundle_holds_exactly_the_compared_invariants_in_order():
    # the comparison order names the verdict, so it is part of the output
    assert BUNDLE_COMPARE_FIELDS == (
        "commutative", "unit_count", "unit_order_spectrum")
    b = bundle(make_algebra(2, 1, "C3"))
    assert isinstance(b, InvariantBundle)
    # no units until a unit invariant is read, then one UnitGroup for both
    assert "units" not in vars(b)
    assert _fields(b) == _fields(_reference(b.algebra)) and "units" in vars(b)


def test_pair_row_refutes_by_the_first_differing_invariant():
    r = _row(2, "C8", "C4xC2")
    assert (r.size, r.field, r.group_a, r.group_b, r.verdict) == \
        (256, "F2", "C8", "C4xC2", "not_isomorphic")
    assert r.detail.startswith("unit_order_spectrum: {")
    r = _row(3, "C4", "C2xC2")
    assert (r.verdict, r.detail) == ("not_isomorphic", "unit_count: 32 vs 16")
    r = _row(2, "D8", "Q8")
    assert (r.verdict, r.detail) == (
        "not_isomorphic", "unit_order_spectrum: {1: 1, 2: 47, 4: 80} "
                          "vs {1: 1, 2: 15, 4: 112}")


def test_pair_row_certifies_the_order_625_pair():
    r = _row(5, "C4", "C2xC2")
    assert (r.size, r.field, r.verdict, r.detail) == (
        625, "F5", "isomorphic", "verified witness, checksum ce8efdaedf605a72")


def test_a_certified_pair_is_decomposed_once_per_algebra(monkeypatch):
    ba, bb = bundle(make_algebra(5, 1, "C4")), bundle(make_algebra(5, 1, "C2xC2"))
    real = kgunits.isoprobe.decompose_abelian
    calls = []
    monkeypatch.setattr(kgunits.isoprobe, "decompose_abelian",
                        lambda alg: calls.append(alg.label()) or real(alg))
    assert _pair_row(ba, bb).verdict == "isomorphic"
    assert calls == ["F5C4", "F5C2xC2"]


def test_a_commutative_tie_without_matching_decompositions_is_inconclusive():
    # the bundles tie by construction, reading one UnitGroup; F3 C4 and
    # C2xC2 decompose differently, so explicit_isomorphism refuses and the
    # row says so
    ba, bb = bundle(make_algebra(3, 1, "C4")), bundle(make_algebra(3, 1, "C2xC2"))
    bb.units = ba.units
    r = _pair_row(ba, bb)
    assert (r.verdict, r.detail) == (
        "inconclusive", "invariant bundle ties and no certified decomposition match")


def test_pair_row_is_symmetric_in_verdict():
    backward = _row(5, "C2xC2", "C4")
    assert backward.verdict == "isomorphic"
    assert (backward.group_a, backward.group_b) == ("C2xC2", "C4")
    assert _row(2, "C8", "C4xC2").verdict == _row(2, "C4xC2", "C8").verdict \
        == "not_isomorphic"


def test_explicit_isomorphism_requires_matching_decompositions():
    with pytest.raises(ValueError):
        explicit_isomorphism(make_algebra(3, 1, "C4"), make_algebra(3, 1, "C2xC2"))


def test_explicit_isomorphism_refuses_extension_field_blocks():
    # F2C3 = F2 + F4: the decompositions match, but F4 is no copy of K
    a = make_algebra(2, 1, "C3")
    with pytest.raises(ValueError, match="copies of the coefficient field only"):
        explicit_isomorphism(a, a)


def test_a_tie_with_an_extension_field_block_is_inconclusive():
    ba, bb = bundle(make_algebra(2, 1, "C3")), bundle(make_algebra(2, 1, "C3"))
    assert _fields(ba) == _fields(bb)
    r = _pair_row(ba, bb)
    assert (r.verdict, r.detail) == (
        "inconclusive", "invariant bundle ties and no certified decomposition match")


def test_scan_report(scan_report):
    r = scan_report
    assert r.bound == 1024
    assert r.pair_count == r.expected_pair_count == 17
    assert r.inconclusive == ()
    assert r.minimum is not None
    assert r.minimum.size == 625
    assert r.minimum.field == "F5"
    assert {r.minimum.group_a, r.minimum.group_b} == {"C4", "C2xC2"}
    assert r.headline() == "minimum isomorphic pair: F5 C4 ~ C2xC2 at size 625"
    sizes = [row.size for row in r.rows]
    assert sizes == sorted(sizes)
    below = [row for row in r.rows if row.size < 625]
    assert len(below) == 15
    assert all(row.verdict == "not_isomorphic" for row in below)
    assert sum(1 for row in r.rows if row.verdict == "isomorphic") == 1
    assert [n["pair"] for n in r.notes] == [["U(F2D8)", "U(F2Q8)"]]
    assert r.as_dict()["notes"] == list(r.notes)
    json.dumps(r.as_dict())


def test_the_lazy_scan_matches_rows_and_notes_from_full_bundles(scan_report):
    rows, notes = [], []
    for p, k, n in _scan_algebras(1024):
        full = [_reference(make_algebra(p, k, g.label)) for g in groups_of_order(n)]
        for expected in full:
            assert _fields(bundle(expected.algebra)) == _fields(expected)
        for ba, bb in combinations(full, 2):
            rows.append(tuple(_pair_row(ba, bb)))
            if not (ba.commutative or bb.commutative):
                notes.append(compare_unit_groups(ba, bb))
    assert [tuple(r) for r in scan_report.rows] == rows
    assert list(scan_report.notes) == notes


def test_the_scan_builds_units_and_bundles_only_where_a_verdict_reads_them(
        monkeypatch):
    units, bundles = Counter(), Counter()
    real_units, real_bundle = kgunits.isoprobe.UnitGroup, kgunits.isoprobe.bundle

    def counted_units(alg):
        units[alg.label()] += 1
        return real_units(alg)

    def counted_bundle(alg):
        bundles[alg.label()] += 1
        return real_bundle(alg)

    monkeypatch.setattr(kgunits.isoprobe, "UnitGroup", counted_units)
    monkeypatch.setattr(kgunits.isoprobe, "bundle", counted_bundle)
    assert scan_minimum_counterexample(1024).pair_count == 17
    scanned = {make_algebra(p, k, g.label).label()
               for p, k, n in _scan_algebras(1024) for g in groups_of_order(n)}
    # C6 and D6 differ in commutativity, which the group alone decides
    refuted_by_the_group = {"F2C6", "F2D6", "F3C6", "F3D6"}
    assert len(scanned) == 19 and refuted_by_the_group <= scanned
    assert units == Counter(scanned - refuted_by_the_group)
    # one bundle call per scanned algebra; the bundles build units for the
    # 15 algebras whose pairs commutativity does not refute
    assert bundles == Counter(scanned) and sum(bundles.values()) == 19
    assert sum(units.values()) == 15


def _scan_algebras_from_the_catalog(bound):
    """The scan's (p, k, n) list as read off the catalog's specs."""
    combos = {}
    for p, k, label in catalog_specs(bound):
        n = group_by_label(label).order
        if n >= 2 and len(groups_of_order(n)) >= 2:
            combos[p, k, n] = None
    return list(combos)


def test_scan_sizes_match_the_catalog_specs_at_every_bound():
    for bound in range(2, 1025):
        assert _scan_algebras(bound) == _scan_algebras_from_the_catalog(bound), bound
    assert len(_scan_algebras(1024)) == 8


def test_scan_below_the_minimum_finds_nothing():
    r = scan_minimum_counterexample(600)
    assert r.minimum is None
    assert r.headline() == "no isomorphic pair below 600"


def _note(a, b):
    return compare_unit_groups(bundle(a), bundle(b))


def test_compare_unit_groups_branches():
    d8, q8 = make_algebra(2, 1, "D8"), make_algebra(2, 1, "Q8")
    assert _note(d8, q8) == {
        "pair": ["U(F2D8)", "U(F2Q8)"], "orders": [128, 128],
        "spectra": [((1, 1), (2, 47), (4, 80)), ((1, 1), (2, 15), (4, 112))],
        "abelian": [False, False],
        "verdict": "not isomorphic (element order spectra differ)"}
    assert _note(d8, d8)["verdict"] == \
        "inconclusive (equal orders and spectra, both nonabelian)"
    assert _note(make_algebra(2, 1, "D6"), make_algebra(3, 1, "D6"))["verdict"] == \
        "not isomorphic (orders differ)"
    json.dumps(_note(d8, q8))


def test_the_spectrum_is_one_object_from_units_to_rows_and_notes(monkeypatch):
    d8, q8 = make_algebra(2, 1, "D8"), make_algebra(2, 1, "Q8")
    ba, bb = bundle(d8), bundle(q8)
    ua, ub = ba.units, bb.units
    assert ba.unit_order_spectrum is ua.unit_order_spectrum()
    note = compare_unit_groups(ba, bb)
    assert note["spectra"][0] is ua.unit_order_spectrum()
    assert note["spectra"][1] is ub.unit_order_spectrum()
    # build_row's own unit group, caught on the way in; past its cache
    built = []
    monkeypatch.setattr(kgunits.catalog, "UnitGroup",
                        lambda alg: built.append(UnitGroup(alg)) or built[-1])
    row = build_row.__wrapped__(2, 1, "D8")
    assert row.spectrum is built[0].unit_order_spectrum() == ua.unit_order_spectrum()
