import json
from math import prod

import pytest

import kgunits.catalog
from kgunits.algebra import Algebra
from kgunits.catalog import build_catalog, build_row, catalog_specs, \
    parse_structure_order, verify_catalog
from kgunits.decompose import decompose_abelian, predicted_unit_structure
from kgunits.expected import PRESENTATION_SOURCES, Misprint
from kgunits.fields import SIZE_LIMIT, make_field, prime_power_split
from kgunits.groups import group_by_label, groups_of_order
from kgunits.presentations import parse_presentation
from kgunits.units import AbelianType, UnitGroup, abelian_type


def test_row_count_and_order(catalog_rows):
    assert len(catalog_rows) == 243
    keys = [(r.size, r.p ** r.k, r.group) for r in catalog_rows]
    assert keys == sorted(keys)
    assert len({(r.field, r.group) for r in catalog_rows}) == 243


def test_method_histogram(catalog_rows):
    hist = {}
    for r in catalog_rows:
        hist[r.method] = hist.get(r.method, 0) + 1
    assert hist == {"decomposition": 226, "lemma": 9, "enumeration": 4,
                    "presentation": 4}


def test_lemma_rows_are_the_elementary_abelian_grid(catalog_rows):
    lemma = {(r.field, r.group) for r in catalog_rows if r.method == "lemma"}
    assert lemma == {
        ("F2", "C2"), ("F2", "C2xC2"), ("F2", "C2^3"),
        ("F4", "C2"), ("F4", "C2xC2"),
        ("F8", "C2"), ("F16", "C2"),
        ("F3", "C3"), ("F9", "C3"),
    }


def _old_is_elementary_abelian(group, p):
    """The lemma test that build_row used before the block rule."""
    return group.order > 1 and group.is_abelian() and all(
        group.element_order(g) in (1, p) for g in range(group.order))


def test_lemma_block_rule_matches_the_elementary_abelian_test():
    """Where a prediction exists, one local block F_q[G] with G != 1 is
    exactly G elementary abelian for the characteristic."""
    predicted = lemma = 0
    # every field below 1024 and group with q^|G| < 10^7: past the catalog
    # bound, which catalog_specs refuses
    specs = [(*split, g) for q in range(2, SIZE_LIMIT)
             if (split := prime_power_split(q))
             for n in range(1, 10) if q ** n < 10 ** 7
             for g in groups_of_order(n)]
    for p, k, group in specs:
        if not group.is_abelian():
            continue
        summands = decompose_abelian(Algebra(make_field(p, k), group))
        if predicted_unit_structure(summands) is None:
            continue
        rule = summands.blocks[0].group_size() == group.order > 1
        assert rule == _old_is_elementary_abelian(group, p), (p, k, group.label)
        predicted += 1
        lemma += rule
    assert (predicted, lemma) == (546, 24)


def test_enumeration_rows_are_the_unpredicted_modular_shapes(catalog_rows):
    enum = {(r.field, r.group) for r in catalog_rows if r.method == "enumeration"}
    assert enum == {("F2", "C4"), ("F2", "C8"), ("F2", "C4xC2"), ("F4", "C4")}


def _sandling_unit_structure(summands):
    """U of a sum of blocks by Sandling's count (J. Pure Appl. Algebra 33,
    1984): a block F[P] with |F| = p^m gives C_{|F|-1} and, for i >= 1,
    m(|P^(p^(i-1))| - 2|P^(p^i)| + |P^(p^(i+1))|) cyclic factors C_{p^i}."""
    orders = []
    for block in summands.blocks:
        orders.append(block.field_size() - 1)
        if not block.p_part:
            continue
        p, k = prime_power_split(block.q_base)
        m = k * block.degree

        def power_size(j):  # |P^(p^j)|, P a product of cyclic p-groups
            return prod(max(o // p ** j, 1) for o in block.p_part)
        i = 1
        while p ** i <= max(block.p_part):
            count = m * (power_size(i - 1) - 2 * power_size(i) + power_size(i + 1))
            orders.extend([p ** i] * count)
            i += 1
    return AbelianType(orders)


def test_sandling_count_matches_every_abelian_row(catalog_rows):
    abelian = [r for r in catalog_rows if r.decomposition is not None]
    assert len(abelian) == 239
    unpredicted = set()
    for r in abelian:
        summands = decompose_abelian(
            Algebra(make_field(r.p, r.k), group_by_label(r.group)))
        assert _sandling_unit_structure(summands).render() == r.structure, \
            (r.field, r.group)
        if predicted_unit_structure(summands) is None:
            unpredicted.add((r.field, r.group))
    # the rows with no closed form in the program: P of exponent above p
    assert unpredicted == {("F2", "C4"), ("F2", "C8"), ("F2", "C4xC2"),
                           ("F4", "C4")}


def _normal_sylow_order(group, p):
    """|P| for the Sylow p-subgroup P of G if it is normal, else None.  P is
    normal exactly when it holds every element of p-power order."""
    p_part, rest = 1, group.order
    while rest % p == 0:
        p_part, rest = p_part * p, rest // p
    p_elements = 0
    for g in range(group.order):
        o = group.element_order(g)
        while o % p == 0:
            o //= p
        p_elements += o == 1
    return p_part if p_elements == p_part else None


def test_radical_count_matches_the_nonabelian_rows(catalog_rows, catalog_by_key):
    """With P normal, J(KG) = w(KP)KG and KG/J = K[G/P], so
    |U(KG)| = |U(K[G/P])| q^(|G| - |G/P|) (Passman; Milies & Sehgal)."""
    counted = {}
    for r in catalog_rows:
        group = group_by_label(r.group)
        if group.is_abelian():
            continue
        sylow = _normal_sylow_order(group, r.p)
        if sylow is None:
            continue
        quotient_order = group.order // sylow
        (quotient,) = groups_of_order(quotient_order)
        quotient_units = catalog_by_key[(r.field, quotient.label)].unit_count
        count = quotient_units * (r.p ** r.k) ** (group.order - quotient_order)
        assert count == r.unit_count, (r.field, r.group)
        counted[(r.field, r.group)] = count
    # F2 D6 has three Sylow 2-subgroups, so it has no such count
    assert counted == {("F2", "D8"): 128, ("F2", "Q8"): 128, ("F3", "D6"): 324}


def test_presentation_rows_match_the_sources(catalog_rows):
    pres = {(r.field, r.group) for r in catalog_rows if r.method == "presentation"}
    assert pres == {("F2", "D6"), ("F2", "D8"), ("F2", "Q8"), ("F3", "D6")}
    for r in catalog_rows:
        if r.method == "presentation":
            assert "coset enumeration gives" in r.method_detail
            assert "left commutators" in r.method_detail


def _dihedral_relators(m):
    return parse_presentation(f"r, s | r^{m}, s^2, s*r*s = r^{m - 1}").relators


def test_only_the_f2_d6_source_has_the_dihedral_relators(catalog_by_key):
    # w, y | w^6, y^2, y*w*y = w^5 is the standard presentation of D12
    assert parse_presentation(PRESENTATION_SOURCES["F2", "D6"].text).relators == \
        _dihedral_relators(6)
    # no other source matches the template at any m up to its order
    matches = {(key, m) for key, src in PRESENTATION_SOURCES.items()
               for m in range(1, catalog_by_key[key].unit_count + 1)
               if parse_presentation(src.text).relators == _dihedral_relators(m)}
    assert matches == {(("F2", "D6"), 6)}


def test_nonabelian_structures_come_from_the_certificate_alone(monkeypatch):
    def no_search(self):
        raise AssertionError("build_row searched for a dihedral witness")
    monkeypatch.setattr(UnitGroup, "recognize_dihedral", no_search)
    assert {key: build_row.__wrapped__(*key).structure for key in
            [(2, 1, "D6"), (2, 1, "D8"), (2, 1, "Q8"), (3, 1, "D6")]} == {
        (2, 1, "D6"): "D12",
        (2, 1, "D8"): "presented(order 128, 3 generators)",
        (2, 1, "Q8"): "presented(order 128, 3 generators)",
        (3, 1, "D6"): "presented(order 324, 3 generators)"}


def test_fixed_rows(catalog_by_key):
    r = catalog_by_key[("F2", "C8")]
    assert (r.size, r.unit_count, r.structure) == (256, 128, "C2^2 x C4 x C8")
    assert catalog_by_key[("F8", "C2")].unit_count == 56
    assert catalog_by_key[("F8", "C2")].structure == "C2^3 x C7"
    assert catalog_by_key[("F7", "C3")].unit_count == 216
    assert catalog_by_key[("F7", "C3")].structure == "C2^3 x C3^3"
    assert catalog_by_key[("F2", "D6")].structure == "D12"
    assert catalog_by_key[("F3", "D6")].structure == "presented(order 324, 3 generators)"
    for key in (("F5", "C4"), ("F5", "C2xC2")):
        r = catalog_by_key[key]
        assert (r.size, r.unit_count, r.structure, r.decomposition) == \
            (625, 256, "C4^4", "F5^4")


def test_every_row_is_published_and_self_consistent(catalog_rows):
    from kgunits.groups import group_by_label
    for r in catalog_rows:
        group = group_by_label(r.group)
        assert r.published is not None, (r.field, r.group)
        assert parse_structure_order(r.structure) == r.unit_count, (r.field, r.group)
        if group.is_abelian():
            # the structure string reads back as the type the spectrum gives
            t = abelian_type(r.unit_count, r.spectrum)
            assert t.render() == r.structure, (r.field, r.group)
            assert AbelianType.parse(t.render()) == t, (r.field, r.group)
        assert r.size == (r.p ** r.k) ** group.order
        assert r.size < 1024
        assert json.dumps(r.as_dict())


def test_parse_structure_order():
    assert parse_structure_order("C1") == 1
    assert parse_structure_order("C2^5 x C4") == 128
    assert parse_structure_order("D12") == 12
    assert parse_structure_order("presented(order 324, 3 generators)") == 324
    assert parse_structure_order("what") is None
    assert parse_structure_order("presented(order x, 3 generators)") is None


@pytest.mark.parametrize("text", ["C4^0", "C6", "C2 x C2"])
def test_structure_text_render_never_writes_is_rejected(text):
    # each names a group, but not in the canonical render: C1, C2 x C3, C2^2
    with pytest.raises(ValueError):
        AbelianType.parse(text)
    assert parse_structure_order(text) is None


def test_catalog_specs_small_bound():
    assert catalog_specs(16) == [
        (2, 1, "C1"), (3, 1, "C1"), (2, 1, "C2"), (2, 2, "C1"),
        (5, 1, "C1"), (7, 1, "C1"), (2, 1, "C3"), (2, 3, "C1"),
        (3, 1, "C2"), (3, 2, "C1"), (11, 1, "C1"), (13, 1, "C1")]


def test_build_row_is_cached():
    assert build_row(2, 1, "C6") is build_row(2, 1, "C6")


def test_a_nonabelian_row_past_the_bound_is_refused_before_its_units(monkeypatch):
    built = []
    monkeypatch.setattr(kgunits.catalog, "UnitGroup", built.append)
    with pytest.raises(ValueError, match=r"^F5D6 has size 15625, outside the "
                                         r"catalog bound 1024$"):
        build_row.__wrapped__(5, 1, "D6")
    assert built == []


@pytest.mark.parametrize("p,k,label", [(2, 5, "C2"), (2, 2, "C5")])
def test_an_abelian_row_past_the_bound_is_refused_before_its_units(
        monkeypatch, p, k, label):
    built = []
    monkeypatch.setattr(kgunits.catalog, "UnitGroup", built.append)
    with pytest.raises(ValueError, match=rf"^F{p ** k}{label} has size 1024, "
                                         r"outside the catalog bound 1024$"):
        build_row.__wrapped__(p, k, label)
    assert built == []


def test_parallel_build_agrees_with_sequential():
    seq = build_catalog(100)
    par = build_catalog(100, jobs=2)
    assert par.rows == seq.rows
    assert len(seq.rows) == 52


def test_verify_catalog_passes(catalog_rows):
    report = verify_catalog(rows=catalog_rows)
    assert report.exit_code == 0
    assert report.matched == report.row_count == 243
    assert len(report.typo_lines) == 5
    assert report.mismatch_lines == ()
    assert report.inconsistency_lines == ()
    assert all(line.startswith(("ok ", "TYPO ")) for line in report.lines)
    assert sum(1 for line in report.lines if line.startswith("TYPO")) == 5
    assert all(line.startswith("TYPO") for line in report.typo_lines)


def test_structure_misprint_is_adjudicated_from_its_claims(catalog_rows, monkeypatch):
    # U(F3C4) = C2^2 x C8 refutes the printed claim; U(F3C2) = C2^2 holds
    slip = Misprint(("F3", "C2"), "structure", "U(F3C4) = C2^2", "U(F3C2) = C2^2", "")
    monkeypatch.setattr(kgunits.catalog, "MISPRINTS", (slip,))
    report = verify_catalog(rows=catalog_rows)
    assert report.typo_lines == ("TYPO F3 C2 structure: printed 'U(F3C4) = C2^2'; "
                                 "computed U(F3C2) = C2^2, U(F3C4) = C2^2 x C8",)
    assert report.inconsistency_lines == ()


def test_verify_catalog_detects_internal_inconsistency(catalog_rows):
    doctored = list(catalog_rows)
    victim = doctored[40]
    doctored[40] = victim._replace(structure="C9999")
    report = verify_catalog(rows=doctored)
    assert report.exit_code == 2
    assert report.inconsistency_lines


def test_verify_catalog_detects_published_mismatch(catalog_rows):
    doctored = []
    for r in catalog_rows:
        if (r.field, r.group) == ("F2", "C6"):
            pub = dict(r.published)
            pub["unit_count"] = r.unit_count + 1
            r = r._replace(published=pub)
        doctored.append(r)
    report = verify_catalog(rows=doctored)
    assert report.exit_code == 1
    assert any("F2" in line and "C6" in line for line in report.mismatch_lines)


@pytest.mark.parametrize("bound,message", [
    (1, "must be at least 2, got 1"),
    (1025, r"must be at most 1024 \(the bound of the published catalog\), got 1025"),
])
def test_library_entry_points_refuse_a_bound_outside_2_to_1024(bound, message):
    """Past 1024 the catalog and the scan would drop algebras without a word."""
    from kgunits.isoprobe import scan_minimum_counterexample
    for entry in (catalog_specs, build_catalog, verify_catalog,
                  scan_minimum_counterexample):
        with pytest.raises(ValueError, match=message):
            entry(bound)
