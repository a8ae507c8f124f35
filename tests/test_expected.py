import pytest

import kgunits.expected
from kgunits.algebra import Algebra
from kgunits.expected import (MISPRINTS, PRESENTATION_SOURCES, ROW_INDEX,
                              ROWS, expectation_for, prose_family)
from kgunits.fields import make_field
from kgunits.groups import group_by_label
from kgunits.units import AbelianType
from reference_checks import (PRESENTATION_VARIANTS, REDUNDANT_RELATORS,
                              validate_reference_data)


def test_reference_data_is_internally_consistent():
    validate_reference_data()


@pytest.mark.parametrize("structure", ["D14", "C2 x C6", "presented(order 11)"])
def test_reference_data_checks_every_structure_against_its_count(monkeypatch, structure):
    # the published D12 of F2[D6] is checked like an abelian structure
    rows = tuple(r._replace(structure=structure)
                 if (r.field, r.group) == ("F2", "D6") else r for r in ROWS)
    monkeypatch.setattr(kgunits.expected, "ROWS", rows)
    with pytest.raises(RuntimeError, match="structure and count disagree on F2 D6"):
        validate_reference_data()


def test_row_inventory():
    assert len(ROWS) == 37
    assert len(ROW_INDEX) == 37  # keys (field, group) are unique
    for row in ROWS:
        assert row.unit_count > 0
        assert row.size < 1024
        if row.structure is not None and row.structure[0] == "C":
            # abelian structures are stored in the canonical grammar
            orders = []
            for factor in row.structure.split(" x "):
                base, _, mult = factor.partition("^")
                orders += [int(base[1:])] * (int(mult) if mult else 1)
            assert AbelianType(orders).render() == row.structure


def test_stored_structures_use_the_canonical_grammar():
    # composite and power-form citations normalize into primary form
    assert AbelianType([15]).render() == "C3 x C5"
    assert AbelianType([3, 63]).render() == "C3 x C9 x C7"
    assert AbelianType([2, 80]).render() == "C2 x C16 x C5"
    assert AbelianType([4, 24]).render() == "C4 x C8 x C3"
    assert AbelianType([3, 3, 3, 3, 8]).render() == "C8 x C3^4"
    assert ROW_INDEX[("F2", "C5")].structure == "C3 x C5"
    assert ROW_INDEX[("F2", "C9")].structure == "C3 x C9 x C7"
    assert ROW_INDEX[("F3", "C5")].structure == "C2 x C16 x C5"
    assert ROW_INDEX[("F5", "C3")].structure == "C4 x C8 x C3"
    assert ROW_INDEX[("F9", "C3")].structure == "C8 x C3^4"


def test_misprint_registry():
    assert len(MISPRINTS) == 5
    kinds = sorted(m.kind for m in MISPRINTS)
    assert kinds == ["decomposition", "decomposition", "decomposition",
                     "presentation", "structure"]
    for m in MISPRINTS:
        assert m.printed != m.corrected
        if m.kind == "decomposition":
            # the registry stores the corrected reading next to the row
            row = ROW_INDEX[m.key]
            assert row.decomposition == m.corrected
    keyed = {m.key for m in MISPRINTS if m.key is not None}
    assert keyed == {("F2", "C5"), ("F2", "C7"), ("F3", "C4"), ("F2", "C4")}


def test_expectation_merging():
    both = expectation_for(3, 1, "C2")
    assert both["source"] == "both"
    table_only = expectation_for(2, 1, "C5")
    assert table_only["source"] == "table"
    assert table_only["decomposition"] == "F2 + F16"
    prose_only = expectation_for(2, 3, "C2")
    assert prose_only["source"] == "prose"
    assert expectation_for(7, 1, "D6") is None


def test_prose_rules_spot_checks():
    assert expectation_for(2, 3, "C2")["structure"] == "C2^3 x C7"
    assert expectation_for(2, 3, "C2")["unit_count"] == 56
    assert expectation_for(7, 1, "C3")["unit_count"] == 216
    assert expectation_for(5, 2, "C2")["structure"] == "C8^2 x C3^2"
    assert expectation_for(5, 2, "C2")["unit_count"] == 576
    def rendered(p, k, label):
        structure, decomposition = prose_family(p, k, label)
        return structure.render(), decomposition

    # trivial group: U = K^*
    assert rendered(2, 4, "C1") == ("C3 x C5", "F16")
    assert rendered(3, 1, "C1") == ("C2", "F3")
    # split vs inert C3 in odd characteristic away from 3
    assert rendered(7, 1, "C3") == ("C2^3 x C3^3", "F7^3")
    assert rendered(5, 1, "C3") == ("C4 x C8 x C3", "F5 + F25")
    assert prose_family(2, 1, "D6") is None
    assert rendered(2, 1, "C2") == ("C2", None)  # modular case


def test_prose_agrees_with_enumeration_on_a_sample():
    from kgunits.units import UnitGroup
    for p, k, label in ((2, 2, "C3"), (5, 1, "C4"), (5, 1, "C2xC2"), (2, 3, "C2")):
        u = UnitGroup(Algebra(make_field(p, k), group_by_label(label)))
        want, _ = prose_family(p, k, label)
        assert u.abelian_invariants() == want
        assert u.order == want.order()


def test_presentation_sources():
    assert set(PRESENTATION_SOURCES) == {
        ("F2", "D6"), ("F2", "D8"), ("F2", "Q8"), ("F3", "D6")}
    assert set(REDUNDANT_RELATORS) == set(PRESENTATION_SOURCES)
    assert REDUNDANT_RELATORS[("F2", "D6")] == ()
    assert REDUNDANT_RELATORS[("F2", "D8")] == ()
    assert REDUNDANT_RELATORS[("F2", "Q8")] == (0,)
    assert REDUNDANT_RELATORS[("F3", "D6")] == (0, 3, 4, 9)
    assert set(PRESENTATION_VARIANTS) == {("F3", "D6")}
    assert len(PRESENTATION_VARIANTS[("F3", "D6")]) == 1
    for (field, label), src in PRESENTATION_SOURCES.items():
        p = int(field[1:])
        algebra = Algebra(make_field(p, 1), group_by_label(label))
        gens = src.build_generators(algebra)
        for name, g in gens.items():
            assert g.try_inverse() is not None, (field, label, name)
