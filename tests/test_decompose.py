import pytest

from kgunits.catalog import catalog_specs
from kgunits.decompose import (Block, SummandList, decompose_abelian,
                               predicted_unit_structure)
from kgunits.groups import group_by_label
from kgunits.isoprobe import primitive_idempotents_by_search
from kgunits.units import UnitGroup, abelian_type
from reference_checks import make_algebra, tower_blocks


GOLDEN_DECOMPOSITIONS = [
    ((2, 1, "C6"), "F2[C2] + F4[C2]"),
    ((2, 1, "C2xC2"), "F2[C2^2]"),
    ((3, 1, "C6"), "F3[C3]^2"),
    ((3, 2, "C3"), "F9[C3]"),
    ((2, 3, "C3"), "F8 + F64"),
    ((2, 1, "C9"), "F2 + F4 + F64"),
    ((5, 1, "C4"), "F5^4"),
    ((5, 1, "C2xC2"), "F5^4"),
    ((3, 1, "C4"), "F3^2 + F9"),
    ((2, 1, "C7"), "F2 + F8^2"),
    ((2, 1, "C5"), "F2 + F16"),
]


@pytest.mark.parametrize("key,want", GOLDEN_DECOMPOSITIONS)
def test_golden_decompositions(key, want):
    assert decompose_abelian(make_algebra(*key)).render() == want


def test_orbit_count_matches_the_tower_of_factorizations_on_the_catalog():
    """The blocks read off the order spectrum equal those found by factoring
    x^n - 1 over a tower of fields, on every abelian catalog algebra."""
    abelian = [spec for spec in catalog_specs(1024)
               if group_by_label(spec[2]).is_abelian()]
    assert len(abelian) == 239
    for spec in abelian:
        alg = make_algebra(*spec)
        assert decompose_abelian(alg) == tower_blocks(alg), spec


def test_decompose_rejects_nonabelian():
    with pytest.raises(ValueError):
        decompose_abelian(make_algebra(2, 1, "D6"))


def test_decomposition_dimension_and_unit_order():
    # unit counts fall straight out of the blocks, no enumeration needed,
    # so sizes far past anything a brute scan could touch still work
    big = decompose_abelian(make_algebra(7, 1, "C6"))
    assert big.render() == "F7^6"
    assert big.unit_order() == 6 ** 6
    assert big.dimension() == 6
    small = decompose_abelian(make_algebra(2, 1, "C6"))
    assert small.dimension() == 6
    assert small.unit_order() == len(UnitGroup(make_algebra(2, 1, "C6")).census)


def test_predicted_unit_structure():
    assert predicted_unit_structure(
        decompose_abelian(make_algebra(5, 1, "C4"))).render() == "C4^4"
    assert predicted_unit_structure(
        decompose_abelian(make_algebra(2, 3, "C3"))).render() == "C9 x C7^2"
    # modular blocks with a nontrivial p-part other than C_p^n are declined
    assert predicted_unit_structure(decompose_abelian(make_algebra(2, 1, "C4"))) is None
    # ...but elementary abelian p-parts are predictable
    assert predicted_unit_structure(
        decompose_abelian(make_algebra(2, 1, "C2xC2"))).render() == "C2^3"


def test_primitive_idempotents():
    es = primitive_idempotents_by_search(make_algebra(2, 1, "C3"))
    assert sorted(str(e) for e in es) == ["1 + x + x^2", "x + x^2"]
    # one idempotent per field block; the local F2[C4] has only 1
    for key, count in (((2, 1, "C3"), 2), ((5, 1, "C4"), 4), ((3, 1, "C4"), 3),
                       ((5, 1, "C2xC2"), 4), ((2, 1, "C4"), 1)):
        a = make_algebra(*key)
        es = primitive_idempotents_by_search(a)
        assert len(es) == count, key
        assert sum(es[1:], es[0]) == a.one()
        for i, e in enumerate(es):
            assert e * e == e
            for f in es[i + 1:]:
                assert not e * f


def test_primary_cyclic_orders():
    def primary(label):
        group = group_by_label(label)
        return abelian_type(group.order, group.order_spectrum())

    # elementary divisors, by prime and then ascending
    assert primary("C6") == (2, 3)
    assert primary("C4xC2") == (2, 4)
    assert primary("C1") == ()


def test_block_invariants():
    assert Block(3, 2).unit_order() == 8
    assert Block(3, 2).render() == "F9"
    assert Block(3, 2).dimension() == 2
    assert Block(2, 1, (2, 2)).unit_order() == 8
    assert Block(2, 1, (2, 2)).render() == "F2[C2^2]"
    assert Block(2, 2, (2,)).render() == "F4[C2]"
    assert Block(2, 2, (2,)).unit_order() == 12
    assert Block(2, 2, (2,)).dimension() == 4
    with pytest.raises(ValueError):
        Block(2, 1, (6,))
    with pytest.raises(ValueError):
        Block(3, 1, (2,))
    # a zero order has no valuation, so it is refused, not divided out forever
    for bad in (0, 1, -2):
        with pytest.raises(ValueError):
            Block(2, 1, (bad,))


@pytest.mark.parametrize("q_base,degree", [
    (6, 1), (1, 1), (0, 1), (-4, 1), (12, 2), (4, 0), (4, -1), (2, 0)])
def test_block_refuses_what_is_no_field(q_base, degree):
    """A block needs a prime-power q_base and a degree of at least 1: 6 is
    no prime power, and F4 of degree 0 or -1 would render as F1 or F0.25."""
    with pytest.raises(ValueError, match="^a block needs a prime power q_base"):
        Block(q_base, degree)


def test_summand_list_sorts_canonically():
    s = SummandList((Block(2, 2, (2,)), Block(2, 4), Block(2, 1)))
    assert [b.render() for b in s.blocks] == ["F2", "F16", "F4[C2]"]
    t = SummandList((Block(2, 1), Block(2, 2, (2,)), Block(2, 4)))
    assert s == t
    assert not s.all_fields()
    assert SummandList((Block(2, 4), Block(2, 1))).all_fields()
    assert s.render() == "F2 + F16 + F4[C2]"
