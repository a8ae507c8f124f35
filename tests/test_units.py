from math import gcd

import pytest

from kgunits.catalog import catalog_specs
from kgunits.units import AbelianType, UnitGroup, abelian_type
from reference_checks import make_algebra, make_units


def unit_list_power_walk(u):
    """Per-unit orders by one power walk per cyclic subgroup over the unit
    list of u: the walk UnitGroup._order_list ran before the element census."""
    orders = [None] * u.order
    mul = u.algebra.mul_codes
    one = u.algebra.one().key()
    index = {x: i for i, x in enumerate(u.census)}
    for i, x in enumerate(index):
        if orders[i] is not None:
            continue
        powers = [i]
        acc = x
        while acc != one:
            assert len(powers) < u.order
            acc = mul(acc, x)
            powers.append(index[acc])
        o = len(powers)
        for k, j in enumerate(powers, 1):
            orders[j] = o // gcd(k, o)
    return tuple(orders)


def test_abelian_type_from_order_spectra():
    # C4 x C2: counts of x with x^(2^i) = 1 are 1, 4, 8
    assert abelian_type(8, ((1, 1), (2, 3), (4, 4))) == (2, 4)
    assert abelian_type(8, ((1, 1), (2, 7))) == (2, 2, 2)
    assert abelian_type(9, ((1, 1), (3, 2), (9, 6))) == (9,)
    assert abelian_type(1, ((1, 1),)) == ()
    bad = [(4, ((1, 1), (2, 2), (4, 1))),  # 3 elements killed by 2
           (2, ((1, 2),)),  # two identities
           (16, ((1, 1), (2, 1), (4, 14)))]  # s_i - s_(i-1) = 1, 3, 0 rises
    for order, spectrum in bad:
        with pytest.raises(ValueError):
            abelian_type(order, spectrum)


def test_abelian_type_composite_and_primary_agree():
    a = AbelianType([6, 4])
    assert a == AbelianType([3, 4, 2]) == (2, 4, 3)
    assert a.render() == "C2 x C4 x C3"
    assert a.order() == 24
    assert AbelianType([1]).render() == "C1"
    assert AbelianType([15]).render() == "C3 x C5"
    with pytest.raises(ValueError):
        AbelianType([0])


def test_frozen_unit_order_spectra():
    assert make_units(2, 1, "C8").unit_order_spectrum() == (
        (1, 1), (2, 15), (4, 48), (8, 64))
    assert make_units(2, 2, "C4").unit_order_spectrum() == (
        (1, 1), (2, 15), (3, 2), (4, 48), (6, 30), (12, 96))
    assert make_units(2, 1, "C4xC2").unit_order_spectrum() == ((1, 1), (2, 63), (4, 64))


def test_spectrum_is_counted_once_and_shared(monkeypatch):
    u = make_units(3, 1, "C4")
    first = u.unit_order_spectrum()
    # later calls do not read the orders again
    monkeypatch.setattr(u, "_order_list", lambda: pytest.fail("orders recounted"))
    assert first == ((1, 1), (2, 7), (4, 8), (8, 16))
    # one immutable tuple, handed out as it is
    assert u.unit_order_spectrum() is first
    assert isinstance(first, tuple) and all(isinstance(pair, tuple) for pair in first)


def test_abelian_invariants_reject_nonabelian():
    with pytest.raises(ValueError):
        make_units(2, 1, "D6").abelian_invariants()


def test_recognize_dihedral():
    u = make_units(2, 1, "D6")
    found, witness = u.recognize_dihedral()
    assert found
    r, s = witness
    assert (u.census[r.key()], u.census[s.key()]) == (6, 2)
    assert s * r * s == r.try_inverse()

    found, witness = make_units(2, 1, "D8").recognize_dihedral()
    assert not found and witness is None

    with pytest.raises(ValueError):
        make_units(2, 1, "C2").recognize_dihedral()


def test_order_list_matches_the_unit_list_power_walk_on_the_catalog():
    specs = catalog_specs(1024)
    assert len(specs) == 243
    for p, k, label in specs:
        u = make_units(p, k, label)
        assert u._order_list() == unit_list_power_walk(u), (p, k, label)


@pytest.mark.parametrize("p,k,label", [(2, 1, "D8"), (2, 2, "C3"), (3, 1, "C2xC2")])
def test_order_list_brute_cross_check(p, k, label):
    u = make_units(p, k, label)
    one = u.algebra.one()
    brute = []
    for el in map(u.algebra.from_key, u.census):
        o, acc = 1, el
        while acc != one:
            acc = acc * el
            o += 1
        brute.append(o)
    assert u._order_list() == tuple(brute)


def test_order_list_rejects_a_walk_leaving_the_unit_list(faulty_mul):
    # in F2[C4], y = 1 + x + x^2 has y^2 = x^2, a unit walked before y;
    # x^2 * y = 0 makes the walk of y leave the units after meeting one
    alg = make_algebra(2, 1, "C4")
    x2 = alg.group_element("x^2").key()
    y = (alg.one() + alg.group_element("x") + alg.group_element("x^2")).key()
    faulty_mul(alg, lambda a, b, ab: (0,) * 4 if (a, b) == (x2, y) else ab)
    with pytest.raises(ValueError, match="leaves the unit list"):
        UnitGroup(alg)


def test_order_list_rejects_an_order_not_dividing_the_group_order(faulty_mul):
    # U(F2[C3]) = {1, x, x^2}; x * x = 1 walks x -> 1, so x gets the order 2
    alg = make_algebra(2, 1, "C3")
    x, one = alg.group_element("x").key(), alg.one().key()
    faulty_mul(alg, lambda a, b, ab: one if (a, b) == (x, x) else ab)
    with pytest.raises(ValueError, match=r"order 2 of x does not divide \|U\| = 3"):
        UnitGroup(alg)


def test_order_list_rejects_a_walk_that_never_returns_to_one(faulty_mul):
    alg = faulty_mul(make_algebra(2, 1, "C2"), lambda a, b, ab: a + b)  # never repeats
    with pytest.raises(ValueError, match="does not return to 1"):
        UnitGroup(alg)


def test_closure_sizes():
    u = make_units(2, 1, "D6")
    found, (r, s) = u.recognize_dihedral()
    assert u.closure([r]) == 6
    assert u.closure([s]) == 2
    assert u.closure([r, s]) == 12
    assert u.closure([]) == 1
    with pytest.raises(ValueError):
        u.closure([u.algebra.from_key((0,) * 6)])
