import functools
import random
from math import gcd

import pytest

from kgunits import algebra as algebra_module
from kgunits import cli, isoprobe
from kgunits.algebra import Algebra, enumerate_units, row_reduce
from kgunits.catalog import build_row, catalog_specs
from kgunits.fields import FieldSpec, make_field
from kgunits.groups import group_by_label, groups_of_order
from reference_checks import make_algebra


def augmentation(u):
    """The code of the coefficient sum of u."""
    return functools.reduce(u.algebra.field.add, u.key(), 0)


def test_size_and_label():
    a = make_algebra(3, 1, "C4")
    assert a.size == 81
    assert a.label() == "F3C4"
    assert make_algebra(2, 2, "C2xC2").size == 256


def test_ring_laws_exhaustive_f2c2():
    a = make_algebra(2, 1, "C2")
    els = list(map(a.from_key, a.keys()))
    assert len(els) == 4
    one = a.one()
    for x in els:
        assert x * one == x and one * x == x
        for y in els:
            assert x + y == y + x
            for z in els:
                assert (x + y) + z == x + (y + z)
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z
                assert (x + y) * z == x * z + y * z


def test_ring_laws_sampled_f3c2():
    a = make_algebra(3, 1, "C2")
    els = list(map(a.from_key, a.keys()))
    probes = els[::7]
    for x in els:
        for y in els:
            assert x * (a.one() + y) == x + x * y
            for z in probes:
                assert (x * y) * z == x * (y * z)


def test_noncommutative_multiplication():
    a = make_algebra(2, 1, "D6")
    x = a.group_element("x")
    y = a.group_element("y")
    assert x * y != y * x


@pytest.mark.parametrize("p,k,label,key,text", [
    (2, 2, "C2", (3, 2), "(t+1) + t*x"),
    (2, 2, "C2", (1, 1), "1 + x"),
    (2, 3, "C3", (4, 6, 0), "t^2 + (t^2+t)*x"),
    (2, 3, "C3", (5, 0, 7), "(t^2+1) + (t^2+t+1)*x^2"),
    (3, 2, "C3", (6, 1, 7), "2*t + x + (2*t+1)*x^2"),
    (3, 2, "C3", (0, 0, 0), "0"),
    (3, 2, "D6", (0, 4, 0, 8, 0, 6), "(t+1)*x + (2*t+2)*y + 2*t*x^2*y"),
])
def test_element_text_over_fields_with_k_above_one(p, k, label, key, text):
    # a coefficient of several terms is parenthesized, a coefficient 1 is
    # omitted before a group element, and the zero element prints as 0
    alg = make_algebra(p, k, label)
    x = alg.from_key(key)
    assert str(x) == text
    assert repr(x) == f"F{p ** k}{label}<{text}>"


def test_augmentation_is_a_ring_homomorphism():
    a = make_algebra(2, 1, "C3")
    add, mul = a.field.add, a.field.mul
    els = list(map(a.from_key, a.keys()))
    for u in els:
        for v in els:
            assert augmentation(u + v) == add(augmentation(u), augmentation(v))
            assert augmentation(u * v) == mul(augmentation(u), augmentation(v))
    assert augmentation(a.one()) == 1


def test_unit_counts_for_small_algebras():
    assert len(enumerate_units(make_algebra(2, 1, "C4"))) == 8
    assert len(enumerate_units(make_algebra(3, 1, "C2"))) == 4
    assert len(enumerate_units(make_algebra(2, 1, "C2xC2"))) == 8
    assert len(enumerate_units(make_algebra(5, 1, "C2"))) == 16


def test_local_algebra_units_are_nonzero_augmentation():
    # for a p-group in characteristic p the units are exactly aug != 0, and
    # for abelian G, a^|G| collapses to the scalar aug(a)^|G|
    for p, k, label in ((2, 1, "C4"), (2, 2, "C2"), (3, 1, "C3"), (3, 2, "C3")):
        a = make_algebra(p, k, label)
        n = a.group.order
        for el in map(a.from_key, a.keys()):
            aug = augmentation(el)
            assert (el.try_inverse() is not None) == bool(aug)
            aug_n = functools.reduce(a.field.mul, [aug] * n)
            assert (el ** n).key() == (aug_n,) + (0,) * (n - 1)


def test_try_inverse_agrees_with_multiplication():
    a = make_algebra(3, 1, "C4")
    one = a.one()
    for el in map(a.from_key, a.keys()):
        inv = el.try_inverse()
        if inv is not None:
            assert el * inv == one and inv * el == one


def left_mult_matrix(u):
    """Matrix of left multiplication by u on the group-element basis, as
    rows of codes: entry (i, j) is u[i j^-1]."""
    g, c = u.algebra.group, u.key()
    return [[c[g.mul(i, g.inv(j))] for j in range(g.order)]
            for i in range(g.order)]


def test_left_mult_matrix_represents_multiplication():
    a = make_algebra(3, 1, "C2")
    add, mul = a.field.add, a.field.mul
    for u in list(map(a.from_key, a.keys()))[:12]:
        m = left_mult_matrix(u)
        for v in list(map(a.from_key, a.keys()))[:12]:
            got = [functools.reduce(add, map(mul, row, v.key()), 0) for row in m]
            assert tuple(got) == (u * v).key()


def test_row_reduce_solves_a_square_system():
    spec = make_field(5, 1)
    rows = [[1, 2, 1], [3, 4, 0]]  # x + 2y = 1, 3x + 4y = 0
    assert row_reduce(rows, spec, 2) == 2
    x, y = rows[0][2], rows[1][2]
    assert rows[0][:2] == [1, 0] and rows[1][:2] == [0, 1]
    assert (x + 2 * y) % 5 == 1 and (3 * x + 4 * y) % 5 == 0
    singular = [[1, 2, 1], [2, 4, 0]]
    assert row_reduce(singular, spec, 2) == 1


def test_row_reduce_returns_the_rank():
    spec = make_field(2, 1)
    assert row_reduce([[1, 0, 1], [0, 1, 1], [1, 1, 0]], spec, 3) == 2
    assert row_reduce([[0, 0]], spec, 2) == 0
    f4 = make_field(2, 2)  # over F4 the rows (1, t) and (t, t^2) are dependent
    t, t2 = 2, f4.mul(2, 2)
    assert row_reduce([[1, t], [t, t2]], f4, 2) == 1


def test_pow_matches_repeated_multiplication():
    a = make_algebra(2, 1, "C3")
    x = a.group_element("x") + a.one()
    acc = a.one()
    for n in range(9):
        assert x ** n == acc
        acc = acc * x


# ---------------------------------------------------------------------------
# the code-tuple unit kernel against a plain elimination on the same codes

def reference_solve(a):
    """Inverse coefficients of a by Gaussian elimination on the code rows of
    the left-multiplication matrix, or None if a is singular."""
    field, g = a.algebra.field, a.algebra.group
    n = g.order
    aug = [row + [int(i == g.identity)] for i, row in enumerate(left_mult_matrix(a))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = field.inv(aug[col][col])
        aug[col] = [field.mul(inv, v) for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [field.sub(x, field.mul(f, y)) for x, y in zip(aug[r], aug[col])]
    return tuple(aug[i][n] for i in range(n))


def test_unit_kernel_matches_reference_elimination_on_the_catalog():
    specs = catalog_specs(1024)
    assert len(specs) == 243
    for p, k, label in specs:
        alg = make_algebra(p, k, label)
        one = alg.one()
        want = []
        for a in map(alg.from_key, alg.keys()):
            ref = reference_solve(a)
            if ref is None:
                continue
            want.append(a.key())
            b = a.try_inverse()
            assert b is not None and b.key() == ref, (label, a)
            assert a * b == one and b * a == one, (label, a)
        assert list(enumerate_units(alg)) == want, (p, k, label)


def test_a_wrong_elimination_is_caught_by_the_inverse_check(monkeypatch):
    real = algebra_module.row_reduce

    def wrong(rows, field, ncols):
        rank = real(rows, field, ncols)
        rows[0][-1] = field.add(rows[0][-1], 1)  # a wrong solution
        return rank
    monkeypatch.setattr(algebra_module, "row_reduce", wrong)
    x = make_algebra(3, 1, "C4").group_element("x")
    with pytest.raises(RuntimeError, match="inverse verification failed"):
        x.try_inverse()


@pytest.mark.parametrize("p,k,label", [(3, 1, "C4"), (2, 2, "C2")])
def test_a_census_walk_that_never_returns_to_one_is_caught(faulty_mul, p, k, label):
    # products that leave K[G] never repeat, so no walk can end
    alg = faulty_mul(make_algebra(p, k, label), lambda a, b, ab: a + b)
    with pytest.raises(ValueError, match=r"does not return to 1 within \|K\[G\]\| = "
                                         f"{alg.size} steps"):
        enumerate_units(alg)


def test_a_census_order_not_dividing_the_unit_count_is_caught(faulty_mul):
    # F2[C4] has 8 units; x^2 * x = 1 gives x the order 3
    alg = make_algebra(2, 1, "C4")
    x, x2 = (alg.group_element(g).key() for g in ("x", "x^2"))
    one = alg.one().key()
    faulty_mul(alg, lambda a, b, ab: one if (a, b) == (x2, x) else ab)
    with pytest.raises(ValueError, match=r"order 3 of x does not divide \|U\| = 8"):
        enumerate_units(alg)


def power_walk_census(alg):
    """enumerate_units as it took every census before fields had a walk of
    their own: each element not yet classified, in counting order, is walked
    to its first repeat; if that is 1 at step o, x^k is a unit of order
    o / gcd(k, o), and otherwise every power is a non-unit."""
    mul, one = alg.mul_codes, alg.one().key()
    known = {one: 1}
    for x in alg.keys():
        if x in known:
            continue
        powers, acc = {x: 1}, mul(x, x)
        while acc != one and acc not in powers:
            powers[acc] = len(powers) + 1
            acc = mul(acc, x)
        o = len(powers) + 1 if acc == one else 0
        known.update((y, o and o // gcd(k, o)) for y, k in powers.items())
    return {x: known[x] for x in alg.keys() if known[x]}


def test_field_census_matches_the_power_walk_census_on_every_catalog_field():
    fields = [spec for spec in catalog_specs(1024) if spec[2] == "C1"]
    assert len(fields) == 197
    for p, k, label in fields:
        alg = make_algebra(p, k, label)
        assert list(enumerate_units(alg).items()) == \
            list(power_walk_census(alg).items()), (p, k)
    # the reference is the census the element walks give on any algebra
    for p, k, label in ((2, 1, "C4"), (3, 1, "D6"), (2, 2, "C2")):
        alg = make_algebra(p, k, label)
        assert list(enumerate_units(alg).items()) == \
            list(power_walk_census(alg).items()), (p, k, label)


def test_field_rows_build_no_field_product(monkeypatch):
    # the census of K[C1] reads the walk the field made, and multiplies nothing
    real = algebra_module._product

    def no_field_product(field, group):
        assert group.order > 1, f"a product of {field.label()}[C1] was built"
        return real(field, group)
    monkeypatch.setattr(algebra_module, "_product", no_field_product)
    fields = [spec for spec in catalog_specs(1024) if spec[2] == "C1"]
    assert len(fields) == 197
    for p, k, label in fields:
        assert build_row.__wrapped__(p, k, label).unit_count == p ** k - 1


@pytest.mark.parametrize("p,k,powers", [
    (5, 1, [1, 4]),  # the walk of 4, of order 2
    (5, 1, [1, 4, 1, 4]),  # that walk twice: q - 1 powers, not all units
    (2, 2, [1]),  # the walk of 1
    # t^2 = -1 in F9, so t (code 3) has the order 4
    (3, 2, [1, 3, 2, 6] * 2),
    (3, 1, [1, 0]),  # a list holding 0
    (7, 1, [1, 3, 2, 6, 4]),  # the walk of 3 without its last power
    (5, 1, [1, 2, 4, 5]),  # a power outside 1..q - 1
])
def test_a_field_census_from_a_non_primitive_element_is_caught(monkeypatch, p, k,
                                                               powers):
    monkeypatch.setattr(FieldSpec, "primitive_powers", lambda self: powers)
    with pytest.raises(ValueError, match=f"^the powers of the primitive element of "
                                         f"F{p ** k} are not its {p ** k - 1} units$"):
        enumerate_units(make_algebra(p, k, "C1"))


def test_ring_axioms_on_random_elements_of_every_catalog_algebra():
    rng = random.Random(2009)
    for p, k, label in catalog_specs(1024):
        alg = make_algebra(p, k, label)
        q, n = alg.field.q, alg.group.order
        one = alg.one()
        for _ in range(3):
            x, y, z = (alg.from_key(tuple(rng.randrange(q) for _ in range(n)))
                       for _ in range(3))
            assert (x * y) * z == x * (y * z), (label, x, y, z)
            assert x * (y + z) == x * y + x * z, (label, x, y, z)
            assert (x + y) * z == x * z + y * z, (label, x, y, z)
            assert x * one == x and one * x == x, (label, x)
            assert (x * y).key() == loop_mul(alg, x.key(), y.key()), (label, x, y)
            assert (y * x).key() == loop_mul(alg, y.key(), x.key()), (label, x, y)


# ---------------------------------------------------------------------------
# the generated product against the loop it replaced

def loop_mul(alg, a, b):
    """The convolution loop that Algebra.mul_codes ran before the product
    was generated from the group table, on code tuples."""
    table, field = alg.group.table, alg.field
    out = [0] * len(a)
    for i, ai in enumerate(a):
        if ai:
            row = table[i]
            for j, bj in enumerate(b):
                if bj:
                    k = row[j]
                    out[k] = field.add(out[k], field.mul(ai, bj))
    return tuple(out)


def _scan_specs():
    return [(p, k, g.label) for p, k, n in isoprobe._scan_algebras(1024)
            for g in groups_of_order(n)]


def test_generated_product_matches_the_loop_on_every_catalog_and_scan_algebra():
    catalog, scan = catalog_specs(1024), _scan_specs()
    assert len(catalog) == 243 and len(scan) == 19
    rng = random.Random(1024)
    for p, k, label in catalog + scan:
        alg = make_algebra(p, k, label)
        q, n = alg.field.q, alg.group.order
        basis = [alg.basis_element(i).key() for i in range(n)]
        keys = basis + [(0,) * n] + [tuple(rng.randrange(q) for _ in range(n))
                                     for _ in range(6)]
        for a in keys:
            for b in keys:
                assert alg.mul_codes(a, b) == loop_mul(alg, a, b), (p, k, label, a, b)


def test_a_field_with_k_above_1_multiplies_by_its_field_product():
    # every pair where q <= 64, else a seeded sample of 2,000 pairs
    fields = [(p, k) for p, k, label in catalog_specs(1024) if k > 1 and label == "C1"]
    assert len(fields) == 25
    rng = random.Random(961)
    for p, k in fields:
        alg = make_algebra(p, k, "C1")
        q, mul = alg.field.q, alg.field.mul
        pairs = ([(a, b) for a in range(q) for b in range(q)] if q <= 64 else
                 [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)])
        for a, b in pairs:
            assert alg.mul_codes((a,), (b,)) == (mul(a, b),), (q, a, b)


@pytest.fixture
def products_made(monkeypatch):
    """The labels of the groups whose product is generated from then on."""
    made = []
    real = algebra_module._product

    def counting(field, group):
        made.append(group.label)
        return real(field, group)
    monkeypatch.setattr(algebra_module, "_product", counting)
    return made


def test_products_are_generated_on_first_use_and_left_tables_on_first_inverse(products_made):
    alg = make_algebra(3, 1, "D6")
    assert products_made == [] and "_left" not in vars(alg)
    x = alg.group_element("x")
    assert (x * x * x).key() == alg.one().key() and products_made == ["D6"]
    assert x.try_inverse() == x * x and "_left" in vars(alg)
    assert alg.mul_codes is alg.mul_codes and products_made == ["D6"]


def test_decompose_and_a_repeated_unit_group_generate_no_product(products_made, capsys):
    assert cli.main(["unit-group", "F2", "D8"]) == 0
    made = list(products_made)  # none if an earlier test built the row
    assert cli.main(["unit-group", "F2", "D8"]) == 0
    assert cli.main(["decompose", "F3", "C4"]) == 0
    assert cli.main(["decompose", "F4", "C2xC2", "--format", "json"]) == 0
    assert products_made == made


def test_square_tables_are_built_only_for_algebras_with_q_squared_elements():
    fresh = make_field.__wrapped__  # fields not shared with other tests
    fields = {}
    for p, k, label in catalog_specs(1024):
        field = fields.setdefault((p, k), fresh(p, k))
        alg = Algebra(field, group_by_label(label))
        one = alg.one().key()
        assert alg.mul_codes(one, one) == one
        if k == 1 or label == "C1":
            assert field._sq is None, (p, k, label)
        else:
            assert alg.size >= field.q ** 2, (p, k, label)
    built = sorted(f.q for f in fields.values() if f._sq is not None)
    assert built == [4, 8, 9, 16, 25, 27]
    for q, tables in ((f.q, f._sq) for f in fields.values() if f._sq is not None):
        assert all(len(t) == q and all(len(row) == q for row in t) for t in tables)


def test_f32_c2_above_the_published_bound_multiplies_like_the_loop(monkeypatch):
    # size 1024: build_row refuses this algebra, but the library multiplies in it
    field = make_field.__wrapped__(2, 5)  # a field whose square tables are unbuilt
    census = enumerate_units(Algebra(field, group_by_label("C2")))
    assert field._sq is not None
    monkeypatch.setattr(Algebra, "mul_codes",
                        property(lambda alg: functools.partial(loop_mul, alg)))
    reference = enumerate_units(Algebra(field, group_by_label("C2")))
    assert list(census.items()) == list(reference.items())
    assert len(reference) == 32 * 31
