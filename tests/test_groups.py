import hashlib
import itertools

import pytest

from kgunits.algebra import Algebra
from kgunits.fields import make_field
from kgunits.groups import (Group, abelian, all_groups, dihedral, group_by_label,
                            groups_of_order, quaternion8)

CANONICAL_LABELS = [
    "C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "D6", "C7",
    "C8", "C4xC2", "C2^3", "D8", "Q8", "C9", "C3xC3",
]


def test_catalog_of_groups_is_frozen():
    assert [g.label for g in all_groups()] == CANONICAL_LABELS
    counts = {n: len(groups_of_order(n)) for n in range(1, 10)}
    assert counts == {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2}


def test_group_tables_and_names_are_pinned():
    # element numbering and names fix the code tuples, the counting order and
    # the witness checksum, so no rewrite of the builders may move them
    gs = list(all_groups()) + [dihedral(n) for n in range(6, 25, 2)]
    record = repr([(g.label, g.table, g.element_names) for g in gs]).encode()
    assert hashlib.sha256(record).hexdigest() == (
        "3077cd2eb0355356edbcf2864053526b069d3a02b8595f5d37ae5980c5763724")


def test_group_by_label():
    assert group_by_label("Q8").order == 8
    assert group_by_label("C3xC3").order == 9
    with pytest.raises(ValueError, match="unknown group label 'C10'"):
        group_by_label("C10")


def test_group_axioms_hold_everywhere():
    for g in all_groups():
        n = g.order
        for a in range(n):
            assert g.mul(a, g.inv(a)) == 0
            assert g.mul(0, a) == a and g.mul(a, 0) == a
        for a in range(n):
            for b in range(n):
                for c in range(min(n, 4)):
                    assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


def test_order_spectra():
    assert group_by_label("D6").order_spectrum() == ((1, 1), (2, 3), (3, 2))
    assert group_by_label("Q8").order_spectrum() == ((1, 1), (2, 1), (4, 6))
    assert group_by_label("D8").order_spectrum() == ((1, 1), (2, 5), (4, 2))
    assert group_by_label("C2xC2").order_spectrum() == ((1, 1), (2, 3))
    assert group_by_label("C8").order_spectrum() == ((1, 1), (2, 1), (4, 2), (8, 4))


def test_commutativity():
    assert not group_by_label("D6").is_abelian()
    assert group_by_label("C6").is_abelian()


def test_direct_product_shape():
    g = abelian("C4xC2", 4, 2)
    assert g.order == 8 and g.is_abelian()
    assert g.order_spectrum() == group_by_label("C4xC2").order_spectrum()


def test_repeated_element_names_are_refused():
    c3 = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    # a repeated name would let group_element("a") pick one of two elements
    with pytest.raises(ValueError, match="distinct name"):
        Group("G", c3, ["1", "a", "a"])
    a = Algebra(make_field(2, 1), Group("G", c3, ["1", "a", "b"]))
    assert a.group_element("b") == a.basis_element(2)


@pytest.mark.parametrize("factors", [4, 7])
def test_abelian_refuses_more_factors_than_generator_letters(factors):
    with pytest.raises(ValueError, match="distinct name"):
        abelian(f"C2^{factors}", *[2] * factors)


def test_dihedral_and_quaternion():
    d = dihedral(8)
    assert d.order == 8 and not d.is_abelian()
    q = quaternion8()
    assert sum(1 for a in range(8) if q.element_order(a) == 2) == 1
    with pytest.raises(ValueError):
        dihedral(5)


def _generating_words(g: Group):
    """A small generating tuple plus, for each element, a word over it."""
    chosen: list[int] = []
    reached = {0: ()}
    while len(reached) < g.order:
        nxt = next(i for i in range(g.order) if i not in reached)
        chosen.append(nxt)
        # closure under right multiplication by all chosen generators
        frontier = list(reached)
        reached[nxt] = reached.get(nxt, (len(chosen) - 1,))
        frontier.append(nxt)
        while frontier:
            cur = frontier.pop()
            for gi, gen in enumerate(chosen):
                nxt2 = g.mul(cur, gen)
                if nxt2 not in reached:
                    reached[nxt2] = reached[cur] + (gi,)
                    frontier.append(nxt2)
    return chosen, reached


def isomorphic_by_search(a: Group, b: Group) -> bool:
    """Brute-force isomorphism search over generator images."""
    if a.order != b.order:
        return False
    gens, words = _generating_words(a)
    orders = [a.element_order(g) for g in gens]
    candidates = [[h for h in range(b.order) if b.element_order(h) == o] for o in orders]

    def build(images):
        phi = [None] * a.order
        for elem, word in words.items():
            acc = 0
            for gi in word:
                acc = b.mul(acc, images[gi])
            phi[elem] = acc
        if len(set(phi)) != a.order:
            return None
        for i in range(a.order):
            for j in range(a.order):
                if phi[a.mul(i, j)] != b.mul(phi[i], phi[j]):
                    return None
        return phi

    for images in itertools.product(*candidates):
        if build(images) is not None:
            return True
    return False


def test_isomorphism_test_is_complete_up_to_nine():
    # one group per isomorphism class, so the scan may pair any two of one order
    groups = all_groups()
    for a in groups:
        for b in groups:
            assert isomorphic_by_search(a, b) == (a.label == b.label)
