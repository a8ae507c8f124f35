"""Finite groups of order at most nine as explicit multiplication tables.

One rule numbers and names the elements of every group here.  A group with
generators x, y, z of orders n1, n2, n3 has the elements x^e1*y^e2*z^e3,
numbered with e1 varying fastest, so element 0 is the identity.  Each is
named by its nonzero exponents ("1", "x", "x^2", "x*y", "x^2*y", ...), and
those names double as the display basis for group-algebra elements.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product


class Group:
    """A finite group given by its full multiplication table."""

    def __init__(self, label: str, table, element_names):
        self.label = label
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        self.element_names = tuple(element_names)
        self._validate()
        self.identity = 0
        self.inverses = tuple(row.index(0) for row in self.table)
        self._orders = []
        for g in range(self.order):
            acc, n = g, 1
            while acc != 0:
                acc, n = self.table[acc][g], n + 1
            self._orders.append(n)
        self.name_to_index = {n: i for i, n in enumerate(self.element_names)}

    def _validate(self):
        n = self.order
        if n < 1:
            raise ValueError("empty group")
        if len(self.element_names) != n or len(set(self.element_names)) != n:
            raise ValueError("one distinct name per element required")
        rng = set(range(n))
        for row in self.table:
            if set(row) != rng:
                raise ValueError("multiplication table is not a Latin square")
        for j in range(n):
            if {self.table[i][j] for i in range(n)} != rng:
                raise ValueError("multiplication table is not a Latin square")
        if any(self.table[0][j] != j for j in range(n)) or any(self.table[i][0] != i for i in range(n)):
            raise ValueError("element 0 must be the identity")
        t = self.table
        for a in range(n):
            for b in range(n):
                ab = t[a][b]
                for c in range(n):
                    if t[ab][c] != t[a][t[b][c]]:
                        raise ValueError(f"associativity fails at ({a},{b},{c})")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def element_order(self, a: int) -> int:
        return self._orders[a]

    def order_spectrum(self) -> tuple[tuple[int, int], ...]:
        """Sorted (element order, number of elements) pairs."""
        return tuple(sorted(Counter(map(self.element_order, range(self.order))).items()))

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(a))

    def __repr__(self):
        return f"Group({self.label}, order={self.order})"


def _group(label: str, orders, mul) -> Group:
    """The group on exponent tuples (e1, e2, ...), 0 <= ei < orders[i], where
    mul maps two exponent tuples to their product's."""
    codes = [c[::-1] for c in product(*(range(o) for o in reversed(orders)))]
    index = {c: i for i, c in enumerate(codes)}
    table = [[index[mul(a, b)] for b in codes] for a in codes]
    names = ["*".join(g if e == 1 else f"{g}^{e}" for g, e in zip("xyz", c) if e) or "1"
             for c in codes]
    return Group(label, table, names)


def abelian(label: str, *orders: int) -> Group:
    """C_n1 x C_n2 x ... with generators x, y, z of orders n1, n2, n3; past
    three factors the names repeat, and Group refuses them."""
    return _group(label, orders,
                  lambda a, b: tuple((i + j) % o for i, j, o in zip(a, b, orders)))


def _dihedral_type(label: str, n: int, t: int) -> Group:
    """<x, y | x^n, y^2 = x^t, y x = x^-1 y> for x^t central (t = 0 or n/2)."""
    def mul(a, b):
        (i1, e1), (i2, e2) = a, b
        return (i1 - i2 + t * e2 if e1 else i1 + i2) % n, (e1 + e2) % 2
    return _group(label, (n, 2), mul)


def dihedral(order: int) -> Group:
    """D_order: rotations x of order order/2 and a reflection y."""
    if order < 6 or order % 2:
        raise ValueError(f"dihedral order must be an even number >= 6, got {order}")
    return _dihedral_type(f"D{order}", order // 2, 0)


def quaternion8() -> Group:
    """Q8 with x of order 4, y^2 = x^2, y x = x^-1 y."""
    return _dihedral_type("Q8", 4, 2)


@lru_cache(maxsize=None)
def all_groups() -> tuple[Group, ...]:
    """One representative per isomorphism class of order at most 9.

    tests/test_groups.py checks the classes by brute-force isomorphism search.
    """
    return (
        abelian("C1", 1),
        abelian("C2", 2),
        abelian("C3", 3),
        abelian("C4", 4),
        abelian("C2xC2", 2, 2),
        abelian("C5", 5),
        abelian("C6", 6),
        dihedral(6),
        abelian("C7", 7),
        abelian("C8", 8),
        abelian("C4xC2", 4, 2),
        abelian("C2^3", 2, 2, 2),
        dihedral(8),
        quaternion8(),
        abelian("C9", 9),
        abelian("C3xC3", 3, 3),
    )


def groups_of_order(n: int) -> tuple[Group, ...]:
    return tuple(g for g in all_groups() if g.order == n)


def group_by_label(label: str) -> Group:
    for g in all_groups():
        if g.label == label:
            return g
    raise ValueError(f"unknown group label {label!r}")
