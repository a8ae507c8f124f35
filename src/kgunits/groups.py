"""Finite groups of order at most nine as explicit multiplication tables.

Element 0 is always the identity.  Every constructor names elements in terms
of the presentation generators (x of order n for cyclic and dihedral groups,
x and y for Q8 with x^2 = y^2), and those names double as the display basis
for group-algebra elements.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

_GEN_LETTERS = "xyzwvu"


class Group:
    """A finite group given by its full multiplication table."""

    def __init__(self, label: str, table, element_names, generators):
        self.label = label
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        self.element_names = tuple(element_names)
        self.generators = tuple(generators)  # (name, index) pairs
        self._validate()
        self.identity = 0
        self.inverses = tuple(row.index(0) for row in self.table)
        self._orders = None
        self.name_to_index = {n: i for i, n in enumerate(self.element_names)}

    def _validate(self):
        n = self.order
        if n < 1:
            raise ValueError("empty group")
        if len(self.element_names) != n:
            raise ValueError("one name per element required")
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
        for name, idx in self.generators:
            if not (0 <= idx < n):
                raise ValueError(f"generator {name} out of range")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def element_order(self, a: int) -> int:
        if self._orders is None:
            orders = []
            for g in range(self.order):
                acc, n = g, 1
                while acc != 0:
                    acc = self.table[acc][g]
                    n += 1
                orders.append(n)
            self._orders = tuple(orders)
        return self._orders[a]

    def order_spectrum(self) -> tuple[tuple[int, int], ...]:
        """Sorted (element order, number of elements) pairs."""
        return tuple(sorted(Counter(map(self.element_order, range(self.order))).items()))

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(a))

    def __repr__(self):
        return f"Group({self.label}, order={self.order})"


def _combine_names(na: str, nb: str) -> str:
    if na == "1":
        return nb
    if nb == "1":
        return na
    return f"{na}*{nb}"


def cyclic(n: int) -> Group:
    if n < 1:
        raise ValueError(f"cyclic group order must be positive, got {n}")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = ["1"] + ["x" if i == 1 else f"x^{i}" for i in range(1, n)]
    gens = [("x", 1)] if n > 1 else []
    return Group(f"C{n}", table, names, gens)


def direct_product(a: Group, b: Group, label: str | None = None) -> Group:
    """A x B with A's element varying fastest; B's generators get fresh letters."""
    na, nb = a.order, b.order
    table = [[0] * (na * nb) for _ in range(na * nb)]
    for i1 in range(na):
        for j1 in range(nb):
            for i2 in range(na):
                for j2 in range(nb):
                    table[j1 * na + i1][j2 * na + i2] = b.table[j1][j2] * na + a.table[i1][i2]
    used = [n for n, _ in a.generators]
    fresh = [c for c in _GEN_LETTERS if c not in used]
    rename = {}
    for (gname, _), new in zip(b.generators, fresh):
        rename[gname] = new
    trans = str.maketrans(rename)
    b_names = [n.translate(trans) for n in b.element_names]
    names = [_combine_names(a.element_names[i], b_names[j])
             for j in range(nb) for i in range(na)]
    gens = [(n, i) for n, i in a.generators]
    gens += [(rename[n], i * na) for n, i in b.generators]
    return Group(label or f"{a.label}x{b.label}", table, names, gens)


def _dihedral_type(label: str, n: int, t: int) -> Group:
    """<x, y | x^n, y^2 = x^t, y x = x^-1 y> for x^t central (t = 0 or n/2);
    element e*n + i is x^i y^e."""
    table = [[0] * (2 * n) for _ in range(2 * n)]
    for e1 in range(2):
        for i1 in range(n):
            for e2 in range(2):
                for i2 in range(n):
                    i = (i1 - i2 + t * e2 if e1 else i1 + i2) % n
                    table[e1 * n + i1][e2 * n + i2] = ((e1 + e2) % 2) * n + i
    names = ["1"] + ["x" if i == 1 else f"x^{i}" for i in range(1, n)]
    names += ["y"] + [f"{name}*y" for name in names[1:]]
    return Group(label, table, names, [("x", 1), ("y", n)])


def dihedral(order: int) -> Group:
    """D_order: rotations x of order order/2 and a reflection y."""
    if order < 6 or order % 2:
        raise ValueError(f"dihedral order must be an even number >= 6, got {order}")
    return _dihedral_type(f"D{order}", order // 2, 0)


def quaternion8() -> Group:
    """Q8 with x of order 4, y^2 = x^2, y x = x^-1 y."""
    return _dihedral_type("Q8", 4, 2)


@lru_cache(maxsize=None)
def groups_up_to_order(n: int) -> tuple[Group, ...]:
    """One representative per isomorphism class of order <= n (n <= 9).

    tests/test_groups.py checks the classes by brute-force isomorphism search.
    """
    if not (1 <= n <= 9):
        raise ValueError(f"supported orders are 1..9, got {n}")
    c2, c3, c4 = cyclic(2), cyclic(3), cyclic(4)
    all_groups = [
        cyclic(1),
        c2,
        c3,
        c4,
        direct_product(c2, c2, label="C2xC2"),
        cyclic(5),
        cyclic(6),
        dihedral(6),
        cyclic(7),
        cyclic(8),
        direct_product(c4, c2, label="C4xC2"),
        direct_product(direct_product(c2, c2), c2, label="C2^3"),
        dihedral(8),
        quaternion8(),
        cyclic(9),
        direct_product(c3, c3, label="C3xC3"),
    ]
    return tuple(g for g in all_groups if g.order <= n)


def groups_of_order(n: int) -> tuple[Group, ...]:
    return tuple(g for g in groups_up_to_order(9) if g.order == n)


def group_by_label(label: str) -> Group:
    for g in groups_up_to_order(9):
        if g.label == label:
            return g
    raise KeyError(f"unknown group label {label!r}")

