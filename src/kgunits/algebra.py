"""Group-algebra arithmetic on int code tuples: products, inverses, units.

An Algebra is K[G] for a FieldSpec K and a Group G.  An element is the tuple
of its coefficients' int field codes, one per group element; ``key()``
returns it.  Every operation runs on those tuples with the FieldSpec code
operations.  Products go through ``Algebra.mul_codes``, which ``_product``
makes on first use: one of two kinds of function written out from the group
table (the convolution unrolled, one expression per output coefficient), or
over F_q[C1] with k > 1 ``FieldSpec.mul`` itself.  ``AlgebraElement.__str__``
prints each coefficient with ``FieldSpec.code_text``.

``enumerate_units`` decides every unit and its order in one element census,
by multiplication alone.  Each code tuple x not yet classified, in counting
order, is walked through x, x^2, ... to its first repeat.  If the repeat is
1, x is a unit of order o, and every power x^k is a unit of order
o / gcd(k, o) (Holt, Eick & O'Brien, Handbook of Computational Group Theory,
2005).  If the repeat is anything else, or the walk reaches a known non-unit,
every power in the walk is a non-unit: by cancellation a unit's first repeat
is 1, a unit's powers are units, and a one-sided inverse is two-sided in a
finite-dimensional algebra.  Over G = C1, K[G] = K is a field, and the
census multiplies nothing: it reads the walk of the first primitive element
g that the field made (``FieldSpec.primitive_powers``), which meets every
unit once on its way back to 1, checks that it does, and gives g^t the
order (q - 1) / gcd(t, q - 1) (Lidl & Niederreiter, Finite Fields).

One routine, ``row_reduce``, does every elimination, on rows of field codes,
through the FieldSpec code operations ``mul``, ``inv`` and ``sub`` over every
field, prime or not.  It backs ``AlgebraElement.try_inverse``, which solves
the regular representation (the left-multiplication matrix of a against the
identity vector) and checks the inverse b on both sides, a*b = b*a = 1, by
``mul_codes``; and it backs the linear algebra of the isomorphism probe.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from math import gcd

from .fields import FieldSpec
from .groups import Group


class Algebra:
    """K[G]: the group algebra of G over the field K."""

    def __init__(self, field: FieldSpec, group: Group):
        self.field = field
        self.group = group
        self.size = field.q ** group.order
        self._one_key = tuple(int(i == group.identity) for i in range(group.order))

    @cached_property
    def mul_codes(self):
        """The product of two code tuples, as a code tuple: the function
        ``_product`` generates from the group table on first use."""
        return _product(self.field, self.group)

    @cached_property
    def _left(self):
        # left multiplication by a sends basis j to the sum of a[i] * (i j),
        # so its matrix entry (i, j) is a[i j^-1]
        group, n = self.group, self.group.order
        return tuple(tuple(group.mul(i, group.inv(j)) for j in range(n))
                     for i in range(n))

    def label(self) -> str:
        return f"{self.field.label()}{self.group.label}"

    def __eq__(self, other):
        return (isinstance(other, Algebra)
                and self.field == other.field and self.group is other.group)

    def __hash__(self):
        return hash((self.field, id(self.group)))

    def __repr__(self):
        return f"Algebra({self.label()}, size={self.size})"

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, self._one_key)

    def basis_element(self, i: int) -> "AlgebraElement":
        return AlgebraElement(self, tuple(int(j == i) for j in range(self.group.order)))

    def group_element(self, name: str) -> "AlgebraElement":
        """The basis element for the group element with this display name."""
        return self.basis_element(self.group.name_to_index[name])

    def from_key(self, key) -> "AlgebraElement":
        """The element whose coefficient codes are key."""
        return AlgebraElement(self, tuple(key))

    def inverse_codes(self, a):
        """The two-sided inverse of the code tuple a, or None if a is no unit.

        Solves the regular representation by row_reduce and checks the
        solution b on both sides, a*b = b*a = 1; a failed check raises.
        """
        n = len(a)
        one = self._one_key
        rows = [[a[t] for t in idx] + [e] for idx, e in zip(self._left, one)]
        if row_reduce(rows, self.field, n) < n:
            return None
        b = tuple(row[n] for row in rows)
        if self.mul_codes(a, b) != one or self.mul_codes(b, a) != one:
            raise RuntimeError("inverse verification failed")
        return b

    def keys(self):
        """All q^|G| code tuples in base-q counting order."""
        for digits in itertools.product(range(self.field.q), repeat=self.group.order):
            yield digits[::-1]

    def _check(self, other: "AlgebraElement"):
        if other.algebra is not self and other.algebra != self:
            raise ValueError(f"mixed-algebra arithmetic: {self.label()} vs {other.algebra.label()}")


class AlgebraElement:
    """An element of K[G], stored as one field code per group element."""

    __slots__ = ("algebra", "_key")

    def __init__(self, algebra: Algebra, key: tuple[int, ...]):
        self.algebra = algebra
        self._key = key

    def key(self) -> tuple[int, ...]:
        """Hashable coefficient-code tuple, also the counting order key."""
        return self._key

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra == other.algebra and self._key == other._key

    def __hash__(self):
        return hash((id(self.algebra.group), self.algebra.field.q, self._key))

    def __bool__(self):
        return any(self._key)

    def _zip(self, op, other):
        """op on the codes of self and other, coefficient by coefficient."""
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self.algebra._check(other)
        return AlgebraElement(self.algebra, tuple(map(op, self._key, other._key)))

    def __add__(self, other):
        return self._zip(self.algebra.field.add, other)

    def __sub__(self, other):
        return self._zip(self.algebra.field.sub, other)

    def __neg__(self):
        return AlgebraElement(self.algebra, tuple(map(self.algebra.field.neg, self._key)))

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self.algebra._check(other)
        return AlgebraElement(self.algebra, self.algebra.mul_codes(self._key, other._key))

    def __pow__(self, n: int):
        if n < 0:
            inv = self.try_inverse()
            if inv is None:
                raise ZeroDivisionError("negative power of a non-unit")
            return inv ** (-n)
        if n == 0:
            return self.algebra.one()
        # binary powering from the top bit: no product by one, no spare square
        acc = self
        for bit in bin(n)[3:]:
            acc = acc * acc
            if bit == "1":
                acc = acc * self
        return acc

    def try_inverse(self):
        """The two-sided inverse, or None.  Non-units are a normal outcome."""
        inv = self.algebra.inverse_codes(self._key)
        return None if inv is None else self.algebra.from_key(inv)

    def __str__(self):
        field, names = self.algebra.field, self.algebra.group.element_names
        terms = []
        for i, c in enumerate(self._key):
            if not c:
                continue
            cs = field.code_text(c)
            if "+" in cs:
                cs = f"({cs})"
            if names[i] == "1":
                terms.append(cs)
            elif cs == "1":
                terms.append(names[i])
            else:
                terms.append(f"{cs}*{names[i]}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        return f"{self.algebra.label()}<{self}>"


def _product(field: FieldSpec, group: Group):
    """The product of K[G] on code tuples, generated from ``group.table``.

    Output coefficient k adds a_i * b_j over the |G| pairs (i, j) with
    g_i g_j = g_k, written out.  A prime field reduces one int sum,
    ``(... + a_i*b_j ...) % p``; a field with k > 1 and |G| >= 2 reads the
    q x q add and mul code tables, no larger than K[G].  Over G = C1 with
    k > 1 it is the field's own product, ``FieldSpec.mul``, on the one code.
    """
    if field.k == 1:
        return _product_maker("prime", group.table)(field.p)
    if group.order == 1:
        mul = field.mul
        return lambda a, b: (mul(a[0], b[0]),)
    return _product_maker("table", group.table)(*field._square_tables())


@lru_cache(maxsize=None)
def _product_maker(kind: str, table):
    """make(field tables) -> the product, for one kind of field ("prime" or
    "table") and one group table, compiled from source once, as
    collections.namedtuple builds its classes."""
    n = len(table)
    terms = [[] for _ in range(n)]  # terms[k]: the (i, j) with g_i g_j = g_k
    for i, row in enumerate(table):
        for j, k in enumerate(row):
            terms[k].append((i, j))
    a, b, m = ("".join(f"{x}{i}, " for i in range(n)) for x in "abm")
    lines = [f"{a}= a", f"{b}= b"]
    if kind == "prime":
        args = "p"
        out = ["(" + " + ".join(f"a{i}*b{j}" for i, j in ij) + ") % p" for ij in terms]
    else:
        args = "A, M"
        lines.append(f"{m}= " + "".join(f"M[a{i}], " for i in range(n)))
        out = []
        for (i, j), *rest in terms:
            s = f"m{i}[b{j}]"
            for i, j in rest:
                s = f"A[{s}][m{i}[b{j}]]"
            out.append(s)
    lines.append("return (" + "".join(f"{s}, " for s in out) + ")")
    namespace = {}
    exec(f"def make({args}):\n    def mul(a, b):\n"
         + "".join(f"        {line}\n" for line in lines) + "    return mul\n", namespace)
    return namespace["make"]


def row_reduce(rows, field: FieldSpec, ncols: int) -> int:
    """Gauss-Jordan elimination on the first ncols columns; returns the rank.

    rows is a list of lists of field codes and is reduced in place: the
    first rank rows get a pivot 1 with zeros above and below it, in
    increasing columns, and the rows after them are zero in those columns.
    """
    rank = 0
    for col in range(ncols):
        for pivot in range(rank, len(rows)):
            if rows[pivot][col]:
                break
        else:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv(rows[rank][col])
        prow = [field.mul(inv, v) for v in rows[rank]]
        rows[rank] = prow
        for r, row in enumerate(rows):
            f = row[col]
            if f and r != rank:
                rows[r] = [field.sub(a, field.mul(f, b)) for a, b in zip(row, prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def enumerate_units(algebra: Algebra) -> dict[tuple[int, ...], int]:
    """Every unit's code tuple, mapped to its multiplicative order, in
    coefficient counting order: the element census of the module docstring.

    Raises ValueError if a walk runs past |K[G]| steps, if a walk that met a
    unit leaves the units, or if an order does not divide |U|; over G = C1,
    where nothing is multiplied, if the powers of g are not the q - 1 units.
    """
    if algebra.group.order == 1:
        return _field_census(algebra)
    # code tuple -> order of a unit, 0 for a non-unit, -1 while on the current walk
    known = {algebra._one_key: 1}
    census = {}
    for x in algebra.keys():
        if x not in known:
            _power_walk(algebra, x, known)
        if known[x]:
            census[x] = known[x]
    n = len(census)
    for x, o in census.items():
        if n % o:
            raise ValueError(f"order {o} of {algebra.from_key(x)} does not divide "
                             f"|U| = {n}; not a unit?")
    return census


def _field_census(algebra: Algebra) -> dict[tuple[int, ...], int]:
    """The census of K[C1] = K off the walk of its first primitive element
    g, ``FieldSpec.primitive_powers``: g^0, ..., g^(q-2) are the q - 1
    units, each met once, and g^t has the order (q - 1) / gcd(t, q - 1)."""
    field, n = algebra.field, algebra.size - 1
    powers = field.primitive_powers()
    order = [0] * (n + 1)
    if len(powers) == n:
        for t, c in enumerate(powers):
            if not 0 < c <= n or order[c]:  # not a unit, or met twice
                break
            order[c] = n // gcd(t, n)
        else:
            return {(c,): order[c] for c in range(1, n + 1)}
    raise ValueError(f"the powers of the primitive element of {field.label()} "
                     f"are not its {n} units")


def _power_walk(algebra: Algebra, x, known: dict) -> None:
    """Walk x, x^2, ... to the first repeat, or to a known non-unit, and
    record every power in known: if the repeat is 1, x has the order o of
    the walk and x^k the order o / gcd(k, o); otherwise every power is a
    non-unit."""
    mul, one = algebra.mul_codes, algebra._one_key
    powers = [x]
    known[x] = -1
    met_unit = False
    acc = x
    while True:
        if len(powers) == algebra.size:
            raise ValueError(f"power walk of {algebra.from_key(x)} does not return "
                             f"to 1 within |K[G]| = {algebra.size} steps")
        acc = mul(acc, x)
        if acc == one:
            o = len(powers) + 1
            for k, y in enumerate(powers, 1):
                known[y] = o // gcd(k, o)
            return
        status = known.get(acc)
        if status is None:
            known[acc] = -1
        elif status > 0:
            met_unit = True  # a power is a unit, so x is one
        else:  # a repeat other than 1, or a known non-unit
            if met_unit:
                raise ValueError(f"power walk of {algebra.from_key(x)} meets a unit, "
                                 f"then leaves the unit list")
            for y in powers:
                known[y] = 0
            return
        powers.append(acc)

