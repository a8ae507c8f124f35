"""Unit-group structure: order spectra and abelian invariants.

The units and their multiplicative orders come from one call to
``enumerate_units``, the element census of algebra.py: it maps each unit's
code tuple to its order, in counting order.  ``UnitGroup.census`` keeps that
dict as the group's only record, and the order spectrum is counted from it
once, with no second walk, into one shared tuple of sorted (order, count)
pairs.  The census raises ValueError on a walk that runs past |K[G]| steps
or leaves the units after meeting one, and on an order not dividing |U|.

Abelian invariants are recovered purely from order statistics by
``abelian_type``: for each prime r dividing |U|, the counts of solutions of
u^(r^i) = 1 determine the elementary divisors of the r-primary component.
Nothing here assumes any structure theory of the algebra; it only multiplies
units.  ``recognize_dihedral`` searches for a dihedral witness; no catalog
row calls it.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property

from .algebra import Algebra, enumerate_units
from .fields import prime_factors, valuation


class AbelianType(tuple):
    """Isomorphism type of a finite abelian group: its elementary divisors,
    the prime-power orders of its primary cyclic factors, sorted by prime and
    then ascending.  AbelianType(orders) splits each cyclic order into prime
    powers, so AbelianType([6, 4]) == (2, 4, 3) and 1 adds nothing."""

    __slots__ = ()

    def __new__(cls, orders):
        divisors = []
        for n in orders:
            if n < 1:
                raise ValueError("cyclic factor orders must be positive")
            divisors += [p ** valuation(n, p)[0] for p in prime_factors(n)]
        return super().__new__(cls, sorted(divisors, key=lambda d: (prime_factors(d), d)))

    def order(self) -> int:
        return math.prod(self)

    def render(self) -> str:
        """Canonical string: primes ascending, exponents ascending, e.g. C2^5 x C4."""
        return " x ".join(f"C{d}" if m == 1 else f"C{d}^{m}"
                          for d, m in Counter(self).items()) or "C1"

    @classmethod
    def parse(cls, text: str) -> "AbelianType":
        """The type a structure string names: cyclic factors Cn or Cn^m joined by ' x '.

        Reads back what render writes; raises ValueError on any other text.
        """
        orders: list[int] = []
        for part in text.split(" x "):
            base, _, mult = part.partition("^")
            if not base.startswith("C"):
                raise ValueError(f"not an abelian structure string: {text!r}")
            orders += [int(base[1:])] * int(mult or 1)
        parsed = cls(orders)
        if parsed.render() != text:
            raise ValueError(f"not a canonical structure string: {text!r}")
        return parsed

    def __str__(self):
        return self.render()


def abelian_type(order: int, spectrum) -> AbelianType:
    """Type of an abelian group of the given order from its order spectrum,
    (element order, count) pairs.

    For each prime r | order, s_i = log_r #{x : x^(r^i) = 1}.  Elementary
    divisors r^l1, r^l2, ... give s_i = sum(min(lj, i)), so s_(i+1) - s_i
    counts the lj > i, and the drop between consecutive differences is the
    multiplicity of r^i.  ValueError when a count is not a power of r, the
    identity's count is not 1, or the differences rise; RuntimeError when
    the type's order is not ``order``.
    """
    divisors: list[int] = []
    for r in prime_factors(order):
        s = []
        for i in range(valuation(order, r)[0] + 1):
            count = sum(c for o, c in spectrum if r ** i % o == 0)
            e, rest = valuation(count, r)
            if rest != 1:
                raise ValueError(f"{count} elements killed by {r}^{i} is not a power of {r}")
            s.append(e)
        s.append(s[-1])  # r^(e+1) kills no more than r^e
        diffs = [b - a for a, b in zip(s, s[1:])]
        if s[0] or any(a < b for a, b in zip(diffs, diffs[1:])):
            raise ValueError(f"inconsistent order spectrum {spectrum} at prime {r}")
        for i in range(1, len(diffs)):
            divisors += [r ** i] * (diffs[i - 1] - diffs[i])
    found = AbelianType(divisors)
    if found.order() != order:
        raise RuntimeError(f"type {found} does not have the group order {order}")
    return found


class UnitGroup:
    """The group of invertible elements of a group algebra, fully enumerated."""

    def __init__(self, algebra: Algebra):
        self.algebra = algebra
        # unit code tuple -> multiplicative order, in counting order
        self.census = enumerate_units(algebra)
        self.order = len(self.census)

    def __repr__(self):
        return f"UnitGroup({self.algebra.label()}, order={self.order})"

    def is_abelian(self) -> bool:
        # the group-element basis sits inside U, so U is abelian exactly when
        # the algebra is commutative, i.e. when G is
        return self.algebra.group.is_abelian()

    def _order_list(self):
        """Multiplicative order of every unit, in counting order, as the
        element census of enumerate_units found them."""
        return tuple(self.census.values())

    def unit_order_spectrum(self) -> tuple[tuple[int, int], ...]:
        """Sorted (element order, number of units) pairs, counted once; every
        call returns the same immutable tuple."""
        return self._spectrum

    @cached_property
    def _spectrum(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(Counter(self._order_list()).items()))

    def abelian_invariants(self) -> AbelianType:
        """Elementary divisors of an abelian unit group from order counts."""
        if not self.is_abelian():
            raise ValueError(f"{self.algebra.label()} has a nonabelian unit group")
        return abelian_type(self.order, self.unit_order_spectrum())

    def recognize_dihedral(self):
        """(True, (r, s)) if U is dihedral of its order, witnessed; else (False, None).

        Only defined for |U| >= 6; the Klein four group is reported as
        abelian C2^2, not as a degenerate dihedral group.
        """
        if self.order < 6:
            raise ValueError("dihedral recognition needs |U| >= 6")
        if self.order % 2 or self.is_abelian():
            return (False, None)
        m = self.order // 2
        mul = self.algebra.mul_codes
        for r, order_r in self.census.items():
            if order_r != m:
                continue
            powers = [r]
            while len(powers) < m:
                powers.append(mul(powers[-1], r))
            r_inv = powers[-2]  # r^(m-1)
            in_r = set(powers)
            for s, order_s in self.census.items():
                if order_s != 2 or s in in_r:
                    continue
                if mul(mul(s, r), s) == r_inv:
                    return (True, (self.algebra.from_key(r), self.algebra.from_key(s)))
        return (False, None)

    def closure(self, gens) -> int:
        """Size of the subgroup generated by the given units (BFS)."""
        gens = list(gens)
        for g in gens:
            self.algebra._check(g)
            if g.key() not in self.census:
                raise ValueError(f"generator {g} is not a unit of {self.algebra.label()}")
        mul = self.algebra.mul_codes
        keys = [g.key() for g in gens]
        frontier = [self.algebra.one().key()]
        seen = set(frontier)
        while frontier:
            cur = frontier.pop()
            for g in keys:
                nxt = mul(cur, g)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return len(seen)
