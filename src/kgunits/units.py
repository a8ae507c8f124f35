"""Unit-group structure: order spectra and abelian invariants.

The units and their multiplicative orders come from one call to
``enumerate_units``, the element census of algebra.py: it maps each unit's
code tuple to its order, in counting order.  ``UnitGroup.census`` keeps that
dict as the group's only record, and the order spectrum is counted from it
once, with no second walk, into one shared tuple of sorted (order, count)
pairs.  The census raises ValueError on a walk that runs past |K[G]| steps
or leaves the units after meeting one, and on an order not dividing |U|.

Abelian invariants are recovered purely from order statistics by
``primary_partitions``: for each prime r dividing |U|, the counts N_i of
solutions of u^(r^i) = 1 determine the partition of the r-primary component,
and the recovered partition is checked by reproducing the counts.  Nothing
here assumes any structure theory of the algebra; it only multiplies units.
``recognize_dihedral`` searches for a dihedral witness; no catalog row calls it.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from functools import cached_property

from .algebra import Algebra, enumerate_units
from .fields import prime_factors, valuation


def _int_log(base: int, n: int) -> int:
    """Exact logarithm; raises if n is not a power of base."""
    e, rest = valuation(n, base)
    if rest != 1:
        raise ValueError(f"{n} is not a power of {base}")
    return e


def partition_from_power_counts(r: int, counts: list[int]) -> tuple[int, ...]:
    """Recover the partition of an abelian r-group from solution counts.

    counts[i] must be the number of elements killed by r^i (counts[0] = 1).
    If the r-group has invariants r^l1 >= r^l2 >= ..., then
    counts[i] = r ** sum(min(lj, i)), which pins the partition uniquely.
    """
    s = [_int_log(r, c) for c in counts]
    conj = [s[i + 1] - s[i] for i in range(len(s) - 1)]
    if any(c < 0 for c in conj) or any(conj[i] < conj[i + 1] for i in range(len(conj) - 1)):
        raise ValueError(f"inconsistent solution counts {counts} for prime {r}")
    parts = tuple(sorted((sum(1 for c in conj if c >= j) for j in range(1, (conj[0] if conj else 0) + 1)),
                         reverse=True))
    # round trip: the partition must reproduce every count
    for i in range(len(s)):
        if sum(min(l, i) for l in parts) != s[i]:
            raise ValueError(f"partition {parts} does not reproduce counts {counts}")
    return parts


def primary_partitions(order: int, spectrum) -> dict[int, tuple[int, ...]]:
    """Per-prime partitions of an abelian group from its order spectrum.

    spectrum holds (element order, count) pairs.  The recovered cyclic
    orders must multiply up to the group order; otherwise RuntimeError.
    """
    parts: dict[int, tuple[int, ...]] = {}
    total = 1
    for r in prime_factors(order):
        counts = [sum(c for d, c in spectrum if r ** i % d == 0)
                  for i in range(valuation(order, r)[0] + 1)]
        parts[r] = partition_from_power_counts(r, counts)
        total *= r ** sum(parts[r])
    if total != order:
        raise RuntimeError(f"primary partitions {parts} do not multiply up to "
                           f"the group order {order}")  # unreachable
    return parts


class AbelianType(namedtuple("AbelianType", "primary")):
    """Isomorphism type of a finite abelian group: partitions per prime,
    primary = ((prime, descending partition), ...)."""

    __slots__ = ()

    @classmethod
    def from_primary(cls, parts: dict[int, tuple[int, ...]]) -> "AbelianType":
        clean = []
        for p in sorted(parts):
            lam = tuple(sorted((e for e in parts[p] if e > 0), reverse=True))
            if lam:
                clean.append((p, lam))
        return cls(tuple(clean))

    @classmethod
    def from_cyclic_orders(cls, orders) -> "AbelianType":
        parts: dict[int, list[int]] = {}
        for n in orders:
            if n < 1:
                raise ValueError("cyclic factor orders must be positive")
            for p in prime_factors(n):
                parts.setdefault(p, []).append(valuation(n, p)[0])
        return cls.from_primary({p: tuple(v) for p, v in parts.items()})

    def order(self) -> int:
        return math.prod(p ** e for p, lam in self.primary for e in lam)

    def render(self) -> str:
        """Canonical string: primes ascending, exponents ascending, e.g. C2^5 x C4."""
        if not self.primary:
            return "C1"
        return " x ".join(f"C{p ** e}" if m == 1 else f"C{p ** e}^{m}"
                          for p, lam in self.primary
                          for e, m in sorted(Counter(lam).items()))

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
        parsed = cls.from_cyclic_orders(orders)
        if parsed.render() != text:
            raise ValueError(f"not a canonical structure string: {text!r}")
        return parsed

    def __str__(self):
        return self.render()


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
        """Primary decomposition of an abelian unit group from order counts."""
        if not self.is_abelian():
            raise ValueError(f"{self.algebra.label()} has a nonabelian unit group")
        parts = primary_partitions(self.order, self.unit_order_spectrum())
        return AbelianType.from_primary(parts)

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
