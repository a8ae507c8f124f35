"""Structure of commutative group algebras as sums of field blocks.

When the characteristic does not divide |G| (Maschke), KG splits into a
direct sum of finite fields.  Otherwise G is split as P x H with P the
Sylow subgroup for the characteristic, KH is decomposed into fields, and
each field summand F contributes a local block F[P].

Rendering grammar (fixed, used in reports and golden files):
field blocks as "F4", modular blocks as "F4[C2]" or "F2[C2^2]", equal
blocks grouped with "^m", summands joined with " + ", e.g. "F2 + F4^4".
"""

import math
from collections import namedtuple
from itertools import groupby

from .algebra import Algebra
from .fields import factor_monic, make_field, prime_power_split, valuation, \
    x_power_minus_one
from .units import AbelianType, primary_partitions


class Block(namedtuple("Block", "q_base degree p_part")):
    """One summand F[P], F = F_{q_base^degree} and P a p-group for the
    characteristic; a field block F when P is trivial (p_part empty).
    p_part holds the cyclic orders of P, descending prime powers."""

    __slots__ = ()

    def __new__(cls, q_base: int, degree: int, p_part: tuple[int, ...] = ()):
        p = prime_power_split(q_base)[0]
        for o in p_part:
            if valuation(o, p)[1] != 1 or o == 1:
                raise ValueError(f"p-part order {o} is not a power of {p}")
        return super().__new__(cls, q_base, degree, p_part)

    def field_size(self) -> int:
        return self.q_base ** self.degree

    def group_size(self) -> int:
        return math.prod(self.p_part)

    def dimension(self) -> int:
        return self.degree * self.group_size()

    def unit_order(self) -> int:
        # F[P] is local: units are the elements of nonzero augmentation
        s = self.field_size()
        return (s - 1) * s ** (self.group_size() - 1)

    def sort_key(self):
        return (bool(self.p_part), self.degree, self.p_part)

    def render(self) -> str:
        if not self.p_part:
            return f"F{self.field_size()}"
        ptype = AbelianType.from_cyclic_orders(self.p_part).render().replace(" ", "")
        return f"F{self.field_size()}[{ptype}]"


class SummandList(namedtuple("SummandList", "blocks")):
    """Multiset of blocks making up a commutative group algebra, sorted."""

    __slots__ = ()

    def __new__(cls, blocks):
        return super().__new__(cls, tuple(sorted(blocks, key=lambda b: b.sort_key())))

    def dimension(self) -> int:
        return sum(b.dimension() for b in self.blocks)

    def unit_order(self) -> int:
        return math.prod(b.unit_order() for b in self.blocks)

    def all_fields(self) -> bool:
        return not any(b.p_part for b in self.blocks)

    def render(self) -> str:
        runs = [(block.render(), len(list(run))) for block, run in groupby(self.blocks)]
        return " + ".join(name if m == 1 else f"{name}^{m}" for name, m in runs)


def decompose_abelian(algebra: Algebra) -> SummandList:
    """Split KG (G abelian) into field blocks, with the Sylow part attached.

    The coprime part H is processed one cyclic factor C_n at a time: every
    current field summand F refines along the irreducible factors of
    x^n - 1 over F, multiplying block degrees accordingly.
    """
    group = algebra.group
    if not group.is_abelian():
        raise ValueError(f"{group.label} is not abelian")
    field = algebra.field
    p = field.p
    primary = primary_partitions(group.order, group.order_spectrum())
    p_part = tuple(p ** e for e in primary.get(p, ()))
    coprime = sorted(r ** e for r, lam in primary.items() if r != p for e in lam)

    degrees = [1]
    for n in coprime:
        refined = []
        for d in degrees:
            sub = make_field(p, field.k * d)
            for f, mult in factor_monic(sub, x_power_minus_one(sub, n)):
                if mult != 1:
                    raise RuntimeError("repeated factor in a coprime cyclotomic split")
                refined.append(d * (len(f) - 1))
        degrees = refined
    out = SummandList(tuple(Block(field.q, d, p_part) for d in degrees))
    if out.dimension() != group.order:
        raise RuntimeError("block dimensions do not sum to |G|")
    return out


def predicted_unit_structure(summands: SummandList) -> AbelianType | None:
    """Unit group implied by the blocks, or None when a P is not elementary.

    A field block of size s contributes C_{s-1}.  A modular block F[P]
    with F of size p^m and P elementary abelian of rank n contributes
    C_p^{m(p^n - 1)} on top of its field-unit factor.
    """
    orders: list[int] = []
    for block in summands.blocks:
        s = block.field_size()
        orders.append(s - 1)
        if block.p_part:
            p, k_base = prime_power_split(block.q_base)
            if any(o != p for o in block.p_part):
                return None
            m = k_base * block.degree
            n = len(block.p_part)
            orders.extend([p] * (m * (p ** n - 1)))
    return AbelianType.from_cyclic_orders(o for o in orders if o > 1)

