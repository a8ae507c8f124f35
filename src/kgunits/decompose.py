"""Structure of commutative group algebras as sums of field blocks.

G is split as P x H with P the Sylow subgroup for the characteristic p of
K = F_q.  KH is a sum of fields (Maschke), one F_{q^d} for each orbit of
x -> x^q on H, counted off G's order spectrum (see ``decompose_abelian``),
and each field summand F contributes a local block F[P].

Rendering grammar (fixed, used in reports and golden files):
field blocks as "F4", modular blocks as "F4[C2]" or "F2[C2^2]", equal
blocks grouped with "^m", summands joined with " + ", e.g. "F2 + F4^4".
"""

import math
from collections import namedtuple
from itertools import groupby

from .algebra import Algebra
from .fields import prime_power_split, valuation
from .units import AbelianType, abelian_type


class Block(namedtuple("Block", "q_base degree p_part")):
    """One summand F[P], F = F_{q_base^degree} and P a p-group for the
    characteristic; a field block F when P is trivial (p_part empty).
    p_part holds the cyclic orders of P, descending prime powers."""

    __slots__ = ()

    def __new__(cls, q_base: int, degree: int, p_part: tuple[int, ...] = ()):
        split = prime_power_split(q_base)
        if split is None or degree < 1:
            raise ValueError(f"a block needs a prime power q_base and a degree "
                             f"of at least 1, got {q_base} and {degree}")
        p = split[0]
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
        ptype = AbelianType(self.p_part).render().replace(" ", "")
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
    """Split KG (G abelian, K = F_q) into field blocks with the Sylow part
    attached, without factoring a polynomial.

    The n elements of H of an order o (p does not divide o) fall into n / d
    orbits of x -> x^q, where d = ord_o(q) is the least d with o | q^d - 1.
    Each orbit gives one block F_{q^d}[P]: over F_q the cyclotomic
    polynomial of order o splits into phi(o) / ord_o(q) irreducibles of
    degree ord_o(q) (Lidl & Niederreiter, Finite Fields, Thm 2.47).
    """
    group = algebra.group
    if not group.is_abelian():
        raise ValueError(f"{group.label} is not abelian")
    p, q = algebra.field.p, algebra.field.q
    spectrum = group.order_spectrum()
    p_part = tuple(sorted((d for d in abelian_type(group.order, spectrum) if d % p == 0),
                          reverse=True))
    blocks = []
    for o, n in spectrum:
        if o % p:
            d = next(d for d in range(1, o + 1) if (q ** d - 1) % o == 0)
            blocks += [Block(q, d, p_part)] * (n // d)
    out = SummandList(blocks)
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
    return AbelianType(orders)

