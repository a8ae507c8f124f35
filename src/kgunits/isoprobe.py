"""Ring-isomorphism decisions for same-field, same-size group algebra pairs.

Refutation works through a bundle of three invariants compared in a fixed
order: commutativity, |U| and the unit-order spectrum.  Below the bound
1024 they refute every pair but F5[C4] ~ F5[C2xC2], where they tie.
Certification only ever happens through matching decompositions into
copies of K plus an explicitly constructed and exhaustively verified
isomorphism; invariant equality alone never certifies.  A pair with an
extension block F_{q^d}, d > 1, reads inconclusive; the first such pair,
F8[C9] ~ F8[C3xC3], has size 8^9.  ``_pair_row`` reads one pair's scan
row, its verdict and detail, straight off the two bundles, and
``compare_unit_groups`` the note on a pair of nonabelian groups.

``scan_minimum_counterexample`` walks the pairs in one sequential loop, in
ascending size: the whole scan is a fraction of a second, so a process pool
would cost more to start than it could save.  It takes each algebra's
invariants from ``bundle``, whose InvariantBundle reads them lazily, so an
algebra's units are built at most once, when a compared invariant or a
note reads them.
"""

import hashlib
from collections import namedtuple
from functools import cached_property
from itertools import combinations

from .algebra import Algebra, AlgebraElement, row_reduce
from .decompose import decompose_abelian
from .fields import algebra_shapes, make_field
from .groups import groups_of_order
from .units import UnitGroup

# comparison order is part of the output contract: the first differing
# entry names the verdict, so it must not depend on dict ordering
BUNDLE_COMPARE_FIELDS = ("commutative", "unit_count", "unit_order_spectrum")


class InvariantBundle:
    """One algebra's compared invariants, read lazily: ``commutative`` from
    the group, ``unit_count`` and ``unit_order_spectrum`` from one UnitGroup,
    built on the first read of either."""

    def __init__(self, algebra: Algebra):
        self.algebra = algebra
        self.commutative = algebra.group.is_abelian()

    @cached_property
    def units(self) -> UnitGroup:
        return UnitGroup(self.algebra)

    unit_count = property(lambda self: self.units.order)
    unit_order_spectrum = property(lambda self: self.units.unit_order_spectrum())


def bundle(algebra: Algebra) -> InvariantBundle:
    """The compared invariants of one algebra; no units are built yet."""
    return InvariantBundle(algebra)


# ---------------------------------------------------------------------------
# the isomorphism witness

class IsoWitness(namedtuple("IsoWitness", "source_label target_label images")):
    """A verified K-algebra isomorphism, stored as images of the group basis."""

    __slots__ = ()

    def apply(self, a: AlgebraElement) -> AlgebraElement:
        return _combination(a.key(), self.images)

    def checksum(self) -> str:
        text = f"{self.source_label}->{self.target_label}|" + "|".join(
            ",".join(str(c) for c in img.key()) for img in self.images)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# explicit isomorphism construction

def _combination(codes, vectors) -> AlgebraElement:
    """sum codes[t] * vectors[t] for field codes and elements of one algebra."""
    algebra = vectors[0].algebra
    add, mul = algebra.field.add, algebra.field.mul
    out = (0,) * algebra.group.order
    for c, v in zip(codes, vectors):
        if c:
            out = tuple([add(x, mul(c, y)) for x, y in zip(out, v.key())])
    return AlgebraElement(algebra, out)


def primitive_idempotents_by_search(algebra: Algebra) -> list[AlgebraElement]:
    """Minimal nonzero idempotents, by exhaustive search (size < 1024)."""
    mul = algebra.mul_codes
    nonzero = [e for e in algebra.keys() if any(e) and mul(e, e) == e]
    return [algebra.from_key(e) for e in nonzero
            if all(f == e or mul(f, e) != f for f in nonzero)]


def explicit_isomorphism(a: Algebra, b: Algebra) -> IsoWitness:
    """Build and verify a K-algebra isomorphism between two sums of copies of K.

    The witness sends the primitive idempotents of a, sorted by key, to
    those of b.  An extension block F_{q^d}, d > 1, raises ValueError, so the
    scan reads such a pair as inconclusive; the first is F8[C9] ~ F8[C3xC3],
    at size 8^9.  The map is verified on every basis product, so a bug here
    raises instead of returning a wrong witness."""
    if a.field != b.field:
        raise ValueError("explicit isomorphism needs a common coefficient field")
    sa, sb = decompose_abelian(a), decompose_abelian(b)
    if sa.blocks != sb.blocks or not sa.all_fields():
        raise ValueError("decompositions do not match as field-block multisets")
    if any(block.degree != 1 for block in sa.blocks):
        raise ValueError("the witness covers sums of copies of the coefficient field only")

    n = a.group.order
    basis_a = sorted(primitive_idempotents_by_search(a), key=AlgebraElement.key)
    basis_b = sorted(primitive_idempotents_by_search(b), key=AlgebraElement.key)
    if len(basis_a) != n or len(basis_b) != n:
        raise RuntimeError("primitive idempotents do not span the algebra")

    # invert the matrix whose columns are basis_a: the image of basis
    # element s is sum x_j basis_b[j] for the solution x of (basis_a) x = e_s
    rows = [[v.key()[i] for v in basis_a] + [int(i == s) for s in range(n)]
            for i in range(n)]
    if row_reduce(rows, a.field, n) < n:
        raise RuntimeError("block basis is singular")
    images = tuple(_combination([row[n + s] for row in rows], basis_b) for s in range(n))

    witness = IsoWitness(a.label(), b.label(), images)
    _verify_witness(a, b, witness)
    return witness


def _verify_witness(a: Algebra, b: Algebra, w: IsoWitness) -> None:
    n = a.group.order
    if len({img.key() for img in w.images}) != n:
        raise RuntimeError("witness images are not independent")
    rows = [list(img.key()) for img in w.images]
    if row_reduce(rows, a.field, n) != n:
        raise RuntimeError("witness is not bijective")
    if w.apply(a.one()) != b.one():
        raise RuntimeError("witness does not fix the identity")
    group = a.group
    for i in range(n):
        gi = w.images[i]
        for j in range(n):
            if w.images[group.mul(i, j)] != gi * w.images[j]:
                raise RuntimeError("witness is not multiplicative "
                                   f"on basis pair ({i}, {j})")


# ---------------------------------------------------------------------------
# the minimality scan

class ScanRow(namedtuple("ScanRow", [
        "size", "field", "group_a", "group_b",
        "verdict",  # isomorphic | not_isomorphic | inconclusive
        "detail"])):
    __slots__ = ()

    def as_dict(self) -> dict:
        return {"size": self.size, "field": self.field,
                "pair": [self.group_a, self.group_b],
                "verdict": self.verdict, "detail": self.detail}


class ScanReport(namedtuple("ScanReport", [
        "bound", "rows",
        "minimum",  # a ScanRow, or None
        "inconclusive", "pair_count", "expected_pair_count",
        # compare_unit_groups notes on the pairs of nonabelian groups, in row order
        "notes"])):
    __slots__ = ()

    def headline(self) -> str:
        if self.minimum is None:
            return f"no isomorphic pair below {self.bound}"
        m = self.minimum
        return (f"minimum isomorphic pair: {m.field} {m.group_a} ~ {m.group_b} "
                f"at size {m.size}")

    def as_dict(self) -> dict:
        return {
            "bound": self.bound,
            "headline": self.headline(),
            "minimum": self.minimum.as_dict() if self.minimum else None,
            "pair_count": self.pair_count,
            "expected_pair_count": self.expected_pair_count,
            "inconclusive": [r.as_dict() for r in self.inconclusive],
            "rows": [r.as_dict() for r in self.rows],
            "notes": list(self.notes),
        }


def _spectrum_text(spec: tuple[tuple[int, int], ...]) -> str:
    return "{" + ", ".join(f"{o}: {c}" for o, c in spec) + "}"


def _pair_row(ba: InvariantBundle, bb: InvariantBundle) -> ScanRow:
    """The scan row of the pair of algebras of two bundles over one field.

    The first invariant in BUNDLE_COMPARE_FIELDS that differs refutes the
    pair; none past it is read, so the bundles build no units for a pair
    that commutativity refutes.  A commutative tie where both
    decompose into the same copies of K is certified by a verified witness;
    any other tie is inconclusive.
    """
    a, b = ba.algebra, bb.algebra

    def row(verdict: str, detail: str) -> ScanRow:
        return ScanRow(a.size, a.field.label(), a.group.label, b.group.label,
                       verdict, detail)

    for name in BUNDLE_COMPARE_FIELDS:
        va, vb = getattr(ba, name), getattr(bb, name)
        if va != vb:
            if name == "unit_order_spectrum":
                va, vb = _spectrum_text(va), _spectrum_text(vb)
            return row("not_isomorphic", f"{name}: {va} vs {vb}")
    if ba.commutative:
        try:
            # raises ValueError unless both decompose into the same copies of K
            witness = explicit_isomorphism(a, b)
        except ValueError:
            pass
        else:
            return row("isomorphic", f"verified witness, checksum {witness.checksum()}")
    return row("inconclusive",
               "invariant bundle ties and no certified decomposition match")


def compare_unit_groups(ba: InvariantBundle, bb: InvariantBundle) -> dict:
    """The scan's note on the unit groups of the algebras of two bundles,
    both of nonabelian groups, as its JSON dict."""
    if ba.unit_count != bb.unit_count:
        verdict = "not isomorphic (orders differ)"
    elif ba.unit_order_spectrum != bb.unit_order_spectrum:
        verdict = "not isomorphic (element order spectra differ)"
    else:
        verdict = "inconclusive (equal orders and spectra, both nonabelian)"
    return {"pair": [f"U({ba.algebra.label()})", f"U({bb.algebra.label()})"],
            "orders": [ba.unit_count, bb.unit_count],
            "spectra": [ba.unit_order_spectrum, bb.unit_order_spectrum],
            "abelian": [ba.commutative, bb.commutative],
            "verdict": verdict}


def _scan_algebras(bound: int) -> list[tuple[int, int, int]]:
    """(p, k, n) for each prime power q and group order n >= 2 with q^n <
    bound and at least two groups of order n; sizes ascend, and q within a
    size.  Only q with q^2 < bound can give such a pair."""
    combos = []
    for q, p, k, n in algebra_shapes(bound):
        if q * q >= bound:
            break
        if n >= 2 and len(groups_of_order(n)) >= 2:
            combos.append((q ** n, q, p, k, n))
    return [(p, k, n) for _, _, p, k, n in sorted(combos)]


def scan_minimum_counterexample(bound: int = 1024) -> ScanReport:
    """Examine every same-field pair of non-isomorphic groups below the bound.

    groups_of_order holds one group per isomorphism class, so every pair of
    its groups is a pair of non-isomorphic groups.  Sizes ascend, so the
    first isomorphic verdict is the minimum counterexample; every earlier
    pair carries its refuting invariant.  Each algebra's units are built at
    most once, when a compared invariant or a note reads them.
    """
    rows, notes, counts = [], [], []
    for p, k, n in _scan_algebras(bound):
        field = make_field(p, k)
        bundles = [bundle(Algebra(field, g)) for g in groups_of_order(n)]
        counts.append(len(bundles))
        for ba, bb in combinations(bundles, 2):
            rows.append(_pair_row(ba, bb))
            if not (ba.commutative or bb.commutative):
                notes.append(compare_unit_groups(ba, bb))
    minimum = next((r for r in rows if r.verdict == "isomorphic"), None)
    inconclusive = tuple(r for r in rows if r.verdict == "inconclusive")
    return ScanReport(bound=bound, rows=tuple(rows), minimum=minimum,
                      inconclusive=inconclusive, pair_count=len(rows),
                      expected_pair_count=sum(g * (g - 1) // 2 for g in counts),
                      notes=tuple(notes))
