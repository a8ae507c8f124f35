"""Facts about the published reference data, and reference derivations,
that only tests read.

kgunits.expected holds what the commands use: the rows, the misprints and
the presentation texts with their generators.  This module holds what the
tests check on top of them: which relators of each published presentation
are provably redundant, the alternate printed texts in circulation, the
commutator form of the dihedral presentation, and the consistency check of
the transcription.  It also holds ``tower_blocks``, the field blocks of an
abelian K[G] found by factoring x^n - 1 over a tower of fields, which
``decompose_abelian`` must match, and the helpers that more than one test
module uses: ``make_algebra``, ``make_units`` and ``load_by_path``.
"""

import importlib.util

from kgunits import expected
from kgunits.algebra import Algebra
from kgunits.catalog import parse_structure_order
from kgunits.decompose import Block, SummandList
from kgunits.fields import factor_monic, make_field
from kgunits.groups import group_by_label
from kgunits.units import UnitGroup, abelian_type

# 0-based relators of each published presentation that the others imply
REDUNDANT_RELATORS: dict[tuple[str, str], tuple[int, ...]] = {
    ("F2", "D6"): (),
    ("F2", "D8"): (),
    ("F2", "Q8"): (0,),
    ("F3", "D6"): (0, 3, 4, 9),
}

# (name, alternate printed text) pairs of a published presentation
PRESENTATION_VARIANTS: dict[tuple[str, str], tuple[tuple[str, str], ...]] = {
    ("F3", "D6"): (
        # alternate printed form; relator 9 there does not hold in U
        ("alternate", "v1, v2, v3 | v1^6, v2^6, v3^3, [v1^3,v2], [v1^3,v3], "
                      "[v2^2,v1], [v2^2,v3], v3*v2 = v1*v2*v1*v3^2, "
                      "v3*v1 = v2*v1^5*v3^5, "
                      "v2*v1 = v1^2*v2*v1^2*v2*v1*v2^-1*v1^2"),
    ),
}

# an equivalent commutator form; it enumerates to 6 only under the left
# convention [a, b] = a^-1 b^-1 a b, which pins the convention used throughout
D6_PRESENTATION_COMMUTATOR = "x, y | x^3, y^2, [x,y] = x"


def validate_reference_data() -> None:
    """Internal consistency of the transcription; raises on any defect.

    Reads the tables through the module, so a test can patch them."""
    rows, row_index, misprints = expected.ROWS, expected.ROW_INDEX, expected.MISPRINTS
    if len(row_index) != len(rows):
        raise RuntimeError("duplicate (field, group) keys in ROWS")
    for row in rows:
        # None, so a mismatch, for a structure not in the canonical render
        if row.structure is not None \
                and parse_structure_order(row.structure) != row.unit_count:
            raise RuntimeError(
                f"structure and count disagree on {row.field} {row.group}")
        if row.structure is None \
                and (row.field, row.group) not in expected.PRESENTATION_SOURCES:
            raise RuntimeError(
                f"row {row.field} {row.group} has neither structure nor presentation")
    if len(misprints) != 5:
        raise RuntimeError("misprint registry must list exactly the known five")
    for m in misprints:
        if m.printed == m.corrected:
            raise RuntimeError("misprint entries must actually differ")
        if m.key is not None and m.kind == "decomposition":
            if row_index[m.key].decomposition != m.corrected:
                raise RuntimeError(f"row {m.key} does not store the corrected value")


def x_power_minus_one(spec, n: int) -> tuple[int, ...]:
    """x^n - 1 over spec, as a tuple of codes (index = degree)."""
    return (spec.neg(1),) + (0,) * (n - 1) + (1,)


def tower_blocks(algebra, calls=None):
    """The SummandList of an abelian K[G], K = F_{p^k}, by factoring: the
    coprime part of G is taken one cyclic factor C_n at a time, and every
    field summand F_{p^(k d)} refines along the irreducible factors of
    x^n - 1 over it, multiplying block degrees accordingly.  Each (field,
    x^n - 1) factored is appended to calls, when given."""
    group, field = algebra.group, algebra.field
    p = field.p
    divisors = abelian_type(group.order, group.order_spectrum())
    p_part = tuple(sorted((d for d in divisors if d % p == 0), reverse=True))
    coprime = sorted(d for d in divisors if d % p)
    degrees = [1]
    for n in coprime:
        refined = []
        for d in degrees:
            sub = make_field(p, field.k * d)
            f = x_power_minus_one(sub, n)
            if calls is not None:
                calls.append((sub, f))
            for g, mult in factor_monic(sub, f):
                assert mult == 1, "repeated factor in a coprime cyclotomic split"
                refined.append(d * (len(g) - 1))
        degrees = refined
    return SummandList(Block(field.q, d, p_part) for d in degrees)


def make_algebra(p, k, label):
    """F_{p^k}[G] for the group G of the given label."""
    return Algebra(make_field(p, k), group_by_label(label))


def make_units(p, k, label):
    """The unit group of make_algebra(p, k, label), enumerated."""
    return UnitGroup(make_algebra(p, k, label))


def load_by_path(path):
    """The Python file at path, loaded as a module of its own, in this process."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
