"""Published reference data for unit groups of group algebras below 1024.

The table rows transcribe a published catalog of unit groups U(KG) for
|KG| < 1024.  Structure strings are stored in the canonical render of
AbelianType (primes ascending, exponents ascending), so printed composite
factors like C63 appear here in primary form.  Rows where the source prints
a presentation instead of a structure carry structure=None and an entry in
PRESENTATION_SOURCES.

Misprints found while recomputing the catalog are recorded in MISPRINTS;
rows store the corrected values, the registry keeps the printed ones with
one line of recomputed evidence each.  Beyond the table, the source states
closed-form families for the smallest groups over arbitrary coefficient
fields; prose_family reproduces each one's unit structure and decomposition
under one set of guards.
Facts that only tests check, such as which published relators are
redundant, are in tests/reference_checks.py.
"""

from collections import namedtuple

from .algebra import Algebra, AlgebraElement
from .units import AbelianType


PublishedRow = namedtuple("PublishedRow", [
    "field", "group", "size",
    "decomposition",  # summand render, None where the source prints none
    "unit_count",
    "structure",      # canonical structure render, None for presented rows
    "note"], defaults=[""])


ROWS: tuple[PublishedRow, ...] = (
    # coefficient field F2
    PublishedRow("F2", "C1", 2, "F2", 1, "C1"),
    PublishedRow("F2", "C2", 4, None, 2, "C2"),
    PublishedRow("F2", "C3", 8, "F2 + F4", 3, "C3"),
    PublishedRow("F2", "C2xC2", 16, None, 8, "C2^3",
                 note="decomposition printed as an iterated group algebra, "
                      "outside the summand grammar"),
    PublishedRow("F2", "C4", 16, None, 8, "C2 x C4"),
    PublishedRow("F2", "C5", 32, "F2 + F16", 15, "C3 x C5"),
    PublishedRow("F2", "C6", 64, "F2[C2] + F4[C2]", 24, "C2^3 x C3"),
    PublishedRow("F2", "D6", 64, None, 12, "D12"),
    PublishedRow("F2", "C7", 128, "F2 + F8^2", 49, "C7^2"),
    PublishedRow("F2", "C2^3", 256, None, 128, "C2^7"),
    PublishedRow("F2", "C4xC2", 256, None, 128, "C2^5 x C4"),
    PublishedRow("F2", "C8", 256, None, 128, "C2^2 x C4 x C8"),
    PublishedRow("F2", "D8", 256, None, 128, None),
    PublishedRow("F2", "Q8", 256, None, 128, None),
    PublishedRow("F2", "C3xC3", 512, "F2 + F4^4", 81, "C3^4"),
    PublishedRow("F2", "C9", 512, "F2 + F4 + F64", 189, "C3 x C9 x C7"),
    # coefficient field F4
    PublishedRow("F4", "C1", 4, "F4", 3, "C3"),
    PublishedRow("F4", "C2", 16, None, 12, "C2^2 x C3"),
    PublishedRow("F4", "C3", 64, "F4^3", 27, "C3^3"),
    PublishedRow("F4", "C2xC2", 256, None, 192, "C2^6 x C3"),
    PublishedRow("F4", "C4", 256, None, 192, "C2^2 x C4^2 x C3"),
    # coefficient field F3
    PublishedRow("F3", "C1", 3, "F3", 2, "C2"),
    PublishedRow("F3", "C2", 9, "F3^2", 4, "C2^2"),
    PublishedRow("F3", "C3", 27, None, 18, "C2 x C3^2"),
    PublishedRow("F3", "C2xC2", 81, "F3^4", 16, "C2^4"),
    PublishedRow("F3", "C4", 81, "F3^2 + F9", 32, "C2^2 x C8"),
    PublishedRow("F3", "C5", 243, "F3 + F81", 160, "C2 x C16 x C5"),
    PublishedRow("F3", "C6", 729, None, 324, "C2^2 x C3^4"),
    PublishedRow("F3", "D6", 729, None, 324, None),
    # coefficient field F9
    PublishedRow("F9", "C1", 9, "F9", 8, "C8"),
    PublishedRow("F9", "C2", 81, "F9^2", 64, "C8^2"),
    PublishedRow("F9", "C3", 729, None, 648, "C8 x C3^4"),
    # coefficient field F5
    PublishedRow("F5", "C1", 5, "F5", 4, "C4"),
    PublishedRow("F5", "C2", 25, "F5^2", 16, "C4^2"),
    PublishedRow("F5", "C3", 125, "F5 + F25", 96, "C4 x C8 x C3"),
    PublishedRow("F5", "C2xC2", 625, "F5^4", 256, "C4^4"),
    PublishedRow("F5", "C4", 625, "F5^4", 256, "C4^4"),
)

ROW_INDEX: dict[tuple[str, str], PublishedRow] = {
    (r.field, r.group): r for r in ROWS}


Misprint = namedtuple("Misprint", [
    "key",   # (field, group) for table rows, None otherwise
    "kind",  # decomposition | structure | presentation
    "printed", "corrected", "note"])


# the printed dihedral-of-order-6 presentations adjudicated by MISPRINTS[-1]
D6_PRESENTATION_PRINTED = "x, y | x^3, y^1, y*x*y = x^2"
D6_PRESENTATION_CORRECTED = "x, y | x^3, y^2, y*x*y = x^2"

MISPRINTS: tuple[Misprint, ...] = (
    Misprint(("F2", "C5"), "decomposition", "F2 + F4", "F2 + F16",
             "x^5 - 1 over F2 factors with degrees 1 and 4, and the printed "
             "sum has the wrong dimension"),
    Misprint(("F2", "C7"), "decomposition", "F2 + F8", "F2 + F8^2",
             "x^7 - 1 over F2 has two distinct cubic factors, and the printed "
             "sum has the wrong dimension"),
    Misprint(("F3", "C4"), "decomposition", "F3^2 + F3^2", "F3^2 + F9",
             "x^4 - 1 over F3 keeps an irreducible quadratic factor, so the "
             "second summand is a field of size 9, not a repeated F3^2"),
    Misprint(("F2", "C4"), "structure", "U(F2C8) = C2 x C4", "U(F2C4) = C2 x C4",
             "the order-4 discussion names the size-256 algebra; recomputing "
             "gives U(F2C4) = C2 x C4 and U(F2C8) = C2^2 x C4 x C8"),
    Misprint(None, "presentation", D6_PRESENTATION_PRINTED, D6_PRESENTATION_CORRECTED,
             "the printed relator y^1 collapses the dihedral presentation: "
             "coset enumeration gives order 1, the corrected form gives 6"),
)


# ---------------------------------------------------------------------------
# prose families: closed forms for the smallest groups over any field F_q

def prose_family(p: int, k: int, label: str) -> tuple[AbelianType, str | None] | None:
    """Published closed form for U(F_{p^k} G): (unit structure, decomposition
    or None where the source states none), or None if no family covers it."""
    q = p ** k
    if label == "C1":
        orders, decomposition = [q - 1], f"F{q}"
    elif label == "C2" and p == 2:
        orders, decomposition = [2] * k + [q - 1], None
    elif label == "C2":
        orders, decomposition = [q - 1] * 2, f"F{q}^2"
    elif label == "C3" and p == 3:
        orders, decomposition = [3] * (2 * k) + [q - 1], None
    elif label == "C3" and (q - 1) % 3 == 0:
        orders, decomposition = [q - 1] * 3, f"F{q}^3"
    elif label == "C3":
        orders, decomposition = [q - 1, q * q - 1], f"F{q} + F{q * q}"
    elif p <= 3 or label not in ("C2xC2", "C4"):
        return None
    elif label == "C2xC2" or (q - 1) % 4 == 0:
        orders, decomposition = [q - 1] * 4, f"F{q}^4"
    else:
        orders, decomposition = [q - 1, q - 1, q * q - 1], f"F{q}^2 + F{q * q}"
    return AbelianType(orders), decomposition


def expectation_for(p: int, k: int, label: str) -> dict | None:
    """Published expectation for U(F_{p^k} G), merging table and prose.

    The dict a catalog row carries as ``published``: source (table, prose
    or both), unit_count, structure (None for presented rows),
    decomposition, note, and the row's typos from MISPRINTS.  None where
    neither source covers the row.  Rows covered by both sources must
    agree; a conflict raises, because it would mean the transcription
    itself is inconsistent.
    """
    field_label = f"F{p ** k}"
    row = ROW_INDEX.get((field_label, label))
    family = prose_family(p, k, label)
    if row is None and family is None:
        return None
    prose, prose_dec = family or (None, None)
    if prose is not None and row is not None and row.structure is not None:
        if row.structure != prose.render():
            raise RuntimeError(
                f"table and prose disagree for {field_label} {label}: "
                f"{row.structure} vs {prose.render()}")
        if row.unit_count != prose.order():
            raise RuntimeError(
                f"table count and prose order disagree for {field_label} {label}")
        if row.decomposition is not None and prose_dec is not None \
                and row.decomposition != prose_dec:
            raise RuntimeError(
                f"table and prose decompositions disagree for {field_label} {label}")
    if row is not None:
        published = {"source": "both" if prose is not None else "table",
                     "unit_count": row.unit_count, "structure": row.structure,
                     "decomposition": row.decomposition or prose_dec,
                     "note": row.note}
    else:
        published = {"source": "prose", "unit_count": prose.order(),
                     "structure": prose.render(), "decomposition": prose_dec,
                     "note": ""}
    published["typos"] = [
        {"kind": m.kind, "printed": m.printed, "corrected": m.corrected}
        for m in MISPRINTS if m.key == (field_label, label)]
    return published


# ---------------------------------------------------------------------------
# published unit-group presentations for the nonabelian rows

PresentationSource = namedtuple("PresentationSource", [
    "text",
    "build_generators",  # Algebra -> {generator name: AlgebraElement}
])


def _gens_f2d6(algebra: Algebra) -> dict[str, AlgebraElement]:
    x = algebra.group_element("x")
    y = algebra.group_element("y")
    one = algebra.one()
    w = one + x * x + y + x * y + x * x * y
    return {"w": w, "y": y}


def _gens_f2_order8(algebra: Algebra) -> dict[str, AlgebraElement]:
    x = algebra.group_element("x")
    y = algebra.group_element("y")
    return {"x": x, "y": y, "a": x + y + x * y}


def _gens_f3d6(algebra: Algebra) -> dict[str, AlgebraElement]:
    x = algebra.group_element("x")
    y = algebra.group_element("y")
    one = algebra.one()
    x2 = x * x
    return {"v1": -x2, "v2": one - x2 + y, "v3": one + (x - x2) * (one - y)}


PRESENTATION_SOURCES: dict[tuple[str, str], PresentationSource] = {
    ("F2", "D6"): PresentationSource(
        text="w, y | w^6, y^2, y*w*y = w^5",
        build_generators=_gens_f2d6,
    ),
    ("F2", "D8"): PresentationSource(
        text="x, y, a | x^4, y^2, [a,x]^2, [a,y]^2, a^4, [x,y] = x^2, "
             "[a^2,x], [a^2,y], [a,x,y], [x^2,a]",
        build_generators=_gens_f2_order8,
    ),
    ("F2", "Q8"): PresentationSource(
        text="x, y, a | x^4, [a,x]^2, [a,y]^2, a^4, y^2 = x^2, [x,y] = x^2, "
             "[a^2,x], [a^2,y], [a,x,y], [x^2,a]",
        build_generators=_gens_f2_order8,
    ),
    ("F3", "D6"): PresentationSource(
        text="v1, v2, v3 | v1^6, v2^6, v3^3, [v1^3,v2], [v1^3,v3], "
             "[v2^2,v1], [v2^2,v3], v3*v2 = v1*v2*v1*v3^2, "
             "v3*v1 = v2*v1^5*v2^5*v3, "
             "v2*v1 = v1^2*v2*v1^2*v2*v1*v2^-1*v1^2",
        build_generators=_gens_f3d6,
    ),
}
