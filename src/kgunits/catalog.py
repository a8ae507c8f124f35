"""The full catalog of unit groups U(KG) with |KG| below a size bound.

Every row is certified by brute-force enumeration; rows whose structure is
also predicted by a closed form or a block decomposition carry that as their
method, meaning the prediction was computed and matched the enumeration
(dual certification).  Nonabelian rows additionally certify a published
presentation.  verify_catalog compares the computed rows against the
published reference data and adjudicates the known misprints live.
"""

import os
from collections import namedtuple
from functools import lru_cache

from .algebra import Algebra
from .decompose import decompose_abelian, predicted_unit_structure
from .expected import MISPRINTS, PRESENTATION_SOURCES, expectation_for
from .fields import algebra_shapes, check_algebra_size, make_field
from .groups import group_by_label, groups_of_order
from .presentations import Certificate, certify_from_source, coset_enumeration, \
    parse_presentation
from .units import UnitGroup, parse_structure_order, structure_string


class CatalogRow(namedtuple("CatalogRow", [
        "field", "p", "k", "group", "size",
        "decomposition",  # str, or None for a nonabelian group
        "unit_count", "structure",
        "method",  # enumeration | lemma | decomposition | presentation
        "method_detail",
        "published",  # dict, or None
        # sorted (order, count) pairs of U; for unit-group, not in as_dict
        "spectrum"], defaults=[()])):
    __slots__ = ()

    def as_dict(self) -> dict:
        row = self._asdict()
        del row["spectrum"]
        return row


@lru_cache(maxsize=None)
def build_row(p: int, k: int, label: str) -> CatalogRow:
    """One catalog row, always anchored on brute-force enumeration.  An
    algebra of size 1024 or more is refused before its units are built."""
    field = make_field(p, k)
    group = group_by_label(label)
    algebra = Algebra(field, group)
    check_algebra_size(algebra.label(), algebra.size)
    units = UnitGroup(algebra)

    if group.is_abelian():
        summands = decompose_abelian(algebra)
        decomposition = summands.render()
        if summands.unit_order() != units.order:
            raise RuntimeError(
                f"block unit-order bookkeeping fails on {algebra.label()}: "
                f"{summands.unit_order()} vs {units.order}")
        invariants = units.abelian_invariants()
        predicted = predicted_unit_structure(summands)
        if predicted is not None and predicted != invariants:
            raise RuntimeError(
                f"predicted structure {predicted.render()} disagrees with "
                f"enumerated {invariants.render()} on {algebra.label()}")
        structure = structure_string("abelian", invariants)
        if predicted is None:
            method = "enumeration"
            detail = "brute-force enumeration; no closed form for this block shape"
        elif summands.blocks[0].group_size() == group.order > 1:
            # one block F_q[P] with P = G != 1; a prediction needs P elementary
            method = "lemma"
            detail = "local-algebra closed form, matched by enumeration"
        else:
            method = "decomposition"
            detail = "blockwise prediction, matched by enumeration"
    else:
        decomposition = None
        src = PRESENTATION_SOURCES[field.label(), label]
        gens = src.build_generators(algebra)
        cert = certify_from_source(units, src.text, gens)
        if not isinstance(cert, Certificate):
            raise RuntimeError(
                f"published presentation fails on {algebra.label()}: "
                f"{cert.summary()}")
        dihedral, _ = units.recognize_dihedral()
        if dihedral:
            structure = structure_string("dihedral", units.order)
        else:
            structure = structure_string(
                "presented", (cert.order, len(cert.presentation.generator_names)))
        method = "presentation"
        detail = (f"relators verified in U, generators close over the full "
                  f"group, coset enumeration gives {cert.order} "
                  "(left commutators)")

    return CatalogRow(field=field.label(), p=p, k=k, group=label,
                      size=algebra.size, decomposition=decomposition,
                      unit_count=units.order, structure=structure,
                      method=method, method_detail=detail,
                      published=expectation_for(p, k, label),
                      spectrum=units.unit_order_spectrum())


def catalog_specs(bound: int) -> list[tuple[int, int, str]]:
    """(p, k, label) for every algebra with q^|G| < bound, in output order."""
    specs = sorted((q ** n, q, g.label, p, k)
                   for q, p, k, n in algebra_shapes(bound)
                   for g in groups_of_order(n))
    return [(p, k, label) for _, _, label, p, k in specs]


class Catalog(namedtuple("Catalog", "bound rows")):
    __slots__ = ()

    def as_dict(self) -> dict:
        return {"bound": self.bound, "rows": [r.as_dict() for r in self.rows]}


def map_jobs(fn, items: list, jobs: int) -> list:
    """[fn(x) for x in items] over w = min(jobs, len(items)) processes, or
    in this process when w is at most one or the platform has no os.fork.

    The caller forks w - 1 children; child i builds items[i::w] and pickles
    that list, or the exception it raised, into its own pipe.  Meanwhile the
    caller builds items[0::w] itself, so no process waits for work and no
    pool starts.  The caller then reads every pipe to EOF and reaps every
    child, also when its own share raised, and re-raises a child's
    exception as the child raised it."""
    w = min(jobs, len(items))
    if w <= 1 or not hasattr(os, "fork"):
        return [fn(x) for x in items]
    import pickle  # only a split pays for its import
    children, pickled = [], []
    try:
        for i in range(1, w):
            r, wr = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(wr)
                raise
            if pid == 0:
                try:
                    os.close(r)
                    try:
                        data = pickle.dumps([fn(x) for x in items[i::w]])
                    except Exception as exc:
                        data = pickle.dumps(exc)
                    with open(wr, "wb") as pipe:
                        pipe.write(data)
                finally:
                    os._exit(0)  # never return into the caller's stack
            os.close(wr)
            children.append((pid, r))
        out = [None] * len(items)
        out[0::w] = [fn(x) for x in items[0::w]]
    finally:
        for pid, r in children:
            with open(r, "rb") as pipe:
                pickled.append(pipe.read())
            os.waitpid(pid, 0)
    for i, data in enumerate(pickled, 1):
        if not data:
            raise RuntimeError(f"worker process {i} of {w} returned no result")
        share = pickle.loads(data)
        if isinstance(share, Exception):
            raise share
        out[i::w] = share
    return out


def build_catalog(bound: int = 1024, jobs: int = 1) -> Catalog:
    rows = map_jobs(lambda spec: build_row(*spec), catalog_specs(bound), jobs)
    return Catalog(bound=bound, rows=tuple(rows))


# ---------------------------------------------------------------------------
# verification against the published reference data

class VerifyReport(namedtuple("VerifyReport", [
        "bound", "row_count", "matched",
        # tuples of report lines
        "lines", "typo_lines", "mismatch_lines", "inconsistency_lines"])):
    __slots__ = ()

    @property
    def exit_code(self) -> int:
        # internal inconsistency wins over a plain mismatch
        if self.inconsistency_lines:
            return 2
        if self.mismatch_lines:
            return 1
        return 0

    def as_dict(self) -> dict:
        return {
            "bound": self.bound,
            "row_count": self.row_count,
            "matched": self.matched,
            "typos": list(self.typo_lines),
            "mismatches": list(self.mismatch_lines),
            "inconsistencies": list(self.inconsistency_lines),
            "exit_code": self.exit_code,
            "lines": list(self.lines),
        }


def verify_catalog(bound: int = 1024, jobs: int = 1,
                   rows: tuple[CatalogRow, ...] | None = None) -> VerifyReport:
    """Compare computed rows with the published data; adjudicate misprints.

    Exit code contract: 0 when everything matches (misprints allowed and
    expected), 1 on a computed-vs-published mismatch, 2 when the computed
    rows are internally inconsistent.
    """
    if rows is None:
        rows = build_catalog(bound, jobs).rows
    lines: list[str] = []
    mismatches: list[str] = []
    inconsistencies: list[str] = []
    matched = 0
    by_key = {(r.field, r.group): r for r in rows}

    for r in rows:
        tag = f"{r.field} {r.group}"
        implied = parse_structure_order(r.structure)
        if implied != r.unit_count:
            inconsistencies.append(
                f"INCONSISTENT {tag}: structure {r.structure} implies order "
                f"{implied}, unit count is {r.unit_count}")
            continue
        group = group_by_label(r.group)
        if r.size != (r.p ** r.k) ** group.order:
            inconsistencies.append(
                f"INCONSISTENT {tag}: size {r.size} is not q^|G|")
            continue
        if r.published is None:
            inconsistencies.append(
                f"INCONSISTENT {tag}: no published expectation covers this row")
            continue
        pub = r.published
        problems = []
        if pub["unit_count"] != r.unit_count:
            problems.append(f"|U| computed {r.unit_count}, published {pub['unit_count']}")
        if pub["structure"] is not None and pub["structure"] != r.structure:
            problems.append(f"structure computed {r.structure}, "
                            f"published {pub['structure']}")
        if pub["structure"] is None and r.method != "presentation":
            problems.append("published row is presentation-certified but the "
                            "computed row carries no certificate")
        if pub["decomposition"] is not None and r.decomposition is not None \
                and pub["decomposition"] != r.decomposition:
            problems.append(f"decomposition computed {r.decomposition}, "
                            f"published {pub['decomposition']}")
        if problems:
            for prob in problems:
                mismatches.append(f"MISMATCH {tag}: {prob}")
            lines.append(f"fail {tag}: " + "; ".join(problems))
        else:
            matched += 1
            lines.append(f"ok   {tag}: |U| = {r.unit_count}, {r.structure} "
                         f"[{r.method}, source {pub['source']}]")

    typo_lines = _adjudicate_misprints(by_key, inconsistencies)
    lines.extend(typo_lines)
    return VerifyReport(bound=bound, row_count=len(rows), matched=matched,
                        lines=tuple(lines), typo_lines=tuple(typo_lines),
                        mismatch_lines=tuple(mismatches),
                        inconsistency_lines=tuple(inconsistencies))


def _adjudicate_misprints(by_key: dict, inconsistencies: list) -> list[str]:
    """One TYPO line per registry entry, each re-derived from live values."""
    out = []
    for m in MISPRINTS:
        if m.kind == "decomposition":
            row = by_key.get(m.key)
            if row is None:
                continue
            if row.decomposition != m.corrected or row.decomposition == m.printed:
                inconsistencies.append(
                    f"INCONSISTENT {m.key[0]} {m.key[1]}: computed decomposition "
                    f"{row.decomposition} does not adjudicate the misprint")
                continue
            out.append(f"TYPO {m.key[0]} {m.key[1]} decomposition: printed "
                       f"{m.printed!r}, computed {row.decomposition!r} "
                       f"confirms the corrected reading")
        elif m.kind == "structure":
            row = by_key.get(m.key)
            other = by_key.get((m.key[0], "C8"))
            if row is None:
                continue
            if row.structure != "C2 x C4" or \
                    (other is not None and other.structure == "C2 x C4"):
                inconsistencies.append(
                    f"INCONSISTENT {m.key[0]} {m.key[1]}: computed structures "
                    f"do not adjudicate the printed slip")
                continue
            detail = f", U(F2C8) = {other.structure}" if other else ""
            out.append(f"TYPO {m.key[0]} {m.key[1]} structure: printed "
                       f"{m.printed!r}; computed U(F2C4) = {row.structure}"
                       f"{detail}")
        else:  # the collapsed dihedral presentation
            printed_order = coset_enumeration(parse_presentation(m.printed))
            corrected_order = coset_enumeration(parse_presentation(m.corrected))
            if printed_order != 1 or corrected_order != 6:
                inconsistencies.append(
                    "INCONSISTENT dihedral presentation misprint: enumeration "
                    f"gives {printed_order} and {corrected_order}")
                continue
            out.append(f"TYPO presentation: printed {m.printed!r} enumerates "
                       f"to order {printed_order}; corrected {m.corrected!r} "
                       f"enumerates to order {corrected_order}")
    return out
