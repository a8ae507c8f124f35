"""Unit groups of small group algebras over finite fields.

Catalog construction, structure certificates, and the minimum-size
isomorphic pair of group algebras with non-isomorphic groups.
"""

from .fields import FieldSpec, FieldElement, make_field, factor_monic, monic_irreducibles
from .groups import (Group, cyclic, direct_product, dihedral, quaternion8,
                     groups_up_to_order, group_by_label)
from .algebra import Algebra, AlgebraElement, enumerate_units
from .units import UnitGroup, AbelianType, structure_string
from .presentations import (FpGroup, Certificate, Refutation, parse_presentation,
                            coset_enumeration, certify_unit_group_presentation,
                            certify_from_source)
from .decompose import (Block, SummandList, decompose_abelian,
                        predicted_unit_structure)
from .isoprobe import (InvariantBundle, IsoWitness, bundle, explicit_isomorphism,
                       compare_unit_groups, scan_minimum_counterexample)
from .catalog import CatalogRow, Catalog, build_row, build_catalog, verify_catalog

__all__ = [
    "FieldSpec", "FieldElement", "make_field", "factor_monic",
    "monic_irreducibles", "Group", "cyclic", "direct_product", "dihedral",
    "quaternion8", "groups_up_to_order", "group_by_label",
    "Algebra", "AlgebraElement",
    "enumerate_units", "UnitGroup", "AbelianType",
    "structure_string", "FpGroup", "Certificate", "Refutation",
    "parse_presentation", "coset_enumeration", "certify_unit_group_presentation",
    "certify_from_source", "Block", "SummandList",
    "decompose_abelian", "predicted_unit_structure", "InvariantBundle",
    "IsoWitness", "bundle", "explicit_isomorphism", "compare_unit_groups",
    "scan_minimum_counterexample", "CatalogRow", "Catalog", "build_row",
    "build_catalog", "verify_catalog",
]
