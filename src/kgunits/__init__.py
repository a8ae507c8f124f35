"""Unit groups of small group algebras over finite fields.

Catalog construction, structure certificates, and the minimum-size
isomorphic pair of group algebras with non-isomorphic groups.

The package imports lazily (PEP 562): ``from kgunits import X`` loads the
home module of X on first use, so a process pays only for the modules its
names need.
"""

# public name -> home module
_HOME = {name: module for module, names in (
    ("fields", "FieldSpec FieldElement make_field factor_monic monic_irreducibles"),
    ("groups", "Group abelian dihedral quaternion8 all_groups group_by_label"),
    ("algebra", "Algebra AlgebraElement enumerate_units"),
    ("units", "UnitGroup AbelianType"),
    ("presentations", "FpGroup Certificate Refutation parse_presentation "
                      "coset_enumeration certify_unit_group_presentation "
                      "certify_from_source"),
    ("decompose", "Block SummandList decompose_abelian predicted_unit_structure"),
    ("isoprobe", "InvariantBundle IsoWitness bundle explicit_isomorphism "
                 "compare_unit_groups scan_minimum_counterexample"),
    ("catalog", "CatalogRow Catalog build_row build_catalog verify_catalog"),
) for name in names.split()}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
