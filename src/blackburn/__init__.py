"""Finite group toolkit built on multiplication tables.

Core machinery for table-backed finite groups, structural classifiers
(Dedekind, Q-group, R(G), Blackburn), class-preserving automorphism
enumeration with an Out_c = 1 decision procedure, and an executable
construction of p-groups carrying non-inner class-preserving automorphisms.
"""

from .catalog import (
    CATALOG,
    builtin,
    catalog_build,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    generalized_quaternion,
    q_group,
    semidirect_product,
    symmetric,
)
from .classify import (
    RStatus,
    blackburn_2group_form,
    is_blackburn,
    is_dedekind,
    is_q_group,
    q_group_witness,
    r_of,
    r_of_lattice,
    verify_normal_subgroup_trichotomy,
    verify_q_element_structure,
)
from .autos import (
    AutcReport,
    enumerate_aut,
    enumerate_autc,
    find_isomorphism,
    find_min_stabilizer_point,
    inner_automorphism,
    is_class_preserving,
    is_isomorphic,
    locally_power,
    outc_trivial,
    p_part_normalize,
    power_of,
)
from .abelian_pairs import nonabelian_contrast, pointwise_power_harness
from .core import Action, Group, GroupMap, Subgroup, identity_map, validate_group
from .counterexample import (
    action_matrix,
    base_abelian,
    build_witness,
    extend_witness,
    verify_witness,
)
from .formats import dump_cayley, load_source, parse_cayley, parse_permgen
from .suites import SuiteResult, run_suites

__all__ = [
    "Action",
    "AutcReport",
    "CATALOG",
    "Group",
    "GroupMap",
    "RStatus",
    "Subgroup",
    "action_matrix",
    "base_abelian",
    "blackburn_2group_form",
    "build_witness",
    "builtin",
    "catalog_build",
    "cyclic",
    "dihedral",
    "direct_product",
    "dump_cayley",
    "elementary_abelian",
    "enumerate_aut",
    "enumerate_autc",
    "extend_witness",
    "find_isomorphism",
    "find_min_stabilizer_point",
    "generalized_quaternion",
    "identity_map",
    "inner_automorphism",
    "is_blackburn",
    "is_class_preserving",
    "is_dedekind",
    "is_isomorphic",
    "is_q_group",
    "load_source",
    "locally_power",
    "nonabelian_contrast",
    "outc_trivial",
    "p_part_normalize",
    "parse_cayley",
    "parse_permgen",
    "pointwise_power_harness",
    "power_of",
    "run_suites",
    "SuiteResult",
    "q_group",
    "q_group_witness",
    "r_of",
    "r_of_lattice",
    "semidirect_product",
    "symmetric",
    "validate_group",
    "verify_normal_subgroup_trichotomy",
    "verify_q_element_structure",
    "verify_witness",
]
