"""The package's public names, listed in full so that any change to the
interface shows up in a diff of this file."""

import types

import hypertree_spectra

PUBLIC_NAMES = [
    "BoundResult",
    "CanonicalCode",
    "CompositionVector",
    "DeletionResult",
    "EQUAL_POLY",
    "EnumerationRecord",
    "ExtremalParams",
    "Hypergraph",
    "INCOMPARABLE",
    "InfeasibleParameters",
    "MatchPoly",
    "MatchingProfile",
    "OrderRelation",
    "PRECEDES_STRICT",
    "PRECEDES_WEAK",
    "PowerIterationError",
    "SUCCEEDS_STRICT",
    "SUCCEEDS_WEAK",
    "SpectralResult",
    "SuiteConfig",
    "SuiteResult",
    "ValidationReport",
    "VerificationReport",
    "apply_adjacency",
    "attach_pendent",
    "automorphism_count",
    "brute_force_counts",
    "build_A",
    "build_Ra",
    "build_S",
    "build_Tva",
    "build_Tvab",
    "canonical_code",
    "clear_matching_cache",
    "compare_order",
    "connected_components",
    "default_config",
    "degree",
    "delete_edge",
    "delete_edge_closed",
    "delete_vertex",
    "delete_vertices",
    "disjoint_union",
    "edge_release",
    "enumerate_T_mkr",
    "enumerate_hypertrees",
    "extremal_params",
    "from_json",
    "hyperstar",
    "is_acyclic",
    "is_isomorphic",
    "is_majorized",
    "is_pendent_edge",
    "labeled_count_from_classes",
    "labeled_hypertree_count",
    "load",
    "majorization_chain",
    "majorization_step",
    "matching_counts",
    "matching_number",
    "matching_polynomial",
    "max_edges_guard",
    "move_edges",
    "naive_filter_class_count",
    "perfect_matching_bound",
    "random_hyperforest",
    "random_hypertree",
    "relabel",
    "residual",
    "restrict",
    "rho_bound",
    "run_suite",
    "save",
    "single_edge",
    "spectral_radius_polyroot",
    "spectral_radius_power",
    "to_json",
    "tree_class_count_prufer",
    "validate",
    "verify_extremal",
    "verify_perfect_matching",
]


def test_public_names():
    """Submodules are left out: which of them are attributes of the package
    depends on what has been imported so far."""
    names = sorted(
        name
        for name, value in vars(hypertree_spectra).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
