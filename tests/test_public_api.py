"""The package's public names, listed in full so that any change to the
interface shows up in a diff of this file, and the input checks of the
public entry points."""

import re
import types

import pytest

import hypertree_spectra
from hypertree_spectra import (
    Hypergraph,
    MatchingProfile,
    SuiteConfig,
    build_S,
    edge_release,
    extremal_params,
    hyperstar,
    is_isomorphic,
    majorization_chain,
    majorization_step,
    relabel,
    residual,
    spectral_radius_polyroot,
    spectral_radius_power,
)

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


EDGE = Hypergraph(2, 3, [(0, 1)])
TRIANGLE = Hypergraph(2, 3, [(0, 1), (1, 2), (0, 2)])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: hyperstar(2, 1), "edge size must be at least 2"),
        (lambda: build_S([], 3), "need at least one star edge"),
        (lambda: build_S([-1], 3), "pendant counts must be nonnegative"),
        (lambda: extremal_params(3, 2, 1), "edge size must be at least 2"),
        (lambda: Hypergraph(2, -1), "vertex count must be nonnegative, got -1"),
        (lambda: Hypergraph(2, 3, [()]), "empty edge"),
        (lambda: relabel(EDGE, [0, 0, 1]), "not a permutation of the vertex ids"),
        (lambda: residual(EDGE, 1.0, [1.0, 1.0]), "vector has shape (2,), expected (3,)"),
        (lambda: spectral_radius_power(Hypergraph(2, 0)), "empty hypergraph has no spectrum"),
        (lambda: spectral_radius_polyroot(Hypergraph(2, 0)), "empty hypergraph has no spectrum"),
        (lambda: edge_release(TRIANGLE, (0, 1)), "edge release is defined on linear hyperforests"),
        (lambda: majorization_chain([3, 0], [2, 1]), "first vector must be majorized by the second"),
        pytest.param(
            lambda: majorization_step((3, 0), (2, 1)), "first vector must be majorized by the second", id="majorization_step"
        ),
        (lambda: MatchingProfile(()), "counts must start with m(H,0) = 1"),
        (lambda: MatchingProfile((2, 1)), "counts must start with m(H,0) = 1"),
        (lambda: MatchingProfile((1, 0)), "trailing count must be positive"),
        (
            lambda: SuiteConfig.from_json_dict({"ranges": [[2, 5]]}),
            "suite field 'ranges' must be a list of objects with 'r' and 'm_max'",
        ),
    ],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_isomorphism_needs_equal_order():
    assert not is_isomorphic(Hypergraph(2, 2, [(0, 1)]), EDGE)
