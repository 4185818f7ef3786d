"""treecount: exact subtree counting on trees, extremal tree families with
closed-form counts, count-monotone rewrites, exhaustive generation of
non-isomorphic trees, and a verifier that re-checks every extremal claim by
brute force."""

__version__ = "0.1.0"

from .counting import (CountReport, anchored_counts, count_leaf_subtrees,
                       count_leaf_subtrees_at, count_report, count_subtrees,
                       count_subtrees_at, count_subtrees_at_pair, subtree_totals,
                       wiener_index)
from .enumeration import (TreeConstraint, all_trees, random_labeled_tree,
                          tree_from_prufer, trees_matching)
from .families import ClosedForm, FamilySpec, closed_form, construct
from .invariants import (InvariantProfile, domination_number, has_perfect_matching,
                         invariant_profile, matching_number)
from .transforms import (TransformSpec, a_transform, apply_transform, b_transform,
                         c_anchors, c_transform)
from .tree import (CanonicalForm, PathDecomposition, RootedComponent, Tree,
                   canonical_form, centers, is_isomorphic, parse_tree,
                   path_between, path_decomposition, serialize_tree,
                   strip_leaves, tree_from_level_sequence)
from .verify import (LEMMA_TAGS, THEOREM_TAGS, VerificationResult,
                     run_lemma_suite, verify_theorem)

__all__ = [
    "CanonicalForm", "ClosedForm", "CountReport", "FamilySpec",
    "InvariantProfile", "LEMMA_TAGS", "PathDecomposition", "RootedComponent",
    "THEOREM_TAGS", "TransformSpec", "Tree", "TreeConstraint",
    "VerificationResult", "a_transform", "all_trees", "anchored_counts",
    "apply_transform", "b_transform", "c_anchors", "c_transform", "canonical_form",
    "centers", "closed_form", "construct", "count_leaf_subtrees",
    "count_leaf_subtrees_at", "count_report", "count_subtrees",
    "count_subtrees_at", "count_subtrees_at_pair", "domination_number",
    "has_perfect_matching", "invariant_profile", "is_isomorphic",
    "matching_number", "oracle_counts", "oracle_pair_count", "parse_tree",
    "path_between", "path_decomposition", "random_labeled_tree",
    "run_lemma_suite", "serialize_tree", "strip_leaves", "subtree_totals",
    "tree_from_prufer", "tree_from_level_sequence", "trees_matching",
    "verify_theorem", "wiener_index",
]


def __getattr__(name: str):
    # the brute-force oracle is loaded on first use, since no command needs it
    if name in ("oracle_counts", "oracle_pair_count"):
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
