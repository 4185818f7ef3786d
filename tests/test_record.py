"""The theorem scan's per-tree record, held to the reference routes: every
tree up to n=16, seeded random trees up to n=300, and random Pruefer trees
from hypothesis."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from treecount import counting, invariants
from treecount.enumeration import (TreeRecord, all_level_sequences,
                                   random_labeled_tree, tree_from_prufer,
                                   tree_record)
from treecount.tree import Tree, canonical_form, preorder, tree_from_level_sequence


def reference(t: Tree) -> TreeRecord:
    return TreeRecord(
        n=t.n, F=counting.count_subtrees(t), Fstar=counting.count_leaf_subtrees(t),
        matching=invariants.matching_number(t), domination=invariants.domination_number(t),
        diameter=invariants.diameter(t), leaves=len(t.leaves()),
        max_degree=max(len(a) for a in t.adj))


def rooted_level_seq(t: Tree, root: int) -> tuple[int, ...]:
    """Depths in the DFS preorder from root: a level sequence rooted anywhere,
    a leaf included."""
    order, parent = preorder(t, root)
    depth = {root: 0}
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1
    return tuple(depth[v] for v in order)


@pytest.mark.parametrize("n", range(1, 17))
def test_every_tree_up_to_16(n):
    for seq in all_level_sequences(n):
        assert tree_record(seq) == reference(tree_from_level_sequence(seq)), seq


def test_seeded_random_trees():
    rng = random.Random(20240331)
    for _ in range(200):
        t = random_labeled_tree(rng.randint(1, 300), rng)
        want = reference(t)
        assert tree_record(canonical_form(t).level_seq) == want
        assert tree_record(rooted_level_seq(t, rng.randrange(t.n))) == want


def test_leaf_rooted_path_and_star():
    path = Tree(7, [(i, i + 1) for i in range(6)])
    star = Tree(7, [(0, i) for i in range(1, 7)])
    for t in (path, star):
        for root in range(t.n):
            assert tree_record(rooted_level_seq(t, root)) == reference(t)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=3, max_value=120).flatmap(
    lambda n: st.tuples(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2),
                        st.integers(0, n - 1))))
def test_random_pruefer_trees(case):
    prufer, root = case
    t = tree_from_prufer(prufer)
    want = reference(t)
    assert tree_record(canonical_form(t).level_seq) == want
    assert tree_record(rooted_level_seq(t, root)) == want
